"""Command-line front end for the search, factor, halt-probe and circuit pipelines.

Every subcommand emits a run report, as JSON (``--format json``) or text.
Exit status: 0 on success, 1 on runtime/I-O errors, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import circuit, core, factoring, halting, search, selftest

log = logging.getLogger("gacalc")


class UsageError(ValueError):
    """Bad argument values; reported like an argparse error (exit status 2)."""


@dataclass
class RunReport:
    command: str
    params: dict
    result: dict
    counters: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _parse_int_set(
    spec: str, width: int, terms_per_value: int = 1, what: str = "integer set"
) -> set[int]:
    """Comma-separated integers and inclusive ``a..b`` ranges in [0, 2^width).

    Each value and range end is checked, then the distinct values of the
    merged ranges against ``core.MAX_TERMS`` at ``terms_per_value`` terms per
    value, before any range is expanded.  A malformed spec is a UsageError.
    """
    spans = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        lo_s, dots, hi_s = token.partition("..")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dots else lo
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for value in (lo, hi):
            if value < 0 or value >> width:
                raise UsageError(f"{value} outside [0, 2^{width})")
        if hi < lo:
            raise UsageError(f"empty range {token!r}")
        spans.append((lo, hi))
    # Overlapping or adjacent ranges merge, so each value is counted and
    # expanded once.
    merged: list[list[int]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    core.check_terms(terms_per_value * sum(hi - lo + 1 for lo, hi in merged), what)
    return {value for lo, hi in merged for value in range(lo, hi + 1)}


def cmd_search(args: argparse.Namespace) -> RunReport:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    try:
        # The search state holds two terms per value: refuse it before expansion.
        elements = _parse_int_set(args.set, args.n, 2, "search state")
    except ValueError as exc:
        raise UsageError(f"bad --set value: {exc}") from None
    if (args.marked is None) == (args.mod is None):
        raise UsageError("exactly one of --marked or --mod is required")
    if args.marked is not None:
        try:
            marked = _parse_int_set(args.marked, args.n)
        except ValueError as exc:
            raise UsageError(f"bad --marked value: {exc}") from None
        predicate = lambda x: x in marked
        predicate_desc = {"kind": "set", "marked": sorted(marked)}
    else:
        try:
            a_s, _, b_s = args.mod.partition(":")
            a, b = int(a_s), int(b_s)
            if a <= 0:
                raise ValueError("modulus must be positive")
        except ValueError as exc:
            raise UsageError(f"bad --mod value (want a:b for x mod a == b): {exc}") from None
        predicate = lambda x: x % a == b
        predicate_desc = {"kind": "mod", "a": a, "b": b}

    start = time.perf_counter()
    matches, oracle = search.run_search(elements, predicate, args.n)
    elapsed = time.perf_counter() - start
    return RunReport(
        command="search",
        params={"n": args.n, "set_size": len(elements), "predicate": predicate_desc},
        result={"matches": sorted(matches)},
        counters={
            "oracle_op_count": oracle.op_count,
            "oracle_eval_count": oracle.eval_count,
            "terms_before": 2 * len(elements),
            "terms_after": 2 * len(matches),  # one written pair per marked value
        },
        wall_time_s=elapsed,
    )


def cmd_factor(args: argparse.Namespace) -> RunReport:
    start = time.perf_counter()
    try:
        stats = factoring.factor_pipeline(args.z, args.n, route=args.route)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    elapsed = time.perf_counter() - start
    result = {"divisors": stats["divisors"]}
    if args.dump_state:
        result["state"] = core.to_records(stats["state"])
        result["dimension"] = stats["state"].dimension
    return RunReport(
        command="factor",
        params={"z": args.z, "n": args.n, "route": args.route},
        result=result,
        counters={
            "terms_before": stats["terms_before"],
            "terms_after": stats["terms_after"],
            "multiply_passes": stats["multiply_passes"],
            **{k: stats[k] for k in ("gates", "tiles", "plane_ops", "table_lookups") if k in stats},
        },
        wall_time_s=elapsed,
    )


def cmd_halt_probe(args: argparse.Namespace) -> RunReport:
    spec = halting.load_machine(args.machine)
    if args.tape < 1:
        raise UsageError("--tape must be at least 1")
    try:
        config = halting.parse_tape(args.input, args.tape, head=args.head)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    start = time.perf_counter()
    report = halting.probe_report(spec, config, args.steps, mode=args.mode)
    elapsed = time.perf_counter() - start
    return RunReport(
        command="halt-probe",
        params={
            "machine": args.machine,
            "input": args.input,
            "head": args.head,
            "steps": args.steps,
            "tape": args.tape,
            "mode": args.mode,
        },
        result=report,
        wall_time_s=elapsed,
    )


def cmd_circuit(args: argparse.Namespace) -> RunReport:
    with open(args.netlist, "r", encoding="utf-8") as fh:
        netlist = circuit.parse_netlist(fh.read())
    try:
        values = [int(v) for v in args.inputs.split(",")] if args.inputs else []
        memory = circuit.load_memory(netlist, values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    start = time.perf_counter()
    final = circuit.run_netlist(netlist, memory)
    elapsed = time.perf_counter() - start
    outputs = circuit.read_outputs(netlist, final)
    mask = final.mask
    bits = ["".join(str(mask >> p & 1) for p in group) for group in netlist.output_groups]
    return RunReport(
        command="circuit",
        params={"netlist": args.netlist, "inputs": values},
        result={"outputs": outputs, "output_bits": bits, "blade_sign": final.sign},
        counters={"gates": len(netlist.gates)},
        wall_time_s=elapsed,
    )


def cmd_selftest(args: argparse.Namespace) -> RunReport:
    start = time.perf_counter()
    try:
        results = selftest.run_selftest(args.filter)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    elapsed = time.perf_counter() - start
    return RunReport(
        command="selftest",
        params={"filter": args.filter},
        result={
            "properties": [
                {"module": r.module, "name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "failed": [r.label for r in results if not r.passed],
        },
        counters={"total": len(results), "passed": sum(r.passed for r in results)},
        wall_time_s=elapsed,
    )


def _print_text(report: RunReport) -> None:
    if report.command == "search":
        matches = report.result["matches"]
        print("matches:", " ".join(str(m) for m in matches) if matches else "(none)")
        print(
            f"oracle applications: {report.counters['oracle_op_count']},"
            f" pointwise evaluations: {report.counters['oracle_eval_count']}"
        )
    elif report.command == "factor":
        c = report.counters
        print("divisors:", " ".join(str(d) for d in report.result["divisors"]))
        print(
            f"terms: {c['terms_before']} -> {c['terms_after']},"
            f" multiply passes: {c['multiply_passes']}, gates: {c['gates']}"
            + (f", tiles: {c['tiles']}, plane ops: {c['plane_ops']}" if "tiles" in c else "")
            + (f", table lookups: {c['table_lookups']}" if "table_lookups" in c else "")
        )
    elif report.command == "halt-probe":
        r = report.result
        k = report.params["steps"]
        if "ga_halts_within_k" in r:
            print(f"blade probe: halts within {k} steps: {'yes' if r['ga_halts_within_k'] else 'no'}")
        if "direct_halts_within_k" in r:
            print(
                f"direct simulation: halts within {k} steps:"
                f" {'yes' if r['direct_halts_within_k'] else 'no'}"
            )
        if "agreement" in r:
            print(f"agreement: {'yes' if r['agreement'] else 'NO'}")
        print("note: bounded probe only; says nothing about unbounded halting")
    elif report.command == "circuit":
        for i, (value, bits) in enumerate(
            zip(report.result["outputs"], report.result["output_bits"])
        ):
            print(f"output[{i}]: bits {bits} = {value}")
    elif report.command == "selftest":
        for prop in report.result["properties"]:
            status = "PASS" if prop["passed"] else "FAIL"
            detail = f"  ({prop['detail']})" if prop["detail"] else ""
            print(f"{status} {prop['module']}::{prop['name']}{detail}")
        print(f"{report.counters['passed']}/{report.counters['total']} properties passed")
    print(f"wall time: {report.wall_time_s:.3f} s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gacalc",
        description="Exact geometric-algebra pipelines: search, factor, halt-probe, circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("search", help="oracle-filtered database search")
    p.add_argument("--n", type=int, required=True, help="data width in bits")
    p.add_argument("--set", required=True, help="database elements, e.g. 0..15 or 1,2,3")
    p.add_argument("--marked", help="marked values, same syntax as --set")
    p.add_argument("--mod", help="modular predicate a:b meaning x mod a == b")
    add_format(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("factor", help="read all divisors of Z from one multiply pass")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="operand width; needs 2^n > z")
    p.add_argument("--route", choices=factoring.ROUTES, default="fast")
    p.add_argument(
        "--dump-state",
        action="store_true",
        help="include the projected multivector as serialized records",
    )
    add_format(p)
    p.set_defaults(handler=cmd_factor)

    p = sub.add_parser("halt-probe", help="bounded 'halts within K steps' probe")
    p.add_argument("--machine", required=True, help="machine description JSON file")
    p.add_argument("--input", default="", help="initial tape cells, e.g. 0010")
    p.add_argument("--head", type=int, default=0, help="initial head cell")
    p.add_argument("--steps", type=int, required=True, help="step bound K")
    p.add_argument("--tape", type=int, required=True, help="tape cell count B")
    p.add_argument("--mode", choices=("ga", "direct", "both"), default="both")
    add_format(p)
    p.set_defaults(handler=cmd_halt_probe)

    p = sub.add_parser("circuit", help="run a NAND netlist file on blade memory")
    p.add_argument("--netlist", required=True, help="netlist text file")
    p.add_argument("--inputs", default="", help="one integer per INPUT group, e.g. 5,7")
    add_format(p)
    p.set_defaults(handler=cmd_circuit)

    p = sub.add_parser("selftest", help="run the reduced invariant suite")
    p.add_argument("--filter", default=None, help="restrict to one module")
    add_format(p)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("GACALC_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise UsageError(f"GACALC_LOG={level!r}: use debug, info, warning or error")
        logging.basicConfig(level=level.upper())
        report = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, circuit.NetlistValidationError, halting.MachineFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # unexpected runtime failure
        log.debug("unhandled error", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(report.to_json())
    else:
        _print_text(report)
    if report.command == "selftest" and report.result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
