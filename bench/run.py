"""gacalc benchmark: seeded pipeline workloads, timed, checked and traced.

Run one workload:

    python3 bench/run.py --workload search --seed 1 --seconds 18 --trace 0

or every workload, each in its own child process (so peak memory is per
workload), with ``--workload all``.  A run is a closed loop from one client
in one thread: op k+1 starts when op k and its check are done, until
``--seconds`` have passed, and at least one op runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` each round runs one op untraced and one traced, and the line
reports the per-layer metrics plus the tracing overhead.  Spans are written
to ``.bench_out/`` in traced runs.  gacalc is imported from ``src/`` next to
this directory, never from elsewhere.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import DMAX, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("core", "encoding", "search", "circuit", "factoring", "halting")
SETUP_REPEATS = 7
# Seconds the calibration loop takes at the reference machine speed.  It only
# sets the unit of the scaled times, so it must never change between commits;
# the loop took 0.2 to 0.45 s on the machine the README's figures come from.
REF_SECONDS = 0.3

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "terms_per_s": "terms/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "core.reorder_sign.calls": "count",
    "core.reorder_sign.ns.d8": "ns",
    "core.reorder_sign.ns.d40": "ns",
    "core.reorder_sign.ns.dmax": "ns",
    "core.geometric_product.s": "s",
    "core.project.s": "s",
    "core.multivector.constructs": "count",
    "encoding.decode.calls": "count",
    "search.build_initial_state.s": "s",
    "search.half_difference_filter.s": "s",
    "search.extract_matches.s": "s",
    "search.oracle_evals": "count",
    "circuit.linear_extend.s": "s",
    "circuit.run_netlist.calls": "count",
    "circuit.run_netlist.s": "s",
    "circuit.relabel_and_discard.s": "s",
    "factoring.build_factoring_superposition.s": "s",
    "factoring.multiply_all.s": "s",
    "factoring.project_product.s": "s",
    "factoring.read_divisors.s": "s",
    "factoring.terms_before": "count",
    "factoring.terms_after": "count",
    "halting.TruncationParams.s": "s",
    "halting.build_chained_superposition.s": "s",
    "halting.step_codes.calls": "count",
    "halting.chain_terms": "count",
    "halting.consistency_project.s": "s",
    "halting.instance_project.s": "s",
    "halting.halt_project.s": "s",
    "trace.overhead": "%",
}


class SetupError(RuntimeError):
    """gacalc cannot be imported from this checkout's ``src/``."""


def import_gacalc():
    """Import gacalc afresh from ``src/``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "gacalc" or m.startswith("gacalc.")]:
        del sys.modules[name]
    if not (SRC / "gacalc" / "__init__.py").is_file():
        raise SetupError(f"no gacalc package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    lib = type("Lib", (), {})()
    for layer in LAYERS:
        setattr(lib, layer, importlib.import_module(f"gacalc.{layer}"))
    if SRC not in Path(lib.core.__file__).resolve().parents:
        raise SetupError(f"gacalc was imported from {lib.core.__file__}, not {SRC}")
    return lib


def sign_ns(reorder_sign, width: int, seed: int, pairs: int = 2000, repeats: int = 5) -> float:
    """Median ns per ``reorder_sign`` call on seeded masks of ``width`` bits."""
    rng = random.Random(seed * 7919 + width)
    masks = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(pairs)]
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in masks:
            reorder_sign(a, b)
        per_call.append((time.perf_counter() - t0) / pairs * 1e9)
    return statistics.median(per_call)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches gacalc.

    Each of 8 rounds builds a dict of 8,192 int keys with ``Fraction``
    values and folds it into a smaller one: the allocation, hashing, bit
    work and rational arithmetic the pipelines do.  So a machine slowdown
    stretches it much as it stretches them.  Small rounds keep its memory
    to about 2 MiB, below every workload's own peak.
    """
    n = 1 << 13
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    for r in range(8):
        terms = {}
        for i in range(r * n, (r + 1) * n):
            m = (i * 2654435761) & 0xFFFFFFFF
            terms[m] = third * (m & 7)
        acc = {}
        for m, c in terms.items():
            key = (m ^ m >> 11) & 0xFFFF
            acc[key] = acc.get(key, 0) + c
    return time.perf_counter() - t0


class Clock:
    """Times blocks of work and scales each to the reference machine speed.

    The calibration loop runs right before and right after every block, and
    the block's wall time is multiplied by ``REF_SECONDS`` over the mean of
    those two loop times.  The machine's speed swings in phases of seconds to
    minutes; bracketing each block follows the phase the block ran in, while
    a slower gacalc still shows in full, since the loop never calls it.
    """

    def __init__(self):
        self.ref_times = [self._calibrate()]

    def _calibrate(self) -> float:
        gc.collect()
        return calibrate()

    def time(self, fn):
        """Run ``fn()``; return its value, wall seconds and scaled seconds."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            value = fn()
            wall = time.perf_counter() - t0
        finally:
            self.ref_times.append(self._calibrate())
        speed = (self.ref_times[-2] + self.ref_times[-1]) / 2
        return value, wall, wall * REF_SECONDS / speed


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns counts, op times and layer figures."""
    def set_up():
        lib = import_gacalc()
        return lib, workload.setup(lib, seed)

    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        (lib, inputs), _, scaled = clock.time(set_up)
        setup_times.append(scaled)

    tracer = Tracer() if trace else None
    times = {False: [], True: []}
    walls = []
    layers = []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True) if trace else (False,):
            attempted += 1
            if traced:
                tracer.install(lib, k)
            try:
                answer, wall, scaled = clock.time(lambda: workload.op(lib, inputs, k))
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                if traced:
                    tracer.uninstall()
            if not workload.check(lib, inputs, k, answer):
                print(f"{workload.name}: op {k} gave a wrong answer", file=sys.stderr)
                failed += 1
                wrong += 1
                continue
            times[traced].append(scaled)
            if traced:
                layers.append({**tracer.op_metrics(k), **workload.counts(answer)})
            else:
                walls.append(wall)
            del answer
        k += 1

    result = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "setup_times": setup_times,
        "ref_times": clock.ref_times,
        "times": times[False],
        "walls": walls,
        "terms": workload.terms(inputs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["traced_times"] = times[True]
        result["layers"] = layers
        result["spans"] = tracer.spans
        reorder_sign = lib.core.reorder_sign
        result["sign_ns"] = {w: sign_ns(reorder_sign, w, seed) for w in (8, 40, DMAX)}
    return result


def end_to_end(run: dict) -> dict[str, float]:
    """End-to-end metrics, times scaled to the reference machine speed."""
    op_p50 = statistics.median(run["times"])
    return {
        "setup_s": statistics.median(run["setup_times"]),
        "op_p50_s": op_p50,
        "terms_per_s": run["terms"] / op_p50,
        "peak_rss_mib": run["peak_rss_mib"],
    }


def per_layer(run: dict) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        values = [op.get(name, 0) for op in run["layers"]]
        out[name] = statistics.median(values) if values else 0
    sign = run["sign_ns"]
    out["core.reorder_sign.ns.d8"] = sign[8]
    out["core.reorder_sign.ns.d40"] = sign[40]
    out["core.reorder_sign.ns.dmax"] = sign[DMAX]
    untraced, traced = run["times"], run["traced_times"]
    if untraced and traced:
        out["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1) * 100
    return out


def write_spans(run: dict, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{run['workload']}-seed{seed}.json"
    keys = ("name", "start", "end", "parent", "op")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, span)) for span in run["spans"]], fh)
    return path


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    if not run["times"]:
        print(f"{workload.name}: no op completed correctly", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = per_layer(run), PER_LAYER
        print(f"spans: {write_spans(run, args.seed)}")
    else:
        metrics, units = end_to_end(run), END_TO_END
    print(f"{workload.name}: {run['attempted']} ops attempted, {run['failed']} failed")
    print("  op wall seconds: " + " ".join(f"{t:.3f}" for t in run["walls"]))
    print("  op scaled seconds: " + " ".join(f"{t:.3f}" for t in run["times"]))
    print(f"  calibration loop: median {statistics.median(run['ref_times']):.4f} s,"
          f" reference {REF_SECONDS} s")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    correct = run["wrong"] == 0
    print(json.dumps(report(correct, run["attempted"], run["failed"], metrics, units)))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    correct, attempted, failed = True, 0, 0
    metrics, units = {}, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark exited with status {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units[f"{name}.{metric}"] = entry["unit"]
    print(json.dumps(report(correct, attempted, failed, metrics, units)))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
