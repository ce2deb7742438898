"""CLI subcommands: results, formats, exit statuses, report stability."""
import io
import json
import re
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gacalc.circuit
import gacalc.core
from gacalc.circuit import NetlistValidationError, load_memory, parse_netlist
from gacalc.cli import UsageError, _parse_int_set, main
from gacalc.core import MAX_TERMS, ResourceCapError
from gacalc.factoring import MAX_LANES

from conftest import boolean_eval, nand_fold

MACHINES = Path(__file__).parent.parent / "src" / "gacalc" / "machines"
NETLISTS = Path(__file__).parent.parent / "src" / "gacalc" / "netlists"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def traced_run(capsys, *argv):
    """``run`` plus the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def traced_main(argv):
    """``main`` on argv: exit status, stdout, stderr and the tracemalloc peak.

    An argv that argparse rejects gives argparse's exit status.
    """
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), err.getvalue(), peak


class TestSearch:
    def test_marked_set(self, capsys):
        code, report, _ = run_json(capsys, "search", "--n", "4", "--set", "0..15", "--marked", "2,9")
        assert code == 0
        assert report["result"]["matches"] == [2, 9]
        assert report["counters"]["oracle_op_count"] == 1

    def test_disjoint(self, capsys):
        code, report, _ = run_json(capsys, "search", "--n", "4", "--set", "1,2,3", "--marked", "8")
        assert code == 0
        assert report["result"]["matches"] == []

    def test_mod_rule(self, capsys):
        code, report, _ = run_json(capsys, "search", "--n", "4", "--set", "0..15", "--mod", "5:2")
        assert code == 0
        assert report["result"]["matches"] == [2, 7, 12]

    @pytest.mark.parametrize(
        "argv, counters, matches",
        [
            (
                ["--n", "7", "--set", "0..40,77,100..127", "--mod", "7:3"],
                (140, 20, 1, 70),
                [3, 10, 17, 24, 31, 38, 101, 108, 115, 122],
            ),
            (
                ["--n", "5", "--set", "1,4..9,30", "--marked", "4,5,30,31"],
                (16, 6, 1, 8),
                [4, 5, 30],
            ),
        ],
    )
    def test_counters_pinned(self, capsys, argv, counters, matches):
        # Figures of the filter that built the oracle image in full.
        code, report, _ = run_json(capsys, "search", *argv)
        assert code == 0
        names = ("terms_before", "terms_after", "oracle_op_count", "oracle_eval_count")
        assert report["counters"] == dict(zip(names, counters))
        assert report["result"]["matches"] == matches

    def test_malformed_predicate(self, capsys):
        code, _, err = run(capsys, "search", "--n", "4", "--set", "0..15", "--marked", "2;9")
        assert code == 2
        assert "usage error" in err

    def test_predicate_required(self, capsys):
        code, _, err = run(capsys, "search", "--n", "4", "--set", "0..15")
        assert code == 2

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "4", "--set", "0..15", "--marked", "2,9")
        assert code == 0
        assert "matches: 2 9" in out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_width_below_one(self, capsys, n):
        code, _, err = run(capsys, "search", "--n", n, "--set", "0", "--marked", "0")
        assert code == 2
        assert "--n must be at least 1" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--set", "0,16"), ("--set", "3..16"), ("--set", "-1..3"), ("--marked", "2,16")],
    )
    def test_value_outside_width(self, capsys, flag, value):
        args = {"--set": "0..15", "--marked": "2"}
        args[flag] = value
        argv = [f"{k}={v}" for k, v in args.items()]
        code, _, err = run(capsys, "search", "--n", "4", *argv)
        assert code == 2
        assert f"bad {flag} value" in err and "outside [0, 2^4)" in err

    def test_huge_range_rejected_before_expansion(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "search", "--n", "8", "--set", "0..100000000", "--marked", "1"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "100000000 outside [0, 2^8)" in err
        assert peak < 1 << 20


    def test_set_over_term_cap_rejected_before_expansion(self, capsys):
        code, _, err, peak = traced_run(
            capsys, "search", "--n", "40", "--set", "0..100000000", "--mod", "3:0"
        )
        assert code == 1
        assert f"ResourceCapError: search state needs 200000002 terms, cap is {MAX_TERMS}" in err
        assert peak < 1 << 20

    def test_set_counts_two_terms_per_value(self, capsys):
        # 600,001 values fit the cap as values but not as the state's pairs.
        code, _, err, peak = traced_run(
            capsys, "search", "--n", "24", "--set", "0..600000", "--mod", "3:0"
        )
        assert code == 1
        assert f"ResourceCapError: search state needs 1200002 terms, cap is {MAX_TERMS}" in err
        assert peak < 1 << 20
        # The largest set whose state fits: 2 * 524,288 = MAX_TERMS terms.
        code, report, _ = run_json(
            capsys, "search", "--n", "20", "--set", f"0..{MAX_TERMS // 2 - 1}", "--mod", "1000000:7"
        )
        assert code == 0
        assert report["counters"]["terms_before"] == MAX_TERMS
        assert report["result"]["matches"] == [7]

    def test_overlapping_ranges_count_each_value_once(self, capsys):
        code, report, _ = run_json(
            capsys, "search", "--n", "20", "--set", "0..300000,0..300000", "--mod", "1000000:7"
        )
        assert code == 0
        assert report["counters"]["terms_before"] == 600002
        assert report["result"]["matches"] == [7]


class TestSearchArgv:
    """``search`` end to end over argv, malformed and out-of-range ones included."""

    # Small values fit most widths; spans stay small or go over the cap, as
    # in TestParseIntSet.
    _values = st.integers(0, 40) | st.integers(-2, 1 << 25)
    _tokens = (
        _values.map(str)
        | st.builds(
            lambda lo, span: f"{lo}..{lo + span}",
            _values,
            st.integers(-3, 40) | st.integers(MAX_TERMS, 1 << 26),
        )
        | st.text(alphabet="0123456789.,-x :", max_size=6)
    )
    _specs = st.lists(_tokens, max_size=5).map(",".join)
    _predicates = st.one_of(
        st.builds(lambda spec: ["--marked=" + spec], _specs),
        st.builds(lambda a, b: [f"--mod={a}:{b}"], st.integers(-3, 9), st.integers(-2, 9)),
        st.builds(lambda t: ["--mod=" + t], st.text(alphabet="0123456789:-x", max_size=5)),
        st.just([]),
        st.just(["--marked=1", "--mod=2:0"]),
    )

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(-2, 24), spec=_specs, predicate=_predicates)
    def test_exits_cleanly_and_matches_brute_force(self, n, spec, predicate):
        argv = ["search", f"--n={n}", f"--set={spec}", *predicate, "--format", "json"]
        code, out, err, peak = traced_main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert peak < 8 << 20
        if code != 0:
            return
        report = json.loads(out)
        elements = _parse_int_set(spec, n)
        option, _, value = predicate[0].partition("=")
        if option == "--marked":
            marked = _parse_int_set(value, n)
            want = {x for x in elements if x in marked}
        else:
            a, b = map(int, value.split(":"))
            want = {x for x in elements if x % a == b}
        assert report["result"]["matches"] == sorted(want)
        assert report["counters"]["terms_before"] == 2 * len(elements)
        assert report["counters"]["oracle_eval_count"] == len(elements)
        assert report["counters"]["oracle_op_count"] == 1


class TestParseIntSet:
    def test_count_includes_values_already_parsed(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"needs {MAX_TERMS + 1} terms"):
                _parse_int_set(f"{MAX_TERMS},0..{MAX_TERMS - 1}", 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # Spans stay small or go over the cap, so an accepted set is small and
    # the peak bound needs no allowance for it.
    _range_tokens = st.builds(
        lambda lo, span: f"{lo}..{lo + span}",
        st.integers(-1, 2**64),
        st.integers(-3, 64) | st.just(MAX_TERMS) | st.integers(MAX_TERMS, 2**65),
    )
    _tokens = st.integers(-2, 2**65).map(str) | _range_tokens | st.text(max_size=6)

    @settings(max_examples=400, deadline=None)
    @given(
        spec=st.lists(_tokens, max_size=6).map(",".join) | st.text(max_size=20),
        width=st.integers(1, 64),
    )
    def test_returns_in_range_set_or_raises_cleanly(self, spec, width):
        tracemalloc.start()
        try:
            try:
                out = _parse_int_set(spec, width)
            except (UsageError, ResourceCapError):
                out = set()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) <= MAX_TERMS
        assert all(0 <= v < 1 << width for v in out)
        assert peak < 1 << 20


class TestFactor:
    def test_91(self, capsys):
        code, report, _ = run_json(capsys, "factor", "--z", "91", "--n", "7")
        assert code == 0
        assert report["result"]["divisors"] == [1, 7, 13, 91]
        assert report["counters"]["multiply_passes"] == 1

    @pytest.mark.parametrize("route,work", [
        ("fast", {"gates": 210, "tiles": 1, "plane_ops": 110}),
        ("faithful", {"gates": 210, "table_lookups": 3}),
    ])
    def test_classical_work_beside_the_one_pass(self, capsys, route, work):
        code, report, _ = run_json(capsys, "factor", "--z", "21", "--n", "5", "--route", route)
        assert code == 0
        assert report["counters"] == {
            "terms_before": 1024, "terms_after": 4, "multiply_passes": 1, **work
        }
        code, out, _ = run(capsys, "factor", "--z", "21", "--n", "5", "--route", route)
        assert code == 0
        assert "multiply passes: 1, gates: 210" in out
        assert ("plane ops: 110" in out) == (route == "fast")
        assert ("table lookups: 3" in out) == (route == "faithful")

    def test_one(self, capsys):
        code, report, _ = run_json(capsys, "factor", "--z", "1", "--n", "2")
        assert code == 0
        assert report["result"]["divisors"] == [1]

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "factor", "--z", "0", "--n", "4")
        assert code == 2
        assert "usage error" in err

    def test_width_too_small(self, capsys):
        code, _, err = run(capsys, "factor", "--z", "16", "--n", "4")
        assert code == 2

    def test_negative_width_names_the_width(self, capsys):
        code, _, err = run(capsys, "factor", "--z", "3", "--n", "-1")
        assert code == 2
        assert err.strip() == "usage error: operand width must be at least 1"

    @pytest.mark.parametrize("route", ["fast", "faithful"])
    def test_huge_width_refused_in_bounded_memory(self, route):
        code, out, err, peak = traced_main(
            ["factor", "--z", "3", "--n", "10000000", "--route", route]
        )
        assert code == 1 and not out
        assert err.startswith("error: ResourceCapError: ") and "Traceback" not in err
        if route == "faithful":
            assert f"needs 2^128 or more terms, cap is {MAX_TERMS}" in err
        assert peak < 1 << 20

    def test_faithful_route(self, capsys):
        code, report, _ = run_json(capsys, "factor", "--z", "6", "--n", "3", "--route", "faithful")
        assert code == 0
        assert report["result"]["divisors"] == [1, 2, 3, 6]

    def test_dump_state_roundtrips(self, capsys):
        code, report, _ = run_json(capsys, "factor", "--z", "6", "--n", "3", "--dump-state")
        assert code == 0
        records = report["result"]["state"]
        assert records == sorted(records, key=lambda r: int(r["mask"], 16))
        mv = gacalc.core.from_records(records, report["result"]["dimension"])
        assert gacalc.core.to_records(mv) == records
        # terms: one per divisor, product 6 in subspaces 0+1, divisor in 2
        assert len(records) == 4

    @pytest.mark.parametrize("z,n", [(91, 7), (6, 3)])
    def test_dump_state_same_on_both_routes(self, capsys, z, n):
        states = []
        for route in ("fast", "faithful"):
            code, report, _ = run_json(
                capsys, "factor", "--z", str(z), "--n", str(n), "--route", route, "--dump-state"
            )
            assert code == 0
            states.append(report["result"]["state"])
        assert states[0] == states[1]

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (("--z", "1", "--n", "15"), MAX_LANES),
            (("--z", "3", "--n", "11", "--route", "faithful"), MAX_TERMS),
        ],
    )
    def test_width_cap_exits_1(self, capsys, argv, cap):
        # Each is the first width over its route's cap (n = 14 fills the lane
        # budget), refused before any plane or term is built.
        code, _, err, peak = traced_run(capsys, "factor", *argv)
        assert code == 1
        assert re.search(rf"ResourceCapError: .* cap (is )?{cap}\b", err)
        assert peak < 1 << 20

    def test_width_13_runs_in_tiles(self, capsys):
        code, report, _ = run_json(capsys, "factor", "--z", "8189", "--n", "13")
        assert code == 0
        assert report["result"]["divisors"] == [1, 19, 431, 8189]
        assert report["counters"]["tiles"] == 4**13 >> 16


    def test_faithful_width_64_is_counted_without_len(self, capsys):
        # len(range(2^64)) raises OverflowError; the count is taken by shifts.
        code, _, err = run(capsys, "factor", "--z", "3", "--n", "64", "--route", "faithful")
        assert code == 1
        assert "ResourceCapError" in err


@st.composite
def _factor_case(draw):
    """(route, n, z): a width the route runs and a target that fits it, or
    one of the two broken.

    Run widths stay small (fast n <= 8, faithful n <= 5); a broken width is
    over the route's cap or below 1, a broken target negative, zero or huge.
    """
    route = draw(st.sampled_from(["fast", "faithful"]))
    run, cap = (8, 15) if route == "fast" else (5, 11)
    n = draw(st.integers(1, run))
    z = draw(st.integers(1, (1 << n) - 1))
    broken = draw(st.none() | st.sampled_from(["n", "z"]))
    if broken == "n":
        n = draw(st.integers(cap, 70) | st.integers(-3, 0))
    elif broken == "z":
        z = draw(st.integers(-(1 << 70), 0) | st.integers(1 << n, 1 << 80))
    return route, n, z


class TestFactorArgv:
    """``factor`` end to end over argv."""

    @settings(max_examples=100, deadline=None)
    @given(case=_factor_case(), dump=st.booleans())
    def test_exits_cleanly_and_matches_trial_division(self, case, dump):
        route, n, z = case
        argv = ["factor", f"--z={z}", f"--n={n}", f"--route={route}", "--format", "json"]
        code, out, err, peak = traced_main(argv + ["--dump-state"] * dump)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert peak < 8 << 20
        if code != 0:
            return
        report = json.loads(out)
        assert report["result"]["divisors"] == [d for d in range(1, z + 1) if z % d == 0]
        assert report["counters"]["terms_after"] == len(report["result"]["divisors"])
        if dump:
            assert len(report["result"]["state"]) == report["counters"]["terms_after"]


class TestHaltProbe:
    def test_wide_tape_in_bounded_memory(self, capsys):
        code, out, _, peak = traced_run(
            capsys,
            "halt-probe",
            "--machine", str(MACHINES / "bb2.json"),
            "--tape", "40",
            "--head", "20",
            "--steps", "6",
            "--mode", "both",
            "--format", "json",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["agreement"] is True
        assert result["chain_terms"] == 1
        assert peak < 1 << 20

    def test_bb2_both_modes(self, capsys):
        code, report, _ = run_json(
            capsys,
            "halt-probe",
            "--machine", str(MACHINES / "bb2.json"),
            "--head", "2",
            "--steps", "6",
            "--tape", "6",
            "--mode", "both",
        )
        assert code == 0
        assert report["result"]["halts_within_k"] is True
        assert report["result"]["agreement"] is True

    def test_loop_does_not_halt(self, capsys):
        code, report, _ = run_json(
            capsys,
            "halt-probe",
            "--machine", str(MACHINES / "loop_pingpong.json"),
            "--steps", "8",
            "--tape", "4",
            "--mode", "both",
        )
        assert code == 0
        assert report["result"]["halts_within_k"] is False
        assert report["result"]["agreement"] is True

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "halt-probe", "--machine", "no-such.json", "--steps", "3", "--tape", "3")
        assert code == 1
        assert "error" in err

    def test_bounded_label_in_text(self, capsys):
        code, out, _ = run(
            capsys,
            "halt-probe",
            "--machine", str(MACHINES / "bb1.json"),
            "--steps", "3",
            "--tape", "3",
        )
        assert code == 0
        assert "halts within 3 steps" in out
        assert "unbounded" in out  # explicit non-claim

    def test_label_in_json(self, capsys):
        code, report, _ = run_json(
            capsys,
            "halt-probe",
            "--machine", str(MACHINES / "bb1.json"),
            "--steps", "3",
            "--tape", "3",
            "--mode", "ga",
        )
        assert code == 0
        assert "halts within 3 steps" in report["result"]["semantics"]


def _broken_machine_file(draw, directory):
    """A missing path, or a file that is not a valid machine description.

    A broken file is a bundled machine's description with one field dropped
    or replaced by an out-of-range or ill-typed value, or text that may not
    be JSON at all.
    """
    path = directory / f"machine{draw(st.integers(0, 1 << 30))}.json"
    kind = draw(st.sampled_from(["field", "text", "missing"]))
    if kind == "field":
        data = json.loads(draw(st.sampled_from(sorted(MACHINES.glob("*.json")))).read_text())
        key = draw(st.sampled_from(sorted(data)))
        bad = st.sampled_from([None, "x", [], {}, 1.5, [[]], ["x"], [{}]])
        bad |= st.integers(-3, 12) | st.integers(1 << 62, 1 << 70)
        if draw(st.booleans()):
            del data[key]
        elif key == "transitions" and data[key] and draw(st.booleans()):
            row = draw(st.sampled_from(data[key]))
            row[draw(st.sampled_from(sorted(row)))] = draw(bad)
        else:
            data[key] = draw(bad)
        path.write_text(json.dumps(data))
    elif kind == "text":
        path.write_text(draw(st.text(max_size=30)))
    return str(path)


@st.composite
def _halt_probe_argv(draw, directory):
    """A valid ``halt-probe`` argv with at most one part broken.

    Valid parts: a bundled machine, 1 <= steps <= 12, a tape of up to 70
    cells with the head on it and a 0/1 string that fits it.
    """
    broken = draw(st.none() | st.sampled_from(["machine", "steps", "tape", "head", "input"]))
    machine = str(draw(st.sampled_from(sorted(MACHINES.glob("*.json")))))
    steps, tape = draw(st.integers(1, 12)), draw(st.integers(1, 70))
    head = draw(st.integers(0, tape - 1))
    bits = draw(st.text(alphabet="01", max_size=min(tape, 8)))
    if broken == "machine":
        machine = _broken_machine_file(draw, directory)
    elif broken == "steps":
        steps = draw(st.integers(-2, 0) | st.just(10**30))
    elif broken == "tape":
        tape = draw(st.integers(-2, 0))
    elif broken == "head":
        head = draw(st.integers(-2, -1) | st.integers(tape, 70))
    elif broken == "input":
        bits = draw(st.text("012x", min_size=1, max_size=9))
    mode = draw(st.sampled_from(["both", "ga", "direct"]))
    return [
        "halt-probe", f"--machine={machine}", f"--input={bits}", f"--head={head}",
        f"--steps={steps}", f"--tape={tape}", f"--mode={mode}", "--format", "json",
    ]


class TestHaltProbeArgv:
    """``halt-probe`` end to end over argv and machine files, broken ones included."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exits_cleanly_and_routes_agree(self, tmp_path_factory, data):
        argv = data.draw(_halt_probe_argv(tmp_path_factory.mktemp("machine")))
        code, out, err, peak = traced_main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert peak < 8 << 20
        if code == 0 and "--mode=both" in argv:
            assert json.loads(out)["result"]["agreement"] is True

    @pytest.mark.parametrize("tape", [0, -2])
    def test_tape_below_one_is_refused_by_name(self, tape):
        argv = ["halt-probe", f"--machine={MACHINES / 'loop3.json'}", "--steps=3", f"--tape={tape}"]
        code, out, err, _ = traced_main(argv)
        assert (code, out) == (2, "")
        assert err == "usage error: --tape must be at least 1\n"

    @pytest.mark.parametrize("mode", ["both", "ga", "direct"])
    def test_huge_step_count_is_refused(self, mode):
        # loop3 never halts, so a walk or a direct run of 10^30 steps would
        # not finish; the alarm turns such a hang into an error that fails.
        argv = [
            "halt-probe", f"--machine={MACHINES / 'loop3.json'}", "--input=0110",
            f"--steps={10**30}", "--tape=4", f"--mode={mode}",
        ]

        def hang(*_):
            raise TimeoutError("halt-probe did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            code, _, err, peak = traced_main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        assert "ResourceCapError: probe chain needs 2^100 or more words" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("mode", ["both", "ga", "direct"])
    def test_huge_tape_is_refused(self, mode):
        # Each of loop3's 16 blocks at 10^9 cells is 10^9 + 32 bits, 15,625,001
        # words, so the chain is refused before a 10^9-bit code is formed.
        argv = [
            "halt-probe", f"--machine={MACHINES / 'loop3.json'}", "--input=0110",
            "--steps=8", f"--tape={10**9}", f"--mode={mode}",
        ]
        code, _, err, peak = traced_main(argv)
        assert code == 1
        assert "ResourceCapError: probe chain needs 250000016 words" in err
        assert peak < 1 << 20


class TestCircuit:
    def test_single_gate(self, capsys, tmp_path):
        path = tmp_path / "gate.nand"
        path.write_text("INPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\n")
        code, report, _ = run_json(capsys, "circuit", "--netlist", str(path), "--inputs", "1,1")
        assert code == 0
        assert report["result"]["outputs"] == [0]

    def test_bundled_multiplier(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("plane program compiled by the circuit subcommand")

        monkeypatch.setattr(gacalc.circuit, "_plane_program", refuse)
        code, report, _ = run_json(
            capsys, "circuit", "--netlist", str(NETLISTS / "mult3.nand"), "--inputs", "5,7"
        )
        assert code == 0
        assert report["result"]["outputs"] == [35]

    @pytest.mark.parametrize(
        "text, inputs",
        [
            ((NETLISTS / "mult3.nand").read_text(), "5,7"),
            ("INPUT 0 1\nOUTPUT 3 5\nNAND 0 1 6\nNAND 0 6 5\nNAND 1 6 4\nNAND 5 4 3\n", "1"),
        ],
        ids=["mult3", "descending"],
    )
    def test_blade_sign_is_the_nand_fold_sign(self, capsys, tmp_path, text, inputs):
        path = tmp_path / "netlist.nand"
        path.write_text(text)
        code, report, _ = run_json(capsys, "circuit", "--netlist", str(path), "--inputs", inputs)
        nl = parse_netlist(text)
        expected = nand_fold(nl, load_memory(nl, [int(v) for v in inputs.split(",")]))
        assert code == 0
        assert report["result"]["blade_sign"] == expected.sign

    def test_write_once_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.nand"
        path.write_text("INPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\nNAND 1 0 2\n")
        code, _, err = run(capsys, "circuit", "--netlist", str(path))
        assert code == 1
        assert "twice" in err


    @pytest.mark.parametrize(
        "text",
        ["INPUT 0 -3\nINPUT 1\nOUTPUT 2\n", "INPUT 0\nINPUT 1\nOUTPUT -3\n"],
        ids=["input", "output"],
    )
    def test_negative_place(self, capsys, tmp_path, text):
        path = tmp_path / "neg.nand"
        path.write_text(text + "NAND 0 1 2\n")
        code, _, err = run(capsys, "circuit", "--netlist", str(path), "--inputs", "1,1")
        assert code == 1
        assert "place -3 is negative" in err


@st.composite
def _circuit_case(draw):
    """(netlist text, ``--inputs`` value): a valid netlist, then maybe broken.

    The valid netlist has consecutive input places, gates that each write the
    next fresh place from known ones, and outputs among the places below its
    size.  A breakage replaces one token by a small place (a double write or
    a read before its write), a negative or over-size place or a non-integer,
    or inserts a line with an unknown directive or a short NAND.
    """
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    places = iter(range(sum(widths)))
    lines = [["INPUT", *(next(places) for _ in range(w))] for w in widths]
    known = sum(widths)
    for _ in range(draw(st.integers(0, 12))):
        p, q = (draw(st.integers(0, known - 1)) for _ in range(2))
        lines.append(["NAND", p, q, known])
        known += 1
    outputs = draw(st.lists(st.lists(st.integers(0, known), min_size=1, max_size=4), max_size=2))
    lines += [["OUTPUT", *group] for group in outputs]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["gate", "any", "line"]))
        if kind == "line":
            directive = draw(st.sampled_from(["FROB", "NAND", "nand", "#", "OUTPUTS"]))
            lines.insert(draw(st.integers(0, len(lines))), [directive, known])
            continue
        token = draw(
            st.integers(0, known)
            | st.integers(-5, -1)
            | st.integers(known + 1, 1 << 64)
            | st.sampled_from(["x", "1.5"])
        )
        gates = [line for line in lines if line[0] == "NAND"]
        line = draw(st.sampled_from(gates if kind == "gate" and gates else lines))
        line[draw(st.integers(1, len(line) - 1))] = token
    text = "".join(" ".join(map(str, line)) + "\n" for line in lines)
    valid = ",".join(str(draw(st.integers(0, (1 << w) - 1))) for w in widths)
    inputs = draw(st.just(valid) | st.text(alphabet="0123456789,-x", max_size=6))
    return text, inputs


class TestCircuitArgv:
    """``circuit`` end to end over netlist files and ``--inputs``, broken ones included."""

    @settings(max_examples=300, deadline=None)
    @given(case=_circuit_case())
    def test_exits_cleanly_and_matches_boolean_eval(self, tmp_path_factory, case):
        text, inputs = case
        path = tmp_path_factory.mktemp("circuit") / "netlist.nand"
        path.write_text(text)
        argv = ["circuit", f"--netlist={path}", f"--inputs={inputs}", "--format", "json"]
        code, out, err, peak = traced_main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert peak < 8 << 20
        try:
            nl = parse_netlist(text)
        except NetlistValidationError:
            assert code == 1
            return
        if code != 0:
            return
        values = [int(v) for v in inputs.split(",")] if inputs else []
        bits = boolean_eval(nl, values)
        want = [sum(bits.get(p, 0) << k for k, p in enumerate(g)) for g in nl.output_groups]
        report = json.loads(out)
        assert report["result"]["outputs"] == want
        assert report["result"]["blade_sign"] == nand_fold(nl, load_memory(nl, values)).sign


class TestSelftest:
    def test_default_passes(self, capsys):
        code, report, _ = run_json(capsys, "selftest")
        assert code == 0
        assert report["result"]["failed"] == []
        assert report["counters"]["passed"] == report["counters"]["total"]

    def test_filter(self, capsys):
        code, report, _ = run_json(capsys, "selftest", "--filter", "blade-core")
        assert code == 0
        assert all(p["module"] == "blade-core" for p in report["result"]["properties"])

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "selftest", "--filter", "nonsense")
        assert code == 2

    def test_injected_sign_bug_is_caught(self, capsys, monkeypatch):
        # Mutation check: corrupt the sign function and expect the
        # anticommutation property to fail loudly.
        good = gacalc.core.reorder_sign
        monkeypatch.setattr(gacalc.core, "reorder_sign", lambda a, b: abs(good(a, b)))
        code, report, _ = run_json(capsys, "selftest", "--filter", "blade-core")
        assert code == 1
        failed = report["result"]["failed"]
        assert any("anticommutation" in name for name in failed)


class TestReportShape:
    def test_json_is_deterministic_except_wall_time(self, capsys):
        _, first, _ = run_json(capsys, "factor", "--z", "35", "--n", "6")
        _, second, _ = run_json(capsys, "factor", "--z", "35", "--n", "6")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    def test_schema_keys(self, capsys):
        _, report, _ = run_json(capsys, "search", "--n", "3", "--set", "0..7", "--marked", "1")
        assert set(report) == {"command", "params", "result", "counters", "wall_time_s"}

    def test_usage_error_exit_code_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "notanint", "--set", "1", "--marked", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value,code", [("verbose", 2), ("", 2), ("debug", 0)])
    def test_log_level_from_the_environment(self, value, code):
        # A fresh process: its root logger has no handler yet, so
        # ``logging.basicConfig`` would read (and choke on) the level.
        env = dict(os.environ, GACALC_LOG=value, PYTHONPATH=str(Path(gacalc.__file__).parents[1]))
        argv = [sys.executable, "-m", "gacalc.cli", "halt-probe", "--machine",
                str(MACHINES / "bb2.json"), "--tape", "6", "--head", "2", "--steps", "6"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        if code:
            assert done.stderr.startswith(f"usage error: GACALC_LOG={value!r}")
        else:
            assert "agreement: yes" in done.stdout
