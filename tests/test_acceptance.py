"""Acceptance suite: one test per criterion, exact equalities, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values come from independent oracles, computed here or
shared from ``conftest.py``: bubble-sort parity, brute-force filtering,
plain/bitsliced boolean circuit evaluation, host-integer multiplication,
trial division and direct machine simulation.
"""
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gacalc.circuit import build_nand_multiplier, load_memory, run_netlist, read_outputs
from gacalc.core import Multivector, blade_mul, reorder_sign
from gacalc.factoring import (
    FactoringLayout,
    build_factoring_superposition,
    factor_pipeline,
    multiply_all,
    project_product,
    read_divisors,
)
from gacalc.halting import (
    Config,
    TruncationParams,
    apply_all_steps,
    bounded_halt_probe,
    build_chained_superposition,
    build_free_superposition,
    bundled_machines,
    consistency_project,
    parse_tape,
    run_direct,
)
from gacalc.search import MembershipOracle, SearchLayout, apply_oracle, build_initial_state, run_search

from conftest import boolean_eval, bubble_sign, host_multiply

REPO_ROOT = Path(__file__).parent.parent


def report(criterion: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"[acceptance] criterion {criterion} ({name}): PASS in {elapsed:.1f}s")


def test_criterion_1_algebra_soundness():
    started = time.perf_counter()

    # exhaustive blade pairs, D = 8: product signs against the parity oracle
    for a in range(256):
        for b in range(256):
            mask, sign = blade_mul(a, b)
            assert mask == a ^ b
            assert sign == bubble_sign(a, b)

    # vector-level anticommutation and unit squares
    dim = 8
    for i in range(dim):
        ei = Multivector.basis_vector(dim, i)
        assert ei * ei == Multivector.scalar(dim, 1)
        for j in range(i + 1, dim):
            ej = Multivector.basis_vector(dim, j)
            assert ei * ej == -(ej * ei)

    # random wide pairs against the oracle
    rng = random.Random(101)
    for _ in range(2000):
        a, b = rng.randrange(1 << 64), rng.randrange(1 << 64)
        assert reorder_sign(a, b) == bubble_sign(a, b)

    # 10,000 random multivector triples, D = 32: associativity + distributivity
    rng = random.Random(202)

    def mv():
        return Multivector(
            32,
            {rng.randrange(1 << 32): Fraction(rng.randint(-3, 3) or 1) for _ in range(3)},
        )

    for _ in range(10_000):
        a, b, c = mv(), mv(), mv()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    report(1, "algebra soundness", started, budget=30)


def test_criterion_2_search_correctness():
    started = time.perf_counter()
    rng = random.Random(303)

    for _ in range(200):
        n = rng.randint(1, 12)
        elements = set(rng.sample(range(1 << n), rng.randint(0, min(64, 1 << n))))
        marked = {x for x in range(1 << n) if rng.random() < 0.25}
        matches, oracle = run_search(elements, lambda x: x in marked, n)
        assert matches == {x for x in elements if x in marked}
        assert oracle.op_count == 1

    # eigenvalue identities on 1000 random blade patterns
    sl = SearchLayout(11)
    for _ in range(1000):
        x = rng.randrange(1 << 11)
        fx = rng.randint(0, 1)
        oracle = MembershipOracle(lambda v, fx=fx: fx)
        pattern = build_initial_state({x}, sl)
        expect = pattern.scale(-1) if fx else pattern
        assert apply_oracle(oracle, pattern, sl) == expect

    report(2, "search correctness", started, budget=30)


def test_criterion_3_nand_embedding():
    started = time.perf_counter()
    from gacalc.circuit import GateBuilder, MemoryBlade, NandGate, Netlist, bit_read, nand_apply

    # truth table, exact, in 400 random memory contexts
    rng = random.Random(404)
    for _ in range(400):
        context = rng.randrange(1 << 20)
        p, q, r = rng.sample(range(20, 26), 3)
        pv, qv = rng.randint(0, 1), rng.randint(0, 1)
        mem = MemoryBlade(context | pv << p | qv << q, rng.choice((1, -1)))
        out = nand_apply(NandGate(p, q, r), mem)
        assert bit_read(out, r) == 1 - (pv & qv)
        assert out.mask & ~(1 << r) == mem.mask  # non-target bits invariant

    # netlist corpus with <= 10 inputs: blade execution == boolean evaluator
    def xor_netlist():
        gb = GateBuilder(2)
        t = gb.nand(0, 1)
        out = gb.nand(gb.nand(0, t), gb.nand(1, t))
        return Netlist(gb.gates, [[0], [1]], [[out]])

    def adder_netlist():
        gb = GateBuilder(3)
        s, c = gb.full_add(0, 1, 2)
        return Netlist(gb.gates, [[0], [1], [2]], [[s, c]])

    corpus = [
        Netlist([NandGate(0, 1, 2)], [[0], [1]], [[2]]),
        Netlist([NandGate(0, 0, 1)], [[0]], [[1]]),
        xor_netlist(),
        adder_netlist(),
        build_nand_multiplier(1),
        build_nand_multiplier(2),
        build_nand_multiplier(3),
        build_nand_multiplier(4),
        build_nand_multiplier(5),
    ]
    for netlist in corpus:
        widths = [len(g) for g in netlist.input_groups]
        total = sum(widths)
        assert total <= 10
        for packed in range(1 << total):
            values, shift = [], 0
            for w in widths:
                values.append(packed >> shift & ((1 << w) - 1))
                shift += w
            mem = run_netlist(netlist, load_memory(netlist, values))
            for place, value in boolean_eval(netlist, values).items():
                assert bit_read(mem, place) == value

    report(3, "NAND embedding", started, budget=60)


def bitslice_multiplier_outputs(n: int) -> tuple[list[int], list[int]]:
    """Evaluate the n-bit multiplier on all inputs at once, one wire = one
    2^(2n)-bit integer; returns (wire patterns per output bit, expected)."""
    netlist = build_nand_multiplier(n)
    total = 1 << (2 * n)
    full = (1 << total) - 1
    wires: dict[int, int] = {}
    flat_inputs = [p for group in netlist.input_groups for p in group]
    for k, place in enumerate(flat_inputs):
        block = 1 << (1 << k)
        unit = (block - 1) << (1 << k)
        wires[place] = unit * (full // (block * block - 1))
    for g in netlist.gates:
        wires[g.r] = full ^ (wires.get(g.p, 0) & wires.get(g.q, 0))

    half = (1 << n) - 1
    products = [(t & half) * (t >> n) for t in range(total)]
    expected = []
    for k in range(2 * n):
        buf = bytearray(total // 8 if total >= 8 else 1)
        for t, prod in enumerate(products):
            if prod >> k & 1:
                buf[t >> 3] |= 1 << (t & 7)
        expected.append(int.from_bytes(buf, "little"))
    got = [wires.get(p, 0) for p in netlist.output_groups[0]]
    return got, expected


def test_criterion_4_multiplier():
    started = time.perf_counter()

    # the bitsliced evaluator itself is validated against the plain one first
    for n in (1, 2):
        netlist = build_nand_multiplier(n)
        got, _ = bitslice_multiplier_outputs(n)
        for a in range(1 << n):
            for b in range(1 << n):
                t = a | b << n
                bits = boolean_eval(netlist, [a, b])
                for k, place in enumerate(netlist.output_groups[0]):
                    assert got[k] >> t & 1 == bits.get(place, 0)

    # all 65,536 pairs at n = 8 against host-integer multiplication
    got, expected = bitslice_multiplier_outputs(8)
    assert got == expected

    # the per-blade NAND multiply pass == host-integer products, exhaustive for n <= 4
    for n in (1, 2, 3, 4):
        fl = FactoringLayout(n)
        state = build_factoring_superposition(fl)
        assert multiply_all(fl, state) == host_multiply(fl, state)

    # spot check of the blade route at full width
    netlist = build_nand_multiplier(8)
    mem = run_netlist(netlist, load_memory(netlist, [201, 119]))
    assert read_outputs(netlist, mem) == [201 * 119]

    report(4, "multiplier", started, budget=300)


def trial_divisors(z: int) -> set[int]:
    return {d for d in range(1, z + 1) if z % d == 0}


def test_criterion_5_factoring():
    started = time.perf_counter()

    # host-integer products, n = 8: projection and readout for every target below 256
    fl = FactoringLayout(8)
    multiplied = host_multiply(fl, build_factoring_superposition(fl))
    for z in range(1, 256):
        got = read_divisors(fl, project_product(fl, multiplied, z))
        assert got == trial_divisors(z), f"host z={z}"

    # the pipeline's bitsliced fast route, n = 8: every target below 256
    for z in range(1, 256):
        assert factor_pipeline(z, 8)["divisors"] == sorted(trial_divisors(z)), f"planes z={z}"

    # the per-blade NAND multiply pass, n = 5: every target below 32
    fl = FactoringLayout(5)
    multiplied = multiply_all(fl, build_factoring_superposition(fl))
    for z in range(1, 32):
        got = read_divisors(fl, project_product(fl, multiplied, z))
        assert got == trial_divisors(z), f"faithful z={z}"

    assert factor_pipeline(91, 7)["divisors"] == [1, 7, 13, 91]

    report(5, "factoring", started, budget=300)


def test_criterion_6_halting_probe():
    started = time.perf_counter()
    corpus = bundled_machines()
    assert len(corpus) >= 10

    disagreements = []
    for spec in corpus:
        for cells in range(1, 9):
            tapes = [parse_tape("", cells)] + [Config(1 << i, 0, cells) for i in range(cells)]
            for config in tapes:
                previous = False
                for k in range(1, 9):
                    ga = bounded_halt_probe(spec, config, k)
                    direct, _ = run_direct(spec, config, k)
                    if ga != direct:
                        disagreements.append((spec.name, cells, config.code, k))
                    # monotone: once true, stays true for larger bounds
                    assert not (previous and not ga), (spec.name, cells, config.code, k)
                    previous = ga
    assert disagreements == []

    report(6, "halting probe vs direct simulation", started, budget=120)


def test_criterion_7_construction_equivalence():
    started = time.perf_counter()
    machines = {m.name: m for m in bundled_machines()}
    two_state = ["halt-now", "bb1", "runner-right", "runner-left", "left-halter", "wiper"]

    machine_sets = [
        ["halt-now"],
        ["bb1"],
        ["bb1", "runner-right"],
        ["left-halter", "wiper"],
        ["runner-left", "bb1"],
    ]
    config_sets = {
        1: [None, [0, 1]],  # None = the full set for this cell count
        2: [[0, 1, 2, 3], [4, 5, 6, 7], [0, 3, 5, 6]],
    }
    checked = 0
    for names in machine_sets:
        assert len(names) <= 2 and all(n in two_state for n in names)
        specs = [machines[n] for n in names]
        for cells, sets in config_sets.items():
            for config_codes in sets:
                if config_codes is not None and len(config_codes) > 4:
                    continue
                for steps in (1, 2):
                    params = TruncationParams(
                        specs,
                        steps,
                        cells,
                        config_codes=config_codes,
                        state_codes=[0, 1],
                    )
                    assert len(params.config_codes) <= 4
                    free = consistency_project(
                        apply_all_steps(build_free_superposition(params), params),
                        params,
                    )
                    assert free == build_chained_superposition(params), (
                        names,
                        cells,
                        config_codes,
                        steps,
                    )
                    checked += 1
    # a three-state machine under a two-code state set exercises chain drops
    for steps in (1, 2):
        params = TruncationParams(
            [machines["bb2"]], steps, 1, state_codes=[0, 1]
        )
        free = consistency_project(
            apply_all_steps(build_free_superposition(params), params), params
        )
        assert free == build_chained_superposition(params)
        checked += 1
    assert checked >= 30

    report(7, "construction equivalence", started, budget=60)


def test_criterion_8_explicit_non_claims(capsys):
    started = time.perf_counter()

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "halts within K steps" in readme
    assert "unbounded" in readme.lower()  # the probe's limits are documented

    from gacalc.cli import main

    machine = REPO_ROOT / "src" / "gacalc" / "machines" / "bb1.json"
    code = main(
        ["halt-probe", "--machine", str(machine), "--steps", "3", "--tape", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "halts within 3 steps" in out
    assert "unbounded" in out

    code = main(
        [
            "halt-probe",
            "--machine", str(machine),
            "--steps", "3",
            "--tape", "3",
            "--format", "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert "halts within 3 steps" in payload["result"]["semantics"]
    # NOTE: no test in this repository asserts anything about unbounded
    # halting; the probe is bounded by construction.

    report(8, "explicit non-claims", started, budget=30)
