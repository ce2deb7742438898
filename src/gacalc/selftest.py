"""Reduced-size invariant suite runnable from the CLI.

Each property re-derives its expected values with a small independent check
(bubble-sort parity, plain boolean circuit evaluation, trial division, direct
machine simulation) so a regression in the blade machinery is caught even
when both sides of an internal comparison drift together.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import circuit, core, encoding, factoring, halting, search


@dataclass
class PropertyResult:
    module: str
    name: str
    passed: bool
    detail: str = ""

    @property
    def label(self) -> str:
        return f"{self.module}::{self.name}"


def _bubble_parity_sign(a: int, b: int) -> int:
    seq = [i for i in range(a.bit_length()) if a >> i & 1]
    seq += [i for i in range(b.bit_length()) if b >> i & 1]
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
                changed = True
    return -1 if swaps & 1 else 1


def _random_multivector(rng: random.Random, dim: int, n_terms: int) -> core.Multivector:
    terms = {}
    for _ in range(n_terms):
        terms[rng.randrange(1 << dim)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return core.Multivector(dim, terms)


def _check_blade_core() -> list[PropertyResult]:
    out = []
    dim = 6
    ok = True
    for i in range(dim):
        ei = core.Multivector.basis_vector(dim, i)
        if ei * ei != core.Multivector.scalar(dim, 1):
            ok = False
        for j in range(dim):
            if i != j:
                ej = core.Multivector.basis_vector(dim, j)
                if ei * ej != -(ej * ei):
                    ok = False
    out.append(PropertyResult("blade-core", "anticommutation", ok))

    rng = random.Random(10)
    pairs = [(a, b) for a in range(32) for b in range(32)]
    pairs += [(rng.getrandbits(w), rng.getrandbits(w)) for w in (65, 199) for _ in range(4)]
    ok = all(core.reorder_sign(a, b) == _bubble_parity_sign(a, b) for a, b in pairs)
    out.append(PropertyResult("blade-core", "reorder-sign-parity", ok))

    rng = random.Random(11)
    ok = True
    for _ in range(40):
        a = _random_multivector(rng, 8, 4)
        b = _random_multivector(rng, 8, 4)
        c = _random_multivector(rng, 8, 4)
        if (a * b) * c != a * (b * c):
            ok = False
        if a * (b + c) != a * b + a * c:
            ok = False
    out.append(PropertyResult("blade-core", "associativity-distributivity", ok))

    rng = random.Random(12)
    ok = True
    for _ in range(20):
        a = _random_multivector(rng, 8, 5)
        b = _random_multivector(rng, 8, 5)
        even = lambda m: m.bit_count() % 2 == 0
        if a.project(even).project(even) != a.project(even):
            ok = False
        if (a + b).project(even) != a.project(even) + b.project(even):
            ok = False
        if core.from_records(core.to_records(a), a.dimension) != a:
            ok = False
    out.append(PropertyResult("blade-core", "projection-and-roundtrip", ok))
    return out


def _check_encoding() -> list[PropertyResult]:
    layout = encoding.SubspaceLayout([("lo", 8), ("hi", 8)])
    ok = all(
        encoding.decode(encoding.encode(x, "lo", layout), "lo", layout) == x
        and encoding.encode(x, "lo", layout).bit_count() == x.bit_count()
        for x in range(256)
    )
    ok = ok and all(
        encoding.decode_wide(
            encoding.encode_wide(x, "lo", "hi", layout), "lo", "hi", layout
        )
        == x
        for x in range(0, 1 << 16, 257)
    )
    return [PropertyResult("encoding", "roundtrip-and-grade", ok)]


def _check_oracle_search() -> list[PropertyResult]:
    rng = random.Random(21)
    ok = True
    for _ in range(30):
        n = rng.randint(2, 8)
        universe = range(1 << n)
        elements = set(rng.sample(universe, rng.randint(0, min(16, 1 << n))))
        marked = set(rng.sample(universe, rng.randint(0, min(8, 1 << n))))
        matches, oracle = search.run_search(elements, lambda x: x in marked, n)
        if matches != elements & marked or oracle.op_count != 1:
            ok = False
    out = [PropertyResult("oracle-search", "filter-matches-brute-force", ok)]

    sl = search.SearchLayout(6)
    ok = True
    for x in rng.sample(range(64), 20):
        for fx in (0, 1):
            oracle = search.MembershipOracle(lambda v, fx=fx: fx)
            state = search.build_initial_state({x}, sl)
            expect = state.scale(-1) if fx else state
            if search.apply_oracle(oracle, state, sl) != expect:
                ok = False
    out.append(PropertyResult("oracle-search", "eigenvalue-identity", ok))
    return out


def _boolean_eval(netlist: circuit.Netlist, values: list[int]) -> list[int]:
    bits: dict[int, int] = {}
    for group, value in zip(netlist.input_groups, values):
        for k, place in enumerate(group):
            bits[place] = value >> k & 1
    for g in netlist.gates:
        bits[g.r] = 1 - (bits[g.p] & bits[g.q])
    out = []
    for group in netlist.output_groups:
        out.append(sum(bits.get(p, 0) << k for k, p in enumerate(group)))
    return out


def _check_ga_circuit() -> list[PropertyResult]:
    rng = random.Random(31)
    ok = True
    for _ in range(40):
        context = rng.randrange(1 << 10)
        p, q, r = rng.sample(range(10, 16), 3)
        mem = circuit.MemoryBlade(
            context | (rng.randint(0, 1) << p) | (rng.randint(0, 1) << q)
        )
        result = circuit.nand_apply(circuit.NandGate(p, q, r), mem)
        want = 1 - (circuit.bit_read(mem, p) & circuit.bit_read(mem, q))
        if circuit.bit_read(result, r) != want:
            ok = False
        if (result.mask & ~(1 << r)) != mem.mask:
            ok = False
    out = [PropertyResult("ga-circuit", "nand-truth-table", ok)]

    netlist = circuit.build_nand_multiplier(3)
    ok = True
    for a in range(8):
        for b in range(8):
            mem = circuit.run_netlist(netlist, circuit.load_memory(netlist, [a, b]))
            got = circuit.read_outputs(netlist, mem)
            if got != [a * b] or got != _boolean_eval(netlist, [a, b]):
                ok = False
    out.append(PropertyResult("ga-circuit", "multiplier-3bit-exhaustive", ok))
    return out


def _divisors(z: int) -> set[int]:
    return {d for d in range(1, z + 1) if z % d == 0}


def _check_factoring() -> list[PropertyResult]:
    ok = all(
        factoring.factor_pipeline(z, 5, route="fast")["divisors"] == sorted(_divisors(z))
        for z in range(1, 32)
    )
    ok = ok and factoring.factor_pipeline(6, 3, route="faithful")["divisors"] == [1, 2, 3, 6]
    return [PropertyResult("factoring", "divisors-match-trial-division", ok)]


def _check_halting() -> list[PropertyResult]:
    ok = True
    for spec in halting.bundled_machines():
        for steps in (1, 3, 5):
            cells = 4
            config = halting.parse_tape("", cells)
            ga = halting.bounded_halt_probe(spec, config, steps)
            direct, _ = halting.run_direct(spec, config, steps)
            if ga != direct:
                ok = False
    out = [PropertyResult("halting-probe", "probe-matches-direct-simulation", ok)]

    machines = [m for m in halting.bundled_machines() if m.name in ("bb1", "runner-right")]
    params = halting.TruncationParams(
        machines, steps=2, cells=1, state_codes=[0, 1], term_cap=100_000
    )
    free = halting.consistency_project(
        halting.apply_all_steps(halting.build_free_superposition(params), params), params
    )
    ok = free == halting.build_chained_superposition(params)
    out.append(PropertyResult("halting-probe", "chained-equals-free-construction", ok))
    return out


_CHECKS = {
    "blade-core": _check_blade_core,
    "encoding": _check_encoding,
    "oracle-search": _check_oracle_search,
    "ga-circuit": _check_ga_circuit,
    "factoring": _check_factoring,
    "halting-probe": _check_halting,
}


def run_selftest(module_filter: str | None = None) -> list[PropertyResult]:
    """Run the invariant suite, optionally restricted to one module."""
    if module_filter is not None and module_filter not in _CHECKS:
        raise ValueError(
            f"unknown module {module_filter!r}; expected one of {sorted(_CHECKS)}"
        )
    results: list[PropertyResult] = []
    for name, check in _CHECKS.items():
        if module_filter is not None and name != module_filter:
            continue
        try:
            results.extend(check())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(PropertyResult(name, "suite-crashed", False, repr(exc)))
    return results
