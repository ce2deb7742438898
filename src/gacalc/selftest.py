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
from pathlib import Path

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
    # Checked on both routes to the sign: the product's hoisted scan and
    # blade_mul, which the pipelines use.
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
                if core.blade_mul(1 << i, 1 << j)[1] != -core.blade_mul(1 << j, 1 << i)[1]:
                    ok = False
    out.append(PropertyResult("blade-core", "anticommutation", ok))

    rng = random.Random(10)
    pairs = [(a, b) for a in range(32) for b in range(32)]
    pairs += [(rng.getrandbits(w), rng.getrandbits(w)) for w in (65, 199) for _ in range(4)]
    ok = all(core.reorder_sign(a, b) == _bubble_parity_sign(a, b) for a, b in pairs)
    out.append(PropertyResult("blade-core", "reorder-sign-parity", ok))

    rng = random.Random(13)
    ok = True
    for _ in range(40):
        a, b = (
            core.Multivector(8, {rng.randrange(256): rng.randint(-4, 4) for _ in range(6)})
            for _ in range(2)
        )
        fa, fb = (
            core.Multivector(8, {m: Fraction(c) for m, c in x.terms.items()}) for x in (a, b)
        )
        for got, want in ((a * b, fa * fb), (a + b, fa + fb), (a - b, fa - fb)):
            if got != want or core.to_records(got) != core.to_records(want):
                ok = False
    out.append(PropertyResult("blade-core", "int-fraction-agree", ok))

    # The fraction-free product against one blade_mul per pair, summed as
    # the coefficients come, on mixed int/Fraction operands; the last pair,
    # 3(1 + e_k) * (1 - e_k)/2 = 0, cancels every sum.
    rng = random.Random(14)
    mixed = lambda: rng.choice((1, Fraction(1, rng.randint(1, 6)))) * rng.randint(-4, 4)
    ok = True
    for dim in (12, 40, 199):
        operand = lambda: core.Multivector(
            dim, {rng.getrandbits(dim): mixed() for _ in range(12)}
        )
        e_k = 1 << rng.randrange(dim)
        pairs = [(operand(), operand()) for _ in range(4)]
        pairs.append((
            core.Multivector(dim, {0: 3, e_k: 3}),
            core.Multivector(dim, {0: Fraction(1, 2), e_k: Fraction(-1, 2)}),
        ))
        for a, b in pairs:
            acc = {}
            for ma, ca in a.terms.items():
                for mb, cb in b.terms.items():
                    mask, sign = core.blade_mul(ma, mb)
                    acc[mask] = acc.get(mask, 0) + sign * ca * cb
            want = core.Multivector(dim, acc)
            got = a * b
            if got != want or core.to_records(got) != core.to_records(want):
                ok = False
    out.append(PropertyResult("blade-core", "product-matches-pairwise", ok))

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

    ok = True
    flag = 1 << sl.oracle_dim
    for _ in range(40):
        state = core.Multivector(
            sl.dimension,
            {rng.randrange(1 << sl.dimension): rng.randint(-3, 3) for _ in range(12)},
        )
        marked = set(rng.sample(range(64), rng.randint(0, 40)))
        oracle = search.MembershipOracle(marked.__contains__)
        once = search.half_difference_filter(oracle, state, sl)
        if oracle.eval_count != len({m & ~flag for m in state.masks()}):
            ok = False
        twice = search.half_difference_filter(oracle, once, sl)
        if twice != once or core.to_records(twice) != core.to_records(once):
            ok = False
    out.append(PropertyResult("oracle-search", "filter-is-idempotent", ok))

    ok = True
    for _ in range(30):
        elements = rng.sample(range(64), rng.randint(0, 40))
        marked = set(rng.sample(range(64), rng.randint(0, 40)))
        fused = search.MembershipOracle(marked.__contains__)
        reference = search.MembershipOracle(marked.__contains__)
        got = search.filter_marked(fused, elements, sl)
        want = search.half_difference_filter(
            reference, search.build_initial_state(elements, sl), sl
        )
        counts = {(o.op_count, o.eval_count) for o in (fused, reference)}
        if core.to_records(got) != core.to_records(want) or counts != {(1, len(elements))}:
            ok = False
    out.append(PropertyResult("oracle-search", "fused-filter-matches-reference", ok))
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

    # Both cases of the sign count: mult3.nand's targets ascend, and these
    # half-adder targets 6, 5, 4, 3, 2 descend.  mult3.nand is one lookup
    # table; mult5 is 3 blocks of many gates, run on seeded operand pairs.
    bundled = Path(circuit.__file__).parent / "netlists" / "mult3.nand"
    gates = [(0, 1, 6), (0, 6, 5), (1, 6, 4), (5, 4, 3), (6, 6, 2)]
    descending = circuit.Netlist(
        [circuit.NandGate(*g) for g in gates], [[0], [1]], [[3, 2]]
    )
    mult5 = circuit.build_nand_multiplier(5)
    ok = True
    for netlist in (circuit.parse_netlist(bundled.read_text(encoding="utf-8")), descending, mult5):
        a_width, b_width = map(len, netlist.input_groups)
        for a in range(1 << a_width) if netlist is not mult5 else rng.sample(range(32), 2):
            for b in range(1 << b_width) if netlist is not mult5 else rng.sample(range(32), 2):
                for sign in (1, -1):
                    mem = circuit.MemoryBlade(circuit.load_memory(netlist, [a, b]).mask, sign)
                    want = mem
                    for gate in netlist.gates:
                        want = circuit.nand_apply(gate, want)
                    if circuit.run_netlist(netlist, mem) != want:
                        ok = False
    out.append(PropertyResult("ga-circuit", "run-matches-gate-fold", ok))
    return out


def _divisors(z: int) -> set[int]:
    return {d for d in range(1, z + 1) if z % d == 0}


def _check_factoring() -> list[PropertyResult]:
    ok = all(
        factoring.factor_pipeline(z, 5, route="fast")["divisors"] == sorted(_divisors(z))
        for z in range(1, 32)
    )
    ok = ok and factoring.factor_pipeline(6, 3, route="faithful")["divisors"] == [1, 2, 3, 6]
    out = [PropertyResult("factoring", "divisors-match-trial-division", ok)]

    ok = True
    for z in range(1, 16):
        fast, faithful = (
            factoring.factor_pipeline(z, 4, route=route)
            for route in ("fast", "faithful")
        )
        if fast["divisors"] != faithful["divisors"] or fast["state"] != faithful["state"]:
            ok = False
    out.append(PropertyResult("factoring", "planes-match-blade-route", ok))

    # Signed terms plus a cancelling pair: (x=1, y=0) and (x=2, y=0) give product 0.
    rng = random.Random(41)
    fl = factoring.FactoringLayout(3)
    terms = {rng.randrange(512): rng.choice((-3, -1, 2, Fraction(-1, 2))) for _ in range(24)}
    terms[1], terms[2] = 5, -5
    want = {}
    for mask, c in terms.items():
        image = (mask & 7) * (mask >> 6) | mask >> 6 << 6
        want[image] = want.get(image, 0) + c
    state, want = (core.Multivector(fl.dimension, t) for t in (terms, want))
    ok = factoring.multiply_all(fl, state) == want
    out.append(PropertyResult("factoring", "multiply-matches-host-on-signed-states", ok))
    return out


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

    # The memoized code-level step against tm_step, twice so that the second
    # pass reads the memo; codes outside a machine's states go to REJECT.
    machines = halting.bundled_machines()
    params = halting.TruncationParams(machines, steps=1, cells=3)
    ok = True
    for spec in machines * 2:
        for x in params.config_codes:
            for s in params.state_codes:
                if s < spec.num_states:
                    config, state = halting.tm_step(spec, halting.Config.from_code(x, 3), s)
                    want = config.code | state << params.w_x
                else:
                    want = x | spec.reject << params.w_x
                ok = ok and params.step_codes(spec.code, x | s << params.w_x) == want
    out.append(PropertyResult("halting-probe", "step-codes-match-tm-step", ok))

    # B = 2, the smallest tape here with a chain sign of -1, which the check requires.
    machines = [m for m in halting.bundled_machines() if m.name in ("bb1", "runner-right")]
    params = halting.TruncationParams(machines, steps=2, cells=2, state_codes=[0, 1])
    stepped = halting.apply_all_steps(halting.build_free_superposition(params), params)
    free = halting.consistency_project(stepped, params)
    chained = halting.build_chained_superposition(params)
    ok = free == chained and any(c < 0 for c in chained.terms.values())
    out.append(PropertyResult("halting-probe", "chained-equals-free-construction", ok))

    # The mask test against the slot-by-slot definition: each step output
    # slot k decodes to the same value as the next step's input slot k + 2.
    widths = [params.w_m] + [params.w_x, params.w_s] * 2 * params.steps
    slots = encoding.SubspaceLayout([(str(k), w) for k, w in enumerate(widths)]).subspaces
    links = [
        (slots[k], slots[k + 2]) for i in range(params.steps - 1) for k in (4 * i + 3, 4 * i + 4)
    ]
    by_decode = stepped.project(lambda m: all(a.decode(m) == b.decode(m) for a, b in links))
    ok = free == by_decode and 0 < len(free) < len(stepped)
    out.append(PropertyResult("halting-probe", "consistency-mask-matches-decode", ok))

    # The instance and halt mask tests against their slot-by-slot definitions:
    # slots 0-2 decode to (machine, input, start state); some state slot after
    # step 0 decodes to a halt state of the machine in slot 0.
    machine, x0, s0 = slots[:3]
    ok = True
    for spec in machines:
        for x in params.config_codes:
            want = (spec.code, x, spec.start)
            by_decode = stepped.project(
                lambda m: (machine.decode(m), x0.decode(m), s0.decode(m)) == want
            )
            ok = ok and halting.instance_project(stepped, spec, x, params) == by_decode
    state_slots = [slots[k] for k in range(4, 4 * params.steps + 1, 2)]
    halts = {m.code: m.halt_states for m in machines}
    by_decode = stepped.project(
        lambda m: any(sub.decode(m) in halts[machine.decode(m)] for sub in state_slots)
    )
    kept = halting.halt_project(stepped, params)
    ok = ok and kept == by_decode and 0 < len(kept) < len(stepped)
    out.append(PropertyResult("halting-probe", "instance-and-halt-mask-match-decode", ok))
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
