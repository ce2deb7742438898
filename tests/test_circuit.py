"""NAND memory semantics, netlist execution and the gate-level multiplier."""
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc import circuit, factoring
from gacalc.circuit import (
    CollisionError,
    GateBuilder,
    MemoryBlade,
    NandGate,
    Netlist,
    NetlistValidationError,
    PlaceMapError,
    TargetOccupiedError,
    bit_read,
    build_nand_multiplier,
    format_netlist,
    linear_extend,
    load_memory,
    nand_apply,
    parse_netlist,
    read_outputs,
    relabel_and_discard,
    run_netlist,
    run_netlist_planes,
)
from gacalc.core import Multivector
from gacalc.factoring import FactoringLayout, _multiplier_for, build_factoring_superposition

from conftest import boolean_eval, int_loop_run, nand_fold, plane_loop_run

NETLISTS = Path(__file__).parent.parent / "src" / "gacalc" / "netlists"


def mask_of(bits: dict[int, int]) -> int:
    return sum(1 << p for p, v in bits.items() if v)


def as_multivector(memory: MemoryBlade, dimension: int) -> Multivector:
    """The memory blade as a signed one-term multivector."""
    return Multivector.blade(dimension, memory.mask, memory.sign)


# --- corpus of small netlists -------------------------------------------------


def single_gate() -> Netlist:
    return Netlist([NandGate(0, 1, 2)], [[0], [1]], [[2]])


def not_gate() -> Netlist:
    return Netlist([NandGate(0, 0, 1)], [[0]], [[1]])


def xor_gate() -> Netlist:
    gb = GateBuilder(2)
    t = gb.nand(0, 1)
    out = gb.nand(gb.nand(0, t), gb.nand(1, t))
    return Netlist(gb.gates, [[0], [1]], [[out]])


def half_adder() -> Netlist:
    gb = GateBuilder(2)
    s, c = gb.half_add(0, 1)
    return Netlist(gb.gates, [[0], [1]], [[s, c]])


def full_adder() -> Netlist:
    gb = GateBuilder(3)
    s, c = gb.full_add(0, 1, 2)
    return Netlist(gb.gates, [[0], [1], [2]], [[s, c]])


CORPUS = {
    "single": single_gate,
    "not": not_gate,
    "xor": xor_gate,
    "half-adder": half_adder,
    "full-adder": full_adder,
    "mult1": lambda: build_nand_multiplier(1),
    "mult2": lambda: build_nand_multiplier(2),
    "mult3": lambda: build_nand_multiplier(3),
    "mult4": lambda: build_nand_multiplier(4),
}


class TestBitRead:
    def test_empty(self):
        assert bit_read(MemoryBlade(0), 5) == 0

    def test_set_bit(self):
        assert bit_read(MemoryBlade(1 << 3), 3) == 1

    def test_coded_number(self):
        # bit 1 of 5 = 0 under the LSB-first convention
        assert bit_read(MemoryBlade(5), 1) == 0
        assert bit_read(MemoryBlade(5), 2) == 1

    def test_sign_is_ignored(self):
        assert bit_read(MemoryBlade(1, -1), 0) == 1


class TestNandApply:
    def test_both_ones_leaves_memory(self):
        mem = MemoryBlade(0b011, -1)
        assert nand_apply(NandGate(0, 1, 2), mem) == mem

    def test_both_zero_on_scalar(self):
        out = nand_apply(NandGate(0, 1, 2), MemoryBlade(0))
        assert out == MemoryBlade(0b100, 1)

    def test_sign_counts_bits_below_target(self):
        # M = e_p with p above r: writing e_r crosses no lower factors
        out = nand_apply(NandGate(3, 1, 0), MemoryBlade(0b1000))
        assert out.mask == 0b1001 and out.sign == 1
        # one occupied place below the target flips the sign
        out = nand_apply(NandGate(0, 2, 3), MemoryBlade(0b001))
        assert out.mask == 0b1001 and out.sign == -1

    def test_truth_table_in_random_contexts(self):
        rng = random.Random(2)
        for _ in range(200):
            context = rng.randrange(1 << 12)
            p, q, r = rng.sample(range(12, 18), 3)
            pv, qv = rng.randint(0, 1), rng.randint(0, 1)
            mem = MemoryBlade(context | pv << p | qv << q, rng.choice((1, -1)))
            out = nand_apply(NandGate(p, q, r), mem)
            assert bit_read(out, r) == 1 - (pv & qv)
            # every non-target bit is untouched
            assert out.mask & ~(1 << r) == mem.mask

    def test_occupied_target(self):
        with pytest.raises(TargetOccupiedError):
            nand_apply(NandGate(0, 1, 2), MemoryBlade(0b100))

    def test_gate_reading_own_output_rejected(self):
        with pytest.raises(NetlistValidationError):
            NandGate(2, 1, 2)

    def test_matches_operator_form(self):
        """The gate action equals the blade-operator product it implements:
        ((p AND q) + e_r*(1 - (p AND q))) * M, checked sign and all."""
        rng = random.Random(8)
        dim = 16
        for _ in range(100):
            context = rng.randrange(1 << 10)
            p, q, r = rng.sample(range(10, dim), 3)
            pv, qv = rng.randint(0, 1), rng.randint(0, 1)
            mem = MemoryBlade(context | pv << p | qv << q)
            both = pv & qv
            op = Multivector(dim, {0: both, 1 << r: 1 - both})
            expected = op * as_multivector(mem, dim)
            assert as_multivector(nand_apply(NandGate(p, q, r), mem), dim) == expected


class TestRunNetlist:
    def test_empty_netlist(self):
        nl = Netlist([], [[0, 1]], [[0]])
        mem = MemoryBlade(0b10)
        assert run_netlist(nl, mem) == mem

    def test_single_gate_both_ones(self):
        nl = single_gate()
        mem = run_netlist(nl, load_memory(nl, [1, 1]))
        assert read_outputs(nl, mem) == [0]

    def test_not_via_nand(self):
        nl = not_gate()
        assert read_outputs(nl, run_netlist(nl, load_memory(nl, [0]))) == [1]
        assert read_outputs(nl, run_netlist(nl, load_memory(nl, [1]))) == [0]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_matches_boolean_eval(self, name):
        nl = CORPUS[name]()
        widths = [len(g) for g in nl.input_groups]
        total_bits = sum(widths)
        assert total_bits <= 10
        for packed in range(1 << total_bits):
            values, shift = [], 0
            for w in widths:
                values.append(packed >> shift & ((1 << w) - 1))
                shift += w
            mem = run_netlist(nl, load_memory(nl, values))
            bits = boolean_eval(nl, values)
            for place, value in bits.items():
                assert bit_read(mem, place) == value

    def test_occupied_ancilla_rejected(self):
        nl = single_gate()
        with pytest.raises(TargetOccupiedError, match="place 2 is not empty"):
            run_netlist(nl, MemoryBlade(0b100))

    def test_occupied_late_target_named_before_any_gate_runs(self):
        nl = build_nand_multiplier(2)
        last = nl.gates[-1].r
        with pytest.raises(TargetOccupiedError, match=f"place {last} is not empty"):
            run_netlist(nl, MemoryBlade(1 << last))


def random_netlist(rng: random.Random, places: int = 40, lo: int = 0) -> Netlist:
    """Gates writing fresh places in shuffled order, each reading known places.

    Every place lies in ``lo .. lo + places - 1``.
    """
    order = list(range(lo, lo + places))
    rng.shuffle(order)
    split = rng.randint(1, 4)
    inputs = order[:split]
    known = list(inputs)
    gates = []
    for r in order[split : split + rng.randint(0, 24)]:
        gates.append(NandGate(rng.choice(known), rng.choice(known), r))
        known.append(r)
    return Netlist(gates, [inputs], [known[-1:]])


def assert_matches_oracles(netlist: Netlist, memory: MemoryBlade) -> MemoryBlade:
    """``run_netlist`` equals the one-int loop and the per-gate fold, mask and sign."""
    out = run_netlist(netlist, memory)
    assert out == int_loop_run(netlist, memory)
    assert out == nand_fold(netlist, memory)
    return out


class TestRunNetlistMatchesNandFold:
    """``run_netlist`` takes one sign per run; the one-int loop and the per-gate
    fold are its oracles."""

    def test_random_netlists_with_unordered_writes(self):
        rng = random.Random(12)
        descending, signs = 0, set()
        for _ in range(1500):
            nl = random_netlist(rng)
            written = [g.r for g in nl.gates]
            descending += any(a > b for a, b in zip(written, written[1:]))
            mem = MemoryBlade(mask_of({p: rng.randint(0, 1) for p in nl.inputs}))
            signs.add(assert_matches_oracles(nl, mem).sign)
        assert descending > 1000
        assert signs == {1, -1}

    def test_context_bits_and_negative_sign(self):
        rng = random.Random(13)
        for _ in range(500):
            nl = random_netlist(rng)
            context = rng.getrandbits(48) << 40  # places no gate reads or writes
            inputs = mask_of({p: rng.randint(0, 1) for p in nl.inputs})
            mem = MemoryBlade(context | inputs, -1)
            out = assert_matches_oracles(nl, mem)
            assert out.mask >> 40 == context >> 40

    def test_window_above_place_zero_with_context_on_both_sides(self):
        rng = random.Random(14)
        signs = set()
        for _ in range(500):
            lo = rng.randint(1, 90)
            nl = random_netlist(rng, lo=lo)
            places = {*nl.inputs, *nl.outputs, *(g.r for g in nl.gates)}
            below, above = rng.getrandbits(lo), rng.getrandbits(30) << (lo + 40)
            inputs = mask_of({p: rng.randint(0, 1) for p in nl.inputs})
            for sign in (1, -1):
                mem = MemoryBlade(below | inputs | above, sign)
                out = assert_matches_oracles(nl, mem)
                assert out.mask & ~(-1 << lo) == below
                assert out.mask >> (lo + 40) << (lo + 40) == above
                signs.add(out.sign)
            assert min(places) >= lo
        assert signs == {1, -1}

    def test_sign_of_ascending_and_descending_writes(self):
        # Three NOTs of a 0 write e_3, e_4, e_5.  Ascending, the run ends at
        # e_5 e_4 e_3 = -e_3 e_4 e_5 (P = C(3, 2) = 3); descending, at
        # e_3 e_4 e_5 (three inversions, P = 0).
        for order, sign in ((3, 4, 5), -1), ((5, 4, 3), 1):
            nl = Netlist([NandGate(0, 0, r) for r in order], [[0]], [[3, 4, 5]])
            out = assert_matches_oracles(nl, MemoryBlade(0))
            assert out == MemoryBlade(0b111000, sign)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_multiplier_input(self, n):
        nl = build_nand_multiplier(n)
        for a in range(1 << n):
            for b in range(1 << n):
                assert_matches_oracles(nl, load_memory(nl, [a, b]))

    def test_every_blade_of_the_factoring_state(self):
        fl = FactoringLayout(5)
        nl = fl.multiplier_netlist()
        state = build_factoring_superposition(fl)
        assert len(state) == 1024
        signs = {
            assert_matches_oracles(nl, MemoryBlade(mask, -1 if i & 1 else 1)).sign
            for i, mask in enumerate(state.masks())
        }
        assert signs == {1, -1}

    def test_builder_and_bundled_targets_ascend(self):
        # So their runs take P = C(c, 2) with no inversion pass.
        bundled = parse_netlist((NETLISTS / "mult3.nand").read_text())
        assert all(nl._ascending for nl in (bundled, *map(_multiplier_for, range(1, 7))))
        assert not Netlist([NandGate(0, 0, 2), NandGate(0, 0, 1)], [[0]], [[1]])._ascending

    def test_bundled_netlist_every_input(self):
        nl = parse_netlist((NETLISTS / "mult3.nand").read_text())
        for a in range(8):
            for b in range(8):
                for sign in (1, -1):
                    mem = MemoryBlade(load_memory(nl, [a, b]).mask, sign)
                    assert read_outputs(nl, assert_matches_oracles(nl, mem)) == [a * b]

    def test_sparse_text_runs_in_bounded_memory(self):
        # Built directly: netlist text is bounded to places below its size.
        base = 1 << 20
        gates = [NandGate(base + k, base + k + 1, base + k + 2) for k in range(200)]
        tracemalloc.start()
        try:
            nl = Netlist(gates, [[base, base + 1]], [[base + 201]])
            out = run_netlist(nl, load_memory(nl, [0b11]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read_outputs(nl, out) == [boolean_eval(nl, [0b11])[base + 201]]
        assert peak < 4 << 20


def exhaustive_planes(netlist: Netlist) -> tuple[dict[int, int], int]:
    """One lane per input assignment: input place j holds bit j of lane t."""
    inputs = netlist.inputs
    lanes = 1 << len(inputs)
    planes = {
        place: sum(1 << t for t in range(lanes) if t >> j & 1)
        for j, place in enumerate(inputs)
    }
    return planes, lanes


def lane_values(netlist: Netlist, t: int) -> list[int]:
    values, shift = [], 0
    for group in netlist.input_groups:
        values.append(t >> shift & ((1 << len(group)) - 1))
        shift += len(group)
    return values


class TestRunNetlistPlanes:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_nand_multiplier(1),
            lambda: build_nand_multiplier(2),
            lambda: build_nand_multiplier(3),
            lambda: parse_netlist((NETLISTS / "mult3.nand").read_text()),
        ],
        ids=["mult1", "mult2", "mult3", "mult3.nand"],
    )
    def test_matches_run_netlist_lane_by_lane(self, make):
        nl = make()
        planes, lanes = exhaustive_planes(nl)
        given = dict(planes)
        out = run_netlist_planes(nl, planes, lanes)
        assert planes == given  # the caller's planes are not consumed
        assert set(out) == set(nl.outputs)
        for t in range(lanes):
            mem = run_netlist(nl, load_memory(nl, lane_values(nl, t)))
            for place in nl.outputs:
                assert out[place] >> t & 1 == bit_read(mem, place), (t, place)

    def test_nonzero_plane_on_target_rejected(self):
        nl = build_nand_multiplier(2)
        last = nl.gates[-1].r
        planes, lanes = exhaustive_planes(nl)
        with pytest.raises(TargetOccupiedError, match=f"place {last} is not empty"):
            run_netlist_planes(nl, {**planes, last: 0b100}, lanes)
        # an all-zero plane on a target is an empty place in every lane
        assert run_netlist_planes(nl, {**planes, last: 0}, lanes) == run_netlist_planes(
            nl, planes, lanes
        )

    @pytest.mark.parametrize("occupied", [(2, 3), (3, 4)])
    def test_first_occupied_target_in_gate_order_is_named(self, occupied):
        # Targets in gate order 3, 2, 4: the first occupied one is neither
        # the lowest nor the highest occupied place.
        nl = Netlist([NandGate(0, 0, r) for r in (3, 2, 4)], [[0]], [[2, 3, 4]])
        planes = {0: 0b01, 2: 0, **dict.fromkeys(occupied, 0b10)}
        with pytest.raises(
            TargetOccupiedError, match=r"^target place 3 is not empty in the initial planes$"
        ):
            run_netlist_planes(nl, planes, 2)

    def test_invalid_netlist_rejected(self):
        # Refused when built, so no run, planes or per blade, ever sees it.
        with pytest.raises(NetlistValidationError, match="reads place 5"):
            Netlist([NandGate(0, 5, 2)], [[0], [1]], [[2]])

    def test_unwritten_top_product_place_reads_zero(self):
        nl = build_nand_multiplier(1)
        top = nl.outputs[-1]
        assert top not in {g.r for g in nl.gates}
        planes, lanes = exhaustive_planes(nl)
        out = run_netlist_planes(nl, planes, lanes)
        assert out[top] == 0
        assert out[nl.outputs[0]] == 0b1000  # AND: only lane a = b = 1


def check_plane_run(nl: Netlist) -> dict[int, int]:
    """The compiled run equals the gate-by-gate plane loop and ``run_netlist``, lane by lane."""
    planes, lanes = exhaustive_planes(nl)
    out = run_netlist_planes(nl, planes, lanes)
    assert out == plane_loop_run(nl, planes, lanes)
    for t in range(lanes):
        mem = run_netlist(nl, load_memory(nl, lane_values(nl, t)))
        for place in nl.outputs:
            assert out[place] >> t & 1 == bit_read(mem, place), (t, place)
    return out


@st.composite
def plane_netlists(draw):
    """Valid netlists rich in the shapes the plane compiler rewrites.

    Each step is a NAND of known places (``p == q`` allowed) or the 4-NAND
    XOR, whose t is at times a known place other than ``a NAND b``; later
    NANDs may read an XOR's t, u or v, so some must not fuse.
    Outputs may be any known place, dead or not, an input place or a place
    no gate writes, and the window may start above place 0.
    """
    lo = draw(st.integers(0, 3))
    inputs = list(range(lo, lo + draw(st.integers(1, 3))))
    known, gates = list(inputs), []

    def nand(p, q):
        gates.append(NandGate(p, q, lo + len(inputs) + len(gates)))
        known.append(gates[-1].r)
        return gates[-1].r

    def pick():
        return draw(st.sampled_from(known))

    for _ in range(draw(st.integers(0, 8))):
        a, b = pick(), pick()
        if draw(st.booleans()):
            t = nand(a, b) if draw(st.booleans()) else pick()  # a near-XOR when picked
            flip = draw(st.booleans())
            u, v = nand(*((t, a) if flip else (a, t))), nand(b, t)
            nand(*((v, u) if flip else (u, v)))
        else:
            nand(a, b)
    outputs = draw(st.lists(st.sampled_from(known), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        outputs.append(lo + len(inputs) + len(gates))  # never written
    return Netlist(gates, [inputs], [outputs])


def xor_netlist(extra=(), outputs=(5,)) -> Netlist:
    """t = 0 NAND 1 at 2, u at 3, v at 4, s = 0 XOR 1 at 5, then ``extra`` gates."""
    gates = [NandGate(0, 1, 2), NandGate(0, 2, 3), NandGate(1, 2, 4), NandGate(3, 4, 5)]
    return Netlist(gates + [NandGate(*g) for g in extra], [[0], [1]], [list(outputs)])


class TestPlaneProgram:
    """The plane program compiled from each netlist equals the gate-by-gate runs."""

    @given(plane_netlists())
    @settings(max_examples=300, deadline=None)
    def test_random_netlists_match_run_netlist(self, nl):
        check_plane_run(nl)

    @pytest.mark.parametrize(
        "nl,ops,plane_ops",
        [
            (xor_netlist(), ["xor"], 1),
            (xor_netlist([(3, 3, 6)], (5, 6)), ["and_", "_and_not", "_and_not", "or_"], 6),
            (xor_netlist(outputs=(5, 4)), ["and_", "_and_not", "_and_not", "or_"], 7),
            (xor_netlist([(2, 2, 6)], (5, 6)), ["and_", "xor"], 2),
            (xor_netlist(outputs=(5, 2)), ["and_", "xor"], 3),
            (
                Netlist(
                    [NandGate(0, 0, 2), NandGate(0, 2, 3), NandGate(1, 2, 4), NandGate(3, 4, 5)],
                    [[0], [1]],
                    [[5]],
                ),
                ["_and_not", "_and_not", "or_"],
                5,
            ),
            (Netlist([NandGate(0, 0, 1)], [[0]], [[1]]), [], 1),
            (Netlist([NandGate(0, 1, 2), NandGate(0, 0, 3)], [[0], [1]], [[3]]), [], 1),
            (Netlist([NandGate(0, 1, 2)], [[0], [1]], [[1, 2, 3]]), ["and_"], 2),
        ],
        ids=[
            "xor-fused", "u-read-twice", "v-is-output", "t-read-elsewhere",
            "t-is-output", "t-not-a-nand-b", "not-is-free", "dead-gate", "input-and-unwritten-outputs",
        ],
    )
    def test_rewrites(self, nl, ops, plane_ops):
        assert [fn.__name__ for fn, *_ in nl._folded({})[0]] == ops
        assert nl.plane_ops() == plane_ops
        out = check_plane_run(nl)
        if nl.outputs == [1, 2, 3]:
            assert out[3] == 0

    @pytest.mark.parametrize(
        "make",
        [*(lambda n=n: build_nand_multiplier(n) for n in range(1, 8)),
         lambda: parse_netlist((NETLISTS / "mult3.nand").read_text())],
        ids=[*(f"mult{n}" for n in range(1, 8)), "mult3.nand"],
    )
    def test_equals_gate_by_gate_plane_loop(self, make):
        nl = make()
        planes, lanes = exhaustive_planes(nl)
        assert run_netlist_planes(nl, planes, lanes) == plane_loop_run(nl, planes, lanes)

    @pytest.mark.parametrize(
        "n,gates,instructions,plane_ops,peak",
        [(5, 210, 110, 110, 21), (9, 774, 414, 414, 37), (12, 1428, 768, 768, 49)],
    )
    def test_multiplier_counts_and_live_planes(self, n, gates, instructions, plane_ops, peak):
        # Live planes under the compiled run's freeing: every input from the
        # start, an instruction's target from its instruction on, until the
        # instruction that frees it.  At most the gate-by-gate run's peak.
        nl = _multiplier_for.__wrapped__(n)  # a fresh netlist: the cached one keeps its folds
        steps, _ = nl._folded({})
        live = {place - nl._lo for place in nl.inputs}
        most = len(live)
        for _, _, _, r, frees in steps:
            live.add(r)
            most = max(most, len(live))
            live.difference_update(frees)
        assert (len(nl.gates), len(steps), nl.plane_ops()) == (gates, instructions, plane_ops)
        assert most <= peak

    def test_building_compiles_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a program compiled when the netlist was built")

        monkeypatch.setattr(circuit, "_plane_program", refuse)
        monkeypatch.setattr(circuit, "_block_program", refuse)
        for nl in (parse_netlist((NETLISTS / "mult3.nand").read_text()), build_nand_multiplier(12)):
            assert not {"_folds", "_blocks"} & nl.__dict__.keys()

    def test_compiled_on_first_run_never_per_run(self, monkeypatch):
        nl = build_nand_multiplier(3)
        planes, lanes = exhaustive_planes(nl)
        expected = plane_loop_run(nl, planes, lanes)
        calls = []
        compile_ = circuit._plane_program
        monkeypatch.setattr(
            circuit, "_plane_program", lambda *args: calls.append(args[3]) or compile_(*args)
        )
        assert "_folds" not in nl.__dict__
        for _ in range(3):
            assert run_netlist_planes(nl, planes, lanes) == expected
        assert calls == [{}]


@st.composite
def folded_runs(draw):
    """A netlist from ``plane_netlists`` and a map of some of its inputs to 0 or 1."""
    nl = draw(plane_netlists())
    fixed = draw(st.dictionaries(st.sampled_from(nl.inputs), st.integers(0, 1)))
    return nl, fixed


def check_folded_run(nl: Netlist, fixed: dict[int, int]) -> dict[int, int]:
    """The folded run equals the unfolded run fed zero or all-ones planes, and the gate loop."""
    planes, lanes = exhaustive_planes(nl)
    full = (1 << lanes) - 1
    fed = {**planes, **{place: full * bit for place, bit in fixed.items()}}
    want = run_netlist_planes(nl, fed, lanes)
    assert want == plane_loop_run(nl, fed, lanes)
    assert run_netlist_planes(nl, planes, lanes, fixed) == want
    unfed = {place: plane for place, plane in planes.items() if place not in fixed}
    assert run_netlist_planes(nl, unfed, lanes, fixed) == want
    return want


class TestFoldedPlaneProgram:
    """Inputs constant in every lane, folded into the compiled plane program."""

    @given(folded_runs())
    @settings(max_examples=300, deadline=None)
    def test_random_folds_match_constant_planes(self, case):
        check_folded_run(*case)

    @pytest.mark.parametrize(
        "fixed,outputs,ops",
        [({0: 0}, {0: 0, 2: 1}, 1), ({0: 1}, {0: 1, 2: None}, 2), ({1: 1}, {0: None, 2: None}, 1)],
        ids=["nand-of-0-is-1", "nand-of-1-is-not", "other-input"],
    )
    def test_outputs_that_fold_to_a_constant(self, fixed, outputs, ops):
        # Outputs 0 (an input) and 2 = 0 NAND 1; a constant output is the
        # zero plane, complemented for a 1, which costs one operation.
        nl = Netlist([NandGate(0, 1, 2)], [[0], [1]], [[0, 2]])
        out = check_folded_run(nl, fixed)
        full = (1 << 4) - 1
        for place, bit in outputs.items():
            if bit is not None:
                assert out[place] == full * bit, place
        assert nl.plane_ops(fixed) == ops

    def test_multiplier_folds_drop_work(self):
        # Folding the top y bit to 0 drops the last partial-product row and its adder.
        nl = _multiplier_for.__wrapped__(9)
        top = nl.inputs[-1]
        assert nl.plane_ops({top: 0}) < nl.plane_ops({top: 1}) < nl.plane_ops()
        check = _multiplier_for(3)
        for bits in range(4):
            check_folded_run(check, {check.inputs[-1]: bits & 1, check.inputs[-2]: bits >> 1})

    def test_folds_compiled_once_and_bounded(self, monkeypatch):
        nl = build_nand_multiplier(3)
        calls = []
        compile_ = circuit._plane_program
        monkeypatch.setattr(
            circuit, "_plane_program", lambda *args: calls.append(args[3]) or compile_(*args)
        )
        planes, lanes = exhaustive_planes(nl)
        # The unfolded program is the empty fold, cached and evicted like the others.
        folds = [{}, *({p: bit} for p in nl.inputs[:3] for bit in (0, 1))]
        for fixed in folds:
            run_netlist_planes(nl, planes, lanes, fixed)
        assert calls == folds
        kept = folds[-circuit.FOLDED_PROGRAMS :]  # the last four, oldest first
        assert list(nl._folds) == [tuple(fixed.items()) for fixed in kept]
        for fixed in kept:
            run_netlist_planes(nl, planes, lanes, fixed)
        assert calls == folds
        run_netlist_planes(nl, planes, lanes, {})  # evicted first: compiled again
        assert calls == folds + [{}]
        assert list(nl._folds) == [tuple(fixed.items()) for fixed in kept[1:] + [{}]]

    @pytest.mark.parametrize("fixed", [{9: 1}, {0: 2}], ids=["not-an-input", "not-a-bit"])
    def test_only_input_bits_fold(self, fixed):
        nl = build_nand_multiplier(2)
        planes, lanes = exhaustive_planes(nl)
        with pytest.raises(ValueError, match="only input places fold"):
            run_netlist_planes(nl, planes, lanes, fixed)


@st.composite
def block_runs(draw):
    """A valid netlist and a start memory that reach every path of the block cover.

    Up to 12 inputs, so a run of gates on consecutive targets can read more
    than ``LUT_INPUTS`` places from outside: in a wide draw there are more
    inputs than that, and each gate reads only inputs, two that no earlier
    gate read while any are left, so a run passes ``LUT_INPUTS`` outside
    reads by its fifth gate.  Targets either climb one place at a time,
    with or without gaps, or come in any order (descending and scattered,
    so singleton blocks); ``p == q`` gates; outputs that are inputs,
    written places or places no gate writes.  The start holds any
    input bits, bits on either side of the window and on unwritten places
    inside it, and either sign.
    """
    lo, wide = draw(st.integers(0, 3)), draw(st.booleans())
    inputs = list(range(lo, lo + draw(st.integers(circuit.LUT_INPUTS + 1 if wide else 1, 12))))
    count = draw(st.integers(0, 16))
    targets, place, gaps = [], inputs[-1], draw(st.sampled_from([[0], [0, 0, 0, 1]]))
    for _ in range(count):
        place += 1 + draw(st.sampled_from(gaps))
        targets.append(place)
    if draw(st.booleans()):
        targets = draw(st.permutations(targets))
    known, gates = list(inputs), []
    fresh = cycle(draw(st.permutations(inputs)))
    for r in targets:
        if wide:
            p, q = next(fresh), next(fresh)
        else:
            p = draw(st.sampled_from(known))
            q = p if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from(known))
        gates.append(NandGate(p, q, r))
        known.append(r)
    unwritten = place + 1
    outputs = draw(st.lists(st.sampled_from([*known, unwritten]), min_size=1, max_size=4, unique=True))
    nl = Netlist(gates, [inputs], [outputs])
    free = set(range(lo, unwritten + 1)) - set(inputs) - set(targets)
    start = draw(st.integers(0, (1 << lo) - 1)) | draw(st.integers(0, 255)) << unwritten + 1
    start |= mask_of({p: draw(st.integers(0, 1)) for p in [*inputs, *free]})
    return nl, MemoryBlade(start, draw(st.sampled_from([1, -1])))


def check_blocks(nl: Netlist) -> None:
    """Blocks cover the gate targets in gate order, at most 2^9 rows per table,
    and every stored row is what the block's gates write from its key."""
    top = nl._width - 1
    blocks = nl._blocks
    assert [r for _, gates, *_ in blocks for _, _, r in gates] == [top - r for _, _, r in nl._program]
    for get, gates, table, a, b in blocks:
        assert sorted(r for _, _, r in gates) == list(range(a, b))
        inputs = sorted({x for p, q, _ in gates for x in (p, q)} - set(range(a, b)))
        assert len(inputs) <= circuit.LUT_INPUTS == 9
        assert len(table) <= 1 << circuit.LUT_INPUTS
        for key, row in table.items():
            bits = dict(zip(inputs, key if len(inputs) > 1 else (key,)))
            cells = bytearray(nl._width)
            for x, bit in bits.items():
                cells[x] = bit
            assert get(cells) == key
            for p, q, r in gates:
                bits[r] = int(not (bits[p] and bits[q]))
            assert row == bytes(bits[r] for r in range(a, b))


def run_twice(nl: Netlist, memory: MemoryBlade) -> None:
    """A run that fills its rows, then one that finds them, both equal to the oracles."""

    def rows():
        return sum(len(table) for _, _, table, _, _ in nl._blocks)

    before = rows()
    out = assert_matches_oracles(nl, memory)
    filled = rows()
    assert before <= filled <= before + len(nl._blocks)
    assert assert_matches_oracles(nl, memory) == out
    assert rows() == filled


class TestBlockProgram:
    """The per-blade run's table lookups, each row filled on first use, equal
    the gate-by-gate fold."""

    @given(block_runs())
    @settings(max_examples=400, deadline=None)
    def test_random_netlists_match_the_gate_fold(self, run):
        nl, mem = run
        run_twice(nl, mem)
        check_blocks(nl)

    @pytest.mark.parametrize(
        "make,blocks",
        [
            (lambda: parse_netlist((NETLISTS / "mult3.nand").read_text()), 1),
            (lambda: build_nand_multiplier(5), 3),
            (lambda: _multiplier_for(5), 3),
            (lambda: build_nand_multiplier(9), 30),
        ],
        ids=["mult3.nand", "mult5", "factoring-5", "mult9"],
    )
    def test_block_counts(self, make, blocks):
        nl = make()
        assert nl.table_lookups == len(nl._blocks) == blocks
        for a, b in ((3, 5), (6, 7), (3, 5)):
            mem = load_memory(nl, [a, b])
            run_twice(nl, mem)
            assert read_outputs(nl, run_netlist(nl, mem)) == [a * b]
        check_blocks(nl)

    def test_fan_in_beyond_the_table_width_ends_a_block(self):
        # Targets 11..20 are consecutive; gate k reads input k + 1 beside the
        # previous target, so the run reads 10 inputs from outside by target 19.
        gates = [NandGate(0, 1, 11)] + [NandGate(k + 1, 10 + k, 11 + k) for k in range(1, 10)]
        nl = Netlist(gates, [list(range(11))], [[20]])
        top = nl._width - 1
        assert [(top + 1 - b, top + 1 - a) for *_, a, b in nl._blocks] == [(11, 19), (19, 21)]
        for x in range(1 << 11):
            for sign in (1, -1):
                assert_matches_oracles(nl, MemoryBlade(x, sign))
        assert [len(table) for _, _, table, _, _ in nl._blocks] == [512, 8]
        check_blocks(nl)

    def test_descending_targets_are_singleton_blocks(self):
        nl = Netlist([NandGate(0, 0, r) for r in (5, 4, 3)], [[0]], [[3, 4, 5]])
        assert [(gates, table, a, b) for _, gates, table, a, b in nl._blocks] == [
            (((5, 5, c),), {}, c, c + 1) for c in (0, 1, 2)
        ]
        for bit in (0, 1):
            run_netlist(nl, MemoryBlade(bit))
        assert [table for _, _, table, _, _ in nl._blocks] == [{0: b"\1", 1: b"\0"}] * 3

    def test_compiled_once_on_the_first_per_blade_run(self, monkeypatch):
        calls = []
        compile_blocks = circuit._block_program
        monkeypatch.setattr(
            circuit,
            "_block_program",
            lambda program, width: calls.append((program, width)) or compile_blocks(program, width),
        )
        nl = build_nand_multiplier(3)
        assert calls == []
        for a, b in ((3, 5), (7, 6)):
            assert read_outputs(nl, run_netlist(nl, load_memory(nl, [a, b]))) == [a * b]
        assert calls == [(nl._program, nl._width)]

    def test_one_blade_holds_one_row_per_block(self):
        # Gate i reads inputs 2i and 2i + 1 (mod 3,000): four gates a block.
        inputs = range(3000)
        gates = [NandGate(2 * i % 3000, (2 * i + 1) % 3000, 3000 + i) for i in range(6000)]
        nl = Netlist(gates, [inputs], [[8999]])
        memory = MemoryBlade(random.Random(15).getrandbits(3000))
        tracemalloc.start()
        try:
            out = run_netlist(nl, memory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == int_loop_run(nl, memory)
        assert len(nl._blocks) == 1500
        assert all(len(table) == 1 for _, _, table, _, _ in nl._blocks)
        assert peak < 8 << 20

    def test_plane_route_never_compiles_blocks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("block program compiled on the plane route")

        monkeypatch.setattr(circuit, "_block_program", refuse)
        fresh = lru_cache(maxsize=None)(factoring._multiplier_for.__wrapped__)
        monkeypatch.setattr(factoring, "_multiplier_for", fresh)
        assert factoring.factor_pipeline(21, 5, "fast")["divisors"] == [1, 3, 7, 21]
        assert "_blocks" not in fresh(5).__dict__


class TestNetlistValidation:
    def test_write_twice(self):
        with pytest.raises(NetlistValidationError, match="#1.*twice"):
            Netlist([NandGate(0, 1, 2), NandGate(0, 1, 2)], [[0], [1]], [[2]])

    def test_write_into_input(self):
        with pytest.raises(NetlistValidationError, match="input place"):
            Netlist([NandGate(0, 0, 1)], [[0], [1]], [[1]])

    def test_read_before_write(self):
        with pytest.raises(NetlistValidationError, match="reads place 5"):
            Netlist([NandGate(0, 5, 2)], [[0], [1]], [[2]])

    def test_negative_input_place(self):
        # No gate reads place -3, so only the declaration can catch it.
        with pytest.raises(NetlistValidationError, match="INPUT place -3 is negative"):
            parse_netlist("INPUT 0 -3\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\n")

    def test_negative_output_place(self):
        with pytest.raises(NetlistValidationError, match="OUTPUT place -3 is negative"):
            parse_netlist("INPUT 0\nINPUT 1\nOUTPUT 2 -3\nNAND 0 1 2\n")


class TestNetlistIsFrozen:
    """A built netlist is its one compiled program: nothing can change it."""

    def test_changes_raise(self):
        nl = half_adder()
        gates = nl.gates
        with pytest.raises(FrozenInstanceError):
            nl.gates = gates[:-1]
        with pytest.raises(FrozenInstanceError):
            nl._program = ()
        with pytest.raises(AttributeError):
            nl.gates.append(NandGate(0, 1, 99))
        with pytest.raises(AttributeError):
            nl.output_groups[0].pop()
        assert nl.gates == gates and half_adder() == nl

    def test_lists_are_stored_as_tuples(self):
        gates, inputs, outputs = [NandGate(0, 1, 2)], [[0], [1]], [[2]]
        nl = Netlist(gates, inputs, outputs)
        gates.append(NandGate(0, 2, 3))
        outputs[0].append(3)
        assert nl == Netlist((NandGate(0, 1, 2),), ((0,), (1,)), ((2,),))
        assert run_netlist(nl, load_memory(nl, [1, 1])).mask == 0b011


class TestMultiplier:
    def test_one_bit_is_and(self):
        nl = build_nand_multiplier(1)
        for a in (0, 1):
            for b in (0, 1):
                mem = run_netlist(nl, load_memory(nl, [a, b]))
                assert read_outputs(nl, mem) == [a * b]

    def test_three_bit_example(self):
        nl = build_nand_multiplier(3)
        mem = run_netlist(nl, load_memory(nl, [5, 7]))
        assert read_outputs(nl, mem) == [35]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_widths(self, n):
        nl = build_nand_multiplier(n)
        out_group = nl.output_groups[0]
        assert len(out_group) == 2 * n
        for a in range(1 << n):
            for b in range(1 << n):
                bits = boolean_eval(nl, [a, b])
                got = sum(bits.get(p, 0) << k for k, p in enumerate(out_group))
                assert got == a * b

    def test_custom_places(self):
        nl = build_nand_multiplier(2, a_places=[0, 1], b_places=[4, 5], first_free=6)
        mem = run_netlist(nl, load_memory(nl, [3, 3]))
        assert read_outputs(nl, mem) == [9]

    def test_write_once_discipline(self):
        for n in (1, 2, 3, 5):
            build_nand_multiplier(n)  # checked when built; raises on a violation

    def test_ancillas_are_fresh_per_gate(self):
        nl = build_nand_multiplier(3)
        ancillas = {g.r for g in nl.gates} - set(nl.outputs)
        assert ancillas.isdisjoint(nl.inputs)
        assert ancillas.isdisjoint(nl.outputs)
        # every gate writes a distinct place (write-once temporaries)
        targets = [g.r for g in nl.gates]
        assert len(targets) == len(set(targets))

    @pytest.mark.parametrize("n,gates,peak", [(5, 210, 21), (9, 774, 37), (12, 1428, 49)])
    def test_rows_built_beside_their_adders_bound_live_planes(self, n, gates, peak):
        # Counted under the gate-by-gate plane loop's freeing rule
        # (conftest.plane_loop_run): every input is live from the start, a
        # gate's target from its gate on, and a place that is not an output
        # is freed after its last read.
        nl = _multiplier_for(n)
        lo, program = nl._lo, nl._program
        outputs = {place - lo for place in nl.outputs}
        last_read = {}
        for idx, (p, q, _) in enumerate(program):
            last_read[p] = last_read[q] = idx
        live = {place - lo for place in nl.inputs}
        most = len(live)
        for idx, (p, q, r) in enumerate(program):
            live.add(r)
            most = max(most, len(live))
            live -= {w for w in (p, q) if last_read[w] == idx and w not in outputs}
        assert (len(program), most) == (gates, peak)


class TestLinearExtend:
    def test_identity(self):
        extend = linear_extend(lambda m: Multivector.blade(6, m))
        a = Multivector(6, {0b101: Fraction(2, 3), 0: -1})
        assert extend(a) == a

    def test_single_blade_equals_op(self):
        op = lambda m: Multivector.blade(6, m ^ 0b11, 2)
        extend = linear_extend(op)
        assert extend(Multivector.blade(6, 0b100)) == op(0b100)

    def test_linearity(self):
        op = lambda m: Multivector(6, {m: 1, m ^ 0b1: 2})
        extend = linear_extend(op)
        rng = random.Random(4)
        for _ in range(20):
            a = Multivector(6, {rng.randrange(64): rng.randint(-3, 3) for _ in range(4)})
            b = Multivector(6, {rng.randrange(64): rng.randint(-3, 3) for _ in range(4)})
            alpha, beta = Fraction(2, 5), Fraction(-7, 3)
            assert extend(a.scale(alpha) + b.scale(beta)) == extend(a).scale(
                alpha
            ) + extend(b).scale(beta)


class TestRelabelAndDiscard:
    def test_identity_normalizes_signs(self):
        a = Multivector(4, {0b101: -3, 0b010: Fraction(2, 7)})
        out = relabel_and_discard(a, {i: i for i in range(4)}, set(), dimension=4)
        assert out == Multivector(4, {0b101: 3, 0b010: Fraction(2, 7)})

    def test_discard_merges_multiplicities(self):
        # two terms identical on kept places merge additively
        a = Multivector(4, {0b0101: 1, 0b1101: 1})
        out = relabel_and_discard(a, {0: 0, 2: 1}, {1, 3}, dimension=2)
        assert out == Multivector(2, {0b11: 2})

    def test_crafted_collision_detected(self):
        # same kept bits, different discarded bits, cancelling coefficients:
        # the discarded place was not a function of the kept ones
        a = Multivector(4, {0b0101: 1, 0b1101: -1})
        with pytest.raises(CollisionError):
            relabel_and_discard(a, {0: 0, 2: 1}, {1, 3}, dimension=2)

    def test_unmapped_place_rejected(self):
        a = Multivector(4, {0b1000: 1})
        with pytest.raises(PlaceMapError):
            relabel_and_discard(a, {0: 0}, {1}, dimension=1)

    def test_non_injective_map_rejected(self):
        with pytest.raises(PlaceMapError):
            relabel_and_discard(Multivector.zero(2), {0: 0, 1: 0}, set())

    def test_overlapping_kept_discard_rejected(self):
        with pytest.raises(PlaceMapError):
            relabel_and_discard(Multivector.zero(2), {0: 0}, {0})


class TestNetlistText:
    _lines = st.tuples(
        st.sampled_from(["INPUT", "OUTPUT", "NAND", "nand", "#", "FROB", ""]),
        st.lists(
            st.integers(-1, (1 << 64) - 1).map(str) | st.integers(0, 8).map(str)
            | st.text(alphabet="0123456789x-. ", max_size=3),
            max_size=4,
        ),
    ).map(lambda line: " ".join([line[0], *line[1]]))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_lines, max_size=8).map("\n".join))
    def test_parse_raises_only_validation_error(self, text):
        try:
            nl = parse_netlist(text)
        except NetlistValidationError:
            return
        assert parse_netlist(format_netlist(nl)).gates == nl.gates

    @pytest.mark.parametrize(
        "text", ["INPUT 0\nINPUT 1\nNAND 0 1 67108864\n", "INPUT 1099511627776\n"]
    )
    def test_place_beyond_size_rejected_before_memory(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(NetlistValidationError, match="is not below"):
                parse_netlist(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "make, widest, bound",
        [
            (lambda: parse_netlist((NETLISTS / "mult3.nand").read_text()), 65, 72),
            (lambda: _multiplier_for(12), 1463, 1476),
        ],
        ids=["mult3.nand", "multiplier-12"],
    )
    def test_bundled_and_generated_netlists_fit(self, make, widest, bound):
        nl = make()
        places = nl.inputs + nl.outputs + [p for g in nl.gates for p in (g.p, g.q, g.r)]
        assert (max(places), len(nl.inputs) + len(nl.gates) + len(nl.outputs)) == (widest, bound)
        assert parse_netlist(format_netlist(nl)).gates == nl.gates

    def test_place_at_size_rejected(self):
        # INPUT 0, INPUT 1, one gate, no outputs: places must be below 3.
        assert parse_netlist("INPUT 0\nINPUT 1\nNAND 0 1 2\n").gates == (NandGate(0, 1, 2),)
        with pytest.raises(NetlistValidationError, match="line 3: place 3 is not below 3"):
            parse_netlist("INPUT 0\nINPUT 1\nNAND 0 1 3\n")

    def test_roundtrip(self):
        nl = build_nand_multiplier(2)
        again = parse_netlist(format_netlist(nl))
        assert again.gates == nl.gates
        assert again.input_groups == nl.input_groups
        assert again.output_groups == nl.output_groups

    def test_comments_and_validation(self):
        text = "# a NAND\nINPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\n"
        nl = parse_netlist(text)
        assert nl.gates == (NandGate(0, 1, 2),)

    def test_bad_directive(self):
        with pytest.raises(NetlistValidationError):
            parse_netlist("FROB 1 2 3\n")

    def test_double_write_rejected_at_parse(self):
        text = "INPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\nNAND 1 0 2\n"
        with pytest.raises(NetlistValidationError):
            parse_netlist(text)
