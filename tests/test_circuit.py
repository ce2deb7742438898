"""NAND memory semantics, netlist execution and the gate-level multiplier."""
import random
from fractions import Fraction

import pytest

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
)
from gacalc.core import Multivector


def boolean_eval(netlist: Netlist, values) -> dict[int, int]:
    """Oracle: plain dict-based boolean evaluation, no blades anywhere."""
    bits: dict[int, int] = {}
    for group, value in zip(netlist.input_groups, values):
        for k, place in enumerate(group):
            bits[place] = value >> k & 1
    for g in netlist.gates:
        bits[g.r] = 1 - (bits.get(g.p, 0) & bits.get(g.q, 0))
    return bits


def mask_of(bits: dict[int, int]) -> int:
    return sum(1 << p for p, v in bits.items() if v)


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
            expected = op * mem.as_multivector(dim)
            assert nand_apply(NandGate(p, q, r), mem).as_multivector(dim) == expected


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
        nl.validate()
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


class TestNetlistValidation:
    def test_write_twice(self):
        nl = Netlist([NandGate(0, 1, 2), NandGate(0, 1, 2)], [[0], [1]], [[2]])
        with pytest.raises(NetlistValidationError, match="#1.*twice"):
            nl.validate()

    def test_write_into_input(self):
        nl = Netlist([NandGate(0, 0, 1)], [[0], [1]], [[1]])
        with pytest.raises(NetlistValidationError, match="input place"):
            nl.validate()

    def test_read_before_write(self):
        nl = Netlist([NandGate(0, 5, 2)], [[0], [1]], [[2]])
        with pytest.raises(NetlistValidationError, match="reads place 5"):
            nl.validate()


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
            build_nand_multiplier(n).validate()

    def test_ancillas_are_fresh_per_gate(self):
        nl = build_nand_multiplier(3)
        ancillas = nl.ancilla_places()
        assert ancillas.isdisjoint(nl.inputs)
        assert ancillas.isdisjoint(nl.outputs)
        # every gate writes a distinct place (write-once temporaries)
        targets = [g.r for g in nl.gates]
        assert len(targets) == len(set(targets))


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
    def test_roundtrip(self):
        nl = build_nand_multiplier(2)
        again = parse_netlist(format_netlist(nl))
        assert again.gates == nl.gates
        assert again.input_groups == nl.input_groups
        assert again.output_groups == nl.output_groups

    def test_comments_and_validation(self):
        text = "# a NAND\nINPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\n"
        nl = parse_netlist(text)
        assert nl.gates == [NandGate(0, 1, 2)]

    def test_bad_directive(self):
        with pytest.raises(NetlistValidationError):
            parse_netlist("FROB 1 2 3\n")

    def test_double_write_rejected_at_parse(self):
        text = "INPUT 0\nINPUT 1\nOUTPUT 2\nNAND 0 1 2\nNAND 1 0 2\n"
        with pytest.raises(NetlistValidationError):
            parse_netlist(text)
