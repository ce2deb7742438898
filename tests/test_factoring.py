"""Factoring pipeline against trial division, plus faithful/fast route equality."""
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc.circuit import MemoryBlade, relabel_and_discard, run_netlist
from gacalc.core import MAX_TERMS, Multivector, ResourceCapError, to_records
from gacalc.encoding import decode, decode_wide, encode, encode_wide
from gacalc.factoring import (
    ROUTES,
    FactoringLayout,
    _multiplier_for,
    build_factoring_superposition,
    factor_pipeline,
    multiply_all,
    project_product,
    read_divisors,
)


def divisors(z: int) -> set[int]:
    """Oracle: trial division."""
    return {d for d in range(1, z + 1) if z % d == 0}


def reference_project_product(fl: FactoringLayout, state: Multivector, z: int) -> Multivector:
    """Reference projection: decode each term's product from subspaces "0" + "1"."""
    return state.project(lambda mask: decode_wide(mask, "0", "1", fl.layout) == z)


def host_multiply(fl: FactoringLayout, state: Multivector) -> Multivector:
    """Reference multiplier on plain ints: x * y into bits [0, 2n), y kept above.

    Subspaces "0", "1", "2" sit at bits [0, n), [n, 2n), [2n, 3n), so the wide
    product across "0"+"1" is the integer itself.
    """
    n = fl.n
    acc = {}
    for mask, c in state.terms.items():
        x, y = mask & (1 << n) - 1, mask >> 2 * n
        out = x * y | y << 2 * n
        acc[out] = acc.get(out, 0) + c
    return Multivector(fl.dimension, acc)


def relabel_route_multiply(fl: FactoringLayout, state: Multivector) -> Multivector:
    """The faithful route through the netlist's own place algebra.

    Each blade runs through the NAND netlist in the wider algebra of all its
    places; ``relabel_and_discard`` then moves the product places onto
    subspaces "0"+"1", keeps "2" and drops every other place.  It takes the
    absolute value of each merged coefficient and raises ``CollisionError``
    when merged terms cancel, so it matches ``multiply_all`` on
    unit-coefficient states only.
    """
    netlist = fl.multiplier_netlist()
    places = [*netlist.inputs, *netlist.outputs, *(g.r for g in netlist.gates)]
    dim = max(places) + 1
    wide = Multivector(dim, state.terms).map_blades(
        lambda mask: (run_netlist(netlist, MemoryBlade(mask)).mask, 1)
    )
    place_map = {src: k for k, src in enumerate(netlist.output_groups[0])}
    for place in range(2 * fl.n, 3 * fl.n):  # subspace "2" stays put
        place_map[place] = place
    discard = set(range(dim)) - set(place_map)
    return relabel_and_discard(wide, place_map, discard, dimension=fl.dimension)


coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6)
).filter(bool)


@st.composite
def signed_states(draw, n):
    """An arbitrary signed state of the width-n layout.

    Half the draws add a cancelling pair: (x1, y = 0) and (x2, y = 0) with
    opposite coefficients, which both multiply to the blade of product 0.
    """
    fl = FactoringLayout(n)
    terms = draw(
        st.dictionaries(st.integers(0, (1 << fl.dimension) - 1), coefficients, max_size=12)
    )
    if draw(st.booleans()):
        xs = st.integers(0, (1 << n) - 1)
        x1, x2 = draw(st.lists(xs, min_size=2, max_size=2, unique=True))
        c = draw(coefficients)
        terms[x1], terms[x2] = c, -c
    return Multivector(fl.dimension, terms)


@st.composite
def product_states(draw):
    """A target z and an arbitrary state whose masks may set any bit.

    The state is four dimensions wider than the layout, so bits above subspace
    "2" occur too; about half the terms carry z in subspaces "0" + "1".
    """
    n = draw(st.integers(1, 5))
    fl = FactoringLayout(n)
    z = draw(st.integers(1, (1 << n) - 1))
    dim = fl.dimension + 4
    product, low = encode_wide(z, "0", "1", fl.layout), (1 << 2 * n) - 1
    terms = {}
    for mask, hit in draw(
        st.lists(st.tuples(st.integers(0, (1 << dim) - 1), st.booleans()), max_size=24)
    ):
        terms[mask & ~low | product if hit else mask] = draw(
            st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6)).filter(bool)
        )
    return fl, Multivector(dim, terms), z


class TestSuperposition:
    def test_width_one_terms(self):
        fl = FactoringLayout(1)
        state = build_factoring_superposition(fl)
        # 1, L1(1)L2(1), L0(1), L0(1)L1(1)L2(1)
        assert dict(state.terms) == {0b000: 1, 0b110: 1, 0b001: 1, 0b111: 1}

    def test_width_two_grades(self):
        fl = FactoringLayout(2)
        state = build_factoring_superposition(fl)
        assert len(state) == 16
        for mask in state.masks():
            x = decode(mask, "0", fl.layout)
            y = decode(mask, "1", fl.layout)
            assert mask.bit_count() == x.bit_count() + 2 * y.bit_count()

    def test_operand_copies_agree(self):
        fl = FactoringLayout(3)
        state = build_factoring_superposition(fl)
        assert len(state) == 4**3
        for mask in state.masks():
            assert decode(mask, "1", fl.layout) == decode(mask, "2", fl.layout)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            build_factoring_superposition(FactoringLayout(11))


class TestMultiplyAll:
    def test_width_one_is_and(self):
        fl = FactoringLayout(1)
        out = multiply_all(fl, build_factoring_superposition(fl), route="fast")
        # product bit = AND(x, y); the two zero-product x-values merge at y=0
        assert dict(out.terms) == {0b000: 2, 0b100: 1, 0b101: 1}

    def test_single_term_host_check(self):
        fl = FactoringLayout(3)
        layout = fl.layout
        term = Multivector.blade(
            fl.dimension,
            encode(5, "0", layout) | encode(7, "1", layout) | encode(7, "2", layout),
        )
        for route in ("fast", "faithful"):
            out = multiply_all(fl, term, route=route)
            assert len(out) == 1
            (mask,) = out.masks()
            assert decode(mask, "0", layout) | decode(mask, "1", layout) << 3 == 35
            assert decode(mask, "2", layout) == 7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_routes_agree_exhaustively(self, n):
        fl = FactoringLayout(n)
        layout = fl.layout
        full = build_factoring_superposition(fl)
        assert multiply_all(fl, full, route="fast") == multiply_all(
            fl, full, route="faithful"
        )
        for x in range(1 << n):
            for y in range(1 << n):
                term = Multivector.blade(
                    fl.dimension,
                    encode(x, "0", layout)
                    | encode(y, "1", layout)
                    | encode(y, "2", layout),
                )
                assert multiply_all(fl, term, route="fast") == multiply_all(
                    fl, term, route="faithful"
                )

    @pytest.mark.parametrize("route", ROUTES)
    def test_agrees_with_fraction_copy(self, route, as_fractions):
        fl = FactoringLayout(4)
        state = build_factoring_superposition(fl)
        assert all(type(c) is int for c in state.terms.values())
        got = multiply_all(fl, state, route=route)
        want = multiply_all(fl, as_fractions(state), route=route)
        assert got == want
        assert to_records(got) == to_records(want)
        assert all(type(c) is int for c in got.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), coefficients)
    def test_linear_on_signed_states(self, data, n, k):
        fl = FactoringLayout(n)
        a, b = data.draw(signed_states(n)), data.draw(signed_states(n))
        for state in (a, b, a + b):
            want = host_multiply(fl, state)
            assert multiply_all(fl, state, "fast") == want == multiply_all(fl, state, "faithful")
        for route in ROUTES:
            mul = partial(multiply_all, fl, route=route)
            assert mul(a + b) == mul(a) + mul(b)
            assert mul(a.scale(k)) == mul(a).scale(k)

    @pytest.mark.parametrize("route", ROUTES)
    def test_signed_and_cancelling_terms(self, route):
        fl = FactoringLayout(2)
        layout = fl.layout
        # (x=1, y=0) and (x=2, y=0) both multiply to product 0, y = 0.
        pair = Multivector(fl.dimension, {encode(1, "0", layout): 1, encode(2, "0", layout): -1})
        assert multiply_all(fl, pair, route=route).is_zero()
        term = Multivector.blade(fl.dimension, encode(3, "0", layout) | encode(3, "2", layout), -3)
        out = multiply_all(fl, term, route=route)
        assert dict(out.terms) == {encode_wide(9, "0", "1", layout) | encode(3, "2", layout): -3}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_relabel_route_on_unit_states(self, n):
        fl = FactoringLayout(n)
        top = (1 << n) - 1
        states = [
            build_factoring_superposition(fl),
            build_factoring_superposition(fl, xs=range(0, top + 1, 2), ys=[0, 1, top]),
            build_factoring_superposition(fl, xs=[top], ys=range(top + 1)),
            build_factoring_superposition(fl, xs=[0, 1], ys=[0]),
        ]
        for state in states:
            want = relabel_route_multiply(fl, state)
            assert multiply_all(fl, state, route="fast") == want
            assert multiply_all(fl, state, route="faithful") == want

    def test_merged_multiplicities_positive(self):
        # every x multiplied by y = 0 lands on the same term; coefficients add
        fl = FactoringLayout(2)
        out = multiply_all(fl, build_factoring_superposition(fl), route="faithful")
        assert out.coefficient(0) == 4  # (x, 0) for all four x
        assert all(c > 0 for c in out.terms.values())


class TestProjectAndRead:
    def test_unreachable_product_empty(self):
        # restricted operand ranges that cannot produce the target
        fl = FactoringLayout(3)
        out = multiply_all(fl, build_factoring_superposition(fl, xs=[2], ys=[2]))
        assert project_product(fl, out, 5).is_zero()

    def test_divisor_readout_n3(self):
        fl = FactoringLayout(3)
        out = multiply_all(fl, build_factoring_superposition(fl))
        projected = project_product(fl, out, 6)
        assert read_divisors(fl, projected) == {1, 2, 3, 6}
        values = {decode(m, "2", fl.layout) for m in projected.masks()}
        assert values == {1, 2, 3, 6}

    def test_projection_idempotent(self):
        fl = FactoringLayout(3)
        out = multiply_all(fl, build_factoring_superposition(fl))
        once = project_product(fl, out, 6)
        assert project_product(fl, once, 6) == once

    @settings(max_examples=150, deadline=None)
    @given(product_states())
    def test_mask_test_matches_decode(self, case):
        fl, state, z = case
        got = project_product(fl, state, z)
        assert dict(got.terms) == dict(reference_project_product(fl, state, z).terms)
        assert got.dimension == state.dimension

    def test_prime(self):
        assert factor_pipeline(5, 3)["divisors"] == [1, 5]

    def test_one(self):
        assert factor_pipeline(1, 2)["divisors"] == [1]

    def test_range_validation(self):
        fl = FactoringLayout(3)
        state = build_factoring_superposition(fl)
        with pytest.raises(ValueError):
            project_product(fl, state, 0)
        with pytest.raises(ValueError):
            project_product(fl, state, 8)
        with pytest.raises(ValueError):
            factor_pipeline(0, 4)
        with pytest.raises(ValueError):
            factor_pipeline(16, 4)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", [0, -1, -70])
    def test_width_below_one_named(self, n, route):
        # Refused as a width, before z is tested against 2^n: a shift by a
        # negative n raised "negative shift count", which names no option.
        with pytest.raises(ValueError, match="^operand width must be at least 1$"):
            factor_pipeline(3, n, route=route)


class TestPipeline:
    @pytest.mark.parametrize("n,route", [(6, "fast"), (4, "faithful")])
    def test_complete_and_sound(self, n, route):
        fl = FactoringLayout(n)
        multiplied = multiply_all(fl, build_factoring_superposition(fl), route=route)
        for z in range(1, 1 << n):
            got = read_divisors(fl, project_product(fl, multiplied, z))
            assert got == divisors(z), f"z={z} route={route}"

    def test_spot_case(self):
        assert factor_pipeline(91, 7)["divisors"] == [1, 7, 13, 91]

    def test_single_multiplication_pass(self):
        assert factor_pipeline(12, 4)["multiply_passes"] == 1

    def test_sub_superposition_linearity(self):
        # a restricted (x, y) range yields exactly the matching subset of terms
        fl = FactoringLayout(3)
        full = multiply_all(fl, build_factoring_superposition(fl))
        xs, ys = [1, 2, 3], [2, 3]
        sub = multiply_all(fl, build_factoring_superposition(fl, xs=xs, ys=ys))
        layout = fl.layout
        for mask, coeff in sub.terms.items():
            assert full.coefficient(mask) >= coeff > 0
        expect = {}
        for x in xs:
            for y in ys:
                mask = encode(x * y & 7, "0", layout) | encode(
                    x * y >> 3, "1", layout
                ) | encode(y, "2", layout)
                expect[mask] = expect.get(mask, 0) + 1
        assert sub == Multivector(fl.dimension, expect)

    def test_route_cap(self):
        with pytest.raises(ResourceCapError) as built:
            build_factoring_superposition(FactoringLayout(11))
        with pytest.raises(ResourceCapError) as piped:
            factor_pipeline(3, 11, route="faithful")
        assert str(piped.value) == str(built.value)
        assert str(built.value) == f"factoring superposition needs {4**11} terms, cap is {MAX_TERMS}"

    def test_huge_width_counts_without_forming_the_count(self):
        fl = FactoringLayout(10**7)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=r"needs 2\^128 or more terms"):
                build_factoring_superposition(fl)
            with pytest.raises(ResourceCapError, match=r"needs 2\^64 or more terms"):
                build_factoring_superposition(fl, xs=[5])
            assert build_factoring_superposition(fl, xs=[]).is_zero()
            assert build_factoring_superposition(fl, ys=()).is_zero()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_readout_at_any_stage_is_nondestructive(self):
        fl = FactoringLayout(3)
        state = build_factoring_superposition(fl)
        snapshot = Multivector(fl.dimension, dict(state.terms))
        assert read_divisors(fl, state) == set(range(8))  # subspace 2 readable now
        multiplied = multiply_all(fl, state)
        assert state == snapshot
        projected = project_product(fl, multiplied, 6)
        assert read_divisors(fl, multiplied) == set(range(8))  # still readable
        assert read_divisors(fl, projected) == {1, 2, 3, 6}


@lru_cache(maxsize=None)
def multiplied_superposition(n: int, route: str) -> Multivector:
    fl = FactoringLayout(n)
    return multiply_all(fl, build_factoring_superposition(fl), route=route)


class TestPlanePipeline:
    """The bitsliced fast pipeline against both per-term ``multiply_all`` routes."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_multiply_all_then_project(self, n, route):
        fl = FactoringLayout(n)
        multiplied = multiplied_superposition(n, route)
        for z in range(1, 1 << n):
            want = project_product(fl, multiplied, z)
            got = factor_pipeline(z, n, "fast")
            assert got["state"] == want, f"n={n} z={z}"
            assert to_records(got["state"]) == to_records(want)
            assert got["divisors"] == sorted(read_divisors(fl, want))
            assert got["terms_before"] == 4**n
            assert got["terms_after"] == len(want)

    def test_cap_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=r"width 13 exceeds the configured cap 12"):
                factor_pipeline(1, 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSharedNetlist:
    """Both routes read the one cached multiplier netlist, which cannot change.

    A mutable netlist once let a caller pop a gate from the shared netlist:
    the bitsliced route read the live gates, the per-blade route a cached
    program, and the two returned different divisors for z = 3 and z = 4.
    """

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shared_netlist_cannot_be_changed(self, n):
        nl = _multiplier_for(n)
        with pytest.raises(FrozenInstanceError):
            nl.gates = nl.gates[:-1]
        with pytest.raises(AttributeError):
            nl.gates.pop()
        assert _multiplier_for(n) is nl

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_routes_agree_on_every_target(self, n):
        for z in range(1, 1 << n):
            fast = factor_pipeline(z, n, "fast")
            faithful = factor_pipeline(z, n, "faithful")
            assert fast["divisors"] == faithful["divisors"] == sorted(divisors(z)), z
            assert fast["state"] == faithful["state"], z
