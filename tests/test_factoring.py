"""Factoring pipeline against trial division, the host-integer product and
the documented field geometry, plus faithful/fast route equality."""
import random
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc import circuit, factoring
from gacalc.circuit import (
    MemoryBlade,
    read_outputs,
    relabel_and_discard,
    run_netlist,
    run_netlist_planes,
)
from gacalc.core import MAX_TERMS, Multivector, ResourceCapError, to_records
from gacalc.encoding import (
    EncodingRangeError,
    SubspaceLayout,
    decode,
    decode_wide,
    encode,
    encode_wide,
)
from gacalc.factoring import (
    MAX_LANES,
    ROUTES,
    FactoringLayout,
    _multiplier_for,
    _operand_planes,
    _plane_divisors,
    build_factoring_superposition,
    factor_pipeline,
    multiply_all,
    project_product,
    read_divisors,
)

from conftest import host_multiply

# The per-term multiplier a route-parametrized test runs: the NAND netlist on
# every blade, or the host-integer reference product.
MULTIPLY = {"faithful": multiply_all, "fast": host_multiply}


def field_layout(fl: FactoringLayout) -> SubspaceLayout:
    """Reference geometry: the documented n-bit fields "0", "1", "2" in order."""
    return SubspaceLayout([("0", fl.n), ("1", fl.n), ("2", fl.n)])


def divisors(z: int) -> set[int]:
    """Oracle: trial division."""
    return {d for d in range(1, z + 1) if z % d == 0}


def reference_project_product(fl: FactoringLayout, state: Multivector, z: int) -> Multivector:
    """Reference projection: decode each term's product from fields "0" + "1"."""
    layout = field_layout(fl)
    return state.project(lambda mask: decode_wide(mask, "0", "1", layout) == z)


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
    for place in range(2 * fl.n, 3 * fl.n):  # field "2" stays put
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

    The state is four dimensions wider than the layout, so bits above field
    "2" occur too; about half the terms carry z in fields "0" + "1".
    """
    n = draw(st.integers(1, 5))
    fl = FactoringLayout(n)
    z = draw(st.integers(1, (1 << n) - 1))
    dim = fl.dimension + 4
    product, low = encode_wide(z, "0", "1", field_layout(fl)), (1 << 2 * n) - 1
    terms = {}
    for mask, hit in draw(
        st.lists(st.tuples(st.integers(0, (1 << dim) - 1), st.booleans()), max_size=24)
    ):
        terms[mask & ~low | product if hit else mask] = draw(
            st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6)).filter(bool)
        )
    return fl, Multivector(dim, terms), z


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_field_geometry_is_closed_form(n):
    # Every field write and read equals the documented SubspaceLayout's.
    fl = FactoringLayout(n)
    layout = field_layout(fl)
    assert fl.dimension == layout.total_dim == 3 * n
    top = (1 << n) - 1
    values = sorted({0, 1, top >> 1, top})
    state = build_factoring_superposition(fl, xs=values, ys=values)
    want = {
        encode(x, "0", layout) | encode(y, "1", layout) | encode(y, "2", layout): 1
        for y in values
        for x in values
    }
    assert dict(state.terms) == want
    assert read_divisors(fl, state) == {decode(m, "2", layout) for m in state.masks()}
    multiplied = multiply_all(fl, state)
    product = {}
    for x in values:
        for y in values:
            mask = encode_wide(x * y, "0", "1", layout) | encode(y, "2", layout)
            product[mask] = product.get(mask, 0) + 1
    assert multiplied == Multivector(fl.dimension, product)
    for z in {1, top}:
        assert project_product(fl, multiplied, z) == reference_project_product(fl, multiplied, z)
        if n <= 7:  # the planes hold 4^n bits each
            got = factor_pipeline(z, n, "fast")["state"]
            assert got.masks() == {
                encode_wide(z, "0", "1", layout) | encode(y, "2", layout)
                for y in divisors(z)
            }


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
        layout = field_layout(fl)
        for mask in state.masks():
            x = decode(mask, "0", layout)
            y = decode(mask, "1", layout)
            assert mask.bit_count() == x.bit_count() + 2 * y.bit_count()

    def test_operand_copies_agree(self):
        fl = FactoringLayout(3)
        state = build_factoring_superposition(fl)
        assert len(state) == 4**3
        layout = field_layout(fl)
        for mask in state.masks():
            assert decode(mask, "1", layout) == decode(mask, "2", layout)

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            build_factoring_superposition(FactoringLayout(11))

    @pytest.mark.parametrize("side", ["xs", "ys"])
    @pytest.mark.parametrize("bad", [1 << 10, -1])
    def test_over_wide_side_refused_before_any_term(self, side, bad):
        # The bad value comes last, after 1,023 fitting ones on a side whose
        # other side is full: a per-pair check would first build up to
        # 1,023 * 1,024 terms.
        fl = FactoringLayout(10)
        sides = {"xs": range(1 << 10), "ys": range(1 << 10), side: [*range(1023), bad]}
        tracemalloc.start()
        try:
            with pytest.raises(EncodingRangeError, match=f"^value {bad} does not fit"):
                build_factoring_superposition(fl, **sides)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMultiplyAll:
    def test_width_one_is_and(self):
        fl = FactoringLayout(1)
        out = multiply_all(fl, build_factoring_superposition(fl))
        assert out == host_multiply(fl, build_factoring_superposition(fl))
        # product bit = AND(x, y); the two zero-product x-values merge at y=0
        assert dict(out.terms) == {0b000: 2, 0b100: 1, 0b101: 1}

    def test_single_term_host_check(self):
        fl = FactoringLayout(3)
        layout = field_layout(fl)
        term = Multivector.blade(
            fl.dimension,
            encode(5, "0", layout) | encode(7, "1", layout) | encode(7, "2", layout),
        )
        for multiply in (multiply_all, host_multiply):
            out = multiply(fl, term)
            assert len(out) == 1
            (mask,) = out.masks()
            assert decode(mask, "0", layout) | decode(mask, "1", layout) << 3 == 35
            assert decode(mask, "2", layout) == 7

    def test_product_read_equals_read_outputs_on_the_n5_grid(self):
        # multiply_all reads the product places in one format; read_outputs
        # decodes them bit by bit from the same run.
        fl = FactoringLayout(5)
        netlist, keep = fl.multiplier_netlist(), 0b11111 << 10
        want = {}
        for mask in build_factoring_superposition(fl).masks():
            product = read_outputs(netlist, run_netlist(netlist, MemoryBlade(mask)))[0]
            image = product | mask & keep
            assert multiply_all(fl, Multivector.blade(fl.dimension, mask)).terms == {image: 1}
            want[image] = want.get(image, 0) + 1
        assert multiply_all(fl, build_factoring_superposition(fl)) == Multivector(fl.dimension, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_routes_agree_exhaustively(self, n):
        fl = FactoringLayout(n)
        layout = field_layout(fl)
        full = build_factoring_superposition(fl)
        assert multiply_all(fl, full) == host_multiply(fl, full)
        for x in range(1 << n):
            for y in range(1 << n):
                term = Multivector.blade(
                    fl.dimension,
                    encode(x, "0", layout)
                    | encode(y, "1", layout)
                    | encode(y, "2", layout),
                )
                assert multiply_all(fl, term) == host_multiply(fl, term)

    @pytest.mark.parametrize("route", ROUTES)
    def test_agrees_with_fraction_copy(self, route, as_fractions):
        fl = FactoringLayout(4)
        state = build_factoring_superposition(fl)
        assert all(type(c) is int for c in state.terms.values())
        got = MULTIPLY[route](fl, state)
        want = MULTIPLY[route](fl, as_fractions(state))
        assert got == want
        assert to_records(got) == to_records(want)
        assert all(type(c) is int for c in got.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), coefficients)
    def test_linear_on_signed_states(self, data, n, k):
        fl = FactoringLayout(n)
        a, b = data.draw(signed_states(n)), data.draw(signed_states(n))
        for state in (a, b, a + b):
            assert multiply_all(fl, state) == host_multiply(fl, state)
        mul = partial(multiply_all, fl)
        assert mul(a + b) == mul(a) + mul(b)
        assert mul(a.scale(k)) == mul(a).scale(k)

    @pytest.mark.parametrize("route", ROUTES)
    def test_signed_and_cancelling_terms(self, route):
        fl = FactoringLayout(2)
        layout, multiply = field_layout(fl), MULTIPLY[route]
        # (x=1, y=0) and (x=2, y=0) both multiply to product 0, y = 0.
        pair = Multivector(fl.dimension, {encode(1, "0", layout): 1, encode(2, "0", layout): -1})
        assert multiply(fl, pair).is_zero()
        term = Multivector.blade(fl.dimension, encode(3, "0", layout) | encode(3, "2", layout), -3)
        out = multiply(fl, term)
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
            assert host_multiply(fl, state) == want
            assert multiply_all(fl, state) == want

    def test_merged_multiplicities_positive(self):
        # every x multiplied by y = 0 lands on the same term; coefficients add
        fl = FactoringLayout(2)
        out = multiply_all(fl, build_factoring_superposition(fl))
        assert out.coefficient(0) == 4  # (x, 0) for all four x
        assert all(c > 0 for c in out.terms.values())

    def test_state_of_another_layout_refused(self):
        # Bit 8 is a netlist place at n = 2; the layout mismatch is named first.
        with pytest.raises(ValueError, match="^state does not live in this factoring layout$"):
            multiply_all(FactoringLayout(2), Multivector(10, {0b100010000: 1}))


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
        values = {decode(m, "2", field_layout(fl)) for m in projected.masks()}
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
        layout = field_layout(fl)
        assert read_divisors(fl, state) == {decode(m, "2", layout) for m in state.masks()}

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
        multiplied = MULTIPLY[route](fl, build_factoring_superposition(fl))
        for z in range(1, 1 << n):
            got = read_divisors(fl, project_product(fl, multiplied, z))
            assert got == divisors(z), f"z={z} route={route}"

    def test_spot_case(self):
        assert factor_pipeline(91, 7)["divisors"] == [1, 7, 13, 91]

    def test_single_multiplication_pass(self):
        assert factor_pipeline(12, 4)["multiply_passes"] == 1

    @pytest.mark.parametrize("n,gates,plane_ops", [(4, 124, 64), (9, 774, 1413)])
    def test_pass_counted_beside_its_classical_work(self, n, gates, plane_ops):
        # At n = 9 four tiles run, each with two y bits folded in: 1,413
        # big-int operations, where one unfolded run over 4^9 lanes took 414.
        fast, faithful = factor_pipeline(3, n, "fast"), factor_pipeline(3, min(n, 4), "faithful")
        assert (fast["gates"], fast["plane_ops"]) == (gates, plane_ops)
        assert fast["tiles"] == 4 ** max(n - 8, 0)
        assert faithful["gates"] == 124 and "plane_ops" not in faithful
        assert faithful["table_lookups"] == 1 and "table_lookups" not in fast

    def test_sub_superposition_linearity(self):
        # a restricted (x, y) range yields exactly the matching subset of terms
        fl = FactoringLayout(3)
        full = multiply_all(fl, build_factoring_superposition(fl))
        xs, ys = [1, 2, 3], [2, 3]
        sub = multiply_all(fl, build_factoring_superposition(fl, xs=xs, ys=ys))
        layout = field_layout(fl)
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
    return MULTIPLY[route](fl, build_factoring_superposition(fl))


class TestPlanePipeline:
    """The bitsliced fast pipeline against ``multiply_all`` and the host product."""

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
            with pytest.raises(
                ResourceCapError, match=rf"^fast route needs {4**15} lanes, cap is {MAX_LANES}$"
            ):
                factor_pipeline(1, 15)
            with pytest.raises(ResourceCapError, match=r"^fast route needs 2\^128 or more lanes"):
                factor_pipeline(1, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="a call owns its arguments from 3.11")
    def test_operand_planes_go_after_their_last_read(self):
        # 37 planes are live at most at n = 9 (test_circuit pins it).  Were
        # the 18 operand planes held for the whole one-lane-per-pair run,
        # the peak would pass 49 planes of 4^9 bits.  The warm-up compiles the
        # unfolded plane program, which a netlist builds on its first run.
        _multiplier_for(9).plane_ops()
        tracemalloc.start()
        try:
            assert one_run_divisors(FactoringLayout(9), [221]) == [[1, 13, 17, 221]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 44 * (4**9 // 8)


def one_run_divisors(fl: FactoringLayout, zs) -> list[list[int]]:
    """Oracle for the tiled fast route: one plane run over all 4^n lanes.

    The fast route before tiling.  Lane t is the pair x = t mod 2^n,
    y = t >> n; the planes are passed unnamed, so the run drops each after
    its last read.  Returns the ascending y of every hit, per target.
    """
    netlist = fl.multiplier_netlist()
    lanes = 1 << 2 * fl.n
    full = (1 << lanes) - 1
    product = run_netlist_planes(netlist, _operand_planes(netlist, lanes), lanes)
    found = []
    for z in zs:
        hits = full
        for k, place in enumerate(netlist.output_groups[0]):
            hits &= product[place] if z >> k & 1 else full ^ product[place]
        ys = []
        while hits:
            low = hits & -hits
            ys.append((low.bit_length() - 1) >> fl.n)
            hits ^= low
        found.append(ys)
    return found


class TestTiledRoute:
    """The fast route in 2^16-lane tiles, two y bits folded, against one run over all lanes."""

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_every_target_equals_one_run(self, n):
        fl = FactoringLayout(n)
        zs = range(1, 1 << n)
        for z, want in zip(zs, one_run_divisors(fl, zs)):
            ys, tiles, _ = _plane_divisors(fl, z)
            assert ys == want, (n, z)
            assert tiles == 4 ** max(n - 8, 0)

    @pytest.mark.parametrize("n,count", [(11, 12), (12, 4)])
    def test_sampled_targets_equal_one_run(self, n, count):
        fl = FactoringLayout(n)
        rng = random.Random(n)
        zs = [(1 << n) - 1, 1 << n - 1, *(rng.randrange(1, 1 << n) for _ in range(count))]
        for z, want in zip(zs, one_run_divisors(fl, zs)):
            assert _plane_divisors(fl, z)[0] == want, (n, z)

    @pytest.mark.parametrize("z,n", [(8190, 13), (1, 13), (16380, 14)])
    def test_widths_past_the_old_limit_match_trial_division(self, z, n):
        got = factor_pipeline(z, n)
        assert got["divisors"] == sorted(divisors(z))
        assert (got["tiles"], got["terms_after"]) == (4**n >> 16, len(divisors(z)))

    def test_one_target_at_n_12_in_bounded_memory(self):
        # One run over all 4^12 lanes peaked at 107 MiB traced; a tile's
        # planes are 8 KiB, with the compiled programs the larger part.
        tracemalloc.start()
        try:
            assert factor_pipeline(4095, 12)["terms_after"] == 24
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestPerWidthPlan:
    """Each width's netlist and fast-route plan are built on first use, then only read."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        # Fresh caches, so what is built and held does not depend on earlier tests.
        for name in ("_multiplier_for", "_tiling"):
            cached = lru_cache(maxsize=None)(getattr(factoring, name).__wrapped__)
            monkeypatch.setattr(factoring, name, cached)

    def test_fast_calls_hold_one_program_per_fold(self, fresh):
        for _ in range(3):
            for z, n, programs in ((221, 9, 4), (21, 5, 1)):
                assert factor_pipeline(z, n)["divisors"] == sorted(divisors(z))
                folds = factoring._tiling(n)[3]
                assert len(folds) == programs
                held = factoring._multiplier_for(n)._folds
                assert list(held) == [tuple(sorted(fixed.items())) for fixed in folds]

    def test_operand_planes_built_once_per_width(self, fresh, monkeypatch):
        calls = []
        build = factoring._operand_planes
        monkeypatch.setattr(
            factoring, "_operand_planes", lambda nl, lanes: calls.append(lanes) or build(nl, lanes)
        )
        for _ in range(3):
            for z, n in ((221, 9), (21, 5), (3, 2)):
                assert factor_pipeline(z, n)["divisors"] == sorted(divisors(z))
        assert calls == [1 << 16, 1 << 10, 1 << 4]

    def test_faithful_route_compiles_no_plane_program(self, fresh, monkeypatch):
        def refuse(*args):
            raise AssertionError("plane program compiled on the faithful route")

        monkeypatch.setattr(circuit, "_plane_program", refuse)
        got = factor_pipeline(21, 5, "faithful")
        assert (got["divisors"], got["table_lookups"]) == ([1, 3, 7, 21], 3)
        assert "_folds" not in factoring._multiplier_for(5).__dict__

    def test_faithful_rows_filled_once(self, fresh):
        def rows():
            return [len(table) for _, _, table, _, _ in factoring._multiplier_for(4)._blocks]

        first = factor_pipeline(15, 4, "faithful")
        filled = rows()
        assert filled == [256]  # one block reads all 8 operand places
        assert factor_pipeline(15, 4, "faithful") == first
        assert rows() == filled


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
