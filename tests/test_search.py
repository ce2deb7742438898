"""Oracle-search pipeline against the brute-force filter {x in Y : f(x) = 1}."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc.core import Multivector, to_records
from gacalc.encoding import EncodingRangeError, SubspaceLayout, decode, encode
from gacalc.search import (
    MembershipOracle,
    SearchLayout,
    apply_oracle,
    build_initial_state,
    extract_matches,
    filter_marked,
    half_difference_filter,
    run_search,
)


def data_layout(sl):
    """Reference geometry: the documented n-bit "data" field, the flag above it."""
    return SubspaceLayout([("data", sl.n)], tail=1)


def literal_state(elements, sl):
    """Oracle construction: enumerate the two terms of every element directly."""
    terms = {}
    layout = data_layout(sl)
    for x in elements:
        mask = encode(x, "data", layout)
        terms[mask] = Fraction(1)
        terms[mask | 1 << sl.oracle_dim] = Fraction(-1)
    return Multivector(sl.dimension, terms)


def reference_filter(oracle, state, sl):
    """Reference projector: build the oracle image, subtract, halve."""
    return (state - apply_oracle(oracle, state, sl)).scale(Fraction(1, 2))


def data_values(state, sl):
    return {mask & ~(1 << sl.oracle_dim) for mask in state.masks()}


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
).filter(bool)


@st.composite
def flag_pair_states(draw):
    """Arbitrary states over data + flag, built pair by pair.

    Each data value gets a full pair, an equal pair (d = 0), a lone
    flag-clear term or a lone flag-set term.
    """
    n = draw(st.integers(1, 6))
    sl = SearchLayout(n)
    flag = 1 << sl.oracle_dim
    terms = {}
    for lo in draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12)):
        kind = draw(st.sampled_from(["pair", "equal", "clear", "set"]))
        c = draw(coefficients)
        if kind != "set":
            terms[lo] = c
        if kind != "clear":
            terms[lo | flag] = c if kind == "equal" else draw(coefficients)
    marked = draw(st.sets(st.integers(0, (1 << n) - 1)))
    return sl, Multivector(sl.dimension, terms), marked


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_field_geometry_is_closed_form(n):
    # Every field write and read equals the documented SubspaceLayout's.
    sl = SearchLayout(n)
    layout = data_layout(sl)
    assert sl.dimension == layout.total_dim == n + 1
    assert sl.oracle_dim == layout["data"].offset + layout["data"].width == n
    top = (1 << n) - 1
    values = {0, 1, top >> 1, top}
    state = build_initial_state(values, sl)
    assert state == literal_state(values, sl)
    flag = 1 << sl.oracle_dim
    toggled = {
        m ^ flag if decode(m, "data", layout) == top else m: c for m, c in state.terms.items()
    }
    flagged = apply_oracle(MembershipOracle(lambda x: x == top), state, sl)
    assert flagged == Multivector(sl.dimension, toggled)
    assert extract_matches(state, sl) == {decode(m, "data", layout) for m in state.masks()}
    assert extract_matches(state, sl) == values
    marked = half_difference_filter(MembershipOracle(lambda x: x & 1), state, sl)
    assert marked == literal_state({x for x in values if x & 1}, sl)


class TestInitialState:
    def test_empty(self):
        sl = SearchLayout(3)
        assert build_initial_state(set(), sl) == Multivector.zero(sl.dimension)

    def test_single_zero(self):
        sl = SearchLayout(3)
        state = build_initial_state({0}, sl)
        assert dict(state.terms) == {0: 1, 1 << 3: -1}

    def test_four_elements(self):
        sl = SearchLayout(2)
        state = build_initial_state({0, 1, 2, 3}, sl)
        assert len(state) == 8
        assert state == literal_state({0, 1, 2, 3}, sl)

    def test_out_of_range(self):
        sl = SearchLayout(2)
        with pytest.raises(EncodingRangeError, match="value 4 does not fit"):
            build_initial_state({4}, sl)

    def test_negative_value(self):
        sl = SearchLayout(4)
        with pytest.raises(EncodingRangeError, match="value -1 does not fit"):
            build_initial_state({3, -1, 7}, sl)

    def test_too_wide_among_fitting_values(self):
        sl = SearchLayout(4)
        with pytest.raises(EncodingRangeError, match="value 16 does not fit"):
            build_initial_state([0, 15, 16, 9], sl)

    def test_full_range_fits(self):
        sl = SearchLayout(4)
        assert build_initial_state(range(16), sl) == literal_state(range(16), sl)


class TestApplyOracle:
    def test_constant_zero_is_identity(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: 0)
        state = build_initial_state({1, 5, 9}, sl)
        assert apply_oracle(oracle, state, sl) == state

    def test_marked_element_negates_pattern(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: 1)
        state = build_initial_state({5}, sl)
        assert apply_oracle(oracle, state, sl) == state.scale(-1)

    def test_unmarked_element_fixed(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: 0)
        state = build_initial_state({5}, sl)
        assert apply_oracle(oracle, state, sl) == state

    def test_eigenvalue_identity_random_blades(self):
        rng = random.Random(5)
        sl = SearchLayout(10)
        for _ in range(1000):
            x = rng.randrange(1 << 10)
            fx = rng.randint(0, 1)
            oracle = MembershipOracle(lambda v, fx=fx: fx)
            pattern = build_initial_state({x}, sl)
            expect = pattern.scale(-1) if fx else pattern
            assert apply_oracle(oracle, pattern, sl) == expect

    def test_counters_and_memoization(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: x % 2)
        state = build_initial_state({1, 2, 3}, sl)
        apply_oracle(oracle, state, sl)
        assert oracle.op_count == 1
        assert oracle.eval_count == 3  # six terms but three distinct values
        apply_oracle(oracle, state, sl)
        assert oracle.op_count == 2

    def test_wrong_dimension(self):
        sl = SearchLayout(4)
        with pytest.raises(ValueError, match="search layout"):
            apply_oracle(MembershipOracle(lambda x: 1), Multivector.zero(4), sl)


class TestFilterMarked:
    def test_single_match(self):
        sl = SearchLayout(2)
        oracle = MembershipOracle(lambda x: x == 2)
        kept = filter_marked(oracle, {0, 1, 2, 3}, sl)
        assert kept == literal_state({2}, sl)
        assert oracle.op_count == 1

    def test_disjoint(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: x == 8)
        assert filter_marked(oracle, {1, 2, 3}, sl).is_zero()

    def test_everything_marked(self):
        sl = SearchLayout(3)
        oracle = MembershipOracle(lambda x: 1)
        assert filter_marked(oracle, {0, 3, 7}, sl) == literal_state({0, 3, 7}, sl)

    def test_projector_idempotent_on_state_span(self):
        sl = SearchLayout(4)
        state = build_initial_state({0, 3, 7, 12}, sl)
        oracle = MembershipOracle(lambda x: x % 3 == 0)
        once = half_difference_filter(oracle, state, sl)
        assert half_difference_filter(oracle, once, sl) == once


class TestFusedFilter:
    """The filter, (state - O(state)) / 2 by definition, on flag-pair edge cases:
    lone and equal pairs, odd differences, counters and the dimension refusal."""

    @settings(max_examples=300, deadline=None)
    @given(flag_pair_states())
    def test_matches_reference(self, case):
        sl, state, marked = case
        oracle = MembershipOracle(marked.__contains__)
        got = half_difference_filter(oracle, state, sl)
        want = reference_filter(MembershipOracle(marked.__contains__), state, sl)
        assert got == want
        assert to_records(got) == to_records(want)
        assert oracle.op_count == 1
        assert oracle.eval_count == len(data_values(state, sl))

    def test_lone_flag_set_term(self):
        sl = SearchLayout(3)
        flag = 1 << sl.oracle_dim
        state = Multivector(sl.dimension, {5 | flag: 3, 2 | flag: 1})
        got = half_difference_filter(MembershipOracle(lambda x: x == 5), state, sl)
        assert got == Multivector(sl.dimension, {5: Fraction(-3, 2), 5 | flag: Fraction(3, 2)})

    def test_equal_pair_cancels_but_is_evaluated(self):
        sl = SearchLayout(3)
        flag = 1 << sl.oracle_dim
        oracle = MembershipOracle(lambda x: 1)
        state = Multivector(sl.dimension, {6: 2, 6 | flag: 2, 1: 4})
        got = half_difference_filter(oracle, state, sl)
        assert got == Multivector(sl.dimension, {1: 2, 1 | flag: -2})
        assert oracle.eval_count == 2

    def test_even_difference_stays_int(self):
        sl = SearchLayout(4)
        kept = filter_marked(MembershipOracle(lambda x: x % 2), range(16), sl)
        assert kept and all(type(c) is int for c in kept.terms.values())
        assert kept == reference_filter(MembershipOracle(lambda x: x % 2), literal_state(range(16), sl), sl)

    def test_odd_difference_is_a_half(self):
        sl = SearchLayout(2)
        flag = 1 << sl.oracle_dim
        state = Multivector(sl.dimension, {1: 2, 1 | flag: -1})
        got = half_difference_filter(MembershipOracle(lambda x: 1), state, sl)
        assert dict(got.terms) == {1: Fraction(3, 2), 1 | flag: Fraction(-3, 2)}

    def test_wrong_dimension(self):
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: 1)
        with pytest.raises(ValueError, match="search layout"):
            half_difference_filter(oracle, Multivector.zero(6), sl)
        assert oracle.op_count == 0


@st.composite
def database_cases(draw):
    """A width, a value set (edges included at will) and a 0/1 predicate."""
    n = draw(st.integers(1, 12))
    top = (1 << n) - 1
    values = draw(st.sets(st.integers(0, top), max_size=40))
    values |= {v for v, keep in ((0, draw(st.booleans())), (top, draw(st.booleans()))) if keep}
    kind = draw(st.sampled_from(["zero", "one", "set", "mod"]))
    if kind == "zero":
        f = lambda x: 0
    elif kind == "one":
        f = lambda x: 1
    elif kind == "set":
        f = draw(st.sets(st.integers(0, top), max_size=20)).__contains__
    else:
        a = draw(st.integers(1, 9))
        b = draw(st.integers(-1, 9))
        f = lambda x: x % a == b
    return n, values, f


def duplicated(values, rng):
    """The values as a shuffled list in which some appear more than once."""
    out = list(values) + [v for v in values if rng.random() < 0.5]
    rng.shuffle(out)
    return out


class TestOnePassFilter:
    """``filter_marked`` against the reference pair built in full."""

    @settings(max_examples=300, deadline=None)
    @given(database_cases(), st.sampled_from(["list", "generator"]), st.randoms())
    def test_equals_reference_pair(self, case, form, rng):
        n, values, f = case
        sl = SearchLayout(n)
        listed = duplicated(values, rng)
        elements = (lambda: iter(listed)) if form == "generator" else (lambda: listed)
        fused, reference = MembershipOracle(f), MembershipOracle(f)
        got = filter_marked(fused, elements(), sl)
        want = half_difference_filter(reference, build_initial_state(elements(), sl), sl)
        assert to_records(got) == to_records(want)
        assert got.terms == want.terms
        assert all(type(c) is int for c in got.terms.values())
        assert (fused.op_count, fused.eval_count) == (1, len(values))
        assert (reference.op_count, reference.eval_count) == (1, len(values))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.sets(st.integers(0, 1 << 12), max_size=8),
        st.integers(-(1 << 13), -1) | st.integers(1 << 12, 1 << 70),
    )
    def test_same_error_before_any_count(self, n, values, bad):
        sl = SearchLayout(n)
        elements = sorted(v for v in values if v >> n == 0) + [bad]
        errors = []
        for run in (
            lambda o: filter_marked(o, elements, sl),
            lambda o: half_difference_filter(o, build_initial_state(iter(elements), sl), sl),
        ):
            oracle = MembershipOracle(lambda x: 1)
            with pytest.raises(EncodingRangeError) as info:
                run(oracle)
            assert (oracle.op_count, oracle.eval_count) == (0, 0)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_marked_counts_every_value_once(self):
        oracle = MembershipOracle(lambda x: x % 3 == 0)
        assert oracle.marked([3, 4, 6, 7]) == [3, 6]
        assert (oracle.op_count, oracle.eval_count) == (0, 4)


class TestExtractMatches:
    def test_zero_state(self):
        sl = SearchLayout(3)
        assert extract_matches(Multivector.zero(sl.dimension), sl) == set()

    def test_single_pattern(self):
        sl = SearchLayout(3)
        assert extract_matches(literal_state({2}, sl), sl) == {2}

    def test_random_pipelines_match_brute_filter(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(1, 12)
            size = rng.randint(0, min(50, 1 << n))
            elements = set(rng.sample(range(1 << n), size))
            marked = {x for x in range(1 << n) if rng.random() < 0.3}
            matches, oracle = run_search(elements, lambda x: x in marked, n)
            assert matches == {x for x in elements if x in marked}
            assert oracle.op_count == 1

    def test_readout_at_any_stage_is_nondestructive(self):
        # any intermediate state can be read in full without disturbing it
        sl = SearchLayout(4)
        oracle = MembershipOracle(lambda x: x % 2)
        state = build_initial_state({1, 2, 5}, sl)
        snapshot = Multivector(sl.dimension, dict(state.terms))
        assert extract_matches(state, sl) == {1, 2, 5}
        assert state == snapshot
        after = apply_oracle(oracle, state, sl)
        assert extract_matches(after, sl) == {1, 2, 5}
        assert state == snapshot  # the operator produced a fresh value


class TestNonInvertibleOperations:
    def test_filter_merges_distinct_states(self):
        # the half-difference filter is a projection, not an invertible map:
        # states differing in unmarked content collapse to the same output
        sl = SearchLayout(3)
        a = build_initial_state({5, 1}, sl)
        b = build_initial_state({5, 2}, sl)
        assert a != b
        marked = lambda: MembershipOracle(lambda x: x == 5)
        assert half_difference_filter(marked(), a, sl) == half_difference_filter(
            marked(), b, sl
        )


class TestIntCoefficients:
    def test_state_and_oracle_image_hold_ints(self):
        sl = SearchLayout(5)
        state = build_initial_state(range(0, 32, 3), sl)
        image = apply_oracle(MembershipOracle(lambda x: x % 2), state, sl)
        for mv in (state, image):
            assert mv and all(type(c) is int for c in mv.terms.values())

    def test_filter_agrees_with_fraction_copy(self, as_fractions):
        rng = random.Random(41)
        sl = SearchLayout(6)
        for _ in range(30):
            marked = set(rng.sample(range(64), rng.randint(0, 20)))
            built = build_initial_state(rng.sample(range(64), rng.randint(0, 30)), sl)
            mixed = Multivector(
                sl.dimension,
                {rng.randrange(1 << sl.dimension): rng.randint(-3, 3) for _ in range(12)},
            )
            for state in (built, mixed):
                got = half_difference_filter(MembershipOracle(marked.__contains__), state, sl)
                want = half_difference_filter(
                    MembershipOracle(marked.__contains__), as_fractions(state), sl
                )
                assert got == want
                assert to_records(got) == to_records(want)
