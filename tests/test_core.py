"""Blade arithmetic against brute-force oracles and algebraic laws."""
import argparse
import ast
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gacalc
from gacalc import core, encoding
from gacalc.cli import build_parser
from gacalc.core import (
    MAX_TERMS,
    DimensionMismatch,
    Multivector,
    ResourceCapError,
    _accumulate,
    _numerators,
    blade_mul,
    check_terms,
    from_records,
    grade,
    reorder_sign,
    to_records,
)
from gacalc.circuit import linear_extend
from gacalc.factoring import factor_pipeline, multiply_all
from gacalc.halting import (
    TruncationParams,
    bounded_halt_probe,
    build_chained_superposition,
    probe_report,
)
from gacalc.search import SearchLayout, build_initial_state, half_difference_filter, run_search

from conftest import bubble_sign


def brute_product(a: Multivector, b: Multivector) -> Multivector:
    """Oracle: quadratic term-by-term expansion using the bubble-sort sign."""
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask = ma ^ mb
            acc[mask] = acc.get(mask, Fraction(0)) + ca * cb * bubble_sign(ma, mb)
    return Multivector(a.dimension, acc)


def pairwise_product(a: Multivector, b: Multivector) -> Multivector:
    """Oracle: the product as it was before the fraction-free kernel.

    One ``blade_mul`` per blade pair, summed by ``_accumulate`` in
    ``Fraction``/``int`` arithmetic as the coefficients come.
    """
    a._check_dim(b)
    products = (
        (mask, ca * cb if sign > 0 else -(ca * cb))
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
        for mask, sign in (blade_mul(ma, mb),)
    )
    return Multivector._raw(a.dimension, _accumulate(products))


def e(dim: int, i: int) -> Multivector:
    return Multivector.basis_vector(dim, i)


def random_mv(rng: random.Random, dim: int, terms: int) -> Multivector:
    return Multivector(
        dim,
        {
            rng.randrange(1 << dim): Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(terms)
        },
    )


int_mv_strategy = st.builds(
    lambda d: Multivector(8, d),
    st.dictionaries(st.integers(0, 255), st.integers(-4, 4), max_size=6),
)

mv_strategy = st.builds(
    lambda d: Multivector(8, d),
    st.dictionaries(
        st.integers(0, 255),
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        max_size=5,
    ),
)


class TestReorderSign:
    def test_same_vector(self):
        assert reorder_sign(0b1, 0b1) == 1

    def test_one_transposition(self):
        assert reorder_sign(0b10, 0b01) == -1

    def test_scalar_is_neutral(self):
        for m in (0, 0b1011, 0b1 << 40):
            assert reorder_sign(0, m) == 1
            assert reorder_sign(m, 0) == 1

    def test_exhaustive_small_dims(self):
        for a in range(256):
            for b in range(256):
                assert reorder_sign(a, b) == bubble_sign(a, b)

    def test_random_wide_masks(self):
        rng = random.Random(7)
        for _ in range(10_000):
            a = rng.randrange(1 << 64)
            b = rng.randrange(1 << 64)
            assert reorder_sign(a, b) == bubble_sign(a, b)

    def test_random_pairs_small(self):
        rng = random.Random(3)
        for _ in range(2000):
            a = rng.randrange(1 << 12)
            b = rng.randrange(1 << 12)
            assert reorder_sign(a, b) == bubble_sign(a, b)

    @pytest.mark.parametrize(
        "width", [1, 2, 63, 64, 65, 127, 128, 129, 199, 225, 256, 257, 528]
    )
    def test_wide_masks_every_prefix_stage(self, width):
        # Widths straddle the powers of two where the scan gains a stage;
        # the shapes are a generic product, a NAND gate write (one bit into
        # a dense memory) and a chain extension (sparse slots onto a chain).
        rng = random.Random(width)
        for _ in range(6):
            dense_a, dense_b = rng.getrandbits(width), rng.getrandbits(width)
            single = 1 << rng.randrange(width)
            sparse = 0
            for _ in range(4):
                sparse |= 1 << rng.randrange(width)
            for a, b in ((dense_a, dense_b), (single, dense_b), (dense_a, sparse)):
                assert reorder_sign(a, b) == bubble_sign(a, b)
                assert reorder_sign(b, a) == bubble_sign(b, a)

    @given(st.integers(0, (1 << 600) - 1), st.integers(0, (1 << 600) - 1))
    def test_commutation_law(self, a, b):
        # e_A e_B = (-1)^(|A||B| - |A & B|) e_B e_A in a Euclidean algebra.
        pa, pb = a.bit_count(), b.bit_count()
        expect = (-1) ** (pa * pb - (a & b).bit_count())
        assert reorder_sign(a, b) * reorder_sign(b, a) == expect


class TestBladeMul:
    def test_contraction(self):
        # e1 * (e1 e2) = e2
        assert blade_mul(0b01, 0b11) == (0b10, 1)

    def test_scalar_identity(self):
        for m in (0, 0b101, 0b111000):
            assert blade_mul(0, m) == (m, 1)

    def test_mixed_masks(self):
        mask, sign = blade_mul(0b101, 0b110)
        assert mask == 0b011
        assert sign == bubble_sign(0b101, 0b110) == -1


class TestGeometricProduct:
    def test_difference_of_squares_cancels(self):
        dim = 4
        one = Multivector.scalar(dim, 1)
        assert (one + e(dim, 0)) * (one - e(dim, 0)) == Multivector.zero(dim)
        half = Fraction(1, 2)
        assert ((one + e(dim, 0)) * half) * (one - e(dim, 0)) == Multivector.zero(dim)

    def test_basis_product(self):
        assert e(4, 0) * e(4, 1) == Multivector.blade(4, 0b11)

    def test_random_against_brute_expansion(self):
        rng = random.Random(42)
        for _ in range(200):
            a = random_mv(rng, 8, 5)
            b = random_mv(rng, 8, 5)
            assert a * b == brute_product(a, b)

    def test_anticommutation_exhaustive(self):
        dim = 8
        for i in range(dim):
            assert e(dim, i) * e(dim, i) == Multivector.scalar(dim, 1)
            for j in range(dim):
                if i != j:
                    assert e(dim, i) * e(dim, j) == -(e(dim, j) * e(dim, i))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            e(3, 0) * e(4, 0)
        with pytest.raises(DimensionMismatch):
            e(3, 0) + e(4, 0)

    @pytest.mark.parametrize("other", [5, Fraction(1, 2), None], ids=repr)
    def test_non_multivector_raises_type_error(self, other):
        with pytest.raises(TypeError, match=type(other).__name__):
            e(3, 0).geometric_product(other)


def coefficient_types(mv: Multivector) -> set[type]:
    return {type(c) for c in mv.terms.values()}


class TestProductTypeRule:
    """Both operands all ``int``: ``int`` results; otherwise ``Fraction`` results."""

    def test_int_times_int_is_int(self):
        a = Multivector(4, {0: 2, 0b1: -3})
        b = Multivector(4, {0b1: 5, 0b110: 1})
        got = a * b
        assert got == pairwise_product(a, b)
        assert coefficient_types(got) == {int}

    def test_integral_fractions_stay_fractions(self):
        two = Multivector.scalar(4, Fraction(2))
        got = two * two
        assert got == Multivector.scalar(4, 4)
        assert type(got.coefficient(0)) is Fraction

    def test_mixed_int_only_term_becomes_fraction(self):
        # The scalar term is fed only by 2 * 3, an int x int product.
        a = Multivector(4, {0: 2, 0b1: Fraction(1, 2)})
        b = Multivector(4, {0: 3})
        got = a * b
        assert got.terms == {0: 6, 0b1: Fraction(3, 2)}
        assert coefficient_types(got) == {Fraction}
        assert type(pairwise_product(a, b).coefficient(0)) is int
        assert to_records(got) == to_records(pairwise_product(a, b))

    def test_fraction_results_in_lowest_terms(self):
        a = Multivector(4, {0: Fraction(1, 6), 0b1: Fraction(3, 4)})
        b = Multivector(4, {0: Fraction(3, 2), 0b1: Fraction(2, 3)})
        got = a * b
        assert got.terms == {0: Fraction(3, 4), 0b1: Fraction(89, 72)}
        assert coefficient_types(got) == {Fraction}
        assert [r["den"] for r in to_records(got)] == ["4", "72"]

    def test_empty_operand(self):
        a = Multivector(4, {0: Fraction(1, 2), 0b11: 3})
        zero = Multivector.zero(4)
        assert a * zero == zero * a == zero * zero == zero


class TestNumerators:
    def test_common_denominator_is_the_lcm(self):
        terms = {0b1: Fraction(1, 2), 0b10: Fraction(-1, 4), 0b100: Fraction(5, 6), 0b1000: 3}
        pairs, den = _numerators(terms)
        assert den == 12
        assert pairs == [(0b1, 6), (0b10, -3), (0b100, 10), (0b1000, 36)]

    def test_all_int_has_no_denominator(self):
        assert _numerators({0: 2, 0b1: -1}) == ([(0, 2), (0b1, -1)], None)
        assert _numerators({}) == ([], None)

    def test_integral_fractions_have_denominator_one(self):
        assert _numerators({0: Fraction(2)}) == ([(0, 2)], 1)


COEFFICIENTS = {
    "int": st.integers(-9, 9),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=12),
    "mixed": st.one_of(
        st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
    ),
}


@st.composite
def product_operands(draw):
    """Two operands of one width and coefficient kind; some empty, some cancelling."""
    width = draw(st.sampled_from([8, 40, 199]))
    coeff = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    masks = st.integers(0, (1 << width) - 1)
    a, b = (
        Multivector(width, draw(st.dictionaries(masks, coeff, max_size=8)))
        for _ in range(2)
    )
    if draw(st.booleans()):
        # c(1 + B) * d(1 - B) = cd(1 - B^2) = 0 for a blade with B^2 = +1;
        # ``a`` may keep other terms, so the cancellation is partial.
        blade = draw(masks)
        k = blade.bit_count()
        if k * (k - 1) // 2 % 2:  # B^2 = -1 at grade 2 or 3 mod 4: drop two factors
            blade &= blade - 1
            blade &= blade - 1
        c, d = draw(coeff), draw(coeff)
        a = a + Multivector(width, {0: c, blade: c})
        b = Multivector(width, {0: d, blade: -d})
    return a, b


@settings(max_examples=400)
@given(product_operands())
def test_product_matches_pairwise(operands):
    a, b = operands
    got, want = a * b, pairwise_product(a, b)
    assert got == want
    assert to_records(got) == to_records(want)
    all_int = coefficient_types(a) | coefficient_types(b) <= {int}
    assert coefficient_types(got) <= ({int} if all_int else {Fraction})


class TestCoefficientTypes:
    BAD = {"float": 0.1, "str": "1/2", "bool": True}

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_constructor_rejects(self, kind):
        bad = self.BAD[kind]
        with pytest.raises(TypeError, match="blade mask 0x5") as exc:
            Multivector(3, {5: bad})
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_scale_rejects(self, kind):
        bad = self.BAD[kind]
        with pytest.raises(TypeError, match="scale factor") as exc:
            Multivector.blade(3, 0b1).scale(bad)
        assert repr(bad) in str(exc.value)

    def test_int_and_fraction_kept_as_given(self):
        a = Multivector(3, {0b1: 2, 0b10: Fraction(2), 0b100: Fraction(1, 2)})
        assert [type(a.coefficient(m)) for m in (0b1, 0b10, 0b100)] == [int, Fraction, Fraction]
        assert type(a.scale(3).coefficient(0b1)) is int
        assert a.coefficient(0b11) == 0 and type(a.coefficient(0b11)) is int

    def test_map_blades_keeps_ints(self):
        a = Multivector(4, {0b1: 1, 0b10: -1, 0b11: 3})
        for name in sorted(TestMapBlades.MAPS):
            f, extra = TestMapBlades.MAPS[name]
            out = widened(a, extra).map_blades(f)
            assert out and all(type(c) is int for c in out.terms.values())


class TestWrap:
    def test_rejects_masks_outside_dimension(self):
        with pytest.raises(ValueError, match="fit dimension 3"):
            Multivector._wrap(3, {0b1000: 1})
        with pytest.raises(ValueError, match="fit dimension 3"):
            Multivector._wrap(3, {-1: 1})
        with pytest.raises(ValueError, match="fit dimension -1"):
            Multivector._wrap(-1, {})

    def test_wraps_without_copying(self):
        terms = {0: 1, 0b111: Fraction(1, 2)}
        mv = Multivector._wrap(3, terms)
        assert mv == Multivector(3, terms)
        assert mv._terms is terms


class TestLinearOps:
    def test_add_zero(self):
        a = Multivector(4, {0b11: 2, 0: -1})
        assert a + Multivector.zero(4) == a

    def test_scale_by_zero(self):
        a = Multivector(4, {0b11: 2})
        assert a.scale(0) == Multivector.zero(4)

    def test_exact_half(self):
        doubled = Multivector.blade(4, 0b1, 2)
        assert doubled.scale(Fraction(1, 2)) == Multivector.blade(4, 0b1)

    def test_no_stored_zero_coefficients(self):
        rng = random.Random(9)
        for _ in range(100):
            a = random_mv(rng, 6, 4)
            b = random_mv(rng, 6, 4)
            for result in (a + b, a - b, a * b, a.scale(Fraction(3, 7)), a - a):
                assert all(c != 0 for c in result.terms.values())


def lifted(f, dim: int):
    """Oracle for ``map_blades``: the multivector-valued lift of the same map."""
    return linear_extend(lambda m: Multivector.blade(dim, *f(m)))


def widened(mv: Multivector, extra: int) -> Multivector:
    """The same terms in an algebra ``extra`` dimensions wider."""
    return Multivector(mv.dimension + extra, mv.terms)


def drop_low_bit(m: int) -> tuple[int, int]:
    # m and m ^ 1 land on one blade with opposite signs.
    return m & ~1, -1 if m & 1 else 1


class TestMapBlades:
    MAPS = {
        "colliding": (lambda m: (m & 0b111, 1), 0),
        "cancelling": (drop_low_bit, 0),
        "sign-and-widen": (lambda m: (m << 2 | 1, -1 if m.bit_count() & 1 else 1), 3),
    }

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_matches_linear_extend(self, name):
        f, extra = self.MAPS[name]
        rng = random.Random(21)
        for _ in range(50):
            a = widened(random_mv(rng, 6, rng.randint(0, 12)), extra)
            got = a.map_blades(f)
            # linear_extend takes its dimension from the images, so compare
            # terms: an empty state has no image to take it from.
            assert got.dimension == a.dimension
            assert got.terms == lifted(f, a.dimension)(a).terms
            assert all(c != 0 for c in got.terms.values())

    def test_exact_cancellation_drops_the_blade(self):
        a = Multivector(4, {0b10: 3, 0b11: 3, 0b100: Fraction(1, 2)})
        assert a.map_blades(drop_low_bit) == Multivector.blade(4, 0b100, Fraction(1, 2))
        assert a.map_blades(drop_low_bit) == lifted(drop_low_bit, 4)(a)

    def test_image_outside_dimension(self):
        a = Multivector(4, {0b1: 1})
        with pytest.raises(ValueError, match="fit dimension 4"):
            a.map_blades(lambda m: (m | 1 << 4, 1))
        with pytest.raises(ValueError, match="fit dimension 2"):
            Multivector(2, {0b1: 1}).map_blades(lambda m: (m << 3, 1))
        assert widened(a, 1).map_blades(lambda m: (m << 3, 1)) == Multivector.blade(5, 0b1000)


@settings(max_examples=100)
@given(
    mv_strategy,
    mv_strategy,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from(sorted(TestMapBlades.MAPS)),
)
def test_map_blades_is_linear(a, b, k, name):
    f, extra = TestMapBlades.MAPS[name]
    lift = lambda x: widened(x, extra).map_blades(f)
    assert lift(a + b) == lift(a) + lift(b)
    assert lift(a.scale(k)) == lift(a).scale(k)


@settings(max_examples=150)
@given(
    int_mv_strategy,
    int_mv_strategy,
    st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    ),
    st.sampled_from(sorted(TestMapBlades.MAPS)),
)
def test_int_coefficients_agree_with_fractions(as_fractions, a, b, k, name):
    f, extra = TestMapBlades.MAPS[name]
    even = lambda m: m.bit_count() % 2 == 0
    fa, fb = as_fractions(a), as_fractions(b)
    pairs = [
        (a + b, fa + fb),
        (a - b, fa - fb),
        (a.scale(k), fa.scale(k)),
        (a * b, fa * fb),
        (widened(a, extra).map_blades(f), widened(fa, extra).map_blades(f)),
        (a.project(even), fa.project(even)),
    ]
    for got, want in pairs:
        assert got == want
        assert to_records(got) == to_records(want)


class TestProjection:
    def test_keep_all(self):
        a = Multivector(4, {0: 1, 0b11: 2})
        assert a.project(lambda m: True) == a

    def test_keep_none(self):
        a = Multivector(4, {0: 1, 0b11: 2})
        assert a.project(lambda m: False) == Multivector.zero(4)

    def test_grade_selection(self):
        a = Multivector(4, {0: 1, 0b1: 1, 0b11: 1})  # 1 + e1 + e1e2
        assert a.project(lambda m: m.bit_count() == 2) == Multivector.blade(4, 0b11)

    def test_idempotent_and_linear(self):
        rng = random.Random(13)
        pred = lambda m: m.bit_count() % 2 == 0
        for _ in range(50):
            a = random_mv(rng, 8, 5)
            b = random_mv(rng, 8, 5)
            assert a.project(pred).project(pred) == a.project(pred)
            assert (a + b).project(pred) == a.project(pred) + b.project(pred)


@settings(max_examples=150)
@given(mv_strategy, mv_strategy, mv_strategy)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=150)
@given(mv_strategy, mv_strategy, mv_strategy)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(mv_strategy)
def test_serialization_roundtrip(a):
    records = to_records(a)
    assert records == sorted(records, key=lambda r: int(r["mask"], 16))
    assert all(r["mask"] == r["mask"].lower() for r in records)
    assert from_records(records, a.dimension) == a


def test_from_records_zero_denominator_names_record():
    with pytest.raises(ValueError, match="zero denominator") as exc:
        from_records([{"mask": "3", "num": "1", "den": "0"}], 4)
    assert "'mask': '3'" in str(exc.value)


def test_from_records_missing_field_names_record():
    with pytest.raises(ValueError, match="lacks field 'den'") as exc:
        from_records([{"mask": "3", "num": "1"}], 4)
    assert "'mask': '3'" in str(exc.value)


@pytest.mark.parametrize(
    "rec",
    [
        {"mask": 5, "num": "1", "den": "1"},
        ["5", "1", "1"],
        "5",
        None,
        {"mask": "5", "num": None, "den": "1"},
        {"mask": "5", "num": 1.5, "den": "1"},
        {"mask": "5", "num": True, "den": "1"},
        {"mask": "zz", "num": "1", "den": "1"},
        {"mask": "5", "num": "1.5", "den": "1"},
        {"mask": "-5", "num": "1", "den": "1"},
        {"mask": "10", "num": "1", "den": "1"},
        {"mask": "01", "num": "2", "den": "1"},
    ],
)
def test_from_records_malformed_names_record(rec):
    with pytest.raises(ValueError) as exc:
        from_records([{"mask": "1", "num": "1", "den": "1"}, rec], 4)
    assert repr(rec) in str(exc.value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
field_values = json_values | st.from_regex(r"-?[0-9a-fA-F]{0,4}", fullmatch=True)
json_records = st.lists(
    json_values
    | st.fixed_dictionaries(
        {}, optional={"mask": field_values, "num": field_values, "den": field_values}
    ),
    max_size=4,
)


@settings(max_examples=300)
@given(json_records)
def test_from_records_returns_or_names_record(records):
    try:
        got = from_records(records, 8)
    except ValueError as exc:
        assert any(repr(rec) in str(exc) for rec in records)
    else:
        assert isinstance(got, Multivector) and got.dimension == 8
        assert from_records(to_records(got), 8) == got


def test_from_records_keeps_integral_coefficients_int():
    state = build_initial_state(range(16), SearchLayout(4))
    back = from_records(to_records(state), state.dimension)
    assert back == state
    assert back.terms and all(type(c) is int for c in back.terms.values())
    reduced = from_records([{"mask": "1", "num": "4", "den": "2"}], 2)
    assert type(reduced.coefficient(1)) is int and reduced.coefficient(1) == 2


def test_from_records_keeps_proper_fractions():
    half = from_records([{"mask": "3", "num": "3", "den": "2"}], 4)
    assert half.coefficient(3) == Fraction(3, 2)
    assert type(half.coefficient(3)) is Fraction


def test_grade_helper():
    assert grade(0) == 0
    assert grade(0b1011) == 3


def test_repr_smoke():
    a = Multivector(4, {0: Fraction(1, 2), 0b11: -1, 0b1: 3})
    text = repr(a)
    assert "e1e2" in text and "1/2" in text


SRC = Path(__file__).parent.parent / "src" / "gacalc"


def test_check_terms_boundary():
    check_terms(MAX_TERMS, "state")
    message = f"^state needs {MAX_TERMS + 1} terms, cap is {MAX_TERMS}$"
    with pytest.raises(ResourceCapError, match=message):
        check_terms(MAX_TERMS + 1, "state")


@pytest.mark.parametrize(
    "count,size",
    [
        ((1 << 64) - 1, str((1 << 64) - 1)),
        (1 << 64, "2^64 or more"),
        (3 << 99_999, "2^100000 or more"),
    ],
    ids=["below-2^64", "2^64", "past-the-str-digit-limit"],
)
def test_check_terms_names_a_wide_count_by_its_power_of_two(count, size):
    with pytest.raises(ResourceCapError) as refused:
        check_terms(count, "state")
    assert str(refused.value) == f"state needs {size} terms, cap is {MAX_TERMS}"


def _functions_where(found):
    """``module.function`` of every node in ``src/gacalc`` for which ``found(node)``."""
    hits = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if found(child):
                hits.add(f"{path.stem}.{inner}")
            visit(child, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return hits


def _names(node, name):
    return isinstance(node, ast.Name) and node.id == name or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_one_term_cap_mechanism():
    def raises_cap(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _names(exc, "ResourceCapError")

    # Terms, chain words and fast-route lanes are all counted through check_terms.
    assert _functions_where(raises_cap) == {"core.check_terms"}
    calls_check = _functions_where(
        lambda node: isinstance(node, ast.Call) and _names(node.func, "check_terms")
    )
    assert calls_check == {
        "cli._parse_int_set",
        "search._database_values",
        "factoring.build_factoring_superposition",
        "factoring.factor_pipeline",
        "halting.build_free_superposition",
        "halting.build_chained_superposition",
        "halting.probe_report",
    }


def test_one_compiled_netlist_program():
    # A netlist is checked when it is built, which fixes its program, target
    # mask, place window and ascending flag: they are read only inside
    # circuit, and nothing validates again.
    for attr in ("_program", "_targets", "_lo", "_width", "_ascending"):
        reads = _functions_where(
            lambda node: isinstance(node, ast.Attribute) and node.attr == attr
        )
        assert reads and {hit.partition(".")[0] for hit in reads} == {"circuit"}, attr
    calls_validate = lambda node: isinstance(node, ast.Call) and _names(node.func, "validate")
    assert not _functions_where(calls_validate)


def test_pipelines_code_fields_in_closed_form():
    # Each pipeline's fields are fixed shifts of its widths: none imports
    # encoding, and the one error type they share with it lives in core.
    for stem in ("factoring", "search", "halting"):
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").endswith("encoding"), stem
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert not any(alias.name.endswith("encoding") for alias in node.names), stem
    assert gacalc.EncodingRangeError is encoding.EncodingRangeError is core.EncodingRangeError


def test_no_cap_options_on_the_cli():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        option
        for p in (parser, *sub.choices.values())
        for action in p._actions
        for option in action.option_strings
    }
    assert "--steps" in options
    assert not options & {"--max-n", "--term-cap", "--max-terms"}


def test_no_new_pipeline_options():
    # Each keyword is a setting every caller and test must cover: a new one
    # fails here, so the change that adds it has to justify it.
    params = lambda f: list(inspect.signature(f).parameters)
    assert params(factor_pipeline) == ["z", "n", "route"]
    assert params(multiply_all) == ["fl", "state"]
    assert params(TruncationParams) == ["machines", "steps", "cells", "config_codes", "state_codes"]
    assert params(build_chained_superposition) == ["params", "starts"]
    assert params(probe_report) == ["spec", "config", "steps", "mode"]
    assert params(bounded_halt_probe) == ["spec", "config", "steps"]
    assert params(TruncationParams.step_codes) == ["self", "machine_code", "code"]
    assert params(run_search) == ["elements", "f", "n"]
    assert params(half_difference_filter) == ["oracle", "state", "sl"]
