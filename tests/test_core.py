"""Blade arithmetic against brute-force oracles and algebraic laws."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc.core import (
    DimensionMismatch,
    Multivector,
    blade_mul,
    from_records,
    grade,
    reorder_sign,
    to_records,
)


def bubble_sign(a: int, b: int) -> int:
    """Oracle: parity of bubble-sorting the concatenated index sequences.

    Equal indices end up adjacent without swapping and contract to +1, so the
    swap count is exactly the number of anticommuting transpositions.
    """
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
    return -1 if swaps % 2 else 1


def brute_product(a: Multivector, b: Multivector) -> Multivector:
    """Oracle: quadratic term-by-term expansion using the bubble-sort sign."""
    acc = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            mask = ma ^ mb
            acc[mask] = acc.get(mask, Fraction(0)) + ca * cb * bubble_sign(ma, mb)
    return Multivector(a.dimension, acc)


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


class TestProjection:
    def test_keep_all(self):
        a = Multivector(4, {0: 1, 0b11: 2})
        assert a.project(lambda m: True) == a

    def test_keep_none(self):
        a = Multivector(4, {0: 1, 0b11: 2})
        assert a.project(lambda m: False) == Multivector.zero(4)

    def test_grade_selection(self):
        a = Multivector(4, {0: 1, 0b1: 1, 0b11: 1})  # 1 + e1 + e1e2
        assert a.grade_part(2) == Multivector.blade(4, 0b11)

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


def test_grade_helper():
    assert grade(0) == 0
    assert grade(0b1011) == 3


def test_repr_smoke():
    a = Multivector(4, {0: Fraction(1, 2), 0b11: -1, 0b1: 3})
    text = repr(a)
    assert "e1e2" in text and "1/2" in text
