"""Number-to-blade coding: round trips, grade law, subspace disjointness."""
import pytest

from gacalc.core import Multivector, reorder_sign
from gacalc.encoding import (
    EncodingRangeError,
    SubspaceLayout,
    decode,
    decode_wide,
    encode,
    encode_wide,
)


@pytest.fixture
def layout():
    return SubspaceLayout([("a", 3), ("b", 3), ("c", 5)], tail=1)


def test_zero_codes_to_scalar(layout):
    assert encode(0, "a", layout) == 0
    assert encode(0, "c", layout) == 0


def test_five_in_three_bits(layout):
    # digits of 5 are 1,0,1 (LSB first) -> indices {0, 2} within the subspace
    assert encode(5, "a", layout) == 0b101
    assert encode(5, "b", layout) == 0b101 << 3


def test_all_ones(layout):
    assert encode(7, "a", layout) == 0b111


def test_range_error(layout):
    with pytest.raises(EncodingRangeError):
        encode(8, "a", layout)
    with pytest.raises(EncodingRangeError):
        encode(-1, "a", layout)


def test_decode_examples(layout):
    assert decode(0, "a", layout) == 0
    assert decode(0b101, "a", layout) == 5
    # bits entirely outside the subspace decode to 0
    assert decode(0b101 << 3, "a", layout) == 0
    assert decode(0b101 << 3, "b", layout) == 5


def test_roundtrip_exhaustive():
    for n in (1, 2, 3, 8, 12):
        layout = SubspaceLayout([("pad", 2), ("s", n)])
        for x in range(1 << n):
            assert decode(encode(x, "s", layout), "s", layout) == x


def test_subspace_methods_roundtrip_and_match_module_functions(layout):
    for name in ("a", "b", "c"):
        sub = layout[name]
        for x in range(1 << sub.width):
            assert sub.decode(sub.encode(x)) == x
            assert sub.encode(x) == encode(x, name, layout)
            assert sub.decode(sub.encode(x) | 1 << 11) == decode(sub.encode(x), name, layout)


def test_subspace_range_error_text(layout):
    with pytest.raises(EncodingRangeError, match=r"^value 8 does not fit 3-bit subspace 'a'$"):
        layout["a"].encode(8)
    with pytest.raises(EncodingRangeError, match=r"^value -1 does not fit 5-bit subspace 'c'$"):
        encode(-1, "c", layout)


def test_grade_law(layout):
    for x in range(32):
        assert encode(x, "c", layout).bit_count() == x.bit_count()


def test_wide_zero(layout):
    assert encode_wide(0, "a", "b", layout) == 0


def test_wide_boundary_carry(layout):
    # 2^n has an empty low half and bit 0 of the high half set
    assert encode_wide(8, "a", "b", layout) == 1 << 3


def test_wide_split():
    layout = SubspaceLayout([("lo", 3), ("hi", 3)])
    mask = encode_wide(35, "lo", "hi", layout)  # 35 = 3 + 4*8
    assert decode(mask, "lo", layout) == 3
    assert decode(mask, "hi", layout) == 4
    assert mask == encode(3, "lo", layout) | encode(4, "hi", layout)
    assert decode_wide(mask, "lo", "hi", layout) == 35


def test_wide_roundtrip(layout):
    for x in range(64):
        mask = encode_wide(x, "a", "b", layout)
        assert decode_wide(mask, "a", "b", layout) == x
    with pytest.raises(EncodingRangeError):
        encode_wide(64, "a", "b", layout)


def test_subspaces_disjoint(layout):
    for x in range(8):
        for y in range(8):
            assert encode(x, "a", layout) & encode(y, "b", layout) == 0


def test_cross_subspace_commutation(layout):
    """Blades in different subspaces commute up to the tracked reorder sign."""
    dim = layout.total_dim
    for x in range(1, 8):
        for y in range(1, 8):
            a = Multivector.blade(dim, encode(x, "a", layout))
            b = Multivector.blade(dim, encode(y, "b", layout))
            sign = reorder_sign(encode(y, "b", layout), encode(x, "a", layout))
            assert a * b == (b * a).scale(sign)


def test_layout_validation():
    with pytest.raises(ValueError):
        SubspaceLayout([("a", 0)])
    with pytest.raises(ValueError):
        SubspaceLayout([("a", 2), ("a", 3)])
    layout = SubspaceLayout([("a", 2), ("b", 3)], tail=1)
    assert layout.total_dim == 6
    assert layout["b"].offset == 2
    assert layout["b"].mask == 0b111 << 2
    assert "a" in layout and "zz" not in layout
