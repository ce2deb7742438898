"""Exact sparse multivector arithmetic over a Euclidean geometric algebra.

A basis blade e_{i1}...e_{ik} (ascending indices) is stored as an int bitmask
with bit i set for each factor e_{i+1}; the empty mask is the scalar blade 1.
A multivector is a sparse map ``mask -> Fraction`` holding only nonzero
coefficients, so equality is exact map comparison with no tolerance.

The signature is fixed Euclidean (every e_i squares to +1).  Multivectors are
immutable values: every operation returns a fresh instance, which makes them
safe to share across threads.
"""
from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Mapping


class DimensionMismatch(ValueError):
    """Operands belong to algebras of different dimension."""


class ResourceCapError(RuntimeError):
    """A construction would exceed its configured size cap."""


def reorder_sign(a: int, b: int) -> int:
    """Sign picked up when merging blade masks ``a`` and ``b`` into canonical order.

    Writing e_A e_B in ascending order moves each factor of ``b`` left past
    every factor of ``a`` with a larger index: one transposition of
    anticommuting basis vectors per pair (i in a, j in b, i > j).  Shared
    factors contract via e_i*e_i = +1 and add no sign in the Euclidean
    signature.  Only the parity of that pair count matters, so it is taken
    with a suffix-parity scan instead of a count per set bit of ``b``:
    ``q = a >> 1`` then ``q ^= q >> s`` for s = 1, 2, 4, ... leaves bit j of
    ``q`` equal to the parity of the bits of ``a`` above j (a parallel-prefix
    XOR, so O(log width) big-int steps).  The parity of ``q & b`` is then the
    sum over j in b of those parities, mod 2: the transposition count mod 2.
    Returns +1 or -1.
    """
    q = a >> 1
    width = q.bit_length()
    s = 1
    while s < width:
        q ^= q >> s
        s <<= 1
    return -1 if (q & b).bit_count() & 1 else 1


def blade_mul(a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades: ``(result_mask, sign)``.

    The result mask is the symmetric difference of the factor sets; the sign
    is the reordering parity from :func:`reorder_sign`.
    """
    return a ^ b, reorder_sign(a, b)


def grade(mask: int) -> int:
    """Number of basis-vector factors in a blade (popcount of its mask)."""
    return mask.bit_count()


def _blade_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


class Multivector:
    """Sparse linear combination of basis blades with exact rational coefficients.

    ``terms`` maps blade masks to nonzero ``Fraction`` values.  Construction
    normalizes: coefficients are coerced to ``Fraction`` and zero terms are
    dropped, so two multivectors are equal iff dimensions and term maps match.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dimension: int, terms: Mapping[int, object] | None = None):
        if dimension < 0:
            raise ValueError(f"dimension must be nonnegative, got {dimension}")
        clean: dict[int, Fraction] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask >> dimension:
                    raise ValueError(
                        f"blade mask {mask:#x} outside dimension {dimension}"
                    )
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    clean[mask] = c
        self._dim = dimension
        self._terms = clean

    @classmethod
    def _raw(cls, dimension: int, clean_terms: dict[int, Fraction]) -> "Multivector":
        # Internal fast path: caller guarantees normalized, in-range terms.
        mv = object.__new__(cls)
        mv._dim = dimension
        mv._terms = clean_terms
        return mv

    @classmethod
    def zero(cls, dimension: int) -> "Multivector":
        return cls._raw(dimension, {})

    @classmethod
    def scalar(cls, dimension: int, value) -> "Multivector":
        return cls(dimension, {0: value})

    @classmethod
    def blade(cls, dimension: int, mask: int, coeff=1) -> "Multivector":
        return cls(dimension, {mask: coeff})

    @classmethod
    def basis_vector(cls, dimension: int, index: int) -> "Multivector":
        if not 0 <= index < dimension:
            raise ValueError(f"basis index {index} outside [0, {dimension})")
        return cls._raw(dimension, {1 << index: Fraction(1)})

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[int, Fraction]:
        return MappingProxyType(self._terms)

    def coefficient(self, mask: int) -> Fraction:
        return self._terms.get(mask, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    __hash__ = None  # mutable dict inside; identity-free value semantics only

    def _check_dim(self, other: "Multivector") -> None:
        if self._dim != other._dim:
            raise DimensionMismatch(
                f"incompatible algebras: dimension {self._dim} vs {other._dim}"
            )

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            s = acc.get(mask, 0) + c
            if s:
                acc[mask] = s
            else:
                acc.pop(mask, None)
        return Multivector._raw(self._dim, acc)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            s = acc.get(mask, 0) - c
            if s:
                acc[mask] = s
            else:
                acc.pop(mask, None)
        return Multivector._raw(self._dim, acc)

    def __neg__(self) -> "Multivector":
        return Multivector._raw(self._dim, {m: -c for m, c in self._terms.items()})

    def scale(self, factor) -> "Multivector":
        """Multiply every coefficient by an exact scalar."""
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        if not f:
            return Multivector.zero(self._dim)
        return Multivector._raw(self._dim, {m: c * f for m, c in self._terms.items()})

    def geometric_product(self, other: "Multivector") -> "Multivector":
        """Bilinear extension of the blade product with anticommutation signs."""
        self._check_dim(other)
        acc: dict[int, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mask, sign = blade_mul(ma, mb)
                s = acc.get(mask, 0) + (ca * cb if sign > 0 else -(ca * cb))
                if s:
                    acc[mask] = s
                else:
                    acc.pop(mask, None)
        return Multivector._raw(self._dim, acc)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.geometric_product(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            # Scalars commute with everything.
            return self.scale(other)
        return NotImplemented

    def project(self, pred: Callable[[int], bool]) -> "Multivector":
        """Keep exactly the terms whose blade mask satisfies ``pred``.

        Coefficients are unchanged, so the operation is idempotent and linear.
        """
        return Multivector._raw(
            self._dim, {m: c for m, c in self._terms.items() if pred(m)}
        )

    def grade_part(self, k: int) -> "Multivector":
        """Grade-k part: terms whose blade has exactly k factors."""
        return self.project(lambda m: m.bit_count() == k)

    def masks(self) -> Iterable[int]:
        return self._terms.keys()

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms):
            c = self._terms[mask]
            blade = _blade_str(mask)
            if c == 1 and mask:
                parts.append(blade)
            elif c == -1 and mask:
                parts.append(f"-{blade}")
            elif mask == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{blade}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out


def to_records(mv: Multivector) -> list[dict[str, str]]:
    """Serialize to a list of ``{mask, num, den}`` string records.

    ``mask`` is lowercase hex without prefix; records are sorted by mask value
    ascending.  The round trip through :func:`from_records` is bit-exact.
    """
    return [
        {
            "mask": format(mask, "x"),
            "num": str(mv.terms[mask].numerator),
            "den": str(mv.terms[mask].denominator),
        }
        for mask in sorted(mv.masks())
    ]


def from_records(records: Iterable[Mapping[str, str]], dimension: int) -> Multivector:
    """Inverse of :func:`to_records` for the given algebra dimension.

    A record with a missing field or a zero denominator raises
    ``ValueError`` naming the record.
    """
    terms: dict[int, Fraction] = {}
    for rec in records:
        try:
            mask = int(rec["mask"], 16)
            coeff = Fraction(int(rec["num"]), int(rec["den"]))
        except KeyError as exc:
            raise ValueError(f"record {rec!r} lacks field {exc}") from None
        except ZeroDivisionError:
            raise ValueError(f"record {rec!r} has a zero denominator") from None
        if mask in terms:
            raise ValueError(f"duplicate mask {rec['mask']} in records")
        terms[mask] = coeff
    return Multivector(dimension, terms)
