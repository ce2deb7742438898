"""Exact sparse multivector arithmetic over a Euclidean geometric algebra.

A basis blade e_{i1}...e_{ik} (ascending indices) is stored as an int bitmask
with bit i set for each factor e_{i+1}; the empty mask is the scalar blade 1.
A multivector is a sparse map ``mask -> coefficient`` holding only nonzero
coefficients, so equality is exact map comparison with no tolerance.  A
coefficient is an ``int`` until a division makes it a ``Fraction``; the two
compare and hash alike (``Fraction(2) == 2``), so the mix never shows in
equality or in serialized records.

The geometric product is fraction-free.  Each operand is scaled once to
integer numerators over the lcm of its denominators, and the sign of a blade
pair is ``e_ma e_mb = (-1)^popcount(q_a & mb) e_(ma ^ mb)``, where ``q_a``
(bit j = parity of the bits of ``ma`` above j) is taken once per left blade.
Its result type rule: if every coefficient of both operands is an ``int``,
every result coefficient is an ``int``; otherwise every result coefficient
is a ``Fraction`` in lowest terms, ``Fraction(k)`` included.

The signature is fixed Euclidean (every e_i squares to +1).  Multivectors are
immutable values: every operation returns a fresh instance, which makes them
safe to share across threads.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping


class DimensionMismatch(ValueError):
    """Operands belong to algebras of different dimension."""


class EncodingRangeError(ValueError):
    """A value does not fit the bit field that codes it."""


class ResourceCapError(RuntimeError):
    """A count is over its cap: terms or chain words over ``MAX_TERMS``, or fast-route lanes."""


MAX_TERMS = 1 << 20  # = 4^10: the full factoring grid at n = 10


def check_terms(count: int, what: str, unit: str = "terms", cap: int = MAX_TERMS) -> None:
    """The one cap mechanism: every construction calls it, counting before it allocates.

    The refusal names the count's ``unit``.  A count of 2^64 or more is named
    by the power of two at or below it, so a caller that cannot afford to
    form a huge count may pass a lower bound.
    """
    if count > cap:
        size = f"2^{count.bit_length() - 1} or more" if count >> 64 else count
        raise ResourceCapError(f"{what} needs {size} {unit}, cap is {cap}")


def _suffix_parity(a: int) -> int:
    """Mask whose bit j is the parity of the bits of ``a`` above j.

    ``q = a >> 1`` then ``q ^= q >> s`` for s = 1, 2, 4, ... below the width:
    a parallel-prefix XOR, so O(log width) big-int steps.  The one sign
    mechanism: :func:`reorder_sign` and the geometric product both read it.
    """
    q = a >> 1
    width = q.bit_length()
    s = 1
    while s < width:
        q ^= q >> s
        s <<= 1
    return q


def reorder_sign(a: int, b: int) -> int:
    """Sign picked up when merging blade masks ``a`` and ``b`` into canonical order.

    Writing e_A e_B in ascending order moves each factor of ``b`` left past
    every factor of ``a`` with a larger index: one transposition of
    anticommuting basis vectors per pair (i in a, j in b, i > j).  Shared
    factors contract via e_i*e_i = +1 and add no sign in the Euclidean
    signature.  Only the parity of that pair count matters: with
    ``q = _suffix_parity(a)`` (bit j = parity of the bits of ``a`` above j),
    the parity of ``q & b`` is the sum over j in b of those parities, mod 2,
    which is the transposition count mod 2.  Returns +1 or -1.
    """
    return -1 if (_suffix_parity(a) & b).bit_count() & 1 else 1


def blade_mul(a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades: ``(result_mask, sign)``.

    The result mask is the symmetric difference of the factor sets; the sign
    is the reordering parity from :func:`reorder_sign`.
    """
    return a ^ b, reorder_sign(a, b)


Coefficient = int | Fraction


def _accumulate(pairs: Iterable[tuple[int, Coefficient]]) -> dict[int, Coefficient]:
    """Sum ``(mask, coefficient)`` pairs per mask, dropping exact zeros."""
    acc: dict[int, Coefficient] = {}
    for mask, c in pairs:
        prev = acc.get(mask)
        if prev is None:
            acc[mask] = c  # stored as is: ``0 + c`` would take Fraction.__radd__
        elif s := prev + c:
            acc[mask] = s
        else:
            del acc[mask]
    return acc


def _numerators(terms: Mapping[int, Coefficient]) -> tuple[list[tuple[int, int]], int | None]:
    """``(mask, integer numerator)`` pairs over the lcm of the denominators.

    The lcm is ``None`` when every coefficient is an ``int`` (the numerators
    are then the coefficients), else an ``int`` >= 1, so an all-``Fraction``
    operand with integral values still reads as rational.
    """
    dens = {c.denominator for c in terms.values() if type(c) is not int}
    if not dens:
        return list(terms.items()), None
    den = lcm(*dens)
    return [
        (m, c * den if type(c) is int else c.numerator * (den // c.denominator))
        for m, c in terms.items()
    ], den


def _is_exact(value: object) -> bool:
    """Is ``value`` an ``int`` (not a ``bool``) or a ``Fraction``?"""
    return type(value) is int or isinstance(value, Fraction)


def grade(mask: int) -> int:
    """Number of basis-vector factors in a blade (popcount of its mask)."""
    return mask.bit_count()


def _blade_str(mask: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"e{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)


class Multivector:
    """Sparse linear combination of basis blades with exact rational coefficients.

    ``terms`` maps blade masks to nonzero ``int`` or ``Fraction`` values.
    Construction normalizes: zero terms are dropped, so two multivectors are
    equal iff dimensions and term maps match.  An ``int`` stays an ``int``
    and a ``Fraction`` stays a ``Fraction``; any other coefficient type
    (``float``, ``str``, ``bool``, ...) raises ``TypeError``.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dimension: int, terms: Mapping[int, Coefficient] | None = None):
        if dimension < 0:
            raise ValueError(f"dimension must be nonnegative, got {dimension}")
        clean: dict[int, Coefficient] = {}
        if terms:
            for mask, coeff in terms.items():
                if mask < 0 or mask >> dimension:
                    raise ValueError(
                        f"blade mask {mask:#x} outside dimension {dimension}"
                    )
                if not _is_exact(coeff):
                    raise TypeError(
                        f"coefficient {coeff!r} of blade mask {mask:#x}"
                        " is not an int or a Fraction"
                    )
                if coeff:
                    clean[mask] = coeff
        self._dim = dimension
        self._terms = clean

    @classmethod
    def _raw(cls, dimension: int, clean_terms: dict[int, Coefficient]) -> "Multivector":
        # Internal fast path: caller guarantees normalized, in-range terms.
        mv = object.__new__(cls)
        mv._dim = dimension
        mv._terms = clean_terms
        return mv

    @classmethod
    def _wrap(cls, dimension: int, terms: dict[int, Coefficient]) -> "Multivector":
        # Internal: ``terms`` is normalized (nonzero int/Fraction values) but
        # its masks are unchecked; one min/max pass checks the range, and the
        # dict is wrapped as is, not copied.
        if dimension < 0 or terms and (min(terms) < 0 or max(terms) >> dimension):
            raise ValueError(f"blade masks do not fit dimension {dimension}")
        return cls._raw(dimension, terms)

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
        return cls._raw(dimension, {1 << index: 1})

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[int, Coefficient]:
        return MappingProxyType(self._terms)

    def coefficient(self, mask: int) -> Coefficient:
        return self._terms.get(mask, 0)

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

    def _merge(self, other: "Multivector", op) -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_dim(other)
        acc = dict(self._terms)
        for mask, c in other._terms.items():
            if s := op(acc.get(mask, 0), c):
                acc[mask] = s
            else:
                del acc[mask]
        return Multivector._raw(self._dim, acc)

    def __add__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, operator.add)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self._merge(other, operator.sub)

    def __neg__(self) -> "Multivector":
        return Multivector._raw(self._dim, {m: -c for m, c in self._terms.items()})

    def scale(self, factor) -> "Multivector":
        """Multiply every coefficient by an exact scalar (``int`` or ``Fraction``)."""
        if not _is_exact(factor):
            raise TypeError(f"scale factor {factor!r} is not an int or a Fraction")
        if not factor:
            return Multivector.zero(self._dim)
        return Multivector._raw(self._dim, {m: c * factor for m, c in self._terms.items()})

    def geometric_product(self, other: "Multivector") -> "Multivector":
        """Bilinear extension of the blade product with anticommutation signs.

        Fraction-free: each operand is scaled once to integer numerators over
        the lcm of its denominators, ``a = A / da`` and ``b = B / db``.  The
        suffix-parity mask ``q_a`` is taken once per left blade, so a pair
        costs only ``e_ma e_mb = (-1)^popcount(q_a & mb) e_(ma ^ mb)`` and
        one ``int`` product.  Sums are divided once per output term, with one
        ``Fraction(n, da * db)`` per distinct numerator ``n``.  Both operands
        all ``int``: every result coefficient is an ``int``.  Otherwise every
        one is a ``Fraction`` in lowest terms.
        """
        if not isinstance(other, Multivector):
            raise TypeError(
                f"geometric product needs a Multivector, got {type(other).__name__}"
            )
        self._check_dim(other)
        left, da = _numerators(self._terms)
        right, db = _numerators(other._terms)
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for ma, ca in left:
            q = _suffix_parity(ma)
            for mb, cb in right:
                m = ma ^ mb
                if (q & mb).bit_count() & 1:
                    acc[m] = get(m, 0) - ca * cb
                else:
                    acc[m] = get(m, 0) + ca * cb
        for m in [m for m, n in acc.items() if not n]:
            del acc[m]
        if da is not None or db is not None:
            den = (da or 1) * (db or 1)
            memo: dict[int, Fraction] = {}
            for m, n in acc.items():  # rebinds values only, so iteration holds
                c = memo.get(n)
                if c is None:
                    c = memo[n] = Fraction(n, den)
                acc[m] = c
        return Multivector._raw(self._dim, acc)

    def map_blades(self, f: Callable[[int], tuple[int, int]]) -> "Multivector":
        """Linear lift of a signed blade map ``f(mask) -> (mask', +1 or -1)``.

        Each term c*e_mask becomes +-c*e_mask'; images that land on one blade
        are summed and exact zeros dropped.  The result lives in this
        multivector's algebra; an image outside it raises ``ValueError``.
        """

        def images():
            for mask, c in self._terms.items():
                out, sign = f(mask)
                yield out, (c if sign > 0 else -c)

        return Multivector._wrap(self._dim, _accumulate(images()))

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
        {"mask": format(mask, "x"), "num": str(c.numerator), "den": str(c.denominator)}
        for mask, c in sorted(mv._terms.items())  # masks are distinct: values never compared
    ]


def from_records(records: Iterable[Mapping[str, str]], dimension: int) -> Multivector:
    """Inverse of :func:`to_records` for the given algebra dimension.

    A coefficient whose reduced denominator is 1 is stored as an ``int``,
    any other as a ``Fraction``.  A malformed record raises ``ValueError``
    naming it: not a mapping of integer strings (``mask`` in hex), a missing
    field, a zero denominator, or a mask repeated or outside ``dimension``.
    """
    terms: dict[int, Coefficient] = {}
    for rec in records:
        try:
            fields = rec["mask"], rec["num"], rec["den"]
            if not all(type(f) is str for f in fields):
                raise TypeError  # int() would truncate a float and accept a bool
            mask = int(fields[0], 16)
            coeff = Fraction(int(fields[1]), int(fields[2]))
        except KeyError as exc:
            raise ValueError(f"record {rec!r} lacks field {exc}") from None
        except ZeroDivisionError:
            raise ValueError(f"record {rec!r} has a zero denominator") from None
        except (TypeError, ValueError):
            raise ValueError(f"record {rec!r} is not a mapping of integer strings") from None
        if mask < 0 or mask >> dimension or mask in terms:
            raise ValueError(f"record {rec!r} repeats a mask or leaves dimension {dimension}")
        terms[mask] = coeff.numerator if coeff.denominator == 1 else coeff
    return Multivector(dimension, terms)
