"""Integer-to-blade coding within named subspaces.

A nonnegative integer x with binary digits x_1 x_2 ... x_n (LSB first) is
coded as the blade whose factor set marks the 1-digits: digit x_i set puts
global index ``offset + i - 1`` into the mask.  x = 0 codes to the scalar
blade, and the blade grade equals the binary weight of x.

Because subspaces are contiguous and the digit convention is LSB-first, the
coded mask is literally ``x << offset``, and a double-width value splits into
low/high halves across two subspaces.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import EncodingRangeError


@dataclass(frozen=True)
class Subspace:
    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        """Full mask of the subspace (all its dimensions set)."""
        return ((1 << self.width) - 1) << self.offset

    def encode(self, x: int) -> int:
        """Code integer ``x`` as a blade mask inside this subspace."""
        if x < 0 or x >> self.width:
            raise EncodingRangeError(
                f"value {x} does not fit {self.width}-bit subspace {self.name!r}"
            )
        return x << self.offset

    def decode(self, mask: int) -> int:
        """Read the integer coded here; bits outside the subspace are ignored."""
        return (mask >> self.offset) & ((1 << self.width) - 1)


class SubspaceLayout:
    """Partition of global dimensions into named, fixed-width subspaces.

    Subspaces are disjoint and contiguous, with offsets assigned cumulatively
    in declaration order.  ``tail`` reserves extra dimensions above the last
    subspace (e.g. for an oracle dimension), so ``total_dim`` covers them.
    """

    def __init__(self, widths: list[tuple[str, int]], tail: int = 0):
        if tail < 0:
            raise ValueError("tail must be nonnegative")
        self._subspaces: dict[str, Subspace] = {}
        self._order: list[Subspace] = []
        offset = 0
        for name, width in widths:
            if width <= 0:
                raise ValueError(f"subspace {name!r} must have positive width")
            if name in self._subspaces:
                raise ValueError(f"duplicate subspace name {name!r}")
            sub = Subspace(name, width, offset)
            self._subspaces[name] = sub
            self._order.append(sub)
            offset += width
        self._total = offset + tail

    @property
    def total_dim(self) -> int:
        return self._total

    @property
    def subspaces(self) -> list[Subspace]:
        return list(self._order)

    def __getitem__(self, name: str) -> Subspace:
        return self._subspaces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._subspaces


def encode(x: int, subspace: str, layout: SubspaceLayout) -> int:
    """Code integer ``x`` as a blade mask inside the named subspace."""
    return layout[subspace].encode(x)


def decode(mask: int, subspace: str, layout: SubspaceLayout) -> int:
    """Read the integer coded in the named subspace; bits outside it are ignored."""
    return layout[subspace].decode(mask)


def encode_wide(x: int, sub_lo: str, sub_hi: str, layout: SubspaceLayout) -> int:
    """Code a double-width integer across two subspaces (low half in ``sub_lo``)."""
    lo, hi = layout[sub_lo], layout[sub_hi]
    if x < 0 or x >> (lo.width + hi.width):
        raise EncodingRangeError(
            f"value {x} does not fit {lo.width + hi.width} bits across"
            f" {sub_lo!r}+{sub_hi!r}"
        )
    return lo.encode(x & ((1 << lo.width) - 1)) | hi.encode(x >> lo.width)


def decode_wide(mask: int, sub_lo: str, sub_hi: str, layout: SubspaceLayout) -> int:
    """Inverse of :func:`encode_wide`."""
    lo = layout[sub_lo]
    return lo.decode(mask) | layout[sub_hi].decode(mask) << lo.width
