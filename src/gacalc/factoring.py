"""Divisor extraction by one multiplication pass over a double superposition.

Coding is LSB-first and the three n-bit fields are contiguous, so each field
is a fixed shift: the pair (x, y) is the blade ``x | y << n | y << 2n``,
with x in field "0" and y in fields "1" and "2" (the copy in "2" survives
the pipeline).  One application of the lifted multiplier rewrites every
term to ``x*y | y << 2n``: the wide product across "0"+"1" is the integer
itself.  Projecting onto ``mask & (2^2n - 1) == Z`` and reading
``mask >> 2n`` then yields every divisor of Z.

``multiply_all`` is the multiplier on an arbitrary state: one blade map
lifted in the layout's own algebra, so it is linear on signed states too.
It runs the NAND multiplier netlist on each blade and reads its product
places; each run is one lookup per block of the netlist's block program
(:func:`gacalc.circuit.run_netlist`): 3 table lookups for the 210 gates
at n = 5, each row filled by the first blade that needs it.

``factor_pipeline`` runs the full superposition.  Its faithful route builds
the 4^n-term state, held to ``core.MAX_TERMS`` terms (n <= 10), and
multiplies it with ``multiply_all``.  Its fast route runs the same NAND
netlist bitsliced: lane t is the term with x = t mod 2^n and y = t >> n,
and each instruction of the compiled plane program acts on a tile of 2^16
lanes (:func:`gacalc.circuit.run_netlist_planes`).  Lane bits below 16
carry operand planes shared by every tile; each higher one is a y bit
constant in a tile, the top two folded into the program, the rest fed as
zero or all-ones planes; all of it is planned once per width.  The
projection onto product = Z is an AND of the product planes, so the
4^n-term state is never built.  Memory is bounded by the tile at any
width; time grows with the 4^n lanes, held to the lane budget ``MAX_LANES``.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable

from .circuit import (
    FOLDED_PROGRAMS,
    MemoryBlade,
    Netlist,
    build_nand_multiplier,
    run_netlist,
    run_netlist_planes,
)
from .core import EncodingRangeError, Multivector, check_terms

TILE_BITS = 16  # a fast-route tile spans 2^16 lanes: 8 KiB planes
FOLD_BITS = FOLDED_PROGRAMS.bit_length() - 1  # constant y bits folded: every program kept
MAX_LANES = 4**14  # the fast route's budget: n = 14 runs in about 2 s, n = 15 would take 8

ROUTES = ("faithful", "fast")


class FactoringLayout:
    """Three n-bit fields, ``x | y << n | y << 2n``; ``dimension = 3n``.

    Field "0" (bits [0, n)) holds x, fields "1" and "2" (bits [n, 2n) and
    [2n, 3n)) hold y.  The netlist's ancilla places lie above them.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("operand width must be at least 1")
        self.n = n
        self.dimension = 3 * n

    def multiplier_netlist(self) -> Netlist:
        """NAND multiplier reading operands from fields "0" and "2"."""
        return _multiplier_for(self.n)


@lru_cache(maxsize=None)
def _multiplier_for(n: int) -> Netlist:
    a = list(range(n))
    b = list(range(2 * n, 3 * n))
    return build_nand_multiplier(n, a_places=a, b_places=b, first_free=3 * n)


def build_factoring_superposition(
    fl: FactoringLayout,
    xs: Iterable[int] | None = None,
    ys: Iterable[int] | None = None,
) -> Multivector:
    """Sum of ``x | y << n | y << 2n`` over all operand pairs.

    Defaults to the full ranges x, y in [0, 2^n), i.e. 4^n terms with unit
    coefficients; restricted ranges give the corresponding sub-superposition.
    Its |xs|·|ys| terms are checked against ``core.MAX_TERMS`` first, then
    each explicit side's range on its smallest and largest value.
    """
    n = fl.n
    xs = None if xs is None else list(xs)
    ys = None if ys is None else list(ys)
    # A full side counts 2^n by shift (len() of a range overflows past
    # sys.maxsize), at most 2^64: check_terms names that as a bound, and a
    # huge n allocates nothing before it is refused.
    count = lambda side: 1 << min(n, 64) if side is None else len(side)
    total = count(xs) * count(ys)
    check_terms(total, "factoring superposition")
    if not total:  # an empty side: no pairs, and no loop over the full other side
        return Multivector.zero(fl.dimension)
    for side, name in ((xs, "0"), (ys, "1")):
        for v in () if side is None else (min(side), max(side)):
            if v < 0 or v >> n:
                raise EncodingRangeError(f"value {v} does not fit {n}-bit field {name!r}")
    xs = range(1 << n) if xs is None else xs
    ys = range(1 << n) if ys is None else ys
    spread = 1 << n | 1 << 2 * n
    terms = dict.fromkeys((x | y * spread for y in ys for x in xs), 1)
    return Multivector._wrap(fl.dimension, terms)


def multiply_all(fl: FactoringLayout, state: Multivector) -> Multivector:
    """One lifted, linear pass of the NAND multiplier, sign +1 on every blade.

    Blade ``x | y << n | y << 2n`` becomes ``x*y | y << 2n``.  The product is
    read off the netlist run on that blade, 3 table lookups at n = 5, the
    rows shared by every blade and pass; only its bits are read, since
    the gate writes' sign has no bit content: character -1 - p of one
    ``format`` is place p's bit, with a bit set above them all.
    """
    if state.dimension != fl.dimension:
        raise ValueError("state does not live in this factoring layout")
    netlist, keep = fl.multiplier_netlist(), (1 << fl.n) - 1 << 2 * fl.n
    places = netlist.output_groups[0]
    top, read = 1 << max(places) + 1, itemgetter(*(-1 - p for p in reversed(places)))

    def op(mask: int) -> tuple[int, int]:
        out = run_netlist(netlist, MemoryBlade(mask)).mask
        return int("".join(read(format(out | top, "b"))), 2) | mask & keep, 1

    return state.map_blades(op)


def project_product(fl: FactoringLayout, state: Multivector, z: int) -> Multivector:
    """Keep exactly the terms whose bits [0, 2n) hold the product z."""
    if not 1 <= z < (1 << fl.n):
        raise ValueError(f"target {z} outside [1, 2^{fl.n})")
    low = ~(-1 << 2 * fl.n)
    return state.project(lambda mask: mask & low == z)


def read_divisors(fl: FactoringLayout, state: Multivector) -> set[int]:
    """Read y, ``mask >> 2n & (2^n - 1)``, off every term, deduplicated."""
    shift, y = 2 * fl.n, ~(-1 << fl.n)
    return {mask >> shift & y for mask in state.masks()}


def _operand_planes(netlist: Netlist, lanes: int) -> dict[int, int]:
    """Planes of the grid's first ``lanes`` lanes: input j, 2^j < lanes, carries bit j of t.

    The plane of lane bit j repeats 2^j zeros then 2^j ones; it is built by
    doubling one period up to ``lanes`` bits, linear in ``lanes``.
    """
    planes = {}
    for j, place in enumerate(netlist.inputs[: lanes.bit_length() - 1]):
        half = 1 << j
        plane, period = ((1 << half) - 1) << half, 2 * half
        while period < lanes:
            plane |= plane << period
            period *= 2
        planes[place] = plane
    return planes


def _plane_divisors(fl: FactoringLayout, z: int) -> tuple[list[int], int, int]:
    """y of every lane whose NAND-multiplied product equals z, ascending,
    the tile count and the big-int operations of all tiles.  Tile i holds the
    lanes from i·2^16, so its lane bits from 16 up are the bits of i.
    """
    netlist = fl.multiplier_netlist()
    width, low, fed, folds, ops = _tiling(fl.n)
    lanes = 1 << width
    full = (1 << lanes) - 1
    products = netlist.output_groups[0]
    ys = []
    tiles = len(folds) << len(fed)
    for tile in range(tiles):
        planes = {**low, **{place: full for k, place in enumerate(fed) if tile >> k & 1}}
        out = run_netlist_planes(netlist, planes, lanes, folds[tile >> len(fed)])
        hits = full
        for k, place in enumerate(products):
            hits &= out[place] if z >> k & 1 else full ^ out[place]
        while hits:
            first = hits & -hits
            ys.append((tile << width | first.bit_length() - 1) >> fl.n)
            hits ^= first
    return ys, tiles, ops


@lru_cache(maxsize=None)
def _tiling(n: int):
    """The fast route's plan for width n: lane bits per tile and their operand
    planes; the y places above them fed as planes, the tile index's low bits;
    the folds of the rest, by its high bits; the big-int operations of all tiles."""
    netlist = _multiplier_for(n)
    width = min(2 * n, TILE_BITS)
    high = tuple(netlist.inputs[width:])
    fed, folded = high[: len(high) - FOLD_BITS], high[len(high) - FOLD_BITS :]
    folds = tuple({p: i >> k & 1 for k, p in enumerate(folded)} for i in range(1 << len(folded)))
    ops = sum(map(netlist.plane_ops, folds)) << len(fed)
    return width, _operand_planes(netlist, 1 << width), fed, folds, ops


def factor_pipeline(z: int, n: int, route: str = "fast") -> dict:
    """Full pipeline for one target; returns divisors plus stage statistics.

    The result always carries the projected state under ``"state"``: it holds
    only the ``terms_after`` surviving terms, one per divisor.  Beside the one
    multiply pass it counts the classical work that simulates it: the
    multiplier's ``gates``; on the fast route its ``tiles`` and
    ``plane_ops``, the big-int operations run over all tiles; on the
    faithful route ``table_lookups``, the lookups of one blade's run.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if z < 1:
        raise ValueError("target must be at least 1")
    fl = FactoringLayout(n)  # names the width when n < 1, before z is tested against it
    if z.bit_length() > n:
        raise ValueError(
            f"width n={n} cannot represent every divisor of {z}; need 2^n > z"
        )
    if route == "fast":
        # 4^n lanes counted by shift, at most 2^128, so a huge n forms no 4^n.
        check_terms(1 << min(2 * n, 128), "fast route", "lanes", MAX_LANES)
        terms_before = 4**n
        ys, tiles, plane_ops = _plane_divisors(fl, z)
        # For z >= 1 each divisor y has one x, so no two lanes share a term.
        projected = Multivector._wrap(fl.dimension, {z | y << 2 * n: 1 for y in ys})
        work = {"tiles": tiles, "plane_ops": plane_ops}
    else:
        state = build_factoring_superposition(fl)
        terms_before = len(state)
        multiplied = multiply_all(fl, state)
        projected = project_product(fl, multiplied, z)
        work = {"table_lookups": fl.multiplier_netlist().table_lookups}
    return {
        "z": z,
        "n": n,
        "route": route,
        "divisors": sorted(read_divisors(fl, projected)),
        "terms_before": terms_before,
        "terms_after": len(projected),
        "multiply_passes": 1,
        "gates": len(fl.multiplier_netlist().gates),
        "state": projected,
        **work,
    }
