"""Classical computation embedded in blade memory via NAND gates.

A blade over a place layout doubles as a write-once bit memory: place k holds
1 exactly when dimension k appears in the mask.  A NAND gate reads places p
and q and writes their NAND into an empty place r by left-multiplying the
memory blade with e_r (when the result bit is 1); the accumulated reordering
sign is tracked for algebraic cross-checks but never consulted by the bit
semantics.

:func:`run_netlist` runs the netlist on a ``bytearray`` with one cell per
place of the netlist's window, the span of its input, gate and output places,
and takes the sign once per run.  The gates run as the block program each
netlist compiles on its first per-blade run (:func:`_block_program`): runs of
gates on consecutive targets that read at most ``LUT_INPUTS`` places from
outside, one table lookup per block, each table row filled the first time a
run needs it.  A run that writes r_1, ..., r_K (in gate order) onto the
start blade M0 ends at e_{r_K} ... e_{r_1} M0.  Place r_k is
empty until its write, so no factor contracts, and moving e_{r_k} into
canonical position passes exactly the set bits below r_k: those of M0 and the
earlier writes.  Summed over the writes the first counts give the parity of
``reorder_sign(W, M0)`` (W the OR of the writes) and the second
P = #{j < k : r_j < r_k} = C(c, 2) - (inversions among the written targets
in gate order), c = popcount(W).  So the sign is
``reorder_sign(W, M0) * (-1)^P``, and for a netlist whose targets ascend in
gate order, as every :class:`GateBuilder` netlist's do, P = C(c, 2).  The
gate-by-gate :func:`nand_apply` stays as the reference.

Because places are write-once, every temporary lands in a fresh ancilla
place; netlists therefore grow monotonically and validate as a topological
order over their gates.

:func:`run_netlist_planes` runs many memories at once, bitsliced, one big
int per place holding that place's bit in every lane.  It runs the plane
program the netlist compiles on its first such run (:func:`_plane_program`):
XORs fused, unread gates dropped, polarities tracked, so a NOT costs
nothing, and inputs constant in every lane may be folded in.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import and_, itemgetter, or_, xor
from typing import AbstractSet, Callable, Iterable, Mapping

from .core import Coefficient, Multivector, _accumulate, blade_mul, reorder_sign


class TargetOccupiedError(RuntimeError):
    """A gate tried to write into a place that already holds a 1."""


class NetlistValidationError(ValueError):
    """The netlist violates the write-once or topological-order rules."""


class PlaceMapError(ValueError):
    """A term occupies places that are neither kept nor declared discarded."""


class CollisionError(RuntimeError):
    """Discarding these places loses information: distinct terms cancelled."""


@dataclass(frozen=True)
class MemoryBlade:
    """A single blade viewed as bit memory, with its carried reorder sign."""

    mask: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True)
class NandGate:
    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.r in (self.p, self.q):
            raise NetlistValidationError(f"gate {self} reads its own output place")
        if min(self.p, self.q, self.r) < 0:
            raise NetlistValidationError(f"gate {self} uses a negative place index")


def bit_read(memory: MemoryBlade, place: int) -> int:
    """Content of a memory place; the carried sign is never consulted."""
    return memory.mask >> place & 1


def nand_apply(gate: NandGate, memory: MemoryBlade) -> MemoryBlade:
    """Write NAND(place p, place q) into empty place r; other bits unchanged.

    A result bit of 0 leaves the memory untouched; a result bit of 1 extends
    the blade by e_r, multiplying the carried sign by the reordering parity of
    moving e_r into canonical position.
    """
    mask = memory.mask
    if mask >> gate.r & 1:
        raise TargetOccupiedError(
            f"place {gate.r} already occupied (gate {gate.p},{gate.q}->{gate.r})"
        )
    if mask >> gate.p & mask >> gate.q & 1:
        return memory
    mask, sign = blade_mul(1 << gate.r, mask)
    return MemoryBlade(mask, memory.sign * sign)


@dataclass(frozen=True)
class Netlist:
    """Ordered NAND gates over declared input/output place groups.

    Each input (output) group is one operand: a tuple of places, least
    significant first.  Gates must write distinct, non-input places and may
    only read inputs or earlier gate outputs.  A netlist is checked once,
    when it is built, and cannot be changed afterwards: its window of places
    ``lo .. lo + width - 1`` spans every input, gate and output place, and
    its ``(p, q, r)`` program counts places from ``lo``.  Each engine
    compiles that program on its first run: the bitsliced run one plane
    program per set of folded inputs, the unfolded one being the empty
    fold, cached at most ``FOLDED_PROGRAMS`` at once, oldest out; the
    per-blade run one block program, whose tables fill as runs need rows.
    """

    gates: tuple[NandGate, ...]
    input_groups: tuple[tuple[int, ...], ...]
    output_groups: tuple[tuple[int, ...], ...]

    @property
    def inputs(self) -> list[int]:
        return [p for group in self.input_groups for p in group]

    @property
    def outputs(self) -> list[int]:
        return [p for group in self.output_groups for p in group]

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        for name in ("input_groups", "output_groups"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        inputs = self.inputs
        for kind, places in (("INPUT", inputs), ("OUTPUT", self.outputs)):
            for place in places:
                if place < 0:
                    raise NetlistValidationError(f"{kind} place {place} is negative")
        input_set = set(inputs)
        if len(input_set) != len(inputs):
            raise NetlistValidationError("duplicate input place declaration")
        known = set(input_set)
        written: set[int] = set()
        targets = 0
        for idx, g in enumerate(gates):
            for operand in (g.p, g.q):
                if operand not in known:
                    raise NetlistValidationError(
                        f"gate #{idx} ({g.p},{g.q}->{g.r}) reads place {operand}"
                        " before it is an input or an earlier output"
                    )
            if g.r in written:
                raise NetlistValidationError(
                    f"gate #{idx} ({g.p},{g.q}->{g.r}) writes place {g.r} twice"
                )
            if g.r in input_set:
                raise NetlistValidationError(
                    f"gate #{idx} ({g.p},{g.q}->{g.r}) writes input place {g.r}"
                )
            written.add(g.r)
            known.add(g.r)
            targets |= 1 << g.r
        places = [*inputs, *self.outputs, *written]
        lo = min(places, default=0)
        object.__setattr__(self, "_targets", targets)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_width", max(places, default=lo - 1) + 1 - lo)
        program = tuple((g.p - lo, g.q - lo, g.r - lo) for g in gates)
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_ascending", all(a.r < b.r for a, b in zip(gates, gates[1:])))

    @cached_property
    def _folds(self) -> dict:  # plane programs by folded inputs, oldest first
        return {}

    def _folded(self, fixed: Mapping[int, int]):
        """The plane program with ``fixed``, ``{input place: 0 or 1}``, folded in."""
        key, folds, lo = tuple(sorted(fixed.items())), self._folds, self._lo
        if key not in folds:
            if not fixed.keys() <= set(self.inputs) or not set(fixed.values()) <= {0, 1}:
                raise ValueError(f"only input places fold, each to 0 or 1: {fixed}")
            if len(folds) == FOLDED_PROGRAMS:  # the oldest program goes
                del folds[next(iter(folds))]
            inputs, outputs = [p - lo for p in self.inputs], [p - lo for p in self.outputs]
            fixed = {p - lo: bit for p, bit in fixed.items()}
            folds[key] = _plane_program(self._program, inputs, outputs, fixed)
        return folds[key]

    @cached_property
    def _blocks(self):
        """The block program of the per-blade run, compiled on its first run."""
        return _block_program(self._program, self._width)

    @property
    def table_lookups(self) -> int:
        """Table lookups of one per-blade run: its block count."""
        return len(self._blocks)

    def plane_ops(self, fixed: Mapping[int, int] = {}) -> int:
        """Big-int operations of one bitsliced run, ``fixed`` folded in, outputs' complements too."""
        steps, outs = self._folded(fixed)
        return sum(1 + (fn is _and_not) for fn, *_ in steps) + sum(o[2] for o in outs)


def _and_not(p: int, q: int) -> int:
    """``p & ~q`` without the negative ``~q``, which CPython's big-int ``&`` copies first."""
    return p ^ p & q


FOLDED_PROGRAMS = 4  # plane programs a netlist keeps: every pattern of two folded inputs


def _plane_program(program, inputs, outputs, fixed):
    """Compile a ``(p, q, r)`` program into plane instructions, once per fold.

    XOR fusion: ``s = u NAND v`` with ``u = a NAND t``, ``v = b NAND t`` and
    ``t = a NAND b`` is ``a ^ b``, when ``u`` and ``v`` are read only by ``s``
    and are not outputs.  Gates whose target is never read and is not an
    output are then dropped.  Each wire keeps a plane and a polarity, true or
    complemented: a NAND of two true planes is one ``&`` stored complemented,
    of two complemented planes one ``|`` stored true, of mixed ones
    ``P & ~Q`` stored complemented, and ``a NAND a`` reuses a's plane with
    the polarity flipped; an XOR is one ``^`` whose polarity is the XOR of
    its inputs'.  An input in ``fixed``, ``{place: bit}``, is the zero
    plane ``None`` with polarity ``bit``: a NAND with a constant 0 is the
    constant 1, with a constant 1 the other wire flipped, and an XOR with a
    constant is the other wire, flipped by it.  Instructions whose target
    no later instruction or output reads are then dropped.  Returns the
    instructions ``(fn, a, b, r, frees)``, each freeing the planes it reads
    last, and one ``(place, plane, inverted)`` per output.
    """
    writer = {r: (p, q) for p, q, r in program}
    reads = Counter(w for p, q, _ in program for w in (p, q))
    ops, live = {}, set(outputs)  # live: the outputs, then what they read
    for p, q, r in program:
        ops[r] = (None, p, q)  # a NAND, unless fused below
        if reads[p] != 1 or reads[q] != 1 or {p, q} & live:  # p == q reads twice
            continue
        u, v = writer.get(p, ()), writer.get(q, ())
        for t in set(u) & set(v) & writer.keys():
            x, y = u[u[0] == t], v[v[0] == t]  # t never reads t, so u = (t, t) fails here
            if sorted(writer[t]) == sorted((x, y)):
                ops[r] = (xor, x, y)
    kept = []
    for _, _, r in reversed(program):
        if r in live:
            kept.append(r)
            live.update(ops[r][1:])
    where = {place: (place, False) for place in inputs}  # place -> (plane, inverted)
    where.update((place, (None, bool(bit))) for place, bit in fixed.items())
    steps = []
    for r in reversed(kept):
        fn, a, b = ops[r]
        (a, ia), (b, ib) = where[a], where[b]
        if b is None:
            (a, ia), (b, ib) = (b, ib), (a, ia)
        if a is None:  # a constant: ia is its bit
            where[r] = (b, ia != ib) if fn is xor else (b, not ib) if ia else (None, True)
            continue
        if fn is xor:
            where[r] = (r, ia != ib)
        elif (a, ia) == (b, ib):
            where[r] = (a, not ia)
            continue
        elif ia == ib:
            fn, where[r] = (or_ if ia else and_), (r, not ia)
        else:
            fn, where[r] = _and_not, (r, True)
            if ia:
                a, b = b, a
        steps.append((fn, a, b, r))
    outs = tuple((place, *where.get(place, (place, False))) for place in outputs)
    read_later = {plane for _, plane, _ in outs}  # output planes are never freed
    freeing = []
    for fn, a, b, r in reversed(steps):
        if r in read_later:
            freeing.append((fn, a, b, r, tuple({a, b} - read_later)))
            read_later |= {a, b}
    return tuple(reversed(freeing)), outs


_CELLS = bytes.maketrans(b"01", b"\0\1")  # binary digits -> place cells
_DIGITS = bytes.maketrans(b"\0\1", b"01")

LUT_INPUTS = 9  # places a block reads from outside: at most 2^9 rows, each filled on demand


def _block_program(program, width):
    """Cover a ``(p, q, r)`` program with lookup-table blocks, once per netlist.

    A block is a run of consecutive gates whose targets are consecutive places
    and which read at most ``LUT_INPUTS`` places from outside the run; the
    first gate that breaks either rule starts the next block.  A gate reads
    only inputs and earlier targets, and no target is set at the start, so a
    block's targets are a function of the cells it reads from outside: its
    key.  Each table starts empty and gains a row, the target bytes, the
    first time a run meets its key.  Place x is cell ``width - 1 - x``, most
    significant place first, so a block's targets are the cells ``a:b``.
    Returns ``(itemgetter(*inputs), gates, table, a, b)`` per block, its
    gates as ``(p, q, r)`` cells.
    """
    top, runs = width - 1, []  # [inputs, gates], in cells
    for p, q, r in program:
        gate = p, q, r = top - p, top - q, top - r
        if runs:
            inputs, gates = runs[-1]
            a, b = gates[-1][2], gates[0][2] + 1  # the run's target cells
            wider = inputs | {x for x in (p, q) if not a <= x < b}
            if r == a - 1 and len(wider) <= LUT_INPUTS:
                runs[-1][0] = wider
                gates.append(gate)
                continue
        runs.append([{p, q}, [gate]])
    return tuple((itemgetter(*sorted(i)), tuple(g), {}, g[-1][2], g[0][2] + 1) for i, g in runs)


def _refuse_occupied_targets(netlist: Netlist, occupied: int, where: str) -> None:
    """Raise on the first gate target, in gate order, that is set in ``occupied``."""
    if occupied & netlist._targets:
        lo = netlist._lo
        place = next(lo + r for _, _, r in netlist._program if occupied >> lo + r & 1)
        raise TargetOccupiedError(f"target place {place} is not empty in the initial {where}")


def run_netlist(netlist: Netlist, memory: MemoryBlade) -> MemoryBlade:
    """Apply every gate in order; the final bit pattern is the circuit value.

    Equal to folding :func:`nand_apply` over the gates, sign included.  The
    window's bits are loaded into one cell per place, most significant place
    first, and each block of the netlist's block program writes its targets'
    cells from one table lookup on the cells it reads; on a miss the block's
    gates run on the cells and their target bytes become the row.  W, the
    cells read back on the gate targets, is the OR of the writes, since no
    target is set at the start.
    The sign is taken once, ``reorder_sign(W, M0) * (-1)^P`` with
    P = C(c, 2) - inversions (module docstring); the inversions are counted
    in one pass over the targets, and only when they do not ascend.
    """
    start = memory.mask
    targets = netlist._targets
    if start & targets:
        _refuse_occupied_targets(netlist, start, "memory")
    lo, width, program = netlist._lo, netlist._width, netlist._program
    window = start >> lo & (1 << width) - 1
    cells = bytearray(format(window, f"0{width}b"), "ascii").translate(_CELLS)
    for get, gates, table, a, b in netlist._blocks:
        key = get(cells)
        row = table.get(key)
        if row is None:
            for p, q, r in gates:
                cells[r] = 1 ^ cells[p] & cells[q]
            table[key] = bytes(cells[a:b])
        else:
            cells[a:b] = row
    written = int(cells.translate(_DIGITS), 2) << lo & targets
    count = written.bit_count()
    parity = count * (count - 1) >> 1
    if not netlist._ascending:
        seen, relative = 0, written >> lo
        for _, _, r in program:
            if relative >> r & 1:
                parity -= (seen >> r).bit_count()
                seen |= 1 << r
    sign = memory.sign * reorder_sign(written, start)
    return MemoryBlade(start | written, -sign if parity & 1 else sign)


def run_netlist_planes(
    netlist: Netlist, planes: Mapping[int, int], lanes: int, fixed: Mapping[int, int] = {}
) -> dict[int, int]:
    """Run the netlist on ``lanes`` memories at once, bitsliced.

    ``planes`` maps a place to its plane: bit t is that place's bit in lane
    t, and an absent place reads as the zero plane; an input place in
    ``fixed`` holds that bit, 0 or 1, in every lane, folded into the program.
    The run executes the netlist's compiled plane program
    (:func:`_plane_program`): one big-int operation per instruction over
    every lane, each plane freed after its last read unless it holds an
    output.  ``planes`` is read, never changed,
    and the run keeps no reference to it past its copy, so the input planes
    of a mapping that only the call holds go after their last read too.
    Returns the output places' planes, complemented where the program holds
    them complemented; an output that no gate writes reads as the zero plane.
    """
    targets = netlist._targets
    _refuse_occupied_targets(
        netlist,
        sum(1 << p for p, plane in planes.items() if plane and p >= 0 and targets >> p & 1),
        "planes",
    )
    lo, (steps, outs) = netlist._lo, netlist._folded(fixed)
    wires = {place - lo: plane for place, plane in planes.items()}
    del planes
    get, pop = wires.get, wires.pop
    for fn, a, b, r, frees in steps:
        wires[r] = fn(get(a, 0), get(b, 0))
        for w in frees:
            pop(w, None)
    full = (1 << lanes) - 1
    return {lo + place: get(w, 0) ^ full if inverted else get(w, 0) for place, w, inverted in outs}


class GateBuilder:
    """Emits NAND gates, allocating one fresh place per gate output."""

    def __init__(self, first_free: int):
        self.gates: list[NandGate] = []
        self._next = first_free

    def fresh(self) -> int:
        place = self._next
        self._next += 1
        return place

    def nand(self, p: int, q: int) -> int:
        r = self.fresh()
        self.gates.append(NandGate(p, q, r))
        return r

    def inv(self, a: int) -> int:
        return self.nand(a, a)

    def conj(self, a: int, b: int) -> int:
        return self.inv(self.nand(a, b))

    def half_add(self, a: int, b: int) -> tuple[int, int]:
        t = self.nand(a, b)
        s = self.nand(self.nand(a, t), self.nand(b, t))
        return s, self.inv(t)

    def full_add(self, a: int, b: int, cin: int) -> tuple[int, int]:
        t1 = self.nand(a, b)
        x1 = self.nand(self.nand(a, t1), self.nand(b, t1))
        t2 = self.nand(x1, cin)
        s = self.nand(self.nand(x1, t2), self.nand(cin, t2))
        return s, self.nand(t1, t2)


def build_nand_multiplier(
    n: int,
    a_places: list[int] | None = None,
    b_places: list[int] | None = None,
    first_free: int | None = None,
) -> Netlist:
    """Shift-and-add n x n -> 2n bit multiplier built entirely from NAND gates.

    Partial-product rows (ANDs of operand bits) are accumulated with
    ripple-carry adders composed from NAND half/full adders; each row is
    built just before the adder that adds it, so a bitsliced run holds at
    most two rows at once.  Every intermediate lands in a fresh ancilla
    place.  By default operand A sits at places 0..n-1 and operand B at
    n..2n-1.

    The declared product places are least significant first.  For n = 1 the
    top product place is never written and reads as 0.
    """
    if n < 1:
        raise ValueError("operand width must be at least 1")
    a_places = list(range(n)) if a_places is None else list(a_places)
    b_places = list(range(n, 2 * n)) if b_places is None else list(b_places)
    if len(a_places) != n or len(b_places) != n:
        raise ValueError("operand place lists must have width n")
    if first_free is None:
        first_free = max(a_places + b_places) + 1

    gb = GateBuilder(first_free)
    row = lambda b: [gb.conj(a, b) for a in a_places]

    prod: list[int] = []
    acc = row(b_places[0])
    for b in b_places[1:]:
        prod.append(acc[0])
        high = acc[1:]
        carry: int | None = None
        summed: list[int] = []
        for k, x in enumerate(row(b)):
            y = high[k] if k < len(high) else None
            if y is None and carry is None:
                summed.append(x)
            elif y is None:
                s, carry = gb.half_add(x, carry)
                summed.append(s)
            elif carry is None:
                s, carry = gb.half_add(x, y)
                summed.append(s)
            else:
                s, carry = gb.full_add(x, y, carry)
                summed.append(s)
        if carry is not None:
            summed.append(carry)
        acc = summed
    prod.extend(acc)
    while len(prod) < 2 * n:
        prod.append(gb.fresh())  # structurally-zero top bit, never written

    return Netlist(gb.gates, [a_places, b_places], [prod])


def linear_extend(op: Callable[[int], Multivector]) -> Callable[[Multivector], Multivector]:
    """Lift a per-blade operation to multivectors term by term.

    Applies ``op`` to each term's mask, scales by the term's coefficient and
    sums the results, so the lifted map is linear by construction.
    """

    def extended(state: Multivector) -> Multivector:
        images = [(op(mask), coeff) for mask, coeff in state.terms.items()]
        dim = images[-1][0].dimension if images else state.dimension
        terms = ((m, coeff * c) for image, coeff in images for m, c in image.terms.items())
        return Multivector._wrap(dim, _accumulate(terms))

    return extended


def relabel_and_discard(
    state: Multivector,
    place_map: Mapping[int, int],
    discard: AbstractSet[int],
    dimension: int | None = None,
) -> Multivector:
    """Rewrite each term's mask through ``place_map``, dropping discarded places.

    Places in the map's domain are kept (the map must be injective); places in
    ``discard`` are dropped.  Terms whose masks become identical merge by
    coefficient summation; a merge that cancels to exactly zero means the
    discarded places were not a function of the kept ones and raises
    :class:`CollisionError`.  Surviving coefficients are normalized to
    positive, since bit semantics are sign-insensitive.
    """
    targets = list(place_map.values())
    if len(set(targets)) != len(targets):
        raise PlaceMapError("place map is not injective")
    kept_mask = 0
    for src in place_map:
        kept_mask |= 1 << src
    discard_mask = 0
    for src in discard:
        discard_mask |= 1 << src
    if kept_mask & discard_mask:
        raise PlaceMapError("kept and discarded place sets overlap")
    if dimension is None:
        dimension = max((dst for dst in targets), default=-1) + 1

    moves = sorted(place_map.items())
    acc: dict[int, Coefficient] = {}
    for mask, coeff in state.terms.items():
        if mask & ~(kept_mask | discard_mask):
            stray = mask & ~(kept_mask | discard_mask)
            raise PlaceMapError(
                f"term occupies unmapped, undiscarded place(s) {stray:#x}"
            )
        out = 0
        for src, dst in moves:
            if mask >> src & 1:
                out |= 1 << dst
        acc[out] = acc.get(out, 0) + coeff
    lost = [m for m, c in acc.items() if c == 0]
    if lost:
        raise CollisionError(
            "discard set loses information: terms cancel at mask(s) "
            + ", ".join(format(m, "#x") for m in sorted(lost))
        )
    return Multivector._wrap(dimension, {m: abs(c) for m, c in acc.items()})


def format_netlist(netlist: Netlist) -> str:
    """Netlist text form: INPUT/OUTPUT group headers then one NAND per line."""
    lines = []
    for group in netlist.input_groups:
        lines.append("INPUT " + " ".join(str(p) for p in group))
    for group in netlist.output_groups:
        lines.append("OUTPUT " + " ".join(str(p) for p in group))
    for g in netlist.gates:
        lines.append(f"NAND {g.p} {g.q} {g.r}")
    return "\n".join(lines) + "\n"


def parse_netlist(text: str) -> Netlist:
    """Parse the text format written by :func:`format_netlist`.

    Lines starting with ``#`` are comments; each INPUT/OUTPUT line declares
    one operand group, least significant place first.  Every place must be
    below the count of input places, gates and output places, which bounds
    the memory that validation and the runs spend on a place.
    """
    gates: list[NandGate] = []
    input_groups: list[list[int]] = []
    output_groups: list[list[int]] = []
    widest = (-1, 0)  # (largest place, its line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind, args = fields[0].upper(), fields[1:]
        try:
            places = [int(a) for a in args]
        except ValueError as exc:
            raise NetlistValidationError(f"line {lineno}: {exc}") from None
        widest = max(widest, (max(places, default=-1), lineno))
        if kind == "INPUT":
            input_groups.append(places)
        elif kind == "OUTPUT":
            output_groups.append(places)
        elif kind == "NAND":
            if len(places) != 3:
                raise NetlistValidationError(
                    f"line {lineno}: NAND takes exactly three places"
                )
            gates.append(NandGate(*places))
        else:
            raise NetlistValidationError(f"line {lineno}: unknown directive {kind!r}")
    bound = sum(map(len, input_groups)) + len(gates) + sum(map(len, output_groups))
    if widest[0] >= bound:
        raise NetlistValidationError(
            f"line {widest[1]}: place {widest[0]} is not below {bound},"
            " the count of input places, gates and output places"
        )
    return Netlist(gates, input_groups, output_groups)


def load_memory(netlist: Netlist, values: Iterable[int]) -> MemoryBlade:
    """Build the initial memory blade from one integer per input group (LSB first)."""
    values = list(values)
    if len(values) != len(netlist.input_groups):
        raise ValueError(
            f"expected {len(netlist.input_groups)} input value(s), got {len(values)}"
        )
    mask = 0
    for group, value in zip(netlist.input_groups, values):
        if value < 0 or value >> len(group):
            raise ValueError(f"value {value} does not fit {len(group)} input place(s)")
        for k, place in enumerate(group):
            if value >> k & 1:
                mask |= 1 << place
    return MemoryBlade(mask)


def read_outputs(netlist: Netlist, memory: MemoryBlade) -> list[int]:
    """Decode one integer per output group (LSB first) from the memory blade."""
    mask = memory.mask
    return [
        sum((mask >> place & 1) << k for k, place in enumerate(group))
        for group in netlist.output_groups
    ]
