"""Classical computation embedded in blade memory via NAND gates.

A blade over a place layout doubles as a write-once bit memory: place k holds
1 exactly when dimension k appears in the mask.  A NAND gate reads places p
and q and writes their NAND into an empty place r by left-multiplying the
memory blade with e_r (when the result bit is 1); the accumulated reordering
sign is tracked for algebraic cross-checks but never consulted by the bit
semantics.

Because places are write-once, every temporary lands in a fresh ancilla
place; netlists therefore grow monotonically and validate as a topological
order over their gates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Callable, Iterable, Mapping

from .core import Multivector, blade_mul


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

    def as_multivector(self, dimension: int) -> Multivector:
        return Multivector.blade(dimension, self.mask, self.sign)


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


@dataclass
class Netlist:
    """Ordered NAND gates over declared input/output place groups.

    Each input (output) group is one operand: an ordered list of places,
    least significant first.  Gates must write distinct, non-input places and
    may only read inputs or earlier gate outputs.
    """

    gates: list[NandGate]
    input_groups: list[list[int]]
    output_groups: list[list[int]]
    _checked: bool = field(default=False, repr=False, compare=False)
    _targets: int = field(default=0, repr=False, compare=False)

    @property
    def inputs(self) -> list[int]:
        return [p for group in self.input_groups for p in group]

    @property
    def outputs(self) -> list[int]:
        return [p for group in self.output_groups for p in group]

    def validate(self) -> None:
        if self._checked:
            return
        inputs = self.inputs
        input_set = set(inputs)
        if len(input_set) != len(inputs):
            raise NetlistValidationError("duplicate input place declaration")
        known = set(input_set)
        written: set[int] = set()
        targets = 0
        for idx, g in enumerate(self.gates):
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
        self._targets = targets
        self._checked = True

    def ancilla_places(self) -> set[int]:
        """Gate-written places that are not declared outputs."""
        return {g.r for g in self.gates} - set(self.outputs)

    def place_count(self) -> int:
        places = set(self.inputs) | set(self.outputs)
        for g in self.gates:
            places.update((g.p, g.q, g.r))
        return max(places) + 1 if places else 0


def run_netlist(netlist: Netlist, memory: MemoryBlade) -> MemoryBlade:
    """Apply every gate in order; the final bit pattern is the circuit value."""
    netlist.validate()
    if memory.mask & netlist._targets:
        for g in netlist.gates:
            if bit_read(memory, g.r):
                raise TargetOccupiedError(
                    f"target place {g.r} is not empty in the initial memory"
                )
    for g in netlist.gates:
        memory = nand_apply(g, memory)
    return memory


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
    ripple-carry adders composed from NAND half/full adders; every
    intermediate lands in a fresh ancilla place.  By default operand A sits
    at places 0..n-1 and operand B at n..2n-1.

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
    rows = [[gb.conj(a, b) for a in a_places] for b in b_places]

    prod: list[int] = []
    acc = rows[0]
    for row in rows[1:]:
        prod.append(acc[0])
        high = acc[1:]
        carry: int | None = None
        summed: list[int] = []
        for k, x in enumerate(row):
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
        acc: dict[int, Fraction] = {}
        dim = state.dimension
        for mask, coeff in state.terms.items():
            image = op(mask)
            dim = image.dimension
            for m, c in image.terms.items():
                s = acc.get(m, 0) + coeff * c
                if s:
                    acc[m] = s
                else:
                    acc.pop(m, None)
        return Multivector(dim, acc)

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
    acc: dict[int, Fraction] = {}
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
        acc[out] = acc.get(out, Fraction(0)) + coeff
    lost = [m for m, c in acc.items() if c == 0]
    if lost:
        raise CollisionError(
            "discard set loses information: terms cancel at mask(s) "
            + ", ".join(format(m, "#x") for m in sorted(lost))
        )
    return Multivector(dimension, {m: abs(c) for m, c in acc.items()})


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
    one operand group, least significant place first.
    """
    gates: list[NandGate] = []
    input_groups: list[list[int]] = []
    output_groups: list[list[int]] = []
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
    nl = Netlist(gates, input_groups, output_groups)
    nl.validate()
    return nl


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
    out = []
    for group in netlist.output_groups:
        value = 0
        for k, place in enumerate(group):
            value |= bit_read(memory, place) << k
        out.append(value)
    return out
