"""Bounded halting probe over blade-coded Turing-machine step chains.

A machine table, a tape configuration and a control state are each coded as
integers.  The machine code fills the lowest w_m bits.  Above it lie 2K
blocks of h = w_x + w_s bits, each holding one packed (memory, state) pair
``x | s << w_x``: block b starts at bit w_m + b*h, block 2i is step i's
input and block 2i+1 its output.  The step operator reads each term's block
2i, computes one machine step and writes the result into block 2i+1.  A
consistency projection keeps the terms whose step outputs equal the next
step's inputs; projecting further onto one machine and input and then onto
"some state field is a halt state" decides whether that machine halts
WITHIN the configured number of steps.

Block layout invariant: every block has the same width and packing, so step
i's output block lies exactly h bits below step i+1's input block, and
every step's output block lies above all earlier steps' blocks.  The
projections are therefore one mask test per term: consistency is
``(m & OUT) << h == m & (OUT << h)``, with OUT the output blocks of steps
0..K-2, and the instance projection is ``m & SEL == WANT`` over the machine
code and block 0.

Chain sign: the chained construction multiplies each step's output pair
ext_i onto the chain from the left, ext_{K-1} ... ext_0 base, where base is
the machine code OR all inputs.  Every output block lies above the machine
code and step 0's inputs; step j's input block (j >= 1), a copy of step
j-1's output, lies above the output blocks i < j and below those i >= j.
With n_i the popcount of step i's output block, S_i = n_0 + ... + n_i and
|ext| = S_{K-1}, the sign's parity is a sum of counts:

    sum_i n_i * S_{i-1}                          (ext_i past ext_<i)
  + |ext| * (|machine| + |inputs_0|)              (every ext past them)
  + sum_{j=1}^{K-1} n_{j-1} * (|ext| - S_{j-1})   (ext_>=j past input j)

The first and last sums both count the pairs of output bits in different
steps' blocks, so they cancel and the sign is
``(-1)^(|ext| * (|machine| + |inputs_0|))``: no sign scan at all.

Stepping and assembly: each machine steps through the rows its ``TMSpec``
builds once, two per machine state indexed ``s << 1 | read``, and one
routine, ``TruncationParams._step_into``, steps codes through them into the
machine's successor memo; ``step_codes`` calls it on a memo miss, and the
chain build calls it once per machine over that machine's starts.  Every
chain starts from an enumerated start, default or explicit, as every term
of the free construction does.  A chain's first ``SEGMENT`` steps are ORed
into its mask; later steps go ``SEGMENT`` at a time into a segment int,
whose bytes are joined and read back once, so a K-step chain costs time
linear in K.

Everything here is finite by construction: K steps, B tape cells, and
explicitly enumerated machine/configuration/state sets.  The probe answers
"halts within K steps" and nothing stronger; the unbounded halting problem
is out of reach by design.

Totalization conventions (one fixed choice, none of which affect the
bounded-probe semantics): halted states are fixed points; a head moving off
the tape keeps its last cell and the control goes to the machine's REJECT
halt state; terms carrying codes outside the enumerated sets also step to
REJECT with the memory left unchanged, and an unknown machine code to
state 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import Multivector, blade_mul, check_terms

MOVES = ("L", "R")

# Chain steps per assembly segment: SEGMENT * 2h bits is a whole 16h bytes.
SEGMENT = 64


class MachineFormatError(ValueError):
    """The machine description is malformed or inconsistent."""


class TargetSlotOccupiedError(RuntimeError):
    """A step operator found its output slots already written."""


@dataclass(frozen=True)
class Transition:
    write: int
    move: str
    next_state: int


@dataclass(frozen=True)
class Config:
    """B-cell binary tape plus head position; packs to ``tape | head << cells``."""

    tape: int
    head: int
    cells: int

    def __post_init__(self):
        if not 0 <= self.head < self.cells:
            raise ValueError(f"head {self.head} outside tape [0, {self.cells})")
        if self.tape < 0 or self.tape >> self.cells:
            raise ValueError("tape bits exceed the cell count")

    @property
    def code(self) -> int:
        return self.tape | self.head << self.cells

    @classmethod
    def from_code(cls, code: int, cells: int) -> "Config":
        return cls(code & ((1 << cells) - 1), code >> cells, cells)

    def read(self) -> int:
        return self.tape >> self.head & 1


class TMSpec:
    """Turing-machine transition table over the {0,1} alphabet.

    States are indices 0..num_states-1; the table must be total on non-halt
    states.  ``reject`` is the halt state used by the totalization
    conventions.  ``code`` packs the table rows (write bit, move bit, next
    state) in state-major, symbol-minor order, first row in the lowest bits.
    The table is a read-only view, so ``code`` and ``rows`` cannot go stale.

    ``rows``, built once here, is what every step reads: at ``s << 1 | read``,
    ``(write ^ read, -1 or +1, next_state)``, or ``(0, 0, s)`` for a halt state.
    """

    def __init__(
        self,
        num_states: int,
        start: int,
        halt_states: Iterable[int],
        transitions: Mapping[tuple[int, int], Transition],
        reject: int | None = None,
        name: str = "",
    ):
        self.name = name
        self.num_states = num_states
        self.start = start
        self.halt_states = frozenset(halt_states)
        self.transitions = MappingProxyType(dict(transitions))
        if not self.halt_states:
            raise MachineFormatError("at least one halt state is required")
        self.reject = min(self.halt_states) if reject is None else reject
        self._validate()
        self.rows = self._step_rows()
        self.code = self._encode_table()

    def _validate(self) -> None:
        all_states = range(self.num_states)
        if self.start not in all_states:
            raise MachineFormatError(f"start state {self.start} out of range")
        if any(h not in all_states for h in self.halt_states):
            raise MachineFormatError("halt state out of range")
        if self.reject not in self.halt_states:
            raise MachineFormatError("reject must be one of the halt states")
        for (state, symbol), tr in self.transitions.items():
            if state in self.halt_states:
                raise MachineFormatError(f"halt state {state} has a transition")
            if state not in all_states or symbol not in (0, 1):
                raise MachineFormatError(f"bad transition key ({state}, {symbol})")
            if tr.write not in (0, 1) or tr.move not in MOVES:
                raise MachineFormatError(f"bad transition action {tr}")
            if tr.next_state not in all_states:
                raise MachineFormatError(f"next state {tr.next_state} out of range")
        for state in all_states:
            if state in self.halt_states:
                continue
            for symbol in (0, 1):
                if (state, symbol) not in self.transitions:
                    raise MachineFormatError(
                        f"missing transition for state {state} reading {symbol}"
                    )

    def _step_rows(self) -> tuple[tuple[int, int, int], ...]:
        rows = []
        for s, read in product(range(self.num_states), (0, 1)):
            if s in self.halt_states:
                rows.append((0, 0, s))
            else:
                tr = self.transitions[(s, read)]
                rows.append((tr.write ^ read, 1 if tr.move == "R" else -1, tr.next_state))
        return tuple(rows)

    def _encode_table(self) -> int:
        row_width = 2 + max(1, (self.num_states - 1).bit_length())
        work_states = [s for s in range(self.num_states) if s not in self.halt_states]
        code = 0
        for idx, key in enumerate(product(work_states, (0, 1))):
            tr = self.transitions[key]
            row = tr.write | (MOVES.index(tr.move) << 1) | tr.next_state << 2
            code |= row << (idx * row_width)
        return code

    def __repr__(self) -> str:
        return f"TMSpec(name={self.name!r}, states={self.num_states}, code={self.code})"


def tm_step(spec: TMSpec, config: Config, state: int) -> tuple[Config, int]:
    """One totalized machine step; halted states are fixed points."""
    if state in spec.halt_states:
        return config, state
    tr = spec.transitions[(state, config.read())]
    if tr.write:
        tape = config.tape | 1 << config.head
    else:
        tape = config.tape & ~(1 << config.head)
    head = config.head + (1 if tr.move == "R" else -1)
    if 0 <= head < config.cells:
        return Config(tape, head, config.cells), tr.next_state
    # Head runoff: the write stands, the head stays on its boundary cell.
    return Config(tape, config.head, config.cells), spec.reject


def run_direct(spec: TMSpec, config: Config, max_steps: int) -> tuple[bool, int | None]:
    """Plain simulation loop: does the machine halt within ``max_steps``?

    Returns the halting flag and the step count at which it halted (0 if the
    start state is already a halt state, None when it does not halt in time).
    """
    state = spec.start
    if state in spec.halt_states:
        return True, 0
    for step in range(1, max_steps + 1):
        config, state = tm_step(spec, config, state)
        if state in spec.halt_states:
            return True, step
    return False, None


class TruncationParams:
    """Finite bounds and enumerated sets for the probe, plus the block widths.

    Four widths are the whole layout: the machine code takes the lowest
    ``w_m`` bits, and block b, ``h = w_x + w_s`` bits holding ``x | s << w_x``,
    starts at bit ``w_m + b*h``.  Step i reads block 2i and writes block
    2i+1, so ``dimension = w_m + 2*h*steps``, and nothing here grows with the
    step count.  Every code a step can read or write fits its field, which is
    why the per-term code shifts without a range check; a machine code
    outside the set steps to state 0.

    The default configuration set, every ``tape | head << cells`` code, is
    ``range(cells << cells)``.  It is formed only when ``config_codes`` is
    read: membership tests the head, ``x >> cells in range(cells)``, so a
    one-chain probe holds only its 2K blocks, which the chain cap bounds,
    at any tape width.  ``_is_config(x)``, fixed here, is that one test for
    every caller.  Nothing is compiled per machine: steps read ``TMSpec.rows``.
    """

    def __init__(
        self,
        machines: Sequence[TMSpec],
        steps: int,
        cells: int,
        config_codes: Sequence[int] | None = None,
        state_codes: Sequence[int] | None = None,
    ):
        if steps < 1:
            raise ValueError("step count must be at least 1")
        if cells < 1:
            raise ValueError("tape must have at least one cell")
        if not machines:
            raise ValueError("machine set must not be empty")
        codes = [m.code for m in machines]
        if len(set(codes)) != len(codes):
            raise ValueError("machine codes collide within the machine set")
        self.machines = list(machines)
        self.machine_by_code = {m.code: m for m in machines}
        self.steps = steps
        self.cells = cells
        # Every code below cells << cells fits, as cells <= 2^head_bits.
        w_x = cells + (cells - 1).bit_length()
        if config_codes is None:
            # x is a default code exactly when its head, x >> cells, is a cell.
            self._codes = None
            self._is_config = lambda x: 0 <= x >> cells < cells
        else:
            self._codes = _code_set(config_codes, "config_codes")
            self._is_config = frozenset(self._codes).__contains__
            w_x = max(w_x, max(self._codes).bit_length())
        if state_codes is None:
            state_codes = range(max(m.num_states for m in machines))
        self.state_codes = _code_set(state_codes, "state_codes")
        self._state_set = frozenset(self.state_codes)

        self.w_m = max(1, max(codes).bit_length())
        self.w_x = w_x
        # Output fields must fit every state a step can emit, not only the
        # enumerated input codes: any machine state, and 0 for an unknown machine.
        self.w_s = max(
            1,
            max(self.state_codes).bit_length(),
            max(m.num_states - 1 for m in machines).bit_length(),
        )
        self.h = w_x + self.w_s
        self.dimension = self.w_m + 2 * self.h * steps
        # Per machine: packed input ``x | s << w_x`` -> packed output, filled
        # by ``_step_into`` for in-set inputs only, whose codes fit w_x and w_s
        # and so never alias a packed key.
        self._successors: dict[int, dict[int, int]] = {m.code: {} for m in machines}

    @property
    def config_codes(self) -> Sequence[int]:
        """The enumerated configuration codes, the default range formed on each read."""
        return range(self._config_count) if self._codes is None else self._codes

    @property
    def _config_count(self) -> int:
        # Counted by shift: len() of a range overflows past sys.maxsize.
        return self.cells << self.cells if self._codes is None else len(self._codes)

    def step_codes(self, machine_code: int, code: int) -> int:
        """One step on a packed block ``x | s << w_x``, with the REJECT conventions.

        Takes and returns the block format the layout and the successor memo
        use, so no caller splits or packs it.  An unknown machine steps to
        state 0 and an input outside the enumerated sets to the machine's
        reject, both with x unchanged and neither memoized; an
        in-set input is read from the machine's successor memo, which a miss
        fills through ``_step_into``, the one step rule.
        """
        w_x = self.w_x
        x = code & ~(-1 << w_x)
        spec = self.machine_by_code.get(machine_code)
        if spec is None:
            return x
        if not self._is_config(x) or code >> w_x not in self._state_set:
            return x | spec.reject << w_x
        memo = self._successors[machine_code]
        out = memo.get(code)
        if out is None:
            self._step_into(machine_code, (code,))
            out = memo[code]
        return out

    def _step_into(self, machine_code: int, codes: Iterable[int]) -> None:
        """Step in-set packed ``codes`` of one machine into its successor memo.

        Each step is one of the machine's ``TMSpec.rows``, its next state
        shifted into the packed output here.  A state past the machine's or a
        head past the tape goes to the machine's reject with x unchanged, and
        so does a head that runs off: the write stands, the head stays on its
        cell.
        """
        spec = self.machine_by_code[machine_code]
        w_x, cells, states, rows = self.w_x, self.cells, spec.num_states, spec.rows
        memo = self._successors[machine_code]
        x_mask, reject = ~(-1 << w_x), spec.reject << w_x
        for code in codes:
            x, s = code & x_mask, code >> w_x
            head = x >> cells
            if s < states and head < cells:
                flip, move, nxt = rows[s << 1 | x >> head & 1]
                x ^= flip << head
                if 0 <= head + move < cells:
                    memo[code] = x + (move << cells) | nxt << w_x
                    continue
            memo[code] = x | reject


def _words(bits: int) -> int:
    """The 64-bit words a block of ``bits`` bits spans: the chain cap's unit."""
    return -(-bits // 64)


def _code_set(codes: Iterable[int], name: str) -> tuple[int, ...]:
    """``codes`` as a tuple, refused by name when empty or negative."""
    codes = tuple(codes)
    if not codes or min(codes) < 0:
        raise ValueError(f"{name} must be a nonempty set of nonnegative codes")
    return codes


def build_free_superposition(params: TruncationParams) -> Multivector:
    """Every machine crossed with free per-step input choices, outputs empty.

    Term count is |machines| * (|configs| * |states|)^steps, checked against
    ``core.MAX_TERMS`` first.
    """
    pairs = params._config_count * len(params.state_codes)
    check_terms(len(params.machines) * pairs**params.steps, "free superposition")
    w_m, w_x, h = params.w_m, params.w_x, params.h
    codes = [x | s << w_x for x in params.config_codes for s in params.state_codes]
    inputs = [[code << w_m + 2 * i * h for code in codes] for i in range(params.steps)]
    terms = {}
    for spec in params.machines:
        for combo in product(*inputs):
            mask = spec.code
            for part in combo:
                mask |= part
            terms[mask] = 1
    return Multivector._wrap(params.dimension, terms)


def apply_step_operator(state: Multivector, i: int, params: TruncationParams) -> Multivector:
    """Fill step i's output block 2i+1 from its input block 2i on every term."""
    if not 0 <= i < params.steps:
        raise ValueError(f"step index {i} outside [0, {params.steps})")
    if state.dimension != params.dimension:
        raise ValueError(f"state dimension {state.dimension}, parameters need {params.dimension}")
    h = params.h
    at = params.w_m + 2 * i * h
    m_mask, block = ~(-1 << params.w_m), ~(-1 << h)
    out_region = block << at + h
    step_codes = params.step_codes

    def step(mask: int) -> tuple[int, int]:
        if mask & out_region:
            raise TargetSlotOccupiedError(
                f"output slots of step {i} are not empty in every term"
            )
        return blade_mul(step_codes(mask & m_mask, mask >> at & block) << at + h, mask)

    return state.map_blades(step)


def apply_all_steps(state: Multivector, params: TruncationParams) -> Multivector:
    for i in range(params.steps):
        state = apply_step_operator(state, i, params)
    return state


def _links(params: TruncationParams) -> int:
    """The output blocks of steps 0..K-2: blocks 1, 3, ..., 2K-3.

    Step i's output block is ``h`` bits below step i+1's input block, so
    ``out << h`` covers the input blocks of steps 1..K-1; ``out`` is 0 when
    K = 1.  The blocks repeat every 2h bits from block 1, so ``out`` is one
    repeated bit pattern.
    """
    h = params.h
    out = int("0" + ("0" * h + "1" * h) * (params.steps - 1), 2)
    return out << params.w_m + h


def consistency_project(state: Multivector, params: TruncationParams) -> Multivector:
    """Keep terms where each step's outputs equal the next step's inputs."""
    h, out = params.h, _links(params)
    nxt = out << h
    return Multivector._raw(
        state.dimension,
        {m: c for m, c in state.terms.items() if (m & out) << h == m & nxt},
    )


def instance_project(
    state: Multivector, spec: TMSpec, input_code: int, params: TruncationParams
) -> Multivector:
    """Keep terms of one machine with one input and its start state in block 0."""
    if spec.code not in params.machine_by_code:
        raise ValueError("machine is not part of the enumerated machine set")
    if not params._is_config(input_code):
        raise ValueError(f"input config code {input_code} outside the enumerated set")
    w_m = params.w_m
    select = ~(-1 << w_m + params.h)  # the machine code and block 0
    # Unchecked shifts: the code and input fit by the checks above, and a
    # start state too wide for its field spills outside ``select``, so no
    # term matches, as no field value would equal it.
    want = spec.code | (input_code | spec.start << params.w_x) << w_m
    return Multivector._raw(
        state.dimension, {m: c for m, c in state.terms.items() if m & select == want}
    )


def halt_project(state: Multivector, params: TruncationParams) -> Multivector:
    """Keep terms where some state field after step 0 holds a halt state.

    Those are the state fields of blocks 1..2K-1, every h bits from the top
    of the layout down: in the mask's full-width binary string, the w_s-digit
    fields at positions 0, h, ..., (2K-2)h, so each term costs O(K).
    """
    m_mask, w_s, h = ~(-1 << params.w_m), params.w_s, params.h
    starts = range(0, (2 * params.steps - 1) * h, h)
    digits = f"0{params.dimension}b"
    halt_states = {m.code: m.halt_states for m in params.machines}

    def halted(mask: int) -> bool:
        halts = halt_states.get(mask & m_mask)
        if halts is None:
            return False
        bits = format(mask, digits)
        return any(int(bits[i : i + w_s], 2) in halts for i in starts)

    return Multivector._raw(
        state.dimension, {m: c for m, c in state.terms.items() if halted(m)}
    )


def build_chained_superposition(
    params: TruncationParams,
    starts: Sequence[tuple[int, int, int]] | None = None,
) -> Multivector:
    """Directly construct the consistent chains of the free construction.

    One chain per (machine code, input config, input state) start, stepping
    deterministically; a chain is dropped when a step output leaves the
    enumerated config/state sets, exactly as the free construction would fail
    to chain onto a missing input term.  Equals
    ``consistency_project(apply_all_steps(build_free_superposition(...)))``.

    The default starts are every enumerated input of every machine.
    Explicit starts are enumerated starts too: a machine of the set, a
    config and a state of the enumerated sets, as in every free term; any
    other start raises ``ValueError`` naming it, after the cap check and
    before any step.  A start repeated n times gets coefficient +-n.

    Each machine's start codes, packed blocks ``x | s << w_x``, are stepped
    in one batch (``_step_into``) into its successor memo, skipped when the
    memo already holds them all, so step 0 is a memo read; a later step
    whose input the memo lacks calls ``params.step_codes``, which fills it.
    The first ``SEGMENT`` steps are ORed into the chain mask; the rest go
    ``SEGMENT`` steps at a time into a segment int of ``SEGMENT * 2h`` bits,
    a whole number of bytes, and the segments' bytes are joined and read
    back once, so the assembly is linear in K.  The cap counts chains x 2K
    blocks x the 64-bit words a block spans, so it bounds the step count and
    the tape width as well as the starts.
    """
    w_m, w_x, h = params.w_m, params.w_x, params.h
    if starts is None:
        chains = len(params.machines) * params._config_count * len(params.state_codes)
    else:
        chains = len(starts)
    check_terms(chains * 2 * params.steps * _words(h), "chained superposition", "words")
    states, is_config = params._state_set, params._is_config
    if starts is None:
        ones = dict.fromkeys(
            (x | s << w_x for x in params.config_codes for s in params.state_codes), 1
        )
        groups = {m.code: ones for m in params.machines}
    else:
        groups = {}
        for start in starts:
            m_code, x, s = start
            if m_code not in params.machine_by_code or not is_config(x) or s not in states:
                raise ValueError(f"start {start} is not an enumerated (machine, config, state)")
            counts = groups.setdefault(m_code, {})
            code = x | s << w_x
            counts[code] = counts.get(code, 0) + 1
    successors = params._successors
    for m_code, counts in groups.items():
        if not counts.keys() <= successors[m_code].keys():
            params._step_into(m_code, counts)
    links = _links(params)
    x_mask = ~(-1 << w_x)
    first = w_m + h  # block 1, step 0's output; step i's is block 2i+1
    # Steps 1..SEGMENT-1 go into the chain mask at their blocks; steps
    # SEGMENT.. go into segments, offsets counted from step SEGMENT's block.
    lead = range(first + 2 * h, first + 2 * h * min(params.steps, SEGMENT), 2 * h)
    tail = first + 2 * h * SEGMENT
    full, part = divmod(max(0, params.steps - SEGMENT), SEGMENT)
    segment = range(0, 2 * h * SEGMENT, 2 * h)
    segments = [segment] * full + [segment[:part]] * (part > 0)
    segment_bytes = SEGMENT * h // 4
    step_codes = params.step_codes
    terms: dict[int, int] = {}
    for m_code, counts in groups.items():
        memo = successors[m_code]
        get = memo.get
        m_bits = m_code.bit_count()
        for code, count in counts.items():
            out = memo[code]
            # No range check needed: TruncationParams sized w_x for every
            # tape/head code and w_s for every machine state, so a step's
            # outputs fit its output block.
            ext = out << first
            for offset in lead:
                nxt = get(out)
                if nxt is None:
                    if not is_config(out & x_mask) or out >> w_x not in states:
                        break  # the previous step's outputs left the enumerated sets
                    nxt = step_codes(m_code, out)
                ext |= nxt << offset
                out = nxt
            else:
                if segments:
                    parts = []
                    for offsets in segments:
                        seg = 0
                        for offset in offsets:
                            nxt = get(out)
                            if nxt is None:
                                if not is_config(out & x_mask) or out >> w_x not in states:
                                    break
                                nxt = step_codes(m_code, out)
                            seg |= nxt << offset
                            out = nxt
                        else:
                            parts.append(seg.to_bytes(segment_bytes, "little"))
                            continue
                        break
                    if len(parts) < len(segments):
                        continue  # the chain left the enumerated sets inside a segment
                    ext |= int.from_bytes(b"".join(parts), "little") << tail
                # Steps 1..K-1 read the previous step's outputs: ext's output
                # blocks of steps 0..K-2, moved up one block.
                mask = m_code | code << w_m | (ext & links) << h | ext
                odd = ext.bit_count() * (m_bits + code.bit_count()) & 1
                terms[mask] = -count if odd else count
    return Multivector._wrap(params.dimension, terms)


def bounded_halt_probe(spec: TMSpec, config: Config, steps: int) -> bool:
    """Does this machine on this input halt WITHIN ``steps`` steps?

    The blade probe of ``probe_report``, so it is refused by the same count.
    """
    return probe_report(spec, config, steps, mode="ga")["halts_within_k"]


def probe_report(spec: TMSpec, config: Config, steps: int, mode: str = "both") -> dict:
    """Run the blade probe and/or the direct simulation; report agreement.

    The blade probe builds the one chain the instance projection selects
    (machine, input, start state) over this machine alone and the input's
    tape width, and tests whether the halt projection leaves it nonzero.
    Equivalent to running instance and halt projections after the full
    chained (or free + consistency) construction; that equivalence is what
    the construction-equality tests pin down.
    """
    if mode not in ("ga", "direct", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    # The chain build's count for this one machine, taken before either mode
    # runs, so every mode refuses a step count or a tape width the chain
    # could not hold.
    cells = config.cells
    params = TruncationParams([spec], steps, cells)
    check_terms(2 * steps * _words(params.h), "probe chain", "words")
    out: dict = {
        "machine": spec.name or f"code-{spec.code}",
        "steps": steps,
        "cells": cells,
        "input_code": config.code,
        "semantics": f"halts within {steps} steps (bounded probe)",
    }
    if mode in ("ga", "both"):
        chain = build_chained_superposition(params, [(spec.code, config.code, spec.start)])
        kept = halt_project(chain, params)
        out["ga_halts_within_k"] = not kept.is_zero()
        out["chain_terms"] = len(chain)
        out["terms_after_halt_projection"] = len(kept)
    if mode in ("direct", "both"):
        halts, at = run_direct(spec, config, steps)
        out["direct_halts_within_k"] = halts
        out["direct_halt_step"] = at
    if mode == "both":
        out["agreement"] = out["ga_halts_within_k"] == out["direct_halts_within_k"]
        out["halts_within_k"] = out["ga_halts_within_k"]
    else:
        out["halts_within_k"] = out.get("ga_halts_within_k", out.get("direct_halts_within_k"))
    return out


# --- machine file format -----------------------------------------------------


def machine_from_dict(data: Mapping) -> TMSpec:
    try:
        transitions = {
            (int(t["state"]), int(t["read"])): Transition(
                write=int(t["write"]),
                move=str(t["move"]).upper(),
                next_state=int(t["next"]),
            )
            for t in data["transitions"]
        }
        fields = dict(
            num_states=int(data["states"]),
            start=int(data["start"]),
            halt_states=[int(h) for h in data["halt_states"]],
            reject=int(data["reject"]) if "reject" in data else None,
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise MachineFormatError(f"bad machine description: {exc}") from None
    return TMSpec(transitions=transitions, **fields)


def machine_to_dict(spec: TMSpec) -> dict:
    return {
        "name": spec.name,
        "states": spec.num_states,
        "start": spec.start,
        "halt_states": sorted(spec.halt_states),
        "reject": spec.reject,
        "transitions": [
            {
                "state": state,
                "read": symbol,
                "write": tr.write,
                "move": tr.move,
                "next": tr.next_state,
            }
            for (state, symbol), tr in sorted(spec.transitions.items())
        ],
    }


def load_machine(path: str | Path) -> TMSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return machine_from_dict(json.load(fh))


def bundled_machines() -> list[TMSpec]:
    """The corpus shipped with the package, sorted by file name."""
    directory = Path(__file__).parent / "machines"
    return [load_machine(p) for p in sorted(directory.glob("*.json"))]


def parse_tape(bits: str, cells: int, head: int = 0) -> Config:
    """Build a configuration from a left-to-right cell string like "0010"."""
    if cells < 1:
        raise ValueError("tape must have at least one cell")
    if len(bits) > cells:
        raise ValueError(f"tape string longer than {cells} cells")
    tape = 0
    for i, ch in enumerate(bits):
        if ch not in "01":
            raise ValueError(f"tape character {ch!r} is not 0/1")
        if ch == "1":
            tape |= 1 << i
    return Config(tape, head, cells)
