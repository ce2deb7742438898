"""Bounded halting probe over blade-coded Turing-machine step chains.

A machine table, a tape configuration and a control state are each coded as
integers and placed in dedicated subspaces: subspace 0 holds the machine
code, and step i owns four slots: 4i+1 (memory in), 4i+2 (state in), 4i+3
(memory out), 4i+4 (state out).  The step operator reads each term's slots
4i+1 / 4i+2, computes one machine step and writes the results into 4i+3 /
4i+4.  A consistency projection keeps the terms whose step outputs equal the
next step's inputs; projecting further onto one machine and input and then
onto "some state slot is a halt state" decides whether that machine halts
WITHIN the configured number of steps.

Everything here is finite by construction: K steps, B tape cells, and
explicitly enumerated machine/configuration/state sets.  The probe answers
"halts within K steps" and nothing stronger; the unbounded halting problem
is out of reach by design.

Totalization conventions (one fixed choice, none of which affect the
bounded-probe semantics): halted states are fixed points; a head moving off
the tape keeps its last cell and the control goes to the machine's REJECT
halt state; terms carrying codes outside the enumerated sets also step to
REJECT with the memory left unchanged.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import Multivector, ResourceCapError, blade_mul
from .encoding import SubspaceLayout, decode, encode

MOVES = ("L", "R")


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


@dataclass(frozen=True)
class MachineState:
    """Control-state index with its halted flag; the code is the index."""

    code: int
    halted: bool


class TMSpec:
    """Turing-machine transition table over the {0,1} alphabet.

    States are indices 0..num_states-1; the table must be total on non-halt
    states.  ``reject`` is the halt state used by the totalization
    conventions.  ``code`` packs the table rows (write bit, move bit, next
    state) in state-major, symbol-minor order, first row in the lowest bits.
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
        self.transitions = dict(transitions)
        if not self.halt_states:
            raise MachineFormatError("at least one halt state is required")
        self.reject = min(self.halt_states) if reject is None else reject
        self._validate()
        self.code = self._encode_table()

    def _validate(self) -> None:
        all_states = range(self.num_states)
        if self.start not in all_states:
            raise MachineFormatError(f"start state {self.start} out of range")
        if not self.halt_states <= set(all_states):
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

    @property
    def _next_width(self) -> int:
        return max(1, (self.num_states - 1).bit_length())

    @property
    def _work_states(self) -> list[int]:
        return [s for s in range(self.num_states) if s not in self.halt_states]

    def _encode_table(self) -> int:
        row_width = 2 + self._next_width
        code = 0
        for idx, (state, symbol) in enumerate(
            (s, sym) for s in self._work_states for sym in (0, 1)
        ):
            tr = self.transitions[(state, symbol)]
            row = tr.write | (MOVES.index(tr.move) << 1) | tr.next_state << 2
            code |= row << (idx * row_width)
        return code

    @classmethod
    def from_code(
        cls,
        code: int,
        num_states: int,
        start: int,
        halt_states: Iterable[int],
        reject: int | None = None,
        name: str = "",
    ) -> "TMSpec":
        """Rebuild the table from its packed code plus the family context."""
        halt = frozenset(halt_states)
        work = [s for s in range(num_states) if s not in halt]
        next_width = max(1, (num_states - 1).bit_length())
        row_width = 2 + next_width
        transitions = {}
        for idx, (state, symbol) in enumerate((s, sym) for s in work for sym in (0, 1)):
            row = code >> (idx * row_width)
            transitions[(state, symbol)] = Transition(
                write=row & 1,
                move=MOVES[row >> 1 & 1],
                next_state=row >> 2 & ((1 << next_width) - 1),
            )
        if code >> (row_width * 2 * len(work)):
            raise MachineFormatError("machine code has extra high bits")
        return cls(num_states, start, halt, transitions, reject=reject, name=name)

    def state(self, code: int) -> MachineState:
        if not 0 <= code < self.num_states:
            raise ValueError(f"state code {code} out of range")
        return MachineState(code, code in self.halt_states)

    def start_state(self) -> MachineState:
        return self.state(self.start)

    def __repr__(self) -> str:
        return f"TMSpec(name={self.name!r}, states={self.num_states}, code={self.code})"


def tm_step(spec: TMSpec, config: Config, state: MachineState) -> tuple[Config, MachineState]:
    """One totalized machine step; halted states are fixed points."""
    if state.halted:
        return config, state
    tr = spec.transitions[(state.code, config.read())]
    if tr.write:
        tape = config.tape | 1 << config.head
    else:
        tape = config.tape & ~(1 << config.head)
    head = config.head + (1 if tr.move == "R" else -1)
    if 0 <= head < config.cells:
        return Config(tape, head, config.cells), spec.state(tr.next_state)
    # Head runoff: the write stands, the head stays on its boundary cell.
    return Config(tape, config.head, config.cells), spec.state(spec.reject)


def run_direct(spec: TMSpec, config: Config, max_steps: int) -> tuple[bool, int | None]:
    """Plain simulation loop: does the machine halt within ``max_steps``?

    Returns the halting flag and the step count at which it halted (0 if the
    start state is already a halt state, None when it does not halt in time).
    """
    state = spec.start_state()
    if state.halted:
        return True, 0
    for step in range(1, max_steps + 1):
        config, state = tm_step(spec, config, state)
        if state.halted:
            return True, step
    return False, None


def _all_config_codes(cells: int) -> list[int]:
    return [
        Config(tape, head, cells).code
        for head in range(cells)
        for tape in range(1 << cells)
    ]


class TruncationParams:
    """Finite bounds and enumerated sets for the probe, plus the slot layout.

    Slot subspaces are named by their index: "0" for the machine code, then
    per step i the quadruple str(4i+1)..str(4i+4).
    """

    def __init__(
        self,
        machines: Sequence[TMSpec],
        steps: int,
        cells: int,
        config_codes: Sequence[int] | None = None,
        state_codes: Sequence[int] | None = None,
        term_cap: int = 500_000,
        reject_code: int = 0,
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
        if config_codes is None:
            config_codes = _all_config_codes(cells)
        if state_codes is None:
            state_codes = list(range(max(m.num_states for m in machines)))
        self.config_codes = tuple(config_codes)
        self.state_codes = tuple(state_codes)
        self._config_set = frozenset(self.config_codes)
        self._state_set = frozenset(self.state_codes)
        self.term_cap = term_cap
        self.reject_code = reject_code

        head_bits = (cells - 1).bit_length()
        w_m = max(1, max(codes).bit_length())
        w_x = max(1, cells + head_bits, max(self.config_codes).bit_length())
        # Output slots must fit every state a step can emit, not only the
        # enumerated input codes: any machine state plus the reject codes.
        w_s = max(
            1,
            max(self.state_codes).bit_length(),
            reject_code.bit_length(),
            max(m.num_states - 1 for m in machines).bit_length(),
        )
        widths = [("0", w_m)]
        for i in range(steps):
            widths += [
                (str(4 * i + 1), w_x),
                (str(4 * i + 2), w_s),
                (str(4 * i + 3), w_x),
                (str(4 * i + 4), w_s),
            ]
        self.layout = SubspaceLayout(widths)
        self._step_cache: dict[tuple[int, int, int], tuple[int, int]] = {}

    @property
    def dimension(self) -> int:
        return self.layout.total_dim

    def slot(self, index: int) -> str:
        return str(index)

    def step_codes(self, machine_code: int, x: int, s: int) -> tuple[int, int]:
        """One step at the level of integer codes, with the REJECT conventions."""
        key = (machine_code, x, s)
        hit = self._step_cache.get(key)
        if hit is not None:
            return hit
        spec = self.machine_by_code.get(machine_code)
        if spec is None:
            out = (x, self.reject_code)
        elif (
            x not in self._config_set
            or s not in self._state_set
            or s >= spec.num_states
            or x >> self.cells >= self.cells
        ):
            out = (x, spec.reject)
        else:
            config, state = tm_step(spec, Config.from_code(x, self.cells), spec.state(s))
            out = (config.code, state.code)
        self._step_cache[key] = out
        return out

    def is_halt_code(self, machine_code: int, s: int) -> bool:
        spec = self.machine_by_code.get(machine_code)
        return spec is not None and s in spec.halt_states


def build_free_superposition(params: TruncationParams) -> Multivector:
    """Every machine crossed with free per-step input choices, outputs empty.

    Term count is |machines| * (|configs| * |states|)^steps, guarded by the
    term cap.
    """
    pairs = len(params.config_codes) * len(params.state_codes)
    count = len(params.machines) * pairs**params.steps
    if count > params.term_cap:
        raise ResourceCapError(
            f"free superposition needs {count} terms, cap is {params.term_cap}"
        )
    layout = params.layout
    terms = {}
    slot_pairs = []
    for i in range(params.steps):
        slot_pairs.append(
            [
                encode(x, params.slot(4 * i + 1), layout)
                | encode(s, params.slot(4 * i + 2), layout)
                for x in params.config_codes
                for s in params.state_codes
            ]
        )
    for spec in params.machines:
        base = encode(spec.code, "0", layout)
        for combo in product(*slot_pairs):
            mask = base
            for part in combo:
                mask |= part
            terms[mask] = 1
    return Multivector(params.dimension, terms)


def apply_step_operator(state: Multivector, i: int, params: TruncationParams) -> Multivector:
    """Fill step i's output slots from its input slots on every term."""
    if not 0 <= i < params.steps:
        raise ValueError(f"step index {i} outside [0, {params.steps})")
    layout = params.layout
    out_x_name, out_s_name = params.slot(4 * i + 3), params.slot(4 * i + 4)
    out_region = layout[out_x_name].mask | layout[out_s_name].mask
    terms: dict[int, object] = {}
    for mask, coeff in state.terms.items():
        if mask & out_region:
            raise TargetSlotOccupiedError(
                f"output slots of step {i} are not empty in every term"
            )
        m_code = decode(mask, "0", layout)
        x = decode(mask, params.slot(4 * i + 1), layout)
        s = decode(mask, params.slot(4 * i + 2), layout)
        x_out, s_out = params.step_codes(m_code, x, s)
        extension = encode(x_out, out_x_name, layout) | encode(s_out, out_s_name, layout)
        new_mask, sign = blade_mul(extension, mask)
        c = coeff if sign > 0 else -coeff
        prev = terms.get(new_mask)
        terms[new_mask] = c if prev is None else prev + c
    return Multivector(params.dimension, terms)


def apply_all_steps(state: Multivector, params: TruncationParams) -> Multivector:
    for i in range(params.steps):
        state = apply_step_operator(state, i, params)
    return state


def consistency_project(state: Multivector, params: TruncationParams) -> Multivector:
    """Keep terms where each step's outputs equal the next step's inputs."""
    layout = params.layout

    def chained(mask: int) -> bool:
        for i in range(params.steps - 1):
            if decode(mask, params.slot(4 * i + 3), layout) != decode(
                mask, params.slot(4 * (i + 1) + 1), layout
            ):
                return False
            if decode(mask, params.slot(4 * i + 4), layout) != decode(
                mask, params.slot(4 * (i + 1) + 2), layout
            ):
                return False
        return True

    return state.project(chained)


def instance_project(
    state: Multivector, spec: TMSpec, input_code: int, params: TruncationParams
) -> Multivector:
    """Keep terms of one machine with one input and its start state in step 0."""
    if spec.code not in params.machine_by_code:
        raise ValueError("machine is not part of the enumerated machine set")
    if input_code not in params._config_set:
        raise ValueError(f"input config code {input_code} outside the enumerated set")
    layout = params.layout
    want = (spec.code, input_code, spec.start)

    def selected(mask: int) -> bool:
        return (
            decode(mask, "0", layout),
            decode(mask, "1", layout),
            decode(mask, "2", layout),
        ) == want

    return state.project(selected)


def halt_project(state: Multivector, params: TruncationParams) -> Multivector:
    """Keep terms where some state slot after step 0 holds a halt state."""
    layout = params.layout
    slots = [params.slot(4 * i + 4) for i in range(params.steps)]
    slots += [params.slot(4 * i + 2) for i in range(1, params.steps)]

    def halted(mask: int) -> bool:
        m_code = decode(mask, "0", layout)
        return any(
            params.is_halt_code(m_code, decode(mask, name, layout)) for name in slots
        )

    return state.project(halted)


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
    """
    if starts is None:
        starts = [
            (m.code, x, s)
            for m in params.machines
            for x in params.config_codes
            for s in params.state_codes
        ]
    if len(starts) > params.term_cap:
        raise ResourceCapError(
            f"chained superposition needs {len(starts)} chains, cap is {params.term_cap}"
        )
    layout = params.layout
    terms: dict[int, object] = {}
    for m_code, x0, s0 in starts:
        x, s = x0, s0
        extensions = []
        alive = True
        for i in range(params.steps):
            x, s = params.step_codes(m_code, x, s)
            extensions.append(
                encode(x, params.slot(4 * i + 3), layout)
                | encode(s, params.slot(4 * i + 4), layout)
            )
            last = i == params.steps - 1
            if not last and (x not in params._config_set or s not in params._state_set):
                alive = False
                break
        if not alive:
            continue
        mask = encode(m_code, "0", layout)
        x, s = x0, s0
        for i in range(params.steps):
            mask |= encode(x, params.slot(4 * i + 1), layout)
            mask |= encode(s, params.slot(4 * i + 2), layout)
            x, s = params.step_codes(m_code, x, s)
        coeff = 1
        for extension in extensions:
            mask, sign = blade_mul(extension, mask)
            coeff *= sign
        prev = terms.get(mask)
        terms[mask] = coeff if prev is None else prev + coeff
    return Multivector(params.dimension, terms)


def bounded_halt_probe(
    spec: TMSpec,
    config: Config,
    steps: int,
    params: TruncationParams | None = None,
) -> bool:
    """Does this machine on this input halt WITHIN ``steps`` steps?

    Builds the chain selected by the instance projection (machine, input,
    start state) and tests whether the halt projection leaves it nonzero.
    Equivalent to running instance and halt projections after the full
    chained (or free + consistency) construction; that equivalence is what
    the construction-equality tests pin down.
    """
    if params is None:
        params = TruncationParams([spec], steps, config.cells)
    if params.steps != steps:
        raise ValueError("params were built for a different step count")
    if spec.code not in params.machine_by_code:
        raise ValueError("machine is not part of the enumerated machine set")
    if config.code not in params._config_set:
        raise ValueError("input config is outside the enumerated set")
    chain = build_chained_superposition(
        params, starts=[(spec.code, config.code, spec.start)]
    )
    return not halt_project(chain, params).is_zero()


def probe_report(
    spec: TMSpec,
    config: Config,
    steps: int,
    mode: str = "both",
    term_cap: int = 500_000,
) -> dict:
    """Run the blade probe and/or the direct simulation; report agreement."""
    if mode not in ("ga", "direct", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    out: dict = {
        "machine": spec.name or f"code-{spec.code}",
        "steps": steps,
        "cells": config.cells,
        "input_code": config.code,
        "semantics": f"halts within {steps} steps (bounded probe)",
    }
    if mode in ("ga", "both"):
        params = TruncationParams([spec], steps, config.cells, term_cap=term_cap)
        chain = build_chained_superposition(
            params, starts=[(spec.code, config.code, spec.start)]
        )
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
        return TMSpec(
            num_states=int(data["states"]),
            start=int(data["start"]),
            halt_states=[int(h) for h in data["halt_states"]],
            transitions=transitions,
            reject=int(data["reject"]) if "reject" in data else None,
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError) as exc:
        raise MachineFormatError(f"bad machine description: {exc}") from None


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
    if len(bits) > cells:
        raise ValueError(f"tape string longer than {cells} cells")
    tape = 0
    for i, ch in enumerate(bits):
        if ch not in "01":
            raise ValueError(f"tape character {ch!r} is not 0/1")
        if ch == "1":
            tape |= 1 << i
    return Config(tape, head, cells)
