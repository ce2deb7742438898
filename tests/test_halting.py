"""Bounded halting probe: codecs, step operator, projections, oracle agreement."""
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gacalc import halting
from gacalc.core import MAX_TERMS, Multivector, ResourceCapError, blade_mul, to_records
from gacalc.encoding import EncodingRangeError, SubspaceLayout, encode
from gacalc.halting import (
    MOVES,
    Config,
    MachineFormatError,
    TargetSlotOccupiedError,
    TMSpec,
    Transition,
    TruncationParams,
    _links,
    apply_all_steps,
    apply_step_operator,
    bounded_halt_probe,
    build_chained_superposition,
    build_free_superposition,
    bundled_machines,
    consistency_project,
    halt_project,
    instance_project,
    load_machine,
    machine_from_dict,
    machine_to_dict,
    parse_tape,
    probe_report,
    run_direct,
    tm_step,
)

CORPUS = {m.name: m for m in bundled_machines()}


def blank(cells: int, head: int = 0) -> Config:
    return Config(0, head, cells)


# --- references: slot-by-slot definitions that the mask-level code must equal --


def slot_layout(params: TruncationParams) -> SubspaceLayout:
    """Reference geometry: slot 0 holds the machine code, then step i owns
    slots 4i+1..4i+4 (memory in, state in, memory out, state out).

    The widths are worked out here from the sets, as documented: the memory
    slots fit every tape/head code and enumerated config, the state slots
    every enumerated state and machine state (and 0, an unknown machine's).
    """
    cells = params.cells
    w_m = max(1, max(m.code for m in params.machines).bit_length())
    w_x = max(cells + (cells - 1).bit_length(), max(params.config_codes).bit_length())
    w_s = max(
        1,
        max(params.state_codes).bit_length(),
        max(m.num_states - 1 for m in params.machines).bit_length(),
    )
    widths = [("0", w_m)]
    for i in range(params.steps):
        widths += [(str(4 * i + k), w) for k, w in zip((1, 2, 3, 4), (w_x, w_s, w_x, w_s))]
    return SubspaceLayout(widths)


def pack(params: TruncationParams, x: int, s: int) -> int:
    return x | s << params.w_x


def unpack(params: TruncationParams, code: int) -> tuple[int, int]:
    return code & ~(-1 << params.w_x), code >> params.w_x


def reference_step_codes(params: TruncationParams, machine_code: int, code: int) -> int:
    """Reference step on packed ``x | s << w_x`` codes: ``tm_step`` on a ``Config``, no memo."""
    x, s = unpack(params, code)
    spec = params.machine_by_code.get(machine_code)
    if spec is None:
        return pack(params, x, 0)
    if (
        x not in params.config_codes
        or s not in params._state_set
        or s >= spec.num_states
        or x >> params.cells >= params.cells
    ):
        return pack(params, x, spec.reject)
    config, state = tm_step(spec, Config.from_code(x, params.cells), s)
    return pack(params, config.code, state)


def stepwise_chains(params: TruncationParams, starts=None) -> Multivector:
    """Reference chain build: range-checked ``encode`` per slot, one ``blade_mul`` per step."""
    if starts is None:
        starts = [
            (m.code, x, s)
            for m in params.machines
            for x in params.config_codes
            for s in params.state_codes
        ]
    configs, states = set(params.config_codes), set(params.state_codes)
    slots = slot_layout(params).subspaces
    last = params.steps - 1
    acc: dict[int, int] = {}
    for m_code, x, s in starts:
        mask = 0
        extensions = []
        for i in range(params.steps):
            mask |= slots[4 * i + 1].encode(x) | slots[4 * i + 2].encode(s)
            x, s = unpack(params, reference_step_codes(params, m_code, pack(params, x, s)))
            extensions.append(slots[4 * i + 3].encode(x) | slots[4 * i + 4].encode(s))
            if i < last and (x not in configs or s not in states):
                break
        else:
            mask |= slots[0].encode(m_code)
            coeff = 1
            for extension in extensions:
                mask, sign = blade_mul(extension, mask)
                coeff *= sign
            acc[mask] = acc.get(mask, 0) + coeff
    return Multivector(params.dimension, {m: c for m, c in acc.items() if c})


def decode_consistency(state: Multivector, params: TruncationParams) -> Multivector:
    """Reference: each step output slot k decodes equal to the next input slot k + 2."""
    slots = slot_layout(params).subspaces
    links = [
        (slots[k], slots[k + 2])
        for i in range(params.steps - 1)
        for k in (4 * i + 3, 4 * i + 4)
    ]
    return state.project(lambda m: all(a.decode(m) == b.decode(m) for a, b in links))


def decode_instance(state: Multivector, spec: TMSpec, input_code: int, params) -> Multivector:
    """Reference: slots 0, 1 and 2 decode to (machine code, input, start state)."""
    machine, x0, s0 = slot_layout(params).subspaces[:3]
    want = (spec.code, input_code, spec.start)
    return state.project(lambda m: (machine.decode(m), x0.decode(m), s0.decode(m)) == want)


def decode_halt(state: Multivector, params: TruncationParams) -> Multivector:
    """Reference: some state slot 4i+4, or 4i+2 with i >= 1, decodes to a halt state."""
    slots = slot_layout(params).subspaces
    machine = slots[0]
    state_slots = [slots[4 * i + 4] for i in range(params.steps)]
    state_slots += [slots[4 * i + 2] for i in range(1, params.steps)]
    halt_states = {m.code: m.halt_states for m in params.machines}

    def halted(mask: int) -> bool:
        halts = halt_states.get(machine.decode(mask), ())
        return any(sub.decode(mask) in halts for sub in state_slots)

    return state.project(halted)


def or_links(params: TruncationParams) -> tuple[int, int]:
    """Reference ``_links``: the block distance and the OR of steps 0..K-2's output slots."""
    slots = slot_layout(params).subspaces
    out = 0
    for i in range(params.steps - 1):
        out |= slots[4 * i + 3].mask | slots[4 * i + 4].mask
    return slots[3].offset - slots[1].offset, out


def assert_same_terms(got: Multivector, want: Multivector) -> None:
    assert got.dimension == want.dimension
    assert dict(got.terms) == dict(want.terms)  # masks and signs


class TestMachineCoding:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 10

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_code_determines_table(self, name):
        # Any one transition changed to another valid action changes the code.
        spec = CORPUS[name]
        for key, tr in spec.transitions.items():
            for other in (
                Transition(1 - tr.write, tr.move, tr.next_state),
                Transition(tr.write, "L" if tr.move == "R" else "R", tr.next_state),
                *(
                    Transition(tr.write, tr.move, s)
                    for s in range(spec.num_states)
                    if s != tr.next_state
                ),
            ):
                table = {**spec.transitions, key: other}
                changed = TMSpec(
                    spec.num_states, spec.start, spec.halt_states, table, spec.reject
                )
                assert changed.code != spec.code, (key, other)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_table_is_read_only(self, name):
        # A changed table would leave ``code`` (and any successor memo) stale.
        spec = CORPUS[name]
        with pytest.raises(TypeError):
            spec.transitions[(spec.start, 0)] = Transition(0, "L", spec.reject)
        assert spec.code == spec._encode_table()

    def test_dict_roundtrip(self):
        spec = CORPUS["bb2"]
        assert machine_from_dict(machine_to_dict(spec)).code == spec.code

    def test_validation(self):
        with pytest.raises(MachineFormatError):
            TMSpec(2, 0, [], {})  # no halt state
        with pytest.raises(MachineFormatError):
            TMSpec(2, 0, [1], {})  # missing transitions
        with pytest.raises(MachineFormatError):
            TMSpec(2, 5, [1], {(0, 0): Transition(0, "R", 0), (0, 1): Transition(0, "R", 0)})

    @pytest.mark.parametrize(
        "field, value",
        [("states", "two"), ("start", "x"), ("halt_states", ["h"]), ("reject", "r")],
    )
    def test_non_numeric_machine_field(self, field, value):
        data = {**machine_to_dict(CORPUS["bb2"]), field: value}
        with pytest.raises(MachineFormatError, match="bad machine description"):
            machine_from_dict(data)

    @pytest.mark.parametrize("field", ["state", "read", "write", "next"])
    def test_non_numeric_transition_field(self, field):
        data = machine_to_dict(CORPUS["bb2"])
        data["transitions"][0][field] = "x"
        with pytest.raises(MachineFormatError, match="bad machine description"):
            machine_from_dict(data)

    def test_spec_errors_keep_their_message(self):
        data = {**machine_to_dict(CORPUS["bb2"]), "start": 7}
        with pytest.raises(MachineFormatError, match="^start state 7 out of range$"):
            machine_from_dict(data)

    def test_huge_state_count_rejected_in_bounded_memory(self):
        data = {
            "states": 10**6,
            "start": 0,
            "halt_states": [1],
            "transitions": [
                {"state": 0, "read": r, "write": 1, "move": "R", "next": 1} for r in (0, 1)
            ],
        }
        tracemalloc.start()
        try:
            with pytest.raises(MachineFormatError, match="missing transition for state 2"):
                machine_from_dict(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_default_reject(self):
        spec = CORPUS["seeker"]
        assert spec.reject == 2  # explicit in the file
        assert CORPUS["bb2"].reject == 2  # defaulted to min(halt_states)


class TestConfigCoding:
    def test_roundtrip(self):
        for cells in (1, 2, 6):
            for head in range(cells):
                for tape in range(1 << cells):
                    c = Config(tape, head, cells)
                    assert Config.from_code(c.code, cells) == c

    def test_bad_head(self):
        with pytest.raises(ValueError):
            Config(0, 3, 3)

    def test_parse_tape(self):
        c = parse_tape("0010", 6, head=1)
        assert c.tape == 0b0100 and c.head == 1
        with pytest.raises(ValueError):
            parse_tape("012", 6)
        with pytest.raises(ValueError):
            parse_tape("0000000", 6)
        for cells in (0, -2):
            with pytest.raises(ValueError, match="^tape must have at least one cell$"):
                parse_tape("", cells)

    @settings(max_examples=300)
    @given(
        bits=st.text(alphabet="01", max_size=10) | st.text(max_size=4),
        cells=st.integers(-2, 70),
        head=st.integers(-2, 70),
    )
    def test_parse_tape_raises_only_value_error(self, bits, cells, head):
        try:
            config = parse_tape(bits, cells, head=head)
        except ValueError:
            return
        assert (config.cells, config.head) == (cells, head)
        assert [config.tape >> i & 1 for i in range(len(bits))] == [int(b) for b in bits]


class TestStep:
    def test_halted_fixed_point(self):
        spec = CORPUS["bb2"]
        config = blank(4)
        assert 2 in spec.halt_states
        assert tm_step(spec, config, 2) == (config, 2)

    def test_write_and_halt(self):
        spec = CORPUS["bb1"]
        config, state = tm_step(spec, blank(4), spec.start)
        assert config.tape == 0b1 and config.head == 1
        assert state in spec.halt_states

    def test_runoff_goes_to_reject(self):
        spec = CORPUS["runner-left"]
        config, state = tm_step(spec, blank(4), spec.start)
        assert state == spec.reject and state in spec.halt_states
        assert config.head == 0  # clamped at the boundary

    def test_bb2_full_trace(self):
        spec = CORPUS["bb2"]
        halts, at = run_direct(spec, blank(6, head=2), 10)
        assert (halts, at) == (True, 6)
        config, state = blank(6, head=2), spec.start
        for _ in range(6):
            config, state = tm_step(spec, config, state)
        assert state in spec.halt_states
        assert config.tape.bit_count() == 4  # the busy beaver leaves four 1s

    def test_immediate_halt_at_step_zero(self):
        assert run_direct(CORPUS["halt-now"], blank(2), 5) == (True, 0)


def row_step(spec: TMSpec, config: Config, state: int) -> tuple[Config, int]:
    """One step read off ``spec.rows``, with the runoff rule of ``_step_into``."""
    flip, move, nxt = spec.rows[state << 1 | config.read()]
    tape = config.tape ^ flip << config.head
    if 0 <= config.head + move < config.cells:
        return Config(tape, config.head + move, config.cells), nxt
    return Config(tape, config.head, config.cells), spec.reject


@st.composite
def machines_with_halts(draw) -> TMSpec:
    """A total machine of 1 to 6 states, at least one of them a halt state."""
    states = draw(st.integers(1, 6))
    halts = draw(st.sets(st.integers(0, states - 1), min_size=1))
    transitions = {
        (s, read): Transition(
            draw(st.integers(0, 1)), draw(st.sampled_from(MOVES)), draw(st.integers(0, states - 1))
        )
        for s in range(states)
        if s not in halts
        for read in (0, 1)
    }
    reject = draw(st.sampled_from(sorted(halts)))
    return TMSpec(states, draw(st.integers(0, states - 1)), halts, transitions, reject)


def assert_rows_step_like_tm_step(spec: TMSpec, cells: int, tape: int) -> None:
    """Every (state, read) at every head cell, so heads on both ends run off."""
    assert len(spec.rows) == 2 * spec.num_states
    for head in range(cells):
        for read in (0, 1):
            config = Config(tape & ~(1 << head) | read << head, head, cells)
            for state in range(spec.num_states):
                want = tm_step(spec, config, state)
                assert row_step(spec, config, state) == want, (spec, state, config)


class TestStepRows:
    """``TMSpec.rows`` against the ``tm_step`` reference on ``transitions``."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    @pytest.mark.parametrize("cells", [1, 2, 5])
    def test_bundled_machines(self, name, cells):
        assert_rows_step_like_tm_step(CORPUS[name], cells, 0b10110 & ~(-1 << cells))

    @settings(max_examples=200, deadline=None)
    @given(spec=machines_with_halts(), cells=st.integers(1, 4), tape=st.integers(0, 15))
    def test_drawn_machines(self, spec, cells, tape):
        assert_rows_step_like_tm_step(spec, cells, tape & ~(-1 << cells))

    def test_params_step_through_the_machines_rows(self):
        # A private copy of bb2 whose rows count their reads: both params
        # step only through that one object, with no table of their own.
        spec = machine_from_dict(machine_to_dict(CORPUS["bb2"]))
        reads = []

        class CountedRows(tuple):
            def __getitem__(self, index):
                reads.append(index)
                return tuple.__getitem__(self, index)

        spec.rows = CountedRows(spec.rows)
        for params in (TruncationParams([spec], 2, 3), TruncationParams([spec, CORPUS["bb1"]], 5, 4)):
            before = len(reads)
            build_chained_superposition(params)
            memo = params._successors[spec.code]
            stepped = [c for c in memo if c >> params.w_x < spec.num_states]
            assert len(reads) - before == len(stepped) > 0
            for code, out in memo.items():
                assert out == reference_step_codes(params, spec.code, code), code


class TestStepCodes:
    """``TruncationParams.step_codes`` against the ``tm_step`` reference."""

    @pytest.mark.parametrize("cells", range(1, 7))
    def test_every_enumerated_input(self, cells):
        params = TruncationParams(list(CORPUS.values()), 1, cells)
        cases = [
            (m.code, pack(params, x, s))
            for m in params.machines
            for x in params.config_codes
            for s in params.state_codes
        ]
        assert any(code >> params.w_x >= CORPUS["bb1"].num_states for _, code in cases)
        for _ in range(2):  # the second pass reads the successor memo
            for case in cases:
                assert params.step_codes(*case) == reference_step_codes(params, *case), case

    def test_out_of_set_inputs(self):
        seeker = CORPUS["seeker"]
        halted = 1  # a halt state other than reject, so the two rules differ
        assert halted in seeker.halt_states and halted != seeker.reject
        params = TruncationParams(
            [seeker, CORPUS["bb1"]],
            1,
            2,
            config_codes=[0, 1, 4, 5, 2 << 2],  # 2 << 2 puts the head on cell 2
            state_codes=[0, 1, 2, 3],
        )
        unknown = next(c for c in range(1 << 8) if c not in params.machine_by_code)
        cases = {
            (unknown, 5, 3): (5, 0),  # an unknown machine steps to state 0
            (seeker.code, 2, 0): (2, seeker.reject),  # x outside the config set
            (seeker.code, 0, 4): (0, seeker.reject),  # s outside the state set
            (seeker.code, 0, 3): (0, seeker.reject),  # s in the set, >= num_states
            (seeker.code, 2 << 2, 0): (2 << 2, seeker.reject),  # head >= cells
            (seeker.code, 2, halted): (2, seeker.reject),  # halted, x outside the set
            (seeker.code, 4, halted): (4, halted),  # halted states are fixed points
        }
        for _ in range(2):
            for (m_code, x, s), want in cases.items():
                case, want = (m_code, pack(params, x, s)), pack(params, *want)
                assert params.step_codes(*case) == want, case
                assert reference_step_codes(params, *case) == want, case


class TestTruncationParams:
    def test_slot_geometry_is_closed_form(self):
        # Each reference slot sits where the four widths put it: slot k >= 1
        # is the memory (k odd) or state (k even) field of block (k - 1) // 2,
        # which starts at w_m + block * h.
        corpus = list(CORPUS.values())
        cases = [(corpus, k, cells, {}) for k in (1, 2, 3, 7, 40) for cells in (1, 4, 6)]
        cases += [
            (corpus, 3, 2, dict(config_codes=[0, 3, 5, 6, 9], state_codes=[1, 2])),
            ([CORPUS["bb2"]], 2, 2, dict(config_codes=[0, 1, 4, 5], state_codes=[0, 1])),
            (corpus, 7, 4, dict(config_codes=[1 << 12], state_codes=[5])),
            ([CORPUS["bb1"]], 40, 1, dict(state_codes=[0, 1 << 9])),
        ]
        for machines, steps, cells, sets in cases:
            params = TruncationParams(machines, steps, cells, **sets)
            layout = slot_layout(params)
            w_m, w_x, w_s, h = params.w_m, params.w_x, params.w_s, params.h
            assert h == w_x + w_s
            assert (layout["0"].offset, layout["0"].width) == (0, w_m)
            for k in range(1, 4 * steps + 1):
                block, is_state = divmod(k - 1, 2)
                want = (w_m + block * h + is_state * w_x, w_s if is_state else w_x)
                assert (layout[str(k)].offset, layout[str(k)].width) == want, (steps, sets, k)
            assert params.dimension == layout.total_dim == w_m + 2 * h * steps

    def test_construction_does_not_grow_with_steps(self):
        machines = list(CORPUS.values())
        start = time.perf_counter()
        TruncationParams(machines, 10**6, 6)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            params = TruncationParams(machines, 10**6, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.dimension == params.w_m + 2 * params.h * 10**6
        assert peak < 64 << 10
        assert elapsed < 0.1

    @pytest.mark.parametrize(
        "sets,error",
        [
            (dict(config_codes=[]), ValueError),
            (dict(config_codes=[-1, 0]), ValueError),
            (dict(state_codes=[]), ValueError),
            (dict(state_codes=[-1, 0]), ValueError),
            # No setting: an unknown machine steps to the constant state 0.
            (dict(reject_code=1), TypeError),
        ],
        ids=["configs-empty", "configs-negative", "states-empty", "states-negative", "reject"],
    )
    def test_bad_code_sets_are_refused_by_name(self, sets, error):
        (name,) = sets
        with pytest.raises(error, match=name):
            TruncationParams([CORPUS["bb1"]], 1, 2, **sets)


class TestFreeConstruction:
    def test_minimal_instance(self):
        spec = CORPUS["halt-now"]
        params = TruncationParams([spec], steps=1, cells=1, config_codes=[0], state_codes=[0])
        state = build_free_superposition(params)
        assert len(state) == 1

    def test_counting_formula(self):
        machines = [CORPUS["bb1"], CORPUS["runner-right"]]
        params = TruncationParams(machines, steps=2, cells=1, state_codes=[0, 1])
        state = build_free_superposition(params)
        assert len(state) == 2 * (2 * 2) ** 2  # |M| (|X||S|)^K

    def test_slot_values_come_from_the_sets(self):
        params = TruncationParams([CORPUS["bb1"]], steps=1, cells=1)
        layout = slot_layout(params)
        from gacalc.encoding import decode

        for mask in build_free_superposition(params).masks():
            assert decode(mask, "1", layout) in params.config_codes
            assert decode(mask, "2", layout) in params.state_codes

    def test_cap(self):
        params = TruncationParams([CORPUS["bb1"]], steps=4, cells=3)
        count = (3 * 8 * len(params.state_codes)) ** 4  # |M| (|X||S|)^K
        assert count > MAX_TERMS
        with pytest.raises(ResourceCapError, match=f"needs {count} terms, cap is {MAX_TERMS}"):
            build_free_superposition(params)


class TestStepOperator:
    def test_agrees_with_fraction_copy(self, as_fractions):
        machines = [CORPUS["bb1"], CORPUS["runner-right"]]
        params = TruncationParams(machines, steps=2, cells=1, state_codes=[0, 1])
        free = build_free_superposition(params)
        rng = random.Random(5)
        weighted = Multivector(params.dimension, {m: rng.randint(-3, 3) for m in free.masks()})
        for state in (free, weighted):
            for i in range(params.steps):
                got = apply_step_operator(state, i, params)
                want = apply_step_operator(as_fractions(state), i, params)
                assert got == want
                assert to_records(got) == to_records(want)
                state = got

    def test_builders_hold_ints(self):
        machines = [CORPUS["bb1"], CORPUS["runner-right"]]
        params = TruncationParams(machines, steps=2, cells=1, state_codes=[0, 1])
        for state in (build_free_superposition(params), build_chained_superposition(params)):
            assert state and all(type(c) is int for c in state.terms.values())

    def test_zero_in_zero_out(self):
        params = TruncationParams([CORPUS["bb1"]], steps=1, cells=1)
        zero = Multivector.zero(params.dimension)
        assert apply_step_operator(zero, 0, params) == zero

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_state_of_another_dimension(self, offset):
        params = TruncationParams([CORPUS["bb1"]], steps=1, cells=1)
        state = Multivector.zero(params.dimension + offset)
        with pytest.raises(ValueError, match="parameters need"):
            apply_step_operator(state, 0, params)

    def test_single_term_hand_checked(self):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=1, cells=2)
        layout = slot_layout(params)
        x0 = blank(2).code
        term = Multivector.blade(
            params.dimension,
            encode(spec.code, "0", layout)
            | encode(x0, "1", layout)
            | encode(spec.start, "2", layout),
        )
        out = apply_step_operator(term, 0, params)
        config, state = tm_step(spec, blank(2), spec.start)
        expected_mask = next(iter(term.masks())) | encode(
            config.code, "3", layout
        ) | encode(state, "4", layout)
        assert dict(out.terms) == {expected_mask: 1}

    def test_linearity_over_terms(self):
        spec = CORPUS["bb2"]
        params = TruncationParams([spec], steps=1, cells=2)
        layout = slot_layout(params)

        def term(x, s):
            return Multivector.blade(
                params.dimension,
                encode(spec.code, "0", layout)
                | encode(x, "1", layout)
                | encode(s, "2", layout),
                3,
            )

        a, b = term(0, 0), term(1, 1)
        combined = apply_step_operator(a + b, 0, params)
        assert combined == apply_step_operator(a, 0, params) + apply_step_operator(
            b, 0, params
        )

    def test_occupied_output_slot(self):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=1, cells=1)
        layout = slot_layout(params)
        term = Multivector.blade(
            params.dimension,
            encode(spec.code, "0", layout) | encode(1, "3", layout),
        )
        with pytest.raises(TargetSlotOccupiedError):
            apply_step_operator(term, 0, params)

    def test_meaningless_machine_code_rejects(self):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=1, cells=1)
        layout = slot_layout(params)
        bogus = spec.code - 1  # fits the slot width but is not in the set
        assert spec.reject != 0  # so the unknown machine's state 0 is its own rule
        term = Multivector.blade(params.dimension, encode(bogus, "0", layout))
        out = apply_step_operator(term, 0, params)
        (mask,) = out.masks()
        from gacalc.encoding import decode

        assert decode(mask, "3", layout) == 0  # memory copied through
        assert decode(mask, "4", layout) == 0

    def test_out_of_set_state_rejects(self):
        spec = CORPUS["bb2"]
        params = TruncationParams([spec], steps=1, cells=1, state_codes=[0, 1])
        layout = slot_layout(params)
        term = Multivector.blade(
            params.dimension,
            encode(spec.code, "0", layout) | encode(2, "2", layout),
        )
        out = apply_step_operator(term, 0, params)
        from gacalc.encoding import decode

        (mask,) = out.masks()
        assert decode(mask, "4", layout) == spec.reject


class TestProjections:
    def test_consistency_no_constraints_at_one_step(self):
        params = TruncationParams([CORPUS["bb1"]], steps=1, cells=1)
        state = apply_all_steps(build_free_superposition(params), params)
        assert consistency_project(state, params) == state

    def test_consistency_keeps_only_chained_terms(self):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=2, cells=1)
        layout = slot_layout(params)
        base = encode(spec.code, "0", layout) | encode(0, "1", layout) | encode(
            spec.start, "2", layout
        )
        x1, s1 = unpack(params, params.step_codes(spec.code, pack(params, 0, spec.start)))
        chained_mask = (
            base
            | encode(x1, "3", layout)
            | encode(s1, "4", layout)
            | encode(x1, "5", layout)
            | encode(s1, "6", layout)
        )
        x1_bad = next(c for c in params.config_codes if c != x1)
        broken_mask = (
            base
            | encode(x1, "3", layout)
            | encode(s1, "4", layout)
            | encode(x1_bad, "5", layout)
            | encode(s1, "6", layout)
        )
        state = Multivector(params.dimension, {chained_mask: 1, broken_mask: 1})
        kept = consistency_project(state, params)
        assert dict(kept.terms) == {chained_mask: 1}
        assert consistency_project(kept, params) == kept

    def test_instance_projection_isolates_one_machine(self):
        machines = [CORPUS["bb1"], CORPUS["runner-right"]]
        params = TruncationParams(machines, steps=2, cells=1, state_codes=[0, 1])
        psi2 = consistency_project(
            apply_all_steps(build_free_superposition(params), params), params
        )
        spec = machines[1]
        x0 = blank(1).code
        got = instance_project(psi2, spec, x0, params)
        expect = build_chained_superposition(
            params, starts=[(spec.code, x0, spec.start)]
        )
        assert got == expect
        assert instance_project(got, spec, x0, params) == got

    @pytest.mark.parametrize("config_codes,inside,outside", [
        (None, [0, 23], [-1, 24, 31]),  # every code below 3 << 3: head 3 is no cell
        ([0, 9], [0, 9], [-1, 1, 23]),
    ])
    def test_instance_projection_refuses_codes_outside_the_config_set(
        self, config_codes, inside, outside
    ):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=1, cells=3, config_codes=config_codes)
        zero = Multivector.zero(params.dimension)
        for code in inside:
            assert instance_project(zero, spec, code, params).is_zero()
        for code in outside:
            with pytest.raises(ValueError, match=f"code {code} outside the enumerated set"):
                instance_project(zero, spec, code, params)

    def test_instance_projection_empty_when_absent(self):
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps=1, cells=1)
        zero = Multivector.zero(params.dimension)
        assert instance_project(zero, spec, 0, params).is_zero()

    def test_halt_projection(self):
        looper = CORPUS["loop-pingpong"]
        params = TruncationParams([looper], steps=4, cells=2)
        chain = build_chained_superposition(
            params, starts=[(looper.code, blank(2).code, looper.start)]
        )
        assert halt_project(chain, params).is_zero()

        bb1 = CORPUS["bb1"]
        params = TruncationParams([bb1], steps=4, cells=2)
        chain = build_chained_superposition(
            params, starts=[(bb1.code, blank(2).code, bb1.start)]
        )
        kept = halt_project(chain, params)
        assert kept == chain  # halts at step 1, so the chain survives
        assert halt_project(kept, params) == kept


class TestConstructionEquivalence:
    @pytest.mark.parametrize(
        "names,steps,cells",
        [
            (("bb1",), 1, 1),
            (("bb1",), 2, 1),
            (("bb1", "runner-right"), 2, 1),
            (("left-halter", "wiper"), 2, 1),
            (tuple(CORPUS), 1, 3),
            (tuple(CORPUS), 3, 1),
        ],
    )
    def test_chained_equals_free_plus_consistency(self, names, steps, cells):
        machines = [CORPUS[n] for n in names]
        params = TruncationParams(machines, steps=steps, cells=cells, state_codes=[0, 1])
        stepped = apply_all_steps(build_free_superposition(params), params)
        chain = build_chained_superposition(params)
        assert chain == decode_consistency(stepped, params)
        assert chain == consistency_project(stepped, params)

    def test_restricted_config_set_drops_escaping_chains(self):
        # configs restricted so some step outputs leave the set: both routes
        # must drop those chains identically
        spec = CORPUS["bb2"]
        params = TruncationParams(
            [spec], steps=2, cells=2, config_codes=[0, 1, 4, 5], state_codes=[0, 1]
        )
        stepped = apply_all_steps(build_free_superposition(params), params)
        chain = build_chained_superposition(params)
        assert chain == decode_consistency(stepped, params)
        assert chain == consistency_project(stepped, params)

    def test_probe_equals_free_route_boolean(self):
        for name in ("bb1", "loop-pingpong", "runner-right"):
            spec = CORPUS[name]
            for x_tape in (0, 1):
                config = Config(x_tape, 0, 1)
                params = TruncationParams([spec], steps=2, cells=1)
                free = halt_project(
                    instance_project(
                        consistency_project(
                            apply_all_steps(build_free_superposition(params), params),
                            params,
                        ),
                        spec,
                        config.code,
                        params,
                    ),
                    params,
                )
                assert bounded_halt_probe(spec, config, 2) == (not free.is_zero())


class TestChainBuild:
    """The one-sign-scan chain build against the stepwise reference."""

    def test_cap_checked_before_starts(self):
        params = TruncationParams(list(CORPUS.values()), 2, 12)
        count = len(CORPUS) * (12 << 12) * len(params.state_codes) * 2 * 2  # chains x 2K
        assert count > MAX_TERMS
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"needs {count} words"):
                build_chained_superposition(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_counts_two_blocks_per_step(self):
        loop3 = CORPUS["loop3"]
        start = [(loop3.code, 0, loop3.start)]
        for steps in (MAX_TERMS // 2 + 1, 10**30):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceCapError, match="chained superposition needs"):
                    build_chained_superposition(TruncationParams([loop3], steps, 4), start)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 << 10
        assert len(build_chained_superposition(TruncationParams([loop3], 300, 4), start)) == 1

    def test_cap_counts_each_block_in_words(self):
        # At K = MAX_TERMS / 4 two words per block fit the cap and three do
        # not: loop3's blocks at 120 cells are 120 + 7 + 2 = 129 bits.
        loop3 = CORPUS["loop3"]
        params = TruncationParams([loop3], MAX_TERMS // 4, 120)
        assert params.h == 129
        with pytest.raises(ResourceCapError, match=f"needs {3 * MAX_TERMS // 2} words"):
            build_chained_superposition(params, [(loop3.code, 0, loop3.start)])

    def test_wide_tape_refused_in_bounded_memory(self):
        # The default config set is never formed: its membership tests the
        # head by shift, and only default starts read its count.
        loop3 = CORPUS["loop3"]
        tracemalloc.start()
        try:
            params = TruncationParams([loop3], 8, 10**8)
            with pytest.raises(ResourceCapError, match="^chained superposition needs 25000016 words"):
                build_chained_superposition(params, [(loop3.code, 0, loop3.start)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_probe_count_is_the_chain_builds(self, monkeypatch):
        # probe_report counts the chain from its own TruncationParams before
        # either mode runs; its count must equal the build's at every width.
        counts = []

        def refuse(count, what, unit):
            counts.append(count)
            raise ResourceCapError(what)

        monkeypatch.setattr(halting, "check_terms", refuse)
        for spec in CORPUS.values():
            for cells in range(1, 200):
                with pytest.raises(ResourceCapError):
                    probe_report(spec, Config(0, 0, cells), 3, mode="direct")
                with pytest.raises(ResourceCapError):
                    build_chained_superposition(
                        TruncationParams([spec], 3, cells), [(spec.code, 0, spec.start)]
                    )
                assert counts[-2] == counts[-1], (spec.name, cells)
        assert set(counts) == {6, 12, 18, 24}

    @pytest.mark.parametrize("cells", [1, 2, 3, 5])
    def test_default_config_set_is_every_code(self, cells):
        every = [Config(t, h, cells).code for h in range(cells) for t in range(1 << cells)]
        default = TruncationParams(list(CORPUS.values()), 3, cells)
        explicit = TruncationParams(list(CORPUS.values()), 3, cells, config_codes=every)
        assert list(default.config_codes) == every
        assert slot_layout(default).subspaces == slot_layout(explicit).subspaces
        assert default.dimension == explicit.dimension
        assert_same_terms(
            build_chained_superposition(default), build_chained_superposition(explicit)
        )

    @pytest.mark.parametrize("cells", range(1, 7))
    @pytest.mark.parametrize("steps", range(1, 9))
    def test_equals_stepwise_build(self, steps, cells):
        params = TruncationParams(list(CORPUS.values()), steps, cells)
        chain = build_chained_superposition(params)
        assert len(chain) <= MAX_TERMS
        assert_same_terms(chain, stepwise_chains(params))
        if cells > 1:  # with one cell every chain sign is +1 at even K
            assert set(chain.terms.values()) == {1, -1}

    @pytest.mark.parametrize(
        "config_codes,state_codes",
        [([0, 1, 4, 5], [0, 1]), ([0, 3, 5, 6, 9], [1, 2]), (None, [0, 2])],
    )
    @pytest.mark.parametrize("steps", range(1, 9))
    def test_restricted_sets(self, steps, config_codes, state_codes):
        params = TruncationParams(
            list(CORPUS.values()),
            steps,
            2,
            config_codes=config_codes,
            state_codes=state_codes,
        )
        assert_same_terms(build_chained_superposition(params), stepwise_chains(params))

    @pytest.mark.parametrize("steps", range(1, 9))
    def test_explicit_starts(self, steps):
        bb2 = CORPUS["bb2"]
        params = TruncationParams(
            [bb2, CORPUS["bb1"]], steps, 2, config_codes=[0, 1, 4, 5], state_codes=[0, 1]
        )
        unknown = next(c for c in range(1 << 8) if c not in params.machine_by_code)
        dies = (bb2.code, 4, 1)  # reads 0 in state 1 at the right edge: runs off
        starts = [
            (bb2.code, 0, bb2.start),
            (bb2.code, 0, bb2.start),  # a repeated start doubles its chain
            (CORPUS["bb1"].code, 5, 1),
            dies,
        ]
        # No free term carries these, so the build refuses them.
        for bad in [
            (unknown, 0, 0),
            (bb2.code, 2, 0),  # x outside the config set
            (bb2.code, 0, 2),  # s outside the state set, inside its slot
        ]:
            with pytest.raises(ValueError, match=rf"^start \({bad[0]}, {bad[1]}, {bad[2]}\) "):
                build_chained_superposition(params, [*starts, bad])
            assert not any(params._successors.values())  # refused before any step
        x1, s1 = unpack(params, params.step_codes(dies[0], pack(params, *dies[1:])))
        assert x1 not in params.config_codes or s1 not in params.state_codes
        for start in starts:
            want = stepwise_chains(params, [start])
            assert_same_terms(build_chained_superposition(params, [start]), want)
        assert build_chained_superposition(params, [dies]).is_zero() == (steps > 1)
        assert_same_terms(
            build_chained_superposition(params, starts), stepwise_chains(params, starts)
        )

    @pytest.mark.parametrize("slot", [1, 2])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_start_too_wide_for_its_slot(self, steps, slot):
        # A code too wide for its slot is outside its enumerated set: refused
        # by name before any step, and only after the chain cap's count.
        spec = CORPUS["bb1"]
        params = TruncationParams([spec], steps, 2)
        start = [spec.code, 0, 0]
        start[slot] = 1 << slot_layout(params).subspaces[slot].width
        starts = [(spec.code, 0, 0), tuple(start)]
        with pytest.raises(ValueError, match=rf"^start \({start[0]}, {start[1]}, {start[2]}\) "):
            build_chained_superposition(params, starts)
        assert params._successors == {spec.code: {}}
        with pytest.raises(ResourceCapError):
            build_chained_superposition(TruncationParams([spec], 10**30, 2), starts)


    def test_repeated_start_sums_its_sign(self):
        params = TruncationParams(list(CORPUS.values()), 3, 2)
        chains = stepwise_chains(params)
        minus = next(m for m, c in chains.terms.items() if c == -1)
        plus = next(m for m, c in chains.terms.items() if c == 1)
        minus_start, plus_start = (
            tuple(sub.decode(m) for sub in slot_layout(params).subspaces[:3])
            for m in (minus, plus)
        )
        starts = [minus_start, plus_start, minus_start, plus_start, plus_start]
        built = build_chained_superposition(params, starts)
        assert dict(built.terms) == {minus: -2, plus: 3}
        assert_same_terms(built, stepwise_chains(params, starts))

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("state_codes", [[0, 1], [1, 2]])
    def test_machine_code_outside_the_set(self, steps, state_codes):
        # A code that fits slot 0 but names no machine of the set is refused,
        # whatever its config and state; the set's own start still builds.
        params = TruncationParams([CORPUS["bb2"]], steps, 2, state_codes=state_codes)
        unknown = CORPUS["bb1"].code
        kept = (CORPUS["bb2"].code, 0, 1)
        for x in (0, 5):
            with pytest.raises(ValueError, match=rf"^start \({unknown}, {x}, 1\) "):
                build_chained_superposition(params, [kept, (unknown, x, 1)])
        assert not any(params._successors.values())
        assert_same_terms(
            build_chained_superposition(params, [kept]), stepwise_chains(params, [kept])
        )

    @pytest.mark.parametrize(
        "config_codes,state_codes,counts",
        [
            ([0, 1, 4, 5], [0, 1], [96, 61, 53, 53]),
            ([0, 3, 5, 6, 9], [1, 2], [120, 88, 88, 88]),
        ],
    )
    def test_restricted_sets_drop_chains_after_step_zero(
        self, config_codes, state_codes, counts
    ):
        got = []
        for steps in range(1, 5):
            params = TruncationParams(
                list(CORPUS.values()),
                steps,
                2,
                config_codes=config_codes,
                state_codes=state_codes,
            )
            built = build_chained_superposition(params)
            assert_same_terms(built, stepwise_chains(params))
            got.append(len(built))
        assert got == counts  # chains drop at step 1, and in the first case at step 2

    def test_one_step(self):
        # At K = 1 nothing links: every distinct start keeps its chain.
        params = TruncationParams(
            [CORPUS["bb2"], CORPUS["seeker"]], 1, 3, config_codes=[0, 7, 9], state_codes=[0, 1]
        )
        starts = [
            (m.code, x, s) for m in params.machines for x in (0, 7, 9) for s in (0, 1)
        ]
        built = build_chained_superposition(params, starts)
        assert len(built) == len(starts)
        assert_same_terms(built, stepwise_chains(params, starts))
        assert_same_terms(build_chained_superposition(params), stepwise_chains(params))

    @pytest.mark.parametrize("build", [build_chained_superposition, stepwise_chains])
    def test_machine_code_too_wide_for_slot_zero(self, build):
        # A code too wide for slot 0 names no machine of the set.  The chain
        # build refuses it up front, even where its chain would die at step
        # 1 (state 0 is left out of [1, 2]); the reference steps it to state
        # 0 and its range-checked encode refuses it only where the chain
        # survives.
        bb2 = CORPUS["bb2"]
        wide = 1 << slot_layout(TruncationParams([bb2], 1, 2))["0"].width
        kept = (bb2.code, 0, 1)
        dropped = TruncationParams([bb2], 2, 2, state_codes=[1, 2])
        starts = [(wide, 0, 1), kept, (wide, 5, 2)]
        if build is build_chained_superposition:
            with pytest.raises(ValueError, match=rf"^start \({wide}, 0, 1\) "):
                build(dropped, starts)
            assert not any(dropped._successors.values())
            starts = [kept]
        assert_same_terms(build(dropped, starts), stepwise_chains(dropped, [kept]))
        refused = ValueError if build is build_chained_superposition else EncodingRangeError
        for params in (
            TruncationParams([bb2], 1, 2, state_codes=[1, 2]),
            TruncationParams([bb2], 2, 2, state_codes=[0, 1, 2]),
        ):
            with pytest.raises(refused):
                build(params, [kept, (wide, 0, 1)])

    def test_explicit_starts_are_stepped_in_one_batch_per_machine(self):
        # Step 0 is a memo read with explicit starts too: each machine's
        # starts go to ``_step_into`` in one batch, and a build whose starts
        # the memos already hold steps nothing.
        bb2, seeker = CORPUS["bb2"], CORPUS["seeker"]
        params = TruncationParams([bb2, seeker], 1, 2)
        batches = []
        step_into = params._step_into

        def counting(machine_code, codes):
            codes = list(codes)
            batches.append((machine_code, codes))
            step_into(machine_code, codes)

        params._step_into = counting
        starts = [(seeker.code, 1, 0), (bb2.code, 0, 0), (seeker.code, 5, 1), (bb2.code, 0, 0)]
        assert_same_terms(
            build_chained_superposition(params, starts), stepwise_chains(params, starts)
        )
        assert batches == [
            (seeker.code, [pack(params, 1, 0), pack(params, 5, 1)]),
            (bb2.code, [pack(params, 0, 0)]),
        ]
        assert_same_terms(
            build_chained_superposition(params, starts[:2]), stepwise_chains(params, starts[:2])
        )
        assert len(batches) == 2

    def test_corpus_build_fills_each_successor_memo_once(self):
        # Every enumerated (machine, config, state) input is stepped exactly
        # once, in one batch per machine, and a second build steps nothing.
        params = TruncationParams(list(CORPUS.values()), 8, 6)
        batches, stepped = [], []
        step_into = params._step_into

        def counting(machine_code, codes):
            codes = list(codes)
            batches.append(machine_code)
            stepped.extend((machine_code, code) for code in codes)
            step_into(machine_code, codes)

        params._step_into = counting
        chain = build_chained_superposition(params)
        inputs = (6 << 6) * len(params.state_codes)
        assert len(chain) == len(CORPUS) * inputs == 18_432
        assert len(stepped) == len(set(stepped)) == 18_432
        assert batches == [m.code for m in CORPUS.values()]
        assert [len(memo) for memo in params._successors.values()] == [inputs] * len(CORPUS)
        for m_code, memo in params._successors.items():
            for code, out in memo.items():
                assert out == reference_step_codes(params, m_code, code), (m_code, code)
        assert_same_terms(build_chained_superposition(params), chain)
        assert len(stepped) == 18_432  # the second build reads the memos only


def cycler(period: int) -> TMSpec:
    """A machine whose ``period`` working states run in a cycle on two cells.

    State i writes its read bit flipped when i is a multiple of 3 and moves
    right when i is even, left when odd, so from cell 0 the head never runs
    off and a chain from state 0 holds state t after t steps.  State
    ``period`` is its only halt state.
    """
    transitions = {
        (i, read): Transition(read ^ (i % 3 == 0), "LR"[i % 2 == 0], (i + 1) % period)
        for i in range(period)
        for read in (0, 1)
    }
    return TMSpec(period + 1, 0, [period], transitions, name=f"cycler-{period}")


# Around the ends of the first two assembly segments: 63, 64, 65, 128, 129.
SEGMENT_STEPS = [halting.SEGMENT * k + d for k, d in ((1, -1), (1, 0), (1, 1), (2, 0), (2, 1))]


class TestSegmentedChains:
    """Chains past the first segment against the stepwise reference."""

    @pytest.mark.parametrize("steps", SEGMENT_STEPS)
    def test_default_starts(self, steps):
        params = TruncationParams([CORPUS[n] for n in ("bb2", "loop3", "runner-right")], steps, 2)
        built = build_chained_superposition(params)
        assert_same_terms(built, stepwise_chains(params))
        assert len(built) == 3 * 8 * 4
        assert set(built.terms.values()) == {1, -1}
        for m_code, memo in params._successors.items():
            assert len(memo) == 8 * 4
            for code, out in memo.items():
                assert out == reference_step_codes(params, m_code, code), (m_code, code)

    @pytest.mark.parametrize("steps", SEGMENT_STEPS)
    def test_explicit_starts(self, steps):
        # State 90 is left out: a chain from state 0 reaches it at step 90,
        # inside the second segment, and from state 40 at step 50.
        cyc = cycler(96)
        machines = [cyc] + [CORPUS[n] for n in ("bb2", "loop3", "runner-right")]
        states = [s for s in range(97) if s != 90]
        params = TruncationParams(machines, steps, 2, state_codes=states)
        candidates = [(m.code, x, s) for m in machines[1:] for x in range(8) for s in range(4)]
        signs = {}
        for mask, coeff in stepwise_chains(params, candidates).terms.items():
            block = mask >> params.w_m & ~(-1 << params.h)
            signs.setdefault(coeff, (mask & ~(-1 << params.w_m), *unpack(params, block)))
        minus, plus = signs[-1], signs[1]
        through, dies_early = (cyc.code, 0, 0), (cyc.code, 0, 40)
        runs_off = (cyc.code, 4, 0)  # head on cell 1, moving right: reject
        starts = [minus, minus, plus, through, through, dies_early, runs_off, (cyc.code, 5, 3)]
        built = build_chained_superposition(params, starts)
        assert_same_terms(built, stepwise_chains(params, starts))
        assert -2 in built.terms.values()
        for start, alive in [(through, steps <= 90), (dies_early, steps <= 50), (runs_off, True)]:
            single = build_chained_superposition(params, [start])
            assert_same_terms(single, stepwise_chains(params, [start]))
            assert single.is_zero() != alive, start

    @pytest.mark.parametrize("steps", SEGMENT_STEPS)
    def test_machine_code_too_wide(self, steps):
        # A code too wide for w_m bits names no machine of the set: refused
        # before any step at every chain length; the set's own start builds.
        bb2 = CORPUS["bb2"]
        kept = (bb2.code, 0, bb2.start)
        params = TruncationParams([bb2], steps, 2, state_codes=[0, 1, 2])
        wide = 1 << params.w_m
        with pytest.raises(ValueError, match=rf"^start \({wide}, 0, 1\) "):
            build_chained_superposition(params, [kept, (wide, 0, 1)])
        assert params._successors == {bb2.code: {}}
        assert_same_terms(
            build_chained_superposition(params, [kept]), stepwise_chains(params, [kept])
        )


class TestProjectionReferences:
    """Mask-level projections against their slot-by-slot definitions."""

    @pytest.mark.parametrize("steps,cells", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_on_stepped_free_superposition(self, steps, cells):
        machines = [CORPUS[n] for n in ("bb1", "bb2", "runner-right")]
        params = TruncationParams(machines, steps, cells, state_codes=[0, 1, 2])
        stepped = apply_all_steps(build_free_superposition(params), params)
        rng = random.Random(steps * 10 + cells)
        weighted = Multivector(
            params.dimension, {m: rng.choice((-2, -1, 1, 3)) for m in stepped.masks()}
        )
        for state in (stepped, weighted):
            kept = consistency_project(state, params)
            assert_same_terms(kept, decode_consistency(state, params))
            if steps == 1:
                assert kept == state
            else:
                assert 0 < len(kept) < len(state)
            for spec in machines:
                for x in params.config_codes:
                    assert_same_terms(
                        instance_project(state, spec, x, params),
                        decode_instance(state, spec, x, params),
                    )
            assert_same_terms(halt_project(state, params), decode_halt(state, params))

    @pytest.mark.parametrize("steps", [1, 2, 3, 5])
    def test_halt_mask_on_corpus_chains(self, steps):
        params = TruncationParams(list(CORPUS.values()), steps, 2)
        chain = build_chained_superposition(params)
        kept = halt_project(chain, params)
        assert_same_terms(kept, decode_halt(chain, params))
        assert 0 < len(kept) < len(chain)
        # A term whose slot 0 names no enumerated machine never counts as halted.
        unknown = next(c for c in range(1 << 8) if c not in params.machine_by_code)
        slot0 = slot_layout(params)["0"].mask
        stray = Multivector(params.dimension, {m & ~slot0 | unknown: 1 for m in kept.masks()})
        assert halt_project(stray, params).is_zero() and decode_halt(stray, params).is_zero()

    @pytest.mark.parametrize("steps", [1, 2, 5, 40])
    @pytest.mark.parametrize("name", ["bb1", "loop3", "halt-now", "runner-right"])
    def test_halt_mask_on_probe_chains(self, name, steps):
        spec = CORPUS[name]
        params = TruncationParams([spec], steps, 4)
        for config in (blank(4), blank(4, 3), parse_tape("0110", 4, 1)):
            chain = build_chained_superposition(params, [(spec.code, config.code, spec.start)])
            kept = halt_project(chain, params)
            assert_same_terms(kept, decode_halt(chain, params))
            assert kept.is_zero() != run_direct(spec, config, steps)[0]

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("cells", [1, 4])
    def test_links_match_slot_masks(self, steps, cells):
        params = TruncationParams(list(CORPUS.values()), steps, cells)
        assert (params.h, _links(params)) == or_links(params)


class TestBoundedProbe:
    def test_immediate_halt(self):
        spec = CORPUS["halt-now"]
        for k in range(1, 5):
            assert bounded_halt_probe(spec, blank(2), k)

    def test_loop_never_halts_within_bounds(self):
        spec = CORPUS["loop-pingpong"]
        for k in range(1, 9):
            assert not bounded_halt_probe(spec, blank(4), k)

    def test_bb2_boundary(self):
        spec = CORPUS["bb2"]
        config = blank(6, head=2)
        assert bounded_halt_probe(spec, config, 6)
        assert not bounded_halt_probe(spec, config, 5)

    def test_agreement_with_direct_simulation_moderate(self):
        for spec in CORPUS.values():
            for cells in (1, 2, 3, 4):
                tapes = [parse_tape("", cells)] + [
                    Config(1 << i, 0, cells) for i in range(cells)
                ]
                for steps in (1, 2, 3, 4):
                    for config in tapes:
                        ga = bounded_halt_probe(spec, config, steps)
                        direct, _ = run_direct(spec, config, steps)
                        assert ga == direct, (spec.name, cells, steps, config.code)

    def test_huge_tape_refused_before_the_config_range(self):
        # 10^9 cells: TruncationParams would form a 10^9-bit ``cells << cells``.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="^probe chain needs 250000016 words"):
                bounded_halt_probe(CORPUS["loop3"], Config(0, 0, 10**9), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("cells", [40, 64, 200])
    def test_wide_tape_agrees_with_direct_simulation(self, cells):
        for spec in CORPUS.values():
            config = Config(0b1011 << cells // 2, cells // 2, cells)
            for steps in (1, 5, 8):
                direct, _ = run_direct(spec, config, steps)
                assert bounded_halt_probe(spec, config, steps) == direct

    def test_probe_time_is_linear_in_steps(self):
        # The chain is assembled in segments, not ORed into one growing mask
        # per step, whose cost grows with K squared.
        start = time.perf_counter()
        report = probe_report(CORPUS["loop3"], blank(4), 400_000, mode="ga")
        elapsed = time.perf_counter() - start
        assert (report["chain_terms"], report["halts_within_k"]) == (1, False)
        assert elapsed < 5, f"{elapsed:.2f}s"

    def test_monotone_in_step_bound(self):
        for name in ("bb2", "seeker", "runner-right"):
            spec = CORPUS[name]
            seen_true = False
            for k in range(1, 9):
                now = bounded_halt_probe(spec, blank(4), k)
                if seen_true:
                    assert now
                seen_true = seen_true or now


class TestReport:
    def test_both_mode_agreement_flag(self):
        report = probe_report(CORPUS["bb2"], blank(6, head=2), 6, mode="both")
        assert report["agreement"] is True
        assert report["halts_within_k"] is True
        assert "halts within 6 steps" in report["semantics"]

    def test_direct_only(self):
        report = probe_report(CORPUS["loop3"], blank(4), 8, mode="direct")
        assert report["halts_within_k"] is False
        assert "ga_halts_within_k" not in report

    @pytest.mark.parametrize("mode", ["both", "ga", "direct"])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_step_count_below_one_refused_in_every_mode(self, mode, steps):
        with pytest.raises(ValueError, match="^step count must be at least 1$"):
            probe_report(CORPUS["loop3"], blank(4), steps, mode=mode)


class TestFileFormat:
    def test_load_machine(self, tmp_path):
        spec = CORPUS["bb2"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine_to_dict(spec)))
        assert load_machine(path).code == spec.code

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"states": 1}')
        with pytest.raises(MachineFormatError):
            load_machine(path)

    # JSON values as ``json.load`` returns them; it reads Infinity and NaN.
    _json = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 6) | st.integers() | st.floats()
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )
    _odd = st.sampled_from([float("inf"), float("nan"), 2.5, "1", True])
    _small = st.integers(-1, 4) | _odd | _json
    _transition = st.fixed_dictionaries(
        {},
        optional={
            "state": _small,
            "read": _small,
            "write": _small,
            "move": st.sampled_from(["L", "R", "l", "x"]) | _json,
            "next": _small,
        },
    )

    def test_infinite_state_count(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"states": Infinity, "start": 0, "halt_states": [1], "transitions": []}')
        with pytest.raises(MachineFormatError, match="infinity"):
            load_machine(path)

    @settings(max_examples=400, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "states": _small,
                "start": _small,
                "halt_states": st.lists(_small, max_size=3) | _json,
                "reject": _small,
                "name": _json,
                "transitions": st.lists(_transition, max_size=6) | _json,
            },
        )
        | _json
    )
    def test_machine_from_dict_raises_only_format_error(self, data):
        try:
            spec = machine_from_dict(data)
        except MachineFormatError:
            return
        assert machine_from_dict(machine_to_dict(spec)).code == spec.code
