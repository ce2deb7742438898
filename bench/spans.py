"""Spans and counts around gacalc's public functions, patched in from outside.

:class:`Tracer` replaces each traced function with a wrapper for the length
of one op and puts the original back afterwards.  Timed functions record a
span (name, start, end, parent, op); counted ones, called far too often for
a span each, only bump a counter.  A function imported by name into other
gacalc modules is replaced in every module that holds it, so calls between
modules are seen too.
"""
from __future__ import annotations

import functools
import sys
import time

# Functions that get a span: metric prefix -> (module, attribute path).
TIMED = {
    "core.geometric_product": ("core", "Multivector.geometric_product"),
    "core.project": ("core", "Multivector.project"),
    "search.build_initial_state": ("search", "build_initial_state"),
    "search.half_difference_filter": ("search", "half_difference_filter"),
    "search.extract_matches": ("search", "extract_matches"),
    "circuit.run_netlist": ("circuit", "run_netlist"),
    "circuit.relabel_and_discard": ("circuit", "relabel_and_discard"),
    "factoring.build_factoring_superposition": ("factoring", "build_factoring_superposition"),
    "factoring.multiply_all": ("factoring", "multiply_all"),
    "factoring.project_product": ("factoring", "project_product"),
    "factoring.read_divisors": ("factoring", "read_divisors"),
    "halting.TruncationParams": ("halting", "TruncationParams.__init__"),
    "halting.build_chained_superposition": ("halting", "build_chained_superposition"),
    "halting.consistency_project": ("halting", "consistency_project"),
    "halting.instance_project": ("halting", "instance_project"),
    "halting.halt_project": ("halting", "halt_project"),
}

# ``linear_extend`` returns the lifted operator; the span goes around that.
LIFTED = {"circuit.linear_extend": ("circuit", "linear_extend")}

# Functions called per blade or per term: counted only.
COUNTED = {
    "core.reorder_sign.calls": ("core", "reorder_sign"),
    "core.multivector.constructs": ("core", "Multivector.__init__"),
    "encoding.decode.calls": ("encoding", "decode"),
    "halting.step_codes.calls": ("halting", "TruncationParams.step_codes"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _lifted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn(*args, **kwargs))

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace(self, lib, module: str, path: str, make) -> None:
        owner = getattr(lib, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(original)
        if outer:  # a method: the class holds the only reference
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for name, mod in list(sys.modules.items())
                if name == "gacalc" or name.startswith("gacalc.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def install(self, lib, op: int) -> None:
        """Wrap every traced function for op number ``op``."""
        self.op = op
        self.counts.clear()
        for table, make in ((TIMED, self._timed), (LIFTED, self._lifted), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                self._replace(lib, module, path, functools.partial(make, name))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    # -- results --------------------------------------------------------------

    def op_metrics(self, op: int) -> dict[str, float]:
        """Inclusive seconds and call counts per traced function for one op."""
        out = dict(self.counts)
        for name in (*TIMED, *LIFTED):
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        for name, start, end, _, span_op in self.spans:
            if span_op == op:
                out[f"{name}.s"] += end - start
                out[f"{name}.calls"] += 1
        return out
