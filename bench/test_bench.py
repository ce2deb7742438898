"""Tests of the benchmark itself: checks catch wrong answers, seeds repeat.

Run with ``python3 -m pytest bench``.  Workload sizes here are cut down so
the whole file runs in seconds.
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import DMAX, WORKLOADS, Algebra, Factor, HaltCorpus, Search  # noqa: E402

SMALL = [
    Search(bits=10, size=300),
    Factor("factor-fast", 4, "fast"),
    Factor("factor-faithful", 3, "faithful"),
    HaltCorpus(steps=3, cells=3, sample=4),
    Algebra(shapes=((6, 20), (40, 12), (DMAX, 6)), sampled=4),
]


def _corrupt(answer, name):
    """The same answer with one deliberate error in it."""
    if name == "search":
        return {**answer, "matches": answer["matches"] ^ {min(answer["matches"], default=0)}}
    if name.startswith("factor"):
        return {**answer, "divisors": answer["divisors"][1:]}
    if name == "halt-corpus":
        return {**answer, "verdicts": [not answer["verdicts"][0]] + answer["verdicts"][1:]}
    product = answer[0]
    mask, coeff = next(iter(product.terms.items()))
    terms = {**product.terms, mask: -coeff}
    return [type(product)(product.dimension, terms)] + answer[1:]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_clean_run_passes(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False)
    assert result["attempted"] == 1
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_corrupted_answer_counts_as_failed(workload):
    class Corrupted(type(workload)):
        def op(self, lib, inputs, k):
            return _corrupt(super().op(lib, inputs, k), self.name)

    broken = Corrupted(**{f.name: getattr(workload, f.name) for f in dataclasses.fields(workload)})
    result = run.measure(broken, seed=3, seconds=0, trace=False)
    assert result["attempted"] == 1
    assert result["failed"] == result["wrong"] == 1
    assert result["times"] == []


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_same_seed_same_inputs(workload):
    lib = run.import_gacalc()
    assert repr(workload.setup(lib, 5)) == repr(workload.setup(lib, 5))
    assert repr(workload.setup(lib, 5)) != repr(workload.setup(lib, 6))


def test_traced_run_reports_every_layer_metric_and_restores_gacalc():
    result = run.measure(SMALL[2], seed=1, seconds=0, trace=True)
    layers = run.per_layer(result)
    assert set(layers) == set(run.PER_LAYER)
    assert layers["circuit.run_netlist.calls"] == 2**6
    assert layers["core.reorder_sign.calls"] > 0
    assert layers["factoring.terms_before"] == 2**6
    core = sys.modules["gacalc.core"]
    assert not hasattr(core.reorder_sign, "__wrapped__")
    assert not hasattr(core.Multivector.__init__, "__wrapped__")


def test_clock_scales_by_the_loops_around_each_block(monkeypatch):
    loop_times = iter([0.2, 0.6])
    monkeypatch.setattr(run, "calibrate", lambda: next(loop_times))
    clock = run.Clock()
    value, wall, scaled = clock.time(lambda: "done")
    assert value == "done"
    assert scaled == pytest.approx(wall * run.REF_SECONDS / 0.4)


def test_bubble_sort_sign():
    e1, e2 = 0b01, 0b10
    assert oracles.bubble_product(e1 | e2, e1) == (e2, -1)
    assert oracles.bubble_product(e1, e1 | e2) == (e2, 1)
    lib = run.import_gacalc()
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.getrandbits(24), rng.getrandbits(24)
        assert oracles.bubble_product(a, b) == lib.core.blade_mul(a, b)


def test_stepper_agrees_with_direct_simulation():
    lib = run.import_gacalc()
    h = lib.halting
    for spec, path in zip(h.bundled_machines(), sorted(HaltCorpus().machine_dir(lib).glob("*.json"))):
        machine = oracles.Machine.load(path)
        for head in range(4):
            for tape in range(16):
                expected, _ = h.run_direct(spec, h.Config(tape, head, 4), 6)
                assert machine.halts_within(tape, head, 4, 6) == expected, spec.name


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "factor-fast",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
