"""The benchmark's workloads: seeded inputs, one op each, and its check.

Each workload is driven through the public functions a library user or the
CLI calls.  ``setup`` turns a seed into inputs (the program sees only those
inputs), ``op`` makes one call into the pipeline, ``check`` compares the
answer with :mod:`oracles` outside the timed region.  Op ``k`` of a run uses
input variant ``k mod VARIANTS`` so that one run samples several inputs.

The size parameters default to the benchmark's figures; tests pass smaller
ones.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracles

VARIANTS = 8


@dataclass
class Search:
    """``search.run_search`` over distinct ``bits``-bit values, ``x mod a == b``."""

    name = "search"
    bits: int = 20
    size: int = 1 << 17

    def setup(self, lib, seed: int):
        rng = random.Random(seed)
        database = rng.sample(range(1 << self.bits), self.size)
        predicates = []
        for _ in range(VARIANTS):
            a = rng.randrange(40, 120)
            predicates.append((a, rng.randrange(a)))
        return SimpleNamespace(database=database, predicates=predicates)

    def terms(self, inputs) -> int:
        return len(inputs.database)

    def op(self, lib, inputs, k: int):
        a, b = inputs.predicates[k % VARIANTS]
        matches, oracle = lib.search.run_search(
            inputs.database, lambda x: x % a == b, self.bits
        )
        return {"matches": matches, "oracle_evals": oracle.eval_count}

    def check(self, lib, inputs, k: int, answer) -> bool:
        a, b = inputs.predicates[k % VARIANTS]
        return answer["matches"] == oracles.brute_filter(inputs.database, a, b)

    def counts(self, answer) -> dict:
        return {"search.oracle_evals": answer["oracle_evals"]}


@dataclass
class Factor:
    """``factoring.factor_pipeline(z, n, route)`` for seeded targets ``z``."""

    name: str
    n: int
    route: str

    def setup(self, lib, seed: int):
        rng = random.Random(seed)
        return SimpleNamespace(
            targets=[rng.randrange(2, 1 << self.n) for _ in range(VARIANTS)]
        )

    def terms(self, inputs) -> int:
        return 4**self.n

    def op(self, lib, inputs, k: int):
        z = inputs.targets[k % VARIANTS]
        return lib.factoring.factor_pipeline(z, self.n, route=self.route)

    def check(self, lib, inputs, k: int, answer) -> bool:
        z = inputs.targets[k % VARIANTS]
        return (
            answer["divisors"] == oracles.trial_divisors(z)
            and answer["terms_before"] == 4**self.n
            and answer["terms_after"] == oracles.product_pairs(z, self.n)
        )

    def counts(self, answer) -> dict:
        return {
            "factoring.terms_before": answer["terms_before"],
            "factoring.terms_after": answer["terms_after"],
        }


@dataclass
class HaltCorpus:
    """Pipeline 3 over the bundled machines: chains, then three projections.

    One op builds fresh ``TruncationParams`` (a CLI run pays them every
    time), the chained superposition of every (machine, config, state)
    start, its consistency projection, and instance + halt projections for
    ``sample`` seeded (machine, input) instances.
    """

    name = "halt-corpus"
    steps: int = 8
    cells: int = 6
    sample: int = 8

    def machine_dir(self, lib) -> Path:
        return Path(lib.halting.__file__).parent / "machines"

    def setup(self, lib, seed: int):
        specs = lib.halting.bundled_machines()
        rng = random.Random(seed)
        instances = [
            [
                (rng.randrange(len(specs)), rng.randrange(1 << self.cells),
                 rng.randrange(self.cells))
                for _ in range(self.sample)
            ]
            for _ in range(VARIANTS)
        ]
        return SimpleNamespace(specs=specs, instances=instances)

    def terms(self, inputs) -> int:
        states = max(spec.num_states for spec in inputs.specs)
        return len(inputs.specs) * self.cells * (1 << self.cells) * states

    def op(self, lib, inputs, k: int):
        h = lib.halting
        params = h.TruncationParams(inputs.specs, self.steps, self.cells)
        chain = h.build_chained_superposition(params)
        consistent = h.consistency_project(chain, params)
        verdicts = []
        for index, tape, head in inputs.instances[k % VARIANTS]:
            code = h.Config(tape, head, self.cells).code
            selected = h.instance_project(consistent, inputs.specs[index], code, params)
            verdicts.append(not h.halt_project(selected, params).is_zero())
        return {"chain": chain, "consistent": consistent, "verdicts": verdicts}

    def check(self, lib, inputs, k: int, answer) -> bool:
        # The stepper reads the machine files itself, in the loader's order.
        machines = [
            oracles.Machine.load(p) for p in sorted(self.machine_dir(lib).glob("*.json"))
        ]
        expected = [
            machines[index].halts_within(tape, head, self.cells, self.steps)
            for index, tape, head in inputs.instances[k % VARIANTS]
        ]
        chain, consistent = answer["chain"], answer["consistent"]
        return (
            answer["verdicts"] == expected
            and len(chain) == self.terms(inputs)
            and consistent.dimension == chain.dimension
            and dict(consistent.terms) == dict(chain.terms)
        )

    def counts(self, answer) -> dict:
        return {"halting.chain_terms": len(answer["chain"])}


# The high dimension equals the halt-corpus layout at K=8, B=6, so the sign
# kernel sees the blade widths that pipeline produces.
DMAX = 199


@dataclass
class Algebra:
    """``Multivector.geometric_product`` of seeded operands at three widths.

    Low dimension: blades merge heavily, so coefficient accumulation
    dominates.  High dimension: terms almost never merge and the reorder
    sign of wide blades dominates.
    """

    name = "algebra"
    shapes: tuple = ((12, 300), (40, 300), (DMAX, 160))
    sampled: int = 24

    def setup(self, lib, seed: int):
        rng = random.Random(seed)
        operands = []
        for dim, size in self.shapes:
            pair = []
            for _ in range(2):
                terms = {}
                while len(terms) < size:
                    coeff = rng.choice((-1, 1)) * rng.randint(1, 9)
                    terms[rng.getrandbits(dim)] = Fraction(coeff, rng.randint(1, 4))
                pair.append(lib.core.Multivector(dim, terms))
            operands.append(tuple(pair))
        return SimpleNamespace(operands=operands, seed=seed, reversed_products=None)

    def terms(self, inputs) -> int:
        return sum(len(a) * len(b) for a, b in inputs.operands)

    def op(self, lib, inputs, k: int):
        return [a.geometric_product(b) for a, b in inputs.operands]

    def check(self, lib, inputs, k: int, answer) -> bool:
        if inputs.reversed_products is None:
            # rev(b) * rev(a), once per run: the operands never change.
            mv = lib.core.Multivector
            inputs.reversed_products = [
                dict(mv(b.dimension, oracles.reverse_terms(b.terms))
                     .geometric_product(mv(a.dimension, oracles.reverse_terms(a.terms)))
                     .terms)
                for a, b in inputs.operands
            ]
        rng = random.Random(inputs.seed * 1_000_003 + k)
        for (a, b), product, expected_rev in zip(
            inputs.operands, answer, inputs.reversed_products
        ):
            got = dict(product.terms)
            if oracles.reverse_terms(got) != expected_rev:
                return False
            a_terms, b_terms = dict(a.terms), dict(b.terms)
            a_masks, b_masks = sorted(a_terms), sorted(b_terms)
            for _ in range(self.sampled):
                mask, _ = oracles.bubble_product(rng.choice(a_masks), rng.choice(b_masks))
                if oracles.product_coefficient(a_terms, b_terms, mask) != got.get(mask, 0):
                    return False
        return True

    def counts(self, answer) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        Search(),
        Factor("factor-fast", 9, "fast"),
        Factor("factor-faithful", 5, "faithful"),
        HaltCorpus(),
        Algebra(),
    )
}
