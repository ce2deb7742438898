"""One-off timings of the ROADMAP baseline points that finish within a minute.

    python3 bench/baseline.py

Runs each point once, checks its answer against :mod:`oracles`, and prints
its wall time.  These are single samples on whatever machine runs them;
the steady, repeated figures come from ``run.py``.
"""
from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

import oracles
from run import SetupError, import_gacalc


def fast_n10(lib):
    z = 1001
    out = lib.factoring.factor_pipeline(z, 10, route="fast")
    return out["divisors"] == oracles.trial_divisors(z)


def faithful_n6(lib):
    z = 60
    out = lib.factoring.factor_pipeline(z, 6, route="faithful")
    return out["divisors"] == oracles.trial_divisors(z)


def search_2_20(lib):
    database = range(1 << 20)
    matches, _ = lib.search.run_search(database, lambda x: x % 5 == 2, 20)
    return matches == oracles.brute_filter(database, 5, 2)


def product_1000_dim40(lib):
    rng = random.Random(0)
    operands = []
    for _ in range(2):
        terms = {}
        while len(terms) < 1000:
            terms[rng.getrandbits(40)] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        operands.append(lib.core.Multivector(40, terms))
    a, b = operands
    product = a * b
    mask, _ = oracles.bubble_product(next(iter(a.terms)), next(iter(b.terms)))
    return product.coefficient(mask) == oracles.product_coefficient(dict(a.terms), dict(b.terms), mask)


POINTS = {
    "factor fast n=10": fast_n10,
    "factor faithful n=6": faithful_n6,
    "run_search over 2^20": search_2_20,
    "1000x1000 product at dim 40": product_1000_dim40,
}


def main() -> int:
    try:
        lib = import_gacalc()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = True
    for name, point in POINTS.items():
        t0 = time.perf_counter()
        correct = point(lib)
        print(f"{name:30s} {time.perf_counter() - t0:8.2f} s  {'ok' if correct else 'WRONG'}")
        ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
