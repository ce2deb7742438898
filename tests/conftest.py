"""Shared fixtures."""
from fractions import Fraction

import pytest

from gacalc.core import Multivector


def _as_fractions(mv: Multivector) -> Multivector:
    return Multivector(mv.dimension, {m: Fraction(c) for m, c in mv.terms.items()})


@pytest.fixture(scope="session")
def as_fractions():
    """The all-``Fraction`` copy of a multivector: the oracle for int coefficients."""
    return _as_fractions
