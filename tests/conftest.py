"""Shared fixtures and the independent oracles the test modules share."""
from fractions import Fraction

import pytest

from gacalc.circuit import nand_apply
from gacalc.core import Multivector


def _as_fractions(mv: Multivector) -> Multivector:
    return Multivector(mv.dimension, {m: Fraction(c) for m, c in mv.terms.items()})


@pytest.fixture(scope="session")
def as_fractions():
    """The all-``Fraction`` copy of a multivector: the oracle for int coefficients."""
    return _as_fractions


def bubble_sign(a: int, b: int) -> int:
    """Oracle: parity of bubble-sorting the concatenated index sequences.

    Equal indices end up adjacent without swapping and contract to +1, so the
    swap count is exactly the number of anticommuting transpositions.
    """
    seq = [i for i in range(a.bit_length()) if a >> i & 1]
    seq += [i for i in range(b.bit_length()) if b >> i & 1]
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
                changed = True
    return -1 if swaps % 2 else 1


def boolean_eval(netlist, values) -> dict[int, int]:
    """Oracle: plain dict-based boolean evaluation, no blades anywhere."""
    bits: dict[int, int] = {}
    for group, value in zip(netlist.input_groups, values):
        for k, place in enumerate(group):
            bits[place] = value >> k & 1
    for g in netlist.gates:
        bits[g.r] = 1 - (bits.get(g.p, 0) & bits.get(g.q, 0))
    return bits


def nand_fold(netlist, memory):
    """Oracle for ``run_netlist``: ``nand_apply`` gate by gate, one sign per write."""
    for g in netlist.gates:
        memory = nand_apply(g, memory)
    return memory
