"""Shared fixtures and the independent oracles the test modules share."""
from fractions import Fraction

import pytest

from gacalc.circuit import MemoryBlade, nand_apply
from gacalc.core import Multivector, reorder_sign


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


def int_loop_run(netlist, memory):
    """Oracle for ``run_netlist``: the gates on one plain ``int``, P counted per write.

    No target is set at the start, so ``mask ^ start`` is the OR of the writes
    so far, and each write adds to P (the write pairs whose earlier write has
    the lower place) the earlier writes minus those above its place.
    """
    start = memory.mask
    mask = start
    count = below = 0
    for g in netlist.gates:
        if not mask >> g.p & mask >> g.q & 1:
            below += count - ((mask ^ start) >> g.r).bit_count()
            mask |= 1 << g.r
            count += 1
    sign = memory.sign * reorder_sign(mask ^ start, start)
    return MemoryBlade(mask, -sign if below & 1 else sign)


def plane_loop_run(netlist, planes, lanes) -> dict[int, int]:
    """Oracle for ``run_netlist_planes``: every gate as ``full ^ (P & Q)``, in order.

    Each place that is not an output is freed after its last read.
    """
    lo, program = netlist._lo, netlist._program
    full = (1 << lanes) - 1
    outputs = {place - lo for place in netlist.outputs}
    last_read = {}
    for idx, (p, q, _) in enumerate(program):
        last_read[p] = last_read[q] = idx
    wires = {place - lo: plane for place, plane in planes.items()}
    for idx, (p, q, r) in enumerate(program):
        wires[r] = full ^ (wires.get(p, 0) & wires.get(q, 0))
        for place in (p, q):
            if last_read[place] == idx and place not in outputs:
                wires.pop(place, None)
    return {place: wires.get(place - lo, 0) for place in netlist.outputs}


def host_multiply(fl, state: Multivector) -> Multivector:
    """Oracle for ``factoring.multiply_all``: x * y on plain ints, y kept above.

    Fields "0", "1", "2" sit at bits [0, n), [n, 2n), [2n, 3n), so the wide
    product across "0"+"1" is the integer itself.
    """
    n = fl.n
    acc = {}
    for mask, c in state.terms.items():
        x, y = mask & (1 << n) - 1, mask >> 2 * n
        out = x * y | y << 2 * n
        acc[out] = acc.get(out, 0) + c
    return Multivector(fl.dimension, acc)
