"""Answers computed apart from gacalc, used to check every benchmark op.

Nothing here imports gacalc: each function recomputes its answer from the
raw inputs with plain host arithmetic, so a fault in the engine cannot hide
in the reference.
"""
from __future__ import annotations

import json
from pathlib import Path


def brute_filter(database, a: int, b: int) -> set[int]:
    """Elements of the database that satisfy ``x mod a == b``."""
    return {x for x in database if x % a == b}


def trial_divisors(z: int) -> list[int]:
    """Every positive divisor of ``z``, ascending, by trial division."""
    return [d for d in range(1, z + 1) if z % d == 0]


def product_pairs(z: int, n: int) -> int:
    """Number of operand pairs ``(x, y)`` in ``[0, 2^n)^2`` with ``x*y == z``."""
    count = 0
    for y in range(1, 1 << n):
        x = z // y
        if x < 1 << n and x * y == z:
            count += 1
    return count


def _factors(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def bubble_product(a: int, b: int) -> tuple[int, int]:
    """Blade product ``e_A e_B`` as ``(mask, sign)`` by explicit bubble sort.

    The factor list of A followed by that of B is sorted by adjacent swaps,
    each swap of two distinct basis vectors flipping the sign; equal
    neighbours then contract to +1 (Euclidean signature).
    """
    seq = _factors(a) + _factors(b)
    swaps = 0
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
    mask = 0
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            i += 2
        else:
            mask |= 1 << seq[i]
            i += 1
    return mask, -1 if swaps & 1 else 1


def product_coefficient(a_terms, b_terms, mask: int):
    """Coefficient of blade ``mask`` in the product of two term maps.

    Sums every pair whose bubble-sorted product lands on ``mask``; the
    partner of ``e_A`` is found as the blade whose factor set completes it.
    """
    total = 0
    for ma, ca in a_terms.items():
        mb = ma ^ mask
        cb = b_terms.get(mb)
        if cb is None:
            continue
        _, sign = bubble_product(ma, mb)
        total += sign * ca * cb
    return total


def reverse_terms(terms) -> dict:
    """Term map of the reversion: grade-k blades pick up (-1)^(k(k-1)/2)."""
    out = {}
    for mask, c in terms.items():
        k = bin(mask).count("1")
        out[mask] = -c if k * (k - 1) // 2 % 2 else c
    return out


class Machine:
    """A Turing machine read straight from its JSON file.

    Follows the README's machine format: ``reject`` defaults to the smallest
    halt state; halted states are fixed points; a head that would leave the
    tape keeps its cell, its write stands, and control goes to ``reject``.
    """

    def __init__(self, data: dict):
        self.start = int(data["start"])
        self.halt = {int(h) for h in data["halt_states"]}
        self.reject = int(data["reject"]) if "reject" in data else min(self.halt)
        self.table = {
            (int(t["state"]), int(t["read"])): (
                int(t["write"]),
                1 if str(t["move"]).upper() == "R" else -1,
                int(t["next"]),
            )
            for t in data["transitions"]
        }

    @classmethod
    def load(cls, path: Path) -> "Machine":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def halts_within(self, tape: int, head: int, cells: int, steps: int) -> bool:
        """Does the machine reach a halt state within ``steps`` steps?"""
        state = self.start
        for _ in range(steps):
            if state in self.halt:
                return True
            write, move, nxt = self.table[(state, tape >> head & 1)]
            tape = tape | 1 << head if write else tape & ~(1 << head)
            if 0 <= head + move < cells:
                head += move
                state = nxt
            else:
                state = self.reject
        return state in self.halt
