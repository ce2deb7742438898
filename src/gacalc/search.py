"""Database search by one oracle application and one filtered readout.

The data field is the first n dimensions and coding is LSB-first, so a
value x is coded as the mask x itself.  One extra dimension above it plays
the oracle flag, ``flag = 1 << n``, and a blade's data value is
``mask & ~flag``.  Each database element x contributes the two-term pattern
``x * (1 - e_flag)``, the blades ``x`` and ``x | flag``, which the oracle
operator scales by (-1)^f(x), so the half-difference filter keeps exactly
the marked elements and the answer is read straight off the surviving data
blades.

Toggling the flag dimension is sign-free because it is the highest index in
the layout: appending or removing the final factor of an ascending blade
crosses no other factors.

The oracle O is therefore a permutation of blades and an involution: it
swaps ``lo`` and ``lo | flag`` when ``lo`` codes a marked x and fixes both
otherwise.  With s[m] the state's coefficient on blade m, the filter
(s - O(s)) / 2 is 0 on an unmarked pair and, on a marked pair, ``d/2`` on
``lo`` and ``-d/2`` on ``lo | flag`` with ``d = s[lo] - s[lo | flag]``.
``half_difference_filter`` is that definition, built from O(s) in full.

On a database state every pair holds ``s[lo] = 1`` and ``s[lo | flag] = -1``,
so d = 2 and the pair becomes ``1, -1`` on a marked x and cancels otherwise:
(S - O(S)) / 2 is ``{lo: 1, lo | flag: -1}`` for each marked x and nothing
else.  ``filter_marked`` writes exactly that from the values, one predicate
call per value, without building S.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Collection, Iterable

from .core import EncodingRangeError, Multivector, check_terms


class MembershipOracle:
    """Black-box 0/1 predicate with audit counters.

    ``op_count`` increments once per whole-operator application;
    ``eval_count`` counts pointwise predicate evaluations; within one
    operator application each distinct argument is paid for at most once.
    """

    def __init__(self, f: Callable[[int], int]):
        self._f = f
        self.eval_count = 0
        self.op_count = 0

    def evaluate(self, x: int) -> int:
        self.eval_count += 1
        return 1 if self._f(x) else 0

    def marked(self, values: Collection[int]) -> list[int]:
        """The values with f(x) = 1, in iteration order; one evaluation each."""
        self.eval_count += len(values)
        return list(filter(self._f, values))


class SearchLayout:
    """n data dimensions, x coded as the mask x, plus the oracle flag at index n."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("data width must be positive")
        self.n = n
        self.oracle_dim = n
        self.dimension = n + 1


def _database_values(elements: Iterable[int], sl: SearchLayout) -> set[int]:
    """The distinct database values, checked before any term is built.

    The two terms per value are checked against ``core.MAX_TERMS`` first.
    The range is checked in one pass: the OR of the values is negative or
    wider than n bits exactly when some value is, and only then are the
    smallest and largest taken, to name the value that does not fit.  Every
    value is then coded as the mask x directly.
    """
    values = set(elements)
    check_terms(2 * len(values), "search state")
    spread = reduce(or_, values, 0)
    if spread < 0 or spread >> sl.n:
        x = min(values)
        x = x if x < 0 else max(values)
        raise EncodingRangeError(f"value {x} does not fit {sl.n}-bit field 'data'")
    return values


def _pair_state(values: Iterable[int], sl: SearchLayout) -> Multivector:
    """``x * (1 - e_flag)`` summed over already checked values."""
    flag = 1 << sl.oracle_dim
    terms: dict[int, int] = {}
    for x in values:
        terms[x] = 1
        terms[x | flag] = -1
    return Multivector._raw(sl.dimension, terms)


def build_initial_state(elements: Iterable[int], sl: SearchLayout) -> Multivector:
    """Superpose ``x * (1 - e_flag)`` over every database element x."""
    return _pair_state(_database_values(elements, sl), sl)


def apply_oracle(oracle: MembershipOracle, state: Multivector, sl: SearchLayout) -> Multivector:
    """One oracle-operator application: toggle the flag on every marked term.

    Per term, the data value ``x = mask & ~flag`` is read and the flag
    dimension's membership is flipped iff f(x) = 1; coefficients are
    untouched.  Pointwise f calls are memoized for the duration of this
    application.
    """
    if state.dimension != sl.dimension:
        raise ValueError("state does not live in this search layout")
    oracle.op_count += 1
    memo: dict[int, int] = {}
    flag = 1 << sl.oracle_dim

    def toggle(mask: int) -> tuple[int, int]:
        x = mask & ~flag
        fx = memo.get(x)
        if fx is None:
            fx = memo[x] = oracle.evaluate(x)
        return (mask ^ flag if fx else mask), 1

    return state.map_blades(toggle)


def half_difference_filter(oracle: MembershipOracle, state: Multivector, sl: SearchLayout) -> Multivector:
    """The projector (state - oracle(state)) / 2; one oracle-operator application.

    Its definition, built in full: f is evaluated once per distinct data
    value, as ``apply_oracle`` memoizes within one application, and every
    coefficient is a ``Fraction``.  On database states it keeps exactly the
    marked elements' term patterns.
    """
    return (state - apply_oracle(oracle, state, sl)).scale(Fraction(1, 2))


def filter_marked(oracle: MembershipOracle, elements: Iterable[int], sl: SearchLayout) -> Multivector:
    """The marked part of the database state; one oracle-operator application.

    Equal to ``half_difference_filter(oracle, build_initial_state(elements,
    sl), sl)``, counters and errors included, but written straight from the
    values: f is evaluated once per distinct value and each marked x gets
    ``lo -> 1``, ``lo | flag -> -1``.  The database state is never built.
    """
    values = _database_values(elements, sl)
    oracle.op_count += 1
    return _pair_state(oracle.marked(values), sl)


def extract_matches(state: Multivector, sl: SearchLayout) -> set[int]:
    """Read the data field, ``mask & ~(-1 << n)``, of every term, deduplicated."""
    data = ~(-1 << sl.n)
    return {mask & data for mask in state.masks()}


def run_search(elements: Iterable[int], f: Callable[[int], int], n: int) -> tuple[set[int], MembershipOracle]:
    """Full pipeline: one filtered oracle pass over the values, then the readout."""
    sl = SearchLayout(n)
    oracle = MembershipOracle(f)
    kept = filter_marked(oracle, elements, sl)
    return extract_matches(kept, sl), oracle
