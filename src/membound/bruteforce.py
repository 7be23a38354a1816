"""Small-instance oracles that certify the theory by exact counting.

``exhaustive_fpr`` enumerates every possible hash row and counts exactly
how many a filter vector accepts — no sampling, no closed form — so it
independently witnesses the 1/q false-positive rate.

``optimal_tiny_tester`` finds the exact error frontier of every
deterministic membership tester at tiny universe/key/memory sizes: every
assignment of key sets to memory states and every acceptance table,
scored by its exact average false-negative and false-positive rates over
a uniformly random key set.  It enumerates the state assignments and, for
each, solves the choice of table exactly as a 0/1 knapsack over the
(state, element) cells instead of enumerating the tables.  The returned
Pareto frontier bounds what any tester of that memory size can achieve,
which lets the analytic memory lower bound be checked against ground
truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, EnumerationTooLargeError
from .galois import FieldVector

__all__ = [
    "TinyTesterSpec",
    "ParetoPoint",
    "exhaustive_fpr",
    "optimal_tiny_tester",
]

_MAX_KNAPSACK_STEPS = 10**6
_MAX_ROW_BITS = 24


def exhaustive_fpr(y: FieldVector) -> Fraction:
    """Exact acceptance fraction of ``y`` over all q**m hash rows.

    Counts the rows ``h`` with ``<h, y> = 0`` by full enumeration and
    returns the exact rational count / q**m: 1/q for every nonzero ``y``
    and 1 for ``y = 0``.  Refuses instances beyond 2**24 rows.
    """
    q, m = y.q, len(y)
    if m * math.log2(q) > _MAX_ROW_BITS + 1e-9:
        raise EnumerationTooLargeError(
            f"q**m = {q}**{m} exceeds the 2**{_MAX_ROW_BITS} row enumeration limit"
        )
    total = q**m
    count = 0
    chunk = 1 << 20
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        acc = np.zeros(ids.shape[0], dtype=np.int64)
        for j in range(m):
            digit = (ids // q**j) % q
            acc = (acc + digit * y.array[j]) % q
        count += int((acc == 0).sum())
    return Fraction(count, total)


@dataclass(frozen=True)
class TinyTesterSpec:
    """A tiny membership-testing instance small enough to enumerate.

    ``universe`` elements are 0..u-1; key sets are the n-subsets in
    lexicographic order; a tester is an assignment of each key set to one
    of ``2**memory_bits`` states plus a 0/1 acceptance table over
    (state, element) cells.
    """

    u: int
    n: int
    memory_bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.u, int) or not isinstance(self.n, int):
            raise DomainError("u and n must be integers")
        if not isinstance(self.memory_bits, int) or not 0 <= self.memory_bits <= 3:
            raise DomainError(
                f"memory_bits {self.memory_bits!r} must be an integer in [0, 3]"
            )
        if not 1 <= self.n <= 3:
            raise DomainError(f"key size n={self.n!r} must be in [1, 3]")
        if not self.n < self.u <= 8:
            raise DomainError(
                f"universe size u={self.u!r} must satisfy n < u <= 8"
            )
        if self.knapsack_steps > _MAX_KNAPSACK_STEPS:
            raise EnumerationTooLargeError(
                f"{self.knapsack_steps} knapsack steps exceed the "
                f"{_MAX_KNAPSACK_STEPS} limit"
            )

    @property
    def states(self) -> int:
        return 1 << self.memory_bits

    @property
    def key_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.combinations(range(self.u), self.n))

    @property
    def knapsack_steps(self) -> int:
        """The frontier search's work: initializers x cells x (total keys + 1)."""
        count = math.comb(self.u, self.n)
        return self.states**count * self.states * self.u * (count * self.n + 1)


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto-minimal (FNR, FPR) pair with its witnessing tester.

    ``init`` assigns a state to each key set (in ``TinyTesterSpec.key_sets``
    order); ``table[state][element]`` is the 0/1 acceptance answer.
    """

    eps_K: Fraction
    eps_N: Fraction
    init: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]


def _cell_weights(
    spec: TinyTesterSpec, init: tuple[int, ...]
) -> tuple[list[int], list[int]]:
    """Per-(state, element) counts of key and non-key occurrences."""
    cells = spec.states * spec.u
    key_w = [0] * cells
    non_w = [0] * cells
    for key_set, state in zip(spec.key_sets, init):
        members = set(key_set)
        base = state * spec.u
        for element in range(spec.u):
            if element in members:
                key_w[base + element] += 1
            else:
                non_w[base + element] += 1
    return key_w, non_w


def optimal_tiny_tester(spec: TinyTesterSpec) -> list[ParetoPoint]:
    """Exact error frontier over every deterministic tiny tester.

    Covers all ``states**C(u,n)`` state assignments and all
    ``2**(states*u)`` acceptance tables, scoring each tester by its exact
    average error pair over a uniformly random key set, and returns the
    Pareto-minimal pairs sorted by increasing FNR.  Witnesses are
    deterministic: the first (init, table) in enumeration order, tables
    ordered by their id ``sum(table[s][e] << (s*u + e))``.

    With the initializer fixed, a table's missed keys and accepted non-keys
    are sums over independent (state, element) cells, so the tables are not
    enumerated: a 0/1 knapsack over the cells gives, for every accepted-key
    count K, the fewest accepted non-keys, and the smallest table id
    reaching that optimum is rebuilt from the knapsack's prefix rows.
    """
    u, n = spec.u, spec.n
    count = math.comb(u, n)
    cells = spec.states * u
    total_keys = count * n

    # fnr numerator -> (fpr numerator, init, table id), first witness kept
    best: dict[int, tuple[int, tuple[int, ...], int]] = {}
    for init in itertools.product(range(spec.states), repeat=count):
        key_w, non_w = _cell_weights(spec, init)
        # rows[c][K]: fewest non-keys accepted by a subset of cells 0..c-1
        # that accepts exactly K keys (inf when none does).
        rows = [[0] + [math.inf] * total_keys]
        for kw, nw in zip(key_w, non_w):
            prev = rows[-1]
            row = prev[:]
            for k in range(kw, total_keys + 1):
                row[k] = min(prev[k], prev[k - kw] + nw)
            rows.append(row)
        for accepted, fpr in enumerate(rows[cells]):
            fnr = total_keys - accepted
            if fpr >= best.get(fnr, (math.inf,))[0]:
                continue
            # Smallest table id: from the top cell down, leave a cell off
            # whenever the lower cells alone still reach the optimum.  Every
            # subset of them needs at least rows[c][k] non-keys for k keys,
            # so turning a cell on is forced exactly when that exceeds the
            # remaining budget.
            table_id, k, nonkeys = 0, accepted, fpr
            for c in reversed(range(cells)):
                if rows[c][k] != nonkeys:
                    table_id |= 1 << c
                    k -= key_w[c]
                    nonkeys -= non_w[c]
            best[fnr] = (fpr, init, table_id)

    frontier: list[ParetoPoint] = []
    lowest_fpr = None
    for fnr_value in sorted(best):
        fpr_value, init, table_id = best[fnr_value]
        if lowest_fpr is not None and fpr_value >= lowest_fpr:
            continue
        lowest_fpr = fpr_value
        table = tuple(
            tuple((table_id >> (state * u + element)) & 1 for element in range(u))
            for state in range(spec.states)
        )
        frontier.append(
            ParetoPoint(
                eps_K=Fraction(fnr_value, total_keys),
                eps_N=Fraction(fpr_value, count * (u - n)),
                init=tuple(init),
                table=table,
            )
        )
    return frontier
