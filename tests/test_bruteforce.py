"""Tests for the exhaustive small-instance oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import enumerate_tiny_frontier

from membound import (
    DiscreteDistribution,
    DomainError,
    EnumerationTooLargeError,
    FieldVector,
    ParetoPoint,
    TinyTesterSpec,
    exhaustive_fpr,
    f_p,
    memory_lower_bound,
    optimal_tiny_tester,
)

B = DiscreteDistribution.bernoulli


class TestExhaustiveFpr:
    def test_zero_vector_accepts_everything(self):
        y = FieldVector(2, (0, 0, 0))
        assert exhaustive_fpr(y) == Fraction(1)

    def test_gf2_example(self):
        y = FieldVector(2, (1, 0, 1))
        assert exhaustive_fpr(y) == Fraction(1, 2)

    def test_gf3_example(self):
        y = FieldVector(3, (1, 2))
        assert exhaustive_fpr(y) == Fraction(1, 3)

    def test_every_nonzero_vector_accepts_one_in_q(self):
        for q in (2, 3, 5):
            for m in (1, 2, 3, 4):
                for coords in itertools.product(range(q), repeat=m):
                    if not any(coords):
                        continue
                    got = exhaustive_fpr(FieldVector(q, coords))
                    assert got == Fraction(1, q)
                    assert isinstance(got, Fraction)

    def test_multi_chunk_enumeration(self):
        # 2**21 rows span several enumeration chunks.
        y = FieldVector(2, (1,) + (0,) * 20)
        assert exhaustive_fpr(y) == Fraction(1, 2)

    def test_instance_size_limit(self):
        with pytest.raises(EnumerationTooLargeError):
            exhaustive_fpr(FieldVector(2, (1,) * 25))
        with pytest.raises(EnumerationTooLargeError):
            exhaustive_fpr(FieldVector(5, (1,) * 11))


class TestTinyTesterSpec:
    def test_valid_instance(self):
        spec = TinyTesterSpec(4, 1, 1)
        assert spec.states == 2
        # 2**4 initializers x 8 cells x (4 keys + 1)
        assert spec.knapsack_steps == 2**4 * 8 * 5

    def test_key_sets_lexicographic(self):
        spec = TinyTesterSpec(4, 2, 1)
        assert spec.key_sets == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_field_bounds(self):
        with pytest.raises(DomainError):
            TinyTesterSpec(4, 1, 4)
        with pytest.raises(DomainError):
            TinyTesterSpec(4, 1, -1)
        with pytest.raises(DomainError):
            TinyTesterSpec(4, 0, 1)
        with pytest.raises(DomainError):
            TinyTesterSpec(4, 4, 1)  # n must stay below u
        with pytest.raises(DomainError):
            TinyTesterSpec(9, 1, 1)
        with pytest.raises(DomainError):
            TinyTesterSpec(4.0, 1, 1)

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationTooLargeError):
            TinyTesterSpec(8, 1, 3)
        with pytest.raises(EnumerationTooLargeError):
            TinyTesterSpec(7, 1, 2)  # 4**7 * 28 * 8 > 10**6 knapsack steps
        # The guard counts the knapsack's work, not the 4**6 * 2**16 tables.
        assert TinyTesterSpec(4, 2, 2).knapsack_steps == 4**6 * 16 * 13


def _oracle_specs():
    """Every guard-admitted spec with at most 2**22 testers, plus (4,1,2)."""
    specs = []
    for u, n, bits in itertools.product(range(2, 9), range(1, 4), range(4)):
        try:
            spec = TinyTesterSpec(u, n, bits)
        except (DomainError, EnumerationTooLargeError):
            continue
        testers = spec.states ** len(spec.key_sets) * 2 ** (spec.states * spec.u)
        if testers <= 2**22:
            specs.append(spec)
    return specs + [TinyTesterSpec(4, 1, 2)]


def _recomputed_errors(spec, point):
    """Re-score a witness tester with exact arithmetic, from scratch."""
    misses = 0
    accepts = 0
    for key_set, state in zip(spec.key_sets, point.init):
        members = set(key_set)
        for element in range(spec.u):
            answer = point.table[state][element]
            if element in members:
                misses += 1 - answer
            else:
                accepts += answer
    count = len(spec.key_sets)
    return (
        Fraction(misses, count * spec.n),
        Fraction(accepts, count * (spec.u - spec.n)),
    )


class TestOptimalTinyTester:
    def test_one_bit_separates_two_singletons(self):
        frontier = optimal_tiny_tester(TinyTesterSpec(2, 1, 1))
        assert len(frontier) == 1
        assert (frontier[0].eps_K, frontier[0].eps_N) == (0, 0)

    def test_enough_states_drive_errors_to_zero(self):
        for spec in (TinyTesterSpec(3, 1, 2), TinyTesterSpec(4, 1, 2)):
            frontier = optimal_tiny_tester(spec)
            assert [(pt.eps_K, pt.eps_N) for pt in frontier] == [(0, 0)]

    def test_stateless_frontier_is_the_acceptance_size_family(self):
        frontier = optimal_tiny_tester(TinyTesterSpec(4, 1, 0))
        got = [(pt.eps_K, pt.eps_N) for pt in frontier]
        expected = [
            (Fraction(4 - a, 4), Fraction(a, 4)) for a in range(5)
        ]
        assert got == sorted(expected)

    def test_one_bit_four_universe_frontier(self):
        frontier = optimal_tiny_tester(TinyTesterSpec(4, 1, 1))
        got = [(pt.eps_K, pt.eps_N) for pt in frontier]
        assert got == [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(1, 4), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1, 6)),
            (Fraction(3, 4), Fraction(0)),
        ]

    def test_witnesses_reproduce_reported_errors(self):
        for spec in (
            TinyTesterSpec(2, 1, 1),
            TinyTesterSpec(4, 1, 0),
            TinyTesterSpec(4, 1, 1),
            TinyTesterSpec(4, 2, 1),
            TinyTesterSpec(5, 1, 1),
        ):
            for point in optimal_tiny_tester(spec):
                assert _recomputed_errors(spec, point) == (
                    point.eps_K,
                    point.eps_N,
                )

    def test_frontier_shape(self):
        for spec in (TinyTesterSpec(4, 1, 1), TinyTesterSpec(4, 2, 1)):
            frontier = optimal_tiny_tester(spec)
            for pt in frontier:
                assert 0 <= pt.eps_K <= 1 and 0 <= pt.eps_N <= 1
            for a, b in zip(frontier, frontier[1:]):
                assert b.eps_K > a.eps_K
                assert b.eps_N < a.eps_N

    @pytest.mark.parametrize(
        "spec", _oracle_specs(), ids=lambda s: f"{s.u}-{s.n}-{s.memory_bits}"
    )
    def test_matches_enumeration_of_every_tester(self, spec):
        # Witnesses included: the first (init, table id) with the least FPR.
        assert optimal_tiny_tester(spec) == enumerate_tiny_frontier(spec)

    def test_deterministic(self):
        spec = TinyTesterSpec(4, 2, 1)
        assert optimal_tiny_tester(spec) == optimal_tiny_tester(spec)

    def test_no_tester_beats_the_memory_bound(self):
        # Every enumerated tester's exact binary output laws must respect
        # the information bound: memory_bits >= the total-bit lower bound
        # at key density n/u.  The (2,1,1) perfect tester makes this
        # non-vacuous: its bound is 0.5 bits.
        nonvacuous = 0.0
        for spec in (
            TinyTesterSpec(2, 1, 1),
            TinyTesterSpec(4, 1, 0),
            TinyTesterSpec(4, 1, 1),
            TinyTesterSpec(4, 2, 1),
            TinyTesterSpec(3, 1, 2),
        ):
            p = spec.n / spec.u
            for pt in optimal_tiny_tester(spec):
                mu_K = B(1.0 - float(pt.eps_K))
                mu_N = B(float(pt.eps_N))
                bound = memory_lower_bound(spec.n, f_p(p, mu_K, mu_N))
                assert spec.memory_bits >= bound
                nonvacuous = max(nonvacuous, bound)
        assert nonvacuous > 0.0
