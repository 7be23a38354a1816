"""Acceptance suite: end-to-end checks with explicit tolerances and runtimes.

Two tests pin reference constants worked out from closed forms with plain
``math``, independently of the library:

- the log-loss solver rate at ``p = 1e-3`` for budgets ``(0.1, 0.2)`` is
  pinned to 3.548182, the price ``f_p`` at that ``p`` of the closed-form
  pair ``mu_K = delta_{x*}``, ``mu_N = (1-q*) delta_0 + q* delta_{x*}``
  (``x* = e^-0.1``, ``q* = 0.2 / -ln(1-x*)``), which meets both budgets with
  equality, so the optimal rate cannot exceed it;
- the small-density expansion at ``(0.1, 0.1, p=0.01)`` is pinned to
  2.484644, ``0.8*log2(9) - 0.01 * (64/9) / (2 ln 2)``: the sparse-limit KL
  rate minus ``p`` times the slope ``chi^2(Bern(0.9) || Bern(0.1)) / (2 ln 2)``.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    binary_corner_rate,
    direct_f_p,
    random_distribution,
    random_pair_shared_support,
)

from membound import (
    DiscreteDistribution,
    ErrorMetric,
    FieldVector,
    TinyTesterSpec,
    binarize,
    build,
    chi_squared,
    cli,
    derive_params,
    deserialize,
    exhaustive_fpr,
    f_p,
    f_p_derivative,
    first_order_rate,
    measure_rates,
    memory_lower_bound,
    optimal_binary,
    optimal_logloss,
    optimal_tiny_tester,
    query_many,
    random_bytes_sampler,
    rp_binary_oracle,
    serialize,
    solve_rp,
    wasserstein1,
)

B = DiscreteDistribution.bernoulli


@pytest.fixture(scope="module")
def logloss_point_1e3():
    start = time.perf_counter()
    point = solve_rp(
        1e-3, ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey(), 0.1, 0.2
    )
    return point, time.perf_counter() - start


class TestClosedFormBinaryRates:
    def test_rates_and_runtime(self):
        cases = {0.5: 1.0, 0.25: 2.0, 2.0**-10: 10.0}
        optimal_binary(0.0, 0.5)  # warm
        # Best of 5 repeats: one timing of three calls is at the mercy of
        # a clock-speed switch or a preemption.
        elapsed = math.inf
        for _ in range(5):
            start = time.perf_counter()
            rates = {eps_N: optimal_binary(0.0, eps_N).rate_bits_per_key for eps_N in cases}
            elapsed = min(elapsed, time.perf_counter() - start)
        for eps_N, expected in cases.items():
            assert rates[eps_N] == pytest.approx(expected, abs=1e-9)
            assert expected == math.log2(1.0 / eps_N)
        assert elapsed < 1e-3

    def test_cli_agrees(self, capsys):
        rc = cli.main(
            ["optimal", "binary", "--eps-k", "0", "--eps-n", "0.0009765625", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rate_bits_per_key"] == pytest.approx(10.0, abs=1e-9)


class TestLogLossSolverAgainstClosedForm:
    def test_score_law_convergence_and_runtime(self, logloss_point_1e3):
        point, seconds = logloss_point_1e3
        closed = optimal_logloss(0.1, 0.2)
        assert wasserstein1(point.mu_N, closed.mu_N) < 0.02
        assert seconds < 10.0

    def test_rate_matches_pinned_reference(self, logloss_point_1e3):
        # Reference 3.548182: f_p at p = 1e-3 of the closed-form pair
        # mu_K = delta_{x*}, mu_N = (1-q*) delta_0 + q* delta_{x*}, with
        # x* = e^-0.1 and q* = 0.2 / -ln(1-x*) = 0.0850279235, which meets
        # both log-loss budgets with equality.  On the two atoms {0, x*}
        # the mixture is mu_p = ((1-p)(1-q*), p + (1-p) q*), and
        # f_p = KL(mu_K || mu_p) + ((1-p)/p) KL(mu_N || mu_p)
        #     = 3.5481822961 bits per key.
        # The p -> 0 limit -log2(q*) = 3.5559195 lies 2.2e-3 relative above
        # it, so a solver returning the sparse limit fails this check.
        point, _ = logloss_point_1e3
        assert abs(point.rate_bits_per_key - 3.548182) <= 1e-3 * 3.548182


class TestSmallDensityExpansion:
    def test_slope_within_twenty_percent(self):
        fnr, fpr = ErrorMetric.fnr(), ErrorMetric.fpr()
        start = time.perf_counter()
        r1 = solve_rp(1e-3, fnr, fpr, 0.1, 0.1).rate_bits_per_key
        r2 = solve_rp(2e-3, fnr, fpr, 0.1, 0.1).rate_bits_per_key
        elapsed = time.perf_counter() - start
        slope = (r2 - r1) / 1e-3
        # -chi^2(Bern(0.9) || Bern(0.1)) / (2 ln 2)
        #   = -(0.8^2/0.1 + 0.8^2/0.9) / (2 ln 2) = -(64/9) / (2 ln 2).
        assert abs(slope - (-5.129582)) <= 0.2 * 5.129582
        assert slope == pytest.approx(
            -chi_squared(B(0.9), B(0.1)) / (2.0 * math.log(2.0)), rel=0.2
        )
        assert elapsed < 30.0

    def test_first_order_matches_pinned_reference(self):
        # Reference 2.484644: KL(Bern(0.9) || Bern(0.1)) - p * slope
        #   = 0.8*log2(9) - 0.01 * (64/9) / (2 ln 2) = 2.4846441775,
        # rounded to six decimals (1.8e-7 from the exact value).
        assert abs(first_order_rate(0.1, 0.1, 0.01) - 2.484644) <= 1e-6


# 48 FNR/FPR points: p in (0.5, 0.1, 0.01), budgets in {0, 0.05, 0.1, 0.25}.
_BINARY_SWEEP = [
    (p, eps_K, eps_N)
    for p in (0.5, 0.1, 0.01)
    for eps_K in (0.0, 0.05, 0.1, 0.25)
    for eps_N in (0.0, 0.05, 0.1, 0.25)
]


class TestSolverOracleAgreement:
    def test_sweep_within_absolute_tolerance(self):
        fnr, fpr = ErrorMetric.fnr(), ErrorMetric.fpr()
        start = time.perf_counter()
        for p, eps_K, eps_N in _BINARY_SWEEP:
            rate = solve_rp(p, fnr, fpr, eps_K, eps_N).rate_bits_per_key
            oracle = binary_corner_rate(p, eps_K, eps_N)
            assert abs(rate - oracle) <= 1e-7, (p, eps_K, eps_N)
        assert time.perf_counter() - start < 120.0

    def test_grid_oracle_sits_at_the_corner(self):
        # The brute-force grid scan's minimum is the corner of its box, so
        # the corner value is the same oracle.
        for p, eps_K, eps_N in _BINARY_SWEEP:
            grid = rp_binary_oracle(p, eps_K, eps_N, 200)
            assert abs(grid - binary_corner_rate(p, eps_K, eps_N)) <= 1e-12, (p, eps_K, eps_N)


class TestFilterExactness:
    def test_exact_fpr_and_built_filter_rates(self):
        start = time.perf_counter()
        import itertools

        for q in (2, 3, 5):
            for m in (1, 2, 3, 4):
                for coords in itertools.product(range(q), repeat=m):
                    if any(coords):
                        assert exhaustive_fpr(FieldVector(q, coords)) == Fraction(
                            1, q
                        )

        params = derive_params(1000, 0, 0.5, 2026)
        keys = [b"acc5-%d" % i for i in range(1000)]
        state, report = build(params, keys)
        assert report.success and report.satisfied_keys == 1000

        from functools import partial

        rates = measure_rates(
            partial(query_many, state), keys, random_bytes_sampler(9, 8), 100_000
        )
        assert rates.fnr_hat == 0.0
        assert abs(rates.fpr_hat - 0.5) <= 0.00474

        assert report.bits_payload == 1100
        bits_per_key = report.bits_payload / params.n
        assert bits_per_key == 1.1
        # Overhead over the 1.0 bits/key information bound is the designed
        # slack t_n / n = 100/1000.
        assert bits_per_key - 1.0 == pytest.approx(0.1, abs=1e-12)
        assert time.perf_counter() - start < 10.0


class TestGeneralFieldBuildRuntime:
    def test_one_sided_q3_build_of_800_keys(self):
        params = derive_params(800, 0, 1.0 / 3.0, 2026)
        assert params.m == 855
        keys = [b"acc9-%d" % i for i in range(800)]
        start = time.perf_counter()
        _, report = build(params, keys)
        elapsed = time.perf_counter() - start
        assert report.success and report.satisfied_keys == 800
        # The blocked elimination builds this in about 0.37 s on 2 cores; a
        # per-column rank-1 elimination takes about 3.1 s.  The cap leaves
        # room for 45% swings in host speed and still catches the latter.
        assert elapsed < 2.0


class TestTwoSidedBuildYield:
    def test_hundred_seeded_key_sets(self):
        start = time.perf_counter()
        successes = 0
        for trial in range(100):
            params = derive_params(12, Fraction(1, 4), 0.5, trial)
            assert params.m == 8
            assert params.threshold == 9
            keys = [b"acc6-%d-%d" % (trial, i) for i in range(12)]
            state, report = build(params, keys)
            if state is None:
                continue
            successes += 1
            assert report.satisfied_keys >= 9
            assert int(query_many(state, keys).sum()) == report.satisfied_keys
        assert successes >= 80
        # Space check: 8 stored bits against n*D = 2.265 plus the designed
        # slack, matching the sizing rule exactly.
        rate = optimal_binary(0.25, 0.5).rate_bits_per_key
        assert rate * 12 == pytest.approx(2.264662506490406, rel=1e-9)
        assert math.ceil((12 * rate + 12 ** (2 / 3)) / 1.0) == 8
        assert time.perf_counter() - start < 5.0


class TestTinyFrontiersRespectMemoryBound:
    def test_frontiers_and_consistency(self):
        start = time.perf_counter()
        stateless = optimal_tiny_tester(TinyTesterSpec(4, 1, 0))
        assert [(pt.eps_K, pt.eps_N) for pt in stateless] == [
            (Fraction(a, 4), Fraction(4 - a, 4)) for a in range(5)
        ]
        one_bit = optimal_tiny_tester(TinyTesterSpec(4, 1, 1))
        assert (one_bit[0].eps_K, one_bit[0].eps_N) == (0, Fraction(1, 3))
        for spec, frontier in (
            (TinyTesterSpec(4, 1, 0), stateless),
            (TinyTesterSpec(4, 1, 1), one_bit),
        ):
            for pt in frontier:
                price = f_p(
                    spec.n / spec.u,
                    B(1.0 - float(pt.eps_K)),
                    B(float(pt.eps_N)),
                )
                assert spec.memory_bits >= memory_lower_bound(spec.n, price)
        assert time.perf_counter() - start < 60.0


class TestAnalyticalIdentities:
    def test_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2026)

        # Mixture-divergence identity against mutual information.
        for _ in range(200):
            mu_K = random_distribution(rng)
            mu_N = random_distribution(rng)
            p = float(rng.uniform(0.01, 0.99))
            assert abs(f_p(p, mu_K, mu_N) - direct_f_p(p, mu_K, mu_N)) <= 1e-10

        # Closed-form derivative against central finite differences.
        step = 1e-5
        for _ in range(100):
            mu_K, mu_N = random_pair_shared_support(rng)
            p = float(rng.uniform(0.05, 0.95))
            closed = f_p_derivative(p, mu_K, mu_N)
            numeric = (
                f_p(p + step, mu_K, mu_N) - f_p(p - step, mu_K, mu_N)
            ) / (2 * step)
            if abs(closed) > 1e-12:
                # abs floor covers central-difference roundoff (~1e-11 at
                # this step) when the derivative itself is near zero.
                assert numeric == pytest.approx(closed, rel=1e-4, abs=1e-9)

        # Coarsening the score law can only cheapen the frontier price.
        for _ in range(100):
            mu_K = random_distribution(rng)
            mu_N = random_distribution(rng)
            p = float(rng.uniform(0.01, 0.99))
            assert (
                f_p(p, binarize(mu_K), binarize(mu_N))
                <= f_p(p, mu_K, mu_N) + 1e-12
            )

        # Serialization round trips, across moduli and both build paths.
        built = 0
        trial = 0
        while built < 50:
            q = (2, 3, 5)[trial % 3]
            two_sided = q == 2 and trial % 2 == 1
            n = 1 + trial % 12
            eps_K = Fraction(1, 4) if two_sided else 0
            params = derive_params(n, eps_K, 1.0 / q, 10_000 + trial)
            keys = [b"acc8-%d-%d" % (trial, i) for i in range(n)]
            state, report = build(params, keys)
            trial += 1
            if state is None:
                continue
            blob = serialize(state)
            restored = deserialize(blob)
            assert restored == state
            assert serialize(restored) == blob
            built += 1
        assert trial <= 55  # nearly every build must have succeeded

        assert time.perf_counter() - start < 60.0
