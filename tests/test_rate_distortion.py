"""Tests for frontier solving, closed forms, and the rate bounds."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    random_distribution,
    reference_inner_solve,
    rp_binary_oracle,
    zero_rate_feasible,
)

from membound import (
    DiscreteDistribution,
    DomainError,
    ErrorMetric,
    InfeasibleError,
    TrivialRegimeError,
    chi_squared,
    f_p,
    first_order_rate,
    kl_divergence,
    memory_lower_bound,
    metric_value,
    optimal_binary,
    optimal_logloss,
    solve_rp,
    wasserstein1,
)
from membound import cli, rate_distortion

B = DiscreteDistribution.bernoulli
D = DiscreteDistribution.delta

KL_09_01 = 2.5359400011538495  # kl_divergence(B(0.9), B(0.1))
LN2 = math.log(2.0)

P_SWEEP = (0.5, 0.1, 0.01)
EPS_SWEEP = (0.0, 0.05, 0.1, 0.25)


class TestErrorMetric:
    def test_named_constructors(self):
        assert ErrorMetric.fnr().side == "key"
        assert ErrorMetric.fpr().side == "nonkey"
        assert ErrorMetric.fnr().is_binary()
        assert ErrorMetric.fpr().is_binary()
        assert ErrorMetric.logloss_key().is_logloss()
        assert ErrorMetric.logloss_nonkey().is_logloss()
        assert not ErrorMetric.fnr().is_logloss()

    def test_side_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ErrorMetric("fnr", "nonkey")
        with pytest.raises(DomainError):
            ErrorMetric("logloss_nonkey", "key")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ErrorMetric("hinge", "key")

    def test_tabulated_needs_anchor(self):
        # Key metrics must vanish at score 1, non-key metrics at score 0.
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(0.5, 0.1)])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(1.0, 0.5)])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_nonkey([(1.0, 0.0)])
        ok = ErrorMetric.tabulated_key([(1.0, 0.0), (0.5, 0.3)])
        assert ok.table == ((0.5, 0.3), (1.0, 0.0))

    def test_tabulated_validation(self):
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(1.0, 0.0), (1.0, 0.2)])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(1.0, 0.0), (0.5, -0.1)])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(1.0, 0.0), (0.5, math.nan)])
        with pytest.raises(DomainError):
            ErrorMetric.tabulated_key([(1.0, 0.0), (1.5, 0.2)])

    def test_table_only_for_tabulated_kind(self):
        with pytest.raises(DomainError):
            ErrorMetric("fnr", "key", ((0.5, 0.1),))


class TestMetricValue:
    def test_binary_metrics(self):
        assert metric_value(ErrorMetric.fnr(), 0.25) == 0.75
        assert metric_value(ErrorMetric.fnr(), 1.0) == 0.0
        assert metric_value(ErrorMetric.fpr(), 0.25) == 0.25
        assert metric_value(ErrorMetric.fpr(), 0.0) == 0.0

    def test_logloss_metrics(self):
        assert metric_value(ErrorMetric.logloss_key(), 1.0) == 0.0
        assert metric_value(ErrorMetric.logloss_key(), 0.5) == pytest.approx(LN2)
        assert metric_value(ErrorMetric.logloss_key(), 0.0) == math.inf
        assert metric_value(ErrorMetric.logloss_nonkey(), 0.0) == 0.0
        assert metric_value(ErrorMetric.logloss_nonkey(), 0.5) == pytest.approx(LN2)
        assert metric_value(ErrorMetric.logloss_nonkey(), 1.0) == math.inf

    def test_tabulated_lookup(self):
        metric = ErrorMetric.tabulated_key([(1.0, 0.0), (0.5, 0.3)])
        assert metric_value(metric, 0.5) == 0.3
        assert metric_value(metric, 1.0) == 0.0
        assert metric_value(metric, 0.25) == math.inf

    def test_score_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            metric_value(ErrorMetric.fnr(), -0.1)
        with pytest.raises(DomainError):
            metric_value(ErrorMetric.fnr(), 1.1)


class TestOptimalBinary:
    def test_perfect_fnr_power_of_two_fpr(self):
        opt = optimal_binary(0.0, 2.0**-10)
        assert opt.rate_bits_per_key == pytest.approx(10.0, abs=1e-9)
        assert opt.mu_K.atoms == ((1.0, 1.0),)

    def test_symmetric_tenth(self):
        opt = optimal_binary(0.1, 0.1)
        assert opt.rate_bits_per_key == pytest.approx(KL_09_01, rel=1e-12)
        assert opt.mu_K.atoms == B(0.9).atoms
        assert opt.mu_N.atoms == B(0.1).atoms

    def test_rate_is_kl_of_returned_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eps_K = float(rng.uniform(0.0, 0.6))
            eps_N = float(rng.uniform(0.0, 0.9 - eps_K))
            opt = optimal_binary(eps_K, eps_N)
            assert opt.rate_bits_per_key == kl_divergence(opt.mu_K, opt.mu_N)

    def test_trivial_regime(self):
        for eps_K, eps_N in ((0.5, 0.5), (0.6, 0.4), (1.0, 0.0), (0.9, 0.2)):
            with pytest.raises(TrivialRegimeError):
                optimal_binary(eps_K, eps_N)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            optimal_binary(-0.1, 0.1)
        with pytest.raises(DomainError):
            optimal_binary(0.1, -0.1)

    def test_nan_budget_is_domain_error(self):
        for eps_K, eps_N in ((math.nan, 0.1), (0.1, math.nan)):
            with pytest.raises(DomainError):
                optimal_binary(eps_K, eps_N)


class TestOptimalLogloss:
    def test_frozen_example(self):
        opt = optimal_logloss(0.1, 0.2)
        assert opt.x_star == pytest.approx(0.9048374180359595, rel=1e-12)
        assert opt.q_star == pytest.approx(0.08502792351497783, rel=1e-12)
        assert opt.rate_bits_per_key == pytest.approx(3.5559194838072017, rel=1e-12)
        assert opt.mu_K.atoms == ((opt.x_star, 1.0),)
        assert opt.mu_N.atoms == ((0.0, 1.0 - opt.q_star), (opt.x_star, opt.q_star))

    def test_regime_boundary_rate_zero(self):
        opt = optimal_logloss(LN2, LN2)
        assert opt.q_star == 1.0
        assert opt.rate_bits_per_key == 0.0
        assert not math.copysign(1.0, opt.rate_bits_per_key) < 0  # never -0.0
        assert opt.mu_N.atoms == opt.mu_K.atoms

    def test_trivial_regime(self):
        with pytest.raises(TrivialRegimeError):
            optimal_logloss(2.0, 2.0)

    def test_trivial_regime_budgets_are_met_by_one_score(self):
        # Below the regime boundary the budgets are loose, not unattainable:
        # every x in [e^-eps_K, 1 - e^-eps_N] meets both, so the rate is 0.
        eps_K = eps_N = 1.0
        with pytest.raises(TrivialRegimeError) as err:
            optimal_logloss(eps_K, eps_N)
        assert "every score in [e^-eps_K, 1 - e^-eps_N] meets both" in str(err.value)
        assert "rate 0 is achievable" in str(err.value)
        lo, hi = math.exp(-eps_K), 1.0 - math.exp(-eps_N)
        for x in np.linspace(lo, hi, 9)[1:-1]:
            assert metric_value(ErrorMetric.logloss_key(), x) <= eps_K
            assert metric_value(ErrorMetric.logloss_nonkey(), x) <= eps_N
        point = solve_rp(
            0.1, ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey(), eps_K, eps_N
        )
        assert point.rate_bits_per_key == 0.0
        assert point.mu_K == point.mu_N
        assert point.mu_K.atoms[0][0] == pytest.approx(lo, abs=1e-12)

    def test_nonpositive_budgets_rejected(self):
        with pytest.raises(DomainError):
            optimal_logloss(0.0, 0.2)
        with pytest.raises(DomainError):
            optimal_logloss(0.1, -0.2)

    def test_rate_equals_kl_of_returned_pair(self):
        # mu_K is a point mass at x*, so KL is exactly -log2 of mu_N's mass
        # there, which is the rate.  Sample whole-regime budgets via the mass
        # fraction t = q*.
        rng = np.random.default_rng(9)
        for _ in range(100):
            x_star = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.01, 1.0))
            eps_K = -math.log(x_star)
            eps_N = t * -math.log1p(-x_star)
            opt = optimal_logloss(eps_K, eps_N)
            assert abs(
                opt.rate_bits_per_key - kl_divergence(opt.mu_K, opt.mu_N)
            ) <= 1e-12


class TestRpBinaryOracle:
    def test_corner_optimum(self):
        # Box is {1} x [0, 0.5]; the optimum sits at its on-grid corner.
        got = rp_binary_oracle(0.5, 0.0, 0.5, 100)
        assert got == pytest.approx(0.6225562489182657, rel=1e-12)
        assert got == pytest.approx(f_p(0.5, D(1.0), B(0.5)), rel=1e-12)

    def test_vacuous_key_budget_gives_zero(self):
        assert rp_binary_oracle(0.5, 1.0, 0.5, 100) == 0.0

    def test_sparse_limit_approaches_kl(self):
        got = rp_binary_oracle(1e-4, 0.1, 0.1, 500)
        assert abs(got - KL_09_01) < 2e-3


class TestFirstOrderRate:
    def test_frozen_examples(self):
        kl = kl_divergence(B(0.9), B(0.1))
        chi2 = chi_squared(B(0.9), B(0.1))
        expected = kl - 0.01 * chi2 / (2.0 * LN2)
        got = first_order_rate(0.1, 0.1, 0.01)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.4846441774777976, rel=1e-12)
        assert first_order_rate(0.0, 0.5, 0.1) == pytest.approx(
            0.9278652479555518, rel=1e-12
        )

    def test_zero_p_is_plain_kl(self):
        assert first_order_rate(0.1, 0.1, 0.0) == KL_09_01

    def test_infinite_when_fpr_budget_zero(self):
        assert first_order_rate(0.1, 0.0, 0.01) == math.inf

    def test_trivial_regime(self):
        with pytest.raises(TrivialRegimeError):
            first_order_rate(0.7, 0.3, 0.01)

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            first_order_rate(0.1, 0.1, -0.01)

    def test_nan_inputs_rejected(self):
        for args in ((0.1, 0.1, math.nan), (math.nan, 0.1, 0.01), (0.1, math.nan, 0.01)):
            with pytest.raises(DomainError):
                first_order_rate(*args)


class TestMemoryLowerBound:
    def test_power_of_two_example(self):
        assert memory_lower_bound(1024, 2.0) == 2041.5

    def test_clamps_at_zero(self):
        assert memory_lower_bound(1, 0.1) == 0.0

    def test_thousand_keys(self):
        assert memory_lower_bound(1000, 1.245112) == pytest.approx(
            1238.6291078576694, rel=1e-12
        )

    def test_infinite_price_passes_through(self):
        assert memory_lower_bound(10, math.inf) == math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            memory_lower_bound(0, 1.0)
        with pytest.raises(DomainError):
            memory_lower_bound(2.0, 1.0)
        with pytest.raises(DomainError):
            memory_lower_bound(10, -1.0)

    def test_nan_price_rejected(self):
        with pytest.raises(DomainError):
            memory_lower_bound(10, math.nan)


@pytest.fixture(scope="module")
def binary_sweep():
    """solve_rp over p in {0.5, 0.1, 0.01} x (eps_K, eps_N) in {0,.05,.1,.25}^2."""
    points = {}
    for p in P_SWEEP:
        for eps_K in EPS_SWEEP:
            for eps_N in EPS_SWEEP:
                points[(p, eps_K, eps_N)] = solve_rp(
                    p, ErrorMetric.fnr(), ErrorMetric.fpr(), eps_K, eps_N
                )
    return points


class TestSolveRpBinary:
    def test_rate_band_at_small_p(self):
        point = solve_rp(1e-3, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.1)
        assert 2.525 <= point.rate_bits_per_key <= 2.536
        assert point.converged

    def test_vacuous_key_budget(self):
        point = solve_rp(0.1, ErrorMetric.fnr(), ErrorMetric.fpr(), 1.0, 0.0)
        assert point.rate_bits_per_key == 0.0
        assert point.mu_K.atoms == ((0.0, 1.0),)
        assert point.mu_N.atoms == ((0.0, 1.0),)
        assert point.dual_K == 0.0 and point.dual_N == 0.0

    def test_deterministic(self):
        args = (0.1, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.05)
        assert solve_rp(*args) == solve_rp(*args)

    def test_readme_example_pinned(self):
        point = solve_rp(0.001, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.1)
        assert point.rate_bits_per_key == pytest.approx(2.53082252915013, abs=1e-12)
        (x0, w0), (x1, w1) = point.mu_N.atoms
        assert (x0, x1) == (0.0, 1.0)
        assert w0 == pytest.approx(0.9000000000295847, abs=1e-12)
        assert w1 == pytest.approx(0.09999999997041531, abs=1e-12)
        # The exact frontier f_p(0.001, Bern(0.9), Bern(0.1)) and its law.
        closed = 2.530822528719886
        assert _binary_frontier(0.001, 0.1, 0.1) == pytest.approx(closed, abs=1e-12)
        assert closed <= point.rate_bits_per_key <= closed + 1e-7
        assert abs(w0 - 0.9) <= 1e-8
        assert abs(w1 - 0.1) <= 1e-8

    def test_nan_budgets_rejected(self):
        metric_pairs = (
            (ErrorMetric.fnr(), ErrorMetric.fpr()),
            (ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey()),
        )
        for metric_K, metric_N in metric_pairs:
            for eps_K, eps_N in ((math.nan, 0.1), (0.1, math.nan)):
                with pytest.raises(DomainError):
                    solve_rp(0.1, metric_K, metric_N, eps_K, eps_N)

    def test_metric_sides_enforced(self):
        with pytest.raises(DomainError):
            solve_rp(0.1, ErrorMetric.fpr(), ErrorMetric.fpr(), 0.1, 0.1)
        with pytest.raises(DomainError):
            solve_rp(0.1, ErrorMetric.fnr(), ErrorMetric.fnr(), 0.1, 0.1)

    def test_density_bounds(self):
        with pytest.raises(DomainError):
            solve_rp(0.0, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.1)
        with pytest.raises(DomainError):
            solve_rp(1.0, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.1)

    def test_infeasible_disjoint_supports(self):
        metric_K = ErrorMetric.tabulated_key([(1.0, 0.0)])
        metric_N = ErrorMetric.tabulated_nonkey([(0.0, 0.0)])
        with pytest.raises(InfeasibleError):
            solve_rp(0.1, metric_K, metric_N, 0.5, 0.5)

    def test_matches_oracle_band(self, binary_sweep):
        for (p, eps_K, eps_N), point in binary_sweep.items():
            oracle = rp_binary_oracle(p, eps_K, eps_N, 400)
            rate = point.rate_bits_per_key
            assert rate <= oracle + 1e-4
            assert rate >= oracle - 1e-4 * (1.0 + rate)

    def test_rates_nonnegative_and_constraints_hold(self, binary_sweep):
        for (p, eps_K, eps_N), point in binary_sweep.items():
            assert point.rate_bits_per_key >= 0.0
            fnr = 1.0 - point.mu_K.mean()
            fpr = point.mu_N.mean()
            assert fnr <= eps_K + 1e-6
            assert fpr <= eps_N + 1e-6
            assert point.converged

    def test_supports_pruned(self, binary_sweep):
        for point in binary_sweep.values():
            assert len(point.mu_K.atoms) <= 5
            assert len(point.mu_N.atoms) <= 5

    def test_complementary_slackness(self, binary_sweep):
        for (p, eps_K, eps_N), point in binary_sweep.items():
            slack_K = point.dual_K * (eps_K - (1.0 - point.mu_K.mean()))
            slack_N = point.dual_N * (eps_N - point.mu_N.mean())
            assert abs(slack_K) < 1e-4
            assert abs(slack_N) < 1e-4

    def test_monotone_in_budgets_and_density(self, binary_sweep):
        rate = lambda key: binary_sweep[key].rate_bits_per_key
        for p in P_SWEEP:
            for eps_N in EPS_SWEEP:
                for lo, hi in zip(EPS_SWEEP, EPS_SWEEP[1:]):
                    assert rate((p, hi, eps_N)) <= rate((p, lo, eps_N)) + 1e-6
            for eps_K in EPS_SWEEP:
                for lo, hi in zip(EPS_SWEEP, EPS_SWEEP[1:]):
                    assert rate((p, eps_K, hi)) <= rate((p, eps_K, lo)) + 1e-6
        for eps_K in EPS_SWEEP:
            for eps_N in EPS_SWEEP:
                # P_SWEEP is listed densest first: rate grows as p shrinks.
                for denser, sparser in zip(P_SWEEP, P_SWEEP[1:]):
                    assert (
                        rate((denser, eps_K, eps_N))
                        <= rate((sparser, eps_K, eps_N)) + 1e-6
                    )

    def test_global_minimality_against_random_feasible_pairs(self, binary_sweep):
        p, eps_K, eps_N = 0.1, 0.1, 0.1
        rate = binary_sweep[(p, eps_K, eps_N)].rate_bits_per_key
        rng = np.random.default_rng(77)
        for _ in range(50):
            mu_K = _mixed_to_budget(random_distribution(rng), eps_K, side="key")
            mu_N = _mixed_to_budget(random_distribution(rng), eps_N, side="nonkey")
            assert f_p(p, mu_K, mu_N) >= rate - 1e-4

    def test_tabulated_metrics_smoke(self):
        metric_K = ErrorMetric.tabulated_key([(1.0, 0.0), (0.5, 1.0)])
        metric_N = ErrorMetric.tabulated_nonkey([(0.0, 0.0), (0.5, 0.2)])
        point = solve_rp(0.2, metric_K, metric_N, 0.5, 0.1)
        assert point.rate_bits_per_key >= 0.0
        for x, _ in point.mu_K.atoms:
            assert metric_value(metric_K, x) < math.inf
        key_pen = sum(w * metric_value(metric_K, x) for x, w in point.mu_K.atoms)
        non_pen = sum(w * metric_value(metric_N, x) for x, w in point.mu_N.atoms)
        assert key_pen <= 0.5 + 1e-6
        assert non_pen <= 0.1 + 1e-6


def _mixed_to_budget(mu, eps, side):
    """Mix mu toward the zero-penalty anchor until the budget is met."""
    anchor = 1.0 if side == "key" else 0.0
    penalty = 1.0 - mu.mean() if side == "key" else mu.mean()
    t = 1.0 if penalty <= eps else 0.99 * eps / penalty
    atoms = [(anchor, 1.0 - t)] + [(x, t * w) for x, w in mu.atoms]
    merged = {}
    for x, w in atoms:
        merged[x] = merged.get(x, 0.0) + w
    return DiscreteDistribution(tuple(sorted(merged.items())))


class TestConvergenceToClosedForms:
    def test_binary_sparse_limit_and_w1(self):
        point = solve_rp(1e-4, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.1, 0.1)
        closed = optimal_binary(0.1, 0.1)
        assert abs(point.rate_bits_per_key - closed.rate_bits_per_key) < 5e-3
        assert wasserstein1(point.mu_N, closed.mu_N) < 0.02
        assert wasserstein1(point.mu_K, closed.mu_K) < 0.02

    def test_logloss_sparse_limit_and_w1(self):
        point = solve_rp(
            1e-4,
            ErrorMetric.logloss_key(),
            ErrorMetric.logloss_nonkey(),
            0.1,
            0.2,
        )
        closed = optimal_logloss(0.1, 0.2)
        assert abs(point.rate_bits_per_key - closed.rate_bits_per_key) < 5e-3
        assert wasserstein1(point.mu_N, closed.mu_N) < 0.02

    def test_binary_slope_matches_curvature(self):
        fnr, fpr = ErrorMetric.fnr(), ErrorMetric.fpr()
        r1 = solve_rp(1e-3, fnr, fpr, 0.1, 0.1).rate_bits_per_key
        r2 = solve_rp(2e-3, fnr, fpr, 0.1, 0.1).rate_bits_per_key
        slope = (r2 - r1) / 1e-3
        target = -chi_squared(B(0.9), B(0.1)) / (2.0 * LN2)
        assert abs(slope - target) <= 0.2 * abs(target)


class TestSolveRpLogloss:
    def test_support_within_eight_atoms_and_budgets(self):
        # The result time-shares two bracket solutions, each at most a
        # time-share of two two-atom hull solutions: at most 8 atoms a side.
        metric_K, metric_N = ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey()
        point = solve_rp(0.6, metric_K, metric_N, 0.21, 0.3)
        assert point.converged
        assert len(point.mu_K.atoms) <= 8
        assert len(point.mu_N.atoms) <= 8
        key_pen = sum(w * metric_value(metric_K, x) for x, w in point.mu_K.atoms)
        non_pen = sum(w * metric_value(metric_N, x) for x, w in point.mu_N.atoms)
        assert key_pen <= 0.21 + 1e-6
        assert non_pen <= 0.3 + 1e-6


def _binary_frontier(p, eps_K, eps_N):
    """f_p(p, Bern(1 - eps_K), Bern(eps_N)) in bits, with plain math: the
    exact binary frontier, since both budgets bind."""
    a, b = 1.0 - eps_K, eps_N
    c = p * a + (1.0 - p) * b

    def kl(x, y):
        return math.fsum(
            u * math.log2(u / v) for u, v in ((x, y), (1.0 - x, 1.0 - y)) if u > 0.0
        )

    return kl(a, c) + (1.0 - p) / p * kl(b, c)


def _logloss_pair_price(p, eps_K, eps_N):
    """f_p of the feasible closed-form log-loss pair, with plain math:
    mu_K = delta_x, mu_N = (1-q) delta_0 + q delta_x, x = e^-eps_K,
    q = eps_N / -ln(1 - x)."""
    x = math.exp(-eps_K)
    q = eps_N / -math.log1p(-x)
    at_x = p + (1.0 - p) * q
    kl_N = (1.0 - q) * math.log2(1.0 / (1.0 - p)) + q * math.log2(q / at_x)
    return math.log2(1.0 / at_x) + (1.0 - p) / p * kl_N


def _budget_excess(point, metric_K, metric_N):
    """Largest math.fsum penalty of a returned law minus its budget."""
    used_K = math.fsum(w * metric_value(metric_K, x) for x, w in point.mu_K.atoms)
    used_N = math.fsum(w * metric_value(metric_N, x) for x, w in point.mu_N.atoms)
    return max(used_K - point.eps_K, used_N - point.eps_N)


@pytest.fixture(scope="module")
def cli_sweep():
    """The CLI sweep sweep:0.001,0.1,25,log at binary budgets (0.05, 0.05):
    (point, exact inner solves it took) per density."""
    calls = [0]
    real = rate_distortion._inner_solve

    def counting(*args):
        calls[0] += 1
        return real(*args)

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rate_distortion, "_inner_solve", counting)
        for p in cli._parse_p_values("sweep:0.001,0.1,25,log"):
            before = calls[0]
            point = solve_rp(p, ErrorMetric.fnr(), ErrorMetric.fpr(), 0.05, 0.05)
            out.append((point, calls[0] - before))
    return out


class TestExactFrontier:
    """The returned laws meet both budgets in floating point, so no rate can
    fall below the exact frontier."""

    def _check_binary(self, point):
        # 1e-12 covers rounding between two evaluations of the same f_p.
        closed = _binary_frontier(point.p, point.eps_K, point.eps_N)
        assert closed - 1e-12 <= point.rate_bits_per_key <= closed + 1e-7
        assert _budget_excess(point, ErrorMetric.fnr(), ErrorMetric.fpr()) <= 0.0

    def test_cli_sweep(self, cli_sweep):
        assert len(cli_sweep) == 25
        for point, _ in cli_sweep:
            self._check_binary(point)

    def test_binary_grid(self, binary_sweep):
        assert len(binary_sweep) == 48
        for point in binary_sweep.values():
            self._check_binary(point)

    def test_logloss_budgets_and_closed_form_pair(self):
        # The closed-form pair meets both budgets and lies on the solver's
        # grid (0 and e^-eps_K are grid points), so it bounds the rate.
        metric_K, metric_N = ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey()
        cases = ((1e-3, 0.1, 0.2), (0.1, 0.1, 0.2), (0.6, 0.21, 0.3), (0.05, 0.05, 0.4))
        for p, eps_K, eps_N in cases:
            point = solve_rp(p, metric_K, metric_N, eps_K, eps_N)
            assert point.converged
            assert _budget_excess(point, metric_K, metric_N) <= 0.0
            assert point.rate_bits_per_key <= _logloss_pair_price(p, eps_K, eps_N) + 1e-8

    def test_inner_solve_count(self, cli_sweep):
        # A deterministic work bound for the dual search (not a timing), and
        # the exact total, so that a change to the inner solve cannot
        # silently change which duals the search visits.
        for point, calls in cli_sweep:
            assert calls <= 300, (point.p, calls)
        assert sum(calls for _, calls in cli_sweep) == 2381


class TestInnerSolve:
    def test_matches_brute_force_over_vertices_and_edges(self):
        # The maximum of phi(a, b) = p ln a + (1-p) ln b over the convex hull
        # of the points (wK, wN) is at a point or on a segment between two.
        # Small random sets, then the real candidate sets of the log-loss
        # and mixed metric pairs (about 200 locations each).
        rng = np.random.default_rng(2024)
        cases = []
        for case in range(30):
            n = int(rng.integers(1, 9))
            dK, dN = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            if case % 3 == 0:  # coarse values give duplicate points and ties
                dK, dN = np.round(dK, 0), np.round(dN, 0)
            p = float(rng.uniform(0.05, 0.95))
            cases.append((p, dK, dN, *(float(v) for v in rng.uniform(0.1, 4.0, 2))))
        for metric_K, metric_N in _metric_pairs(rng)[1:4]:
            _, dK, dN = _penalties(metric_K, metric_N, 0.05)
            keep = rate_distortion._candidates(dK, dN, rate_distortion._hull_chain(dK, dN))
            assert keep.size > 190
            for p, lamK, lamN in ((0.01, 3.0, 2.0), (0.2, 0.05, 40.0), (0.6, 1e-3, 1e-3)):
                cases.append((p, dK[keep], dN[keep], lamK, lamN))
        for p, dK, dN, lamK, lamN in cases:
            n = dK.size
            sol = rate_distortion._inner_solve(p, dK, dN, lamK, lamN)
            wK = [2.0 ** (-lamK * d) for d in dK]
            wN = [2.0 ** (-(p / (1.0 - p)) * lamN * d) for d in dN]

            def phi(x, y):
                if x == 0.0 or y == 0.0:
                    return -math.inf
                return p * math.log(x) + (1.0 - p) * math.log(y)

            # At the optimum, max phi = -ln 2 * p * L with the Lagrangian
            # L = f_p + lamK E_K + lamN E_N of the returned laws, in bits.
            info = used = 0.0
            for i, mK, mN in zip(sol.idx, sol.mK, sol.mN):
                mix = p * mK + (1.0 - p) * mN
                for weight, m in ((p, mK), (1.0 - p, mN)):
                    if m > 0.0:
                        info += weight * m * math.log(m / mix)
                used += p * (lamK * mK * dK[i] if mK > 0.0 else 0.0)
                used += p * (lamN * mN * dN[i] if mN > 0.0 else 0.0)
            value = -(info + math.log(2.0) * used)

            best = max(phi(x, y) for x, y in zip(wK, wN))
            for i, j in itertools.combinations(range(n), 2):
                da, db = wK[j] - wK[i], wN[j] - wN[i]
                if da * db == 0.0:
                    continue
                # phi is concave along the segment; its stationary point:
                t = -(p * da * wN[i] + (1.0 - p) * db * wK[i]) / (da * db)
                if 0.0 < t < 1.0:
                    best = max(best, phi(wK[i] + t * da, wN[i] + t * db))
            assert value == pytest.approx(best, rel=1e-12, abs=1e-12), (p, n, lamK, lamN)

    @staticmethod
    def _assert_same(got, want, case):
        assert got.idx.dtype == want.idx.dtype, case
        assert got.idx.tolist() == want.idx.tolist(), case
        assert got.mK.tolist() == want.mK.tolist(), case
        assert got.mN.tolist() == want.mN.tolist(), case
        assert (got.E_K, got.E_N) == (want.E_K, want.E_N), case

    def test_matches_numpy_reference_bit_for_bit(self):
        # Small random sets: coarse penalties repeat pairs and tie on the
        # total penalty, infinite penalties sit on either side, and the
        # duals include 0 and both ends of the dual search's range.
        rng = np.random.default_rng(1972)
        J, L = rate_distortion._JUMP_WIDTH, rate_distortion._LAMBDA_MAX
        checked = degenerate = 0
        for case in range(10600):
            n = int(rng.integers(1, 15))
            dK, dN = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            if case % 3 == 0:
                dK, dN = np.round(dK * 2.0) / 2.0, np.round(dN * 2.0) / 2.0
            if case % 4 == 0:
                dK[rng.random(n) < 0.3] = math.inf
            if case % 5 == 0:
                dN[rng.random(n) < 0.3] = math.inf
            p = float(rng.uniform(0.001, 0.99))
            lamK, lamN = (
                float(rng.choice([0.0, J, 1e-9, L, math.exp(rng.uniform(-10.0, 10.0))]))
                for _ in range(2)
            )
            if case % 9 == 0:
                # Weights in {0, 1/4, 1/2, 1}: points fall exactly on lines,
                # and the optimum can sit on a collinear vertex.
                dK = rng.choice([0.0, 0.5, 1.0, math.inf], n)
                dN = rng.choice([0.0, 0.25, 0.5, math.inf], n)
                p, lamK, lamN = 0.5, 2.0, 4.0
            wK = rate_distortion._tilt_weights(dK, lamK)
            wN = rate_distortion._tilt_weights(dN, lamN * p / (1.0 - p))
            if not np.any((wK > 0.0) | (wN > 0.0)):
                # Every pair is (0, 0); solve_rp never gets here, because
                # the anchor location has d_K = 0 and so w_K = 1.
                with pytest.raises(IndexError):
                    reference_inner_solve(p, dK, dN, lamK, lamN)
                degenerate += 1
                continue
            got = rate_distortion._inner_solve(p, dK, dN, lamK, lamN)
            want = reference_inner_solve(p, dK, dN, lamK, lamN)
            self._assert_same(got, want, (dK, dN, p, lamK, lamN))
            checked += 1
        assert checked >= 10000 and degenerate > 0

    def test_matches_numpy_reference_on_real_candidates(self):
        rng = np.random.default_rng(17)
        J, L = rate_distortion._JUMP_WIDTH, rate_distortion._LAMBDA_MAX
        duals = [0.0, J, 1e-9, L] + [float(v) for v in np.exp(rng.uniform(-10.0, 10.0, 4))]
        for metric_K, metric_N in _metric_pairs(rng):
            _, dK, dN = _penalties(metric_K, metric_N, float(rng.uniform(0.01, 0.5)))
            keep = rate_distortion._candidates(dK, dN, rate_distortion._hull_chain(dK, dN))
            for lamK, lamN in itertools.product(duals, repeat=2):
                p = float(rng.uniform(0.001, 0.9))
                for sK, sN in ((dK, dN), (dK[keep], dN[keep])):
                    got = rate_distortion._inner_solve(p, sK, sN, lamK, lamN)
                    want = reference_inner_solve(p, sK, sN, lamK, lamN)
                    self._assert_same(got, want, (metric_K, metric_N, p, lamK, lamN))


def _penalties(metric_K, metric_N, eps_K):
    """solve_rp's grid and penalties, before any location is dropped as a
    non-candidate."""
    grid = rate_distortion._build_grid(metric_K, metric_N, eps_K)
    dK = np.array([metric_value(metric_K, x) for x in grid])
    dN = np.array([metric_value(metric_N, x) for x in grid])
    both = np.isinf(dK) & np.isinf(dN)
    return grid[~both], dK[~both], dN[~both]


def _coarse_table(rng, side):
    """A tabulated metric on a few coarse locations with coarse penalties,
    so that penalty pairs tie, repeat and fall on common lines."""
    anchor = 1.0 if side == "key" else 0.0
    xs = {float(x) for x in rng.choice(np.linspace(0.0, 1.0, 21), int(rng.integers(1, 9)))}
    rows = [(x, float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))) for x in sorted(xs - {anchor})]
    rows.append((anchor, 0.0))
    if side == "key":
        return ErrorMetric.tabulated_key(rows)
    return ErrorMetric.tabulated_nonkey(rows)


def _metric_pairs(rng):
    """Every metric pair the solver distinguishes, tabulated ones drawn anew."""
    return (
        (ErrorMetric.fnr(), ErrorMetric.fpr()),
        (ErrorMetric.logloss_key(), ErrorMetric.logloss_nonkey()),
        (ErrorMetric.fnr(), ErrorMetric.logloss_nonkey()),
        (ErrorMetric.logloss_key(), ErrorMetric.fpr()),
        (_coarse_table(rng, "key"), ErrorMetric.fpr()),
        (_coarse_table(rng, "key"), _coarse_table(rng, "nonkey")),
    )


def _chain_oracle(dK, dN):
    """Vertices of the lower-left hull of the finite pairs, by definition and
    in exact rationals: a pair is dropped when another pair (or an equal one
    at a lower index) is at or below-left of it, or when a segment between
    two other pairs passes at or below it."""
    idx = [i for i in range(dK.size) if math.isfinite(dK[i]) and math.isfinite(dN[i])]
    pts = {i: (Fraction(dK[i]), Fraction(dN[i])) for i in idx}
    keep = []
    for i in idx:
        x, y = pts[i]
        others = [j for j in idx if j != i]
        dropped = any(
            pts[j][0] <= x and pts[j][1] <= y and (pts[j] != pts[i] or j < i) for j in others
        ) or any(
            pts[j][0] < x < pts[k][0]
            and pts[j][1] + (x - pts[j][0]) / (pts[k][0] - pts[j][0]) * (pts[k][1] - pts[j][1]) <= y
            for j in others
            for k in others
        )
        if not dropped:
            keep.append(i)
    return sorted(keep, key=lambda i: pts[i])


class TestCandidateSet:
    """solve_rp runs on the lower-left hull chain of the penalty pairs and
    the infinite-penalty locations; no other location can carry mass."""

    def test_chain_matches_definition(self):
        rng = np.random.default_rng(1717)
        for case in range(40):
            n = int(rng.integers(1, 11))
            dK, dN = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            if case % 2 == 0:  # coarse values: duplicates, ties, collinear triples
                dK, dN = np.round(dK * 2.0) / 2.0, np.round(dN * 2.0) / 2.0
            if case % 5 == 0:
                dK[0] = math.inf
            if n > 1 and case % 3 == 0:
                dN[-1] = math.inf
            if not np.any(np.isfinite(dK) & np.isfinite(dN)):
                continue
            chain = rate_distortion._hull_chain(dK, dN)
            assert chain.tolist() == _chain_oracle(dK, dN), (dK, dN)

    def test_no_finite_pair_gives_an_empty_chain(self):
        # Each location is infinite on one side, so no law meets a budget.
        dK = np.array([0.0, math.inf, 0.5, math.inf])
        dN = np.array([math.inf, 0.0, math.inf, math.inf])
        chain = rate_distortion._hull_chain(dK, dN)
        assert chain.size == 0 and chain.dtype.kind == "i"
        grid = np.linspace(0.0, 1.0, dK.size)
        assert rate_distortion._zero_rate_solution(grid, dK, dN, 1.0, 1.0, chain) is None
        assert rate_distortion._candidates(dK, dN, chain).tolist() == [0, 1, 2, 3]

    def test_chain_sizes(self):
        # 1 - x rounds, so a few binary pairs fall strictly below the line
        # d_K + d_N = 1; the log-loss and mixed curves are strictly convex.
        sizes = {}
        for metric_K, metric_N in _metric_pairs(np.random.default_rng(0))[:4]:
            _, dK, dN = _penalties(metric_K, metric_N, 0.05)
            chain = rate_distortion._hull_chain(dK, dN)
            finite = int(np.sum(np.isfinite(dK) & np.isfinite(dN)))
            sizes[metric_K.kind, metric_N.kind] = (chain.size, finite)
        assert sizes[("fnr", "fpr")][0] < 10
        for pair in sizes:
            if pair != ("fnr", "fpr"):
                assert sizes[pair][0] == sizes[pair][1]

    def test_solve_rp_same_as_on_every_location(self, monkeypatch):
        # Budgets cover ordinary points, a slack budget (its dual stays 0),
        # zero-rate budgets, and budgets no location can meet.
        rng = np.random.default_rng(4242)
        every = lambda dK, dN, chain: np.arange(dK.size)  # noqa: E731
        checked = 0
        for case in range(8):
            for metric_K, metric_N in _metric_pairs(rng):
                p = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.7))))
                eps_K, eps_N = (float(v) for v in rng.uniform(0.0, 0.4, 2))
                if case == 1:
                    eps_K = 0.6
                elif case == 2:
                    eps_K, eps_N = 0.5, 0.9
                elif case == 3:
                    eps_K, eps_N = round(eps_K, 1), round(eps_N, 1)
                outcomes = []
                for patched in (False, True):
                    with monkeypatch.context() as m:
                        if patched:
                            m.setattr(rate_distortion, "_candidates", every)
                        try:
                            outcomes.append(solve_rp(p, metric_K, metric_N, eps_K, eps_N))
                        except (InfeasibleError, DomainError) as exc:
                            outcomes.append(repr(exc))
                assert outcomes[0] == outcomes[1], (p, metric_K, metric_N, eps_K, eps_N)
                assert repr(outcomes[0]) == repr(outcomes[1])
                checked += not isinstance(outcomes[0], str)
        assert checked >= 30

    def test_inner_solve_same_as_on_every_location(self):
        # Exact in real arithmetic.  In floating point the two solves agree
        # bit for bit whenever the full solve's support lies among the
        # candidates.  Otherwise (binary metrics at duals near 1e-8 and
        # below, where 2^(-lambda*d) rounds the nearly collinear weights into
        # ties) the full solve picked one of many locations whose Lagrangian
        # values agree to rounding, and the candidate solve's value must
        # agree with it to rounding too.
        rng = np.random.default_rng(99)
        J, L = rate_distortion._JUMP_WIDTH, rate_distortion._LAMBDA_MAX
        duals = [0.0, J, L, 1e-9] + [float(v) for v in np.exp(rng.uniform(-8.0, 8.0, 4))]

        def value(p, sol, dK, dN, lamK, lamN):
            # mu = r * w / a with sum(r) = 1 gives a = 1 / sum(mu / w).
            wK = rate_distortion._tilt_weights(dK[sol.idx], lamK)
            wN = rate_distortion._tilt_weights(dN[sol.idx], lamN * p / (1.0 - p))
            a = 1.0 / math.fsum((sol.mK[sol.mK > 0] / wK[sol.mK > 0]).tolist())
            b = 1.0 / math.fsum((sol.mN[sol.mN > 0] / wN[sol.mN > 0]).tolist())
            return p * math.log(a) + (1.0 - p) * math.log(b)

        exact = tied = 0
        for metric_K, metric_N in _metric_pairs(rng):
            _, dK, dN = _penalties(metric_K, metric_N, float(rng.uniform(0.01, 0.5)))
            if not np.any(np.isfinite(dK) & np.isfinite(dN)):
                continue
            keep = rate_distortion._candidates(dK, dN, rate_distortion._hull_chain(dK, dN))
            for lamK, lamN in itertools.product(duals, repeat=2):
                p = float(rng.uniform(0.001, 0.9))
                full = rate_distortion._inner_solve(p, dK, dN, lamK, lamN)
                cand = rate_distortion._inner_solve(p, dK[keep], dN[keep], lamK, lamN)
                case = (metric_K, metric_N, p, lamK, lamN)
                if np.isin(full.idx, keep).all():
                    assert keep[cand.idx].tolist() == full.idx.tolist(), case
                    assert cand.mK.tolist() == full.mK.tolist(), case
                    assert cand.mN.tolist() == full.mN.tolist(), case
                    assert (cand.E_K, cand.E_N) == (full.E_K, full.E_N), case
                    exact += 1
                else:
                    assert max(lamK, lamN) <= 1e-8, case
                    got = value(p, cand, dK[keep], dN[keep], lamK, lamN)
                    want = value(p, full, dK, dN, lamK, lamN)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), case
                    tied += 1
        assert exact > 10 * tied


class TestZeroRate:
    """_zero_rate_solution decides rate 0 on the hull chain.  Every law it
    returns meets both budgets under math.fsum, and it agrees with an exact
    scan over pairs of penalty pairs wherever that scan's answer holds with
    slack."""

    SLACK = Fraction(1, 10**9)

    def _budgets(self, dK, dN, chain, rng):
        """Budgets at, just above and just below penalty pairs and points of
        hull edges, a little above them, and well below the chain."""
        finite = np.flatnonzero(np.isfinite(dK) & np.isfinite(dN))
        picked = np.concatenate((chain[:2], chain[-2:], rng.choice(chain, min(4, chain.size))))
        picked = np.concatenate((picked, rng.choice(finite, min(4, finite.size), replace=False)))
        pairs = [(dK[i], dN[i]) for i in picked]
        for e in rng.choice(max(1, chain.size - 1), min(4, chain.size - 1), replace=False):
            v, w = chain[e], chain[e + 1]
            t = float(rng.uniform(0.0, 1.0))
            pairs.append(((1 - t) * dK[v] + t * dK[w], (1 - t) * dN[v] + t * dN[w]))
        out = []
        for eK, eN in pairs:
            for sK, sN in itertools.product((-math.inf, 0.0, math.inf), repeat=2):
                out.append((float(np.nextafter(eK, sK)), float(np.nextafter(eN, sN))))
            out.append((eK + 1e-6, eN + 1e-6))
            out.append((eK * 0.5, eN * 0.5))
            out.append((max(0.0, eK - 1e-6), max(0.0, eN - 1e-6)))
        return out

    def test_agrees_with_exact_pair_scan(self):
        rng = np.random.default_rng(31)
        singles = pairs = slack = boundary = none = 0
        for metric_K, metric_N in _metric_pairs(rng):
            grid, dK, dN = _penalties(metric_K, metric_N, 0.1)
            chain = rate_distortion._hull_chain(dK, dN)
            for eps_K, eps_N in self._budgets(dK, dN, chain, rng):
                case = (metric_K, metric_N, eps_K, eps_N)
                law = rate_distortion._zero_rate_solution(grid, dK, dN, eps_K, eps_N, chain)
                feasible = zero_rate_feasible(dK, dN, eps_K, eps_N)
                if law is None:
                    assert not feasible or not zero_rate_feasible(
                        dK, dN, eps_K - self.SLACK, eps_N - self.SLACK
                    ), case
                    boundary += feasible
                    none += not feasible
                    continue
                assert feasible, case
                carrier = np.flatnonzero(law)
                assert carrier.size <= 2 and law.min() >= 0.0, case
                assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-15), case
                for d, eps in ((dK, eps_K), (dN, eps_N)):
                    assert math.fsum((law[carrier] * d[carrier]).tolist()) <= eps, case
                singles += carrier.size == 1
                pairs += carrier.size == 2
                slack += zero_rate_feasible(dK, dN, eps_K - self.SLACK, eps_N - self.SLACK)
        assert singles > 100 and pairs > 70 and slack > 50 and boundary > 0 and none > 300

    @pytest.mark.parametrize(
        "eps_K, eps_N",
        [(0.5745896289270259, 0.42541037107297397), (0.8876760209080197, 0.11232397909198029)],
    )
    def test_boundary_budgets_are_met(self, eps_K, eps_N):
        # Both budgets sit on a hull edge: a mixing weight at either end of
        # the feasible stretch, once rounded, lands a few ulps over a budget.
        point = solve_rp(0.1, ErrorMetric.fnr(), ErrorMetric.fpr(), eps_K, eps_N)
        assert point.converged and point.rate_bits_per_key == 0.0
        assert _budget_excess(point, ErrorMetric.fnr(), ErrorMetric.fpr()) <= 0.0
