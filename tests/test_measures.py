"""Distribution calculus: construction invariants, divergences, f_p and its
derivative, binarization, Wasserstein-1, and histogram estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import direct_f_p, random_distribution, random_pair_shared_support
from membound.errors import DistributionError, DomainError, FileFormatError
from membound.measures import (
    DiscreteDistribution,
    binarize,
    binary_entropy,
    chi_squared,
    estimate_from_samples,
    f_p,
    f_p_derivative,
    kl_divergence,
    read_scores,
    wasserstein1,
)

B = DiscreteDistribution.bernoulli
D = DiscreteDistribution.delta

KL_09_01 = 2.5359400011538495  # KL(Bern(0.9) || Bern(0.1)) in bits
CHI2_09_01 = 64.0 / 9.0  # chi^2(Bern(0.9) || Bern(0.1))


class TestDiscreteDistribution:
    def test_sorts_and_merges_atoms(self):
        d = DiscreteDistribution(((0.7, 0.25), (0.2, 0.5), (0.7, 0.25)))
        assert d.atoms == ((0.2, 0.5), (0.7, 0.5))

    def test_merges_locations_within_tolerance(self):
        d = DiscreteDistribution(((0.5, 0.5), (0.5 + 1e-13, 0.5)))
        assert len(d.atoms) == 1
        assert d.atoms[0][1] == pytest.approx(1.0, abs=1e-15)

    def test_drops_zero_mass_atoms(self):
        d = DiscreteDistribution(((0.0, 0.0), (1.0, 1.0)))
        assert d.atoms == ((1.0, 1.0),)

    def test_rejects_bad_total_mass(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(((0.5, 0.5),))

    def test_rejects_out_of_range_location(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(((1.5, 1.0),))

    def test_rejects_negative_mass(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(((0.2, -0.1), (0.4, 1.1)))

    def test_bernoulli_and_delta(self):
        assert B(0.3).atoms == ((0.0, 0.7), (1.0, 0.3))
        assert B(0.0).atoms == ((0.0, 1.0),)
        assert D(0.25).atoms == ((0.25, 1.0),)
        assert B(0.3).mean() == pytest.approx(0.3, abs=1e-15)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_construction_invariants(self, seed):
        d = random_distribution(np.random.default_rng(seed))
        locs = [loc for loc, _ in d.atoms]
        assert locs == sorted(locs)
        assert len(set(locs)) == len(locs)
        assert all(mass > 0 for _, mass in d.atoms)
        assert math.fsum(mass for _, mass in d.atoms) == pytest.approx(1.0, abs=1e-12)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence(B(0.5), B(0.5)) == 0.0

    def test_bernoulli_pair(self):
        assert kl_divergence(B(0.9), B(0.1)) == pytest.approx(KL_09_01, abs=1e-12)

    def test_disjoint_support_is_infinite(self):
        assert kl_divergence(D(1.0), D(0.0)) == math.inf

    def test_point_vs_rare_bernoulli(self):
        assert kl_divergence(D(1.0), B(2.0**-10)) == pytest.approx(10.0, abs=1e-12)

    def test_gibbs_nonnegativity_and_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_distribution(rng)
            q = random_distribution(rng)
            value = kl_divergence(p, q)
            assert value >= 0.0
            if p.atoms == q.atoms:
                assert value == 0.0
            assert kl_divergence(p, p) == 0.0


class TestChiSquared:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        p = random_distribution(rng)
        assert chi_squared(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_bernoulli_pair(self):
        assert chi_squared(B(0.9), B(0.1)) == pytest.approx(CHI2_09_01, abs=1e-12)

    def test_delta_vs_fair_coin(self):
        assert chi_squared(D(1.0), B(0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_outside_support_is_infinite(self):
        assert chi_squared(B(0.5), D(0.0)) == math.inf


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


class TestFp:
    def test_perfect_bit(self):
        assert f_p(0.5, D(1.0), D(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_equal_distributions_cost_nothing(self):
        rng = np.random.default_rng(11)
        for p in (0.1, 0.5, 0.9):
            mu = random_distribution(rng)
            assert f_p(p, mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_case(self):
        value = f_p(0.25, D(1.0), B(1.0 / 3.0))
        assert value == pytest.approx(1.2451124978365318, abs=1e-12)
        # closed form: 1 + 3*(1 - h(1/3)) at mu_p = Bern(0.5)
        assert value == pytest.approx(
            1.0 + 3.0 * (1.0 - binary_entropy(1.0 / 3.0)), abs=1e-12
        )

    def test_finite_even_when_kl_is_infinite(self):
        # the mixture mu_p covers both supports, so f_p stays finite
        assert math.isfinite(f_p(0.5, D(1.0), D(0.0)))
        assert kl_divergence(D(1.0), D(0.0)) == math.inf

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                f_p(p, D(1.0), D(0.0))

    def test_matches_direct_mutual_information(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            mu_K = random_distribution(rng)
            mu_N = random_distribution(rng)
            p = float(rng.uniform(0.05, 0.95))
            assert f_p(p, mu_K, mu_N) == pytest.approx(
                direct_f_p(p, mu_K, mu_N), abs=1e-10
            )

    def test_nonincreasing_in_p_and_sparse_limit(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            mu_K, mu_N = random_pair_shared_support(rng)
            values = [f_p(p, mu_K, mu_N) for p in (1e-1, 1e-2, 1e-3, 1e-4)]
            for larger_p, smaller_p in zip(values, values[1:]):
                assert smaller_p >= larger_p - 1e-9
            limit = kl_divergence(mu_K, mu_N)
            assert math.isfinite(limit)
            assert values[-1] == pytest.approx(limit, abs=5e-3 * (1 + limit))


class TestFpDerivative:
    def test_perfect_bit(self):
        assert f_p_derivative(0.5, D(1.0), D(0.0)) == pytest.approx(-4.0, abs=1e-12)

    def test_equal_distributions(self):
        rng = np.random.default_rng(29)
        mu = random_distribution(rng)
        assert f_p_derivative(0.3, mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_case(self):
        value = f_p_derivative(0.25, D(1.0), B(1.0 / 3.0))
        assert value == pytest.approx(-1.3072666551281689, rel=1e-9)
        # closed form: -KL(Bern(1/3) || Bern(0.5)) * 16
        assert value == pytest.approx(
            -(1.0 - binary_entropy(1.0 / 3.0)) * 16.0, rel=1e-9
        )

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            f_p_derivative(0.0, D(1.0), D(0.0))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        step = 1e-5
        for _ in range(100):
            mu_K, mu_N = random_pair_shared_support(rng)
            p = float(rng.uniform(0.05, 0.95))
            closed = f_p_derivative(p, mu_K, mu_N)
            numeric = (f_p(p + step, mu_K, mu_N) - f_p(p - step, mu_K, mu_N)) / (
                2 * step
            )
            if abs(closed) > 1e-8:
                assert numeric == pytest.approx(closed, rel=1e-4)

    def test_derivative_is_nonpositive(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            mu_K = random_distribution(rng)
            mu_N = random_distribution(rng)
            assert f_p_derivative(float(rng.uniform(0.05, 0.95)), mu_K, mu_N) <= 0.0


class TestBinarize:
    def test_delta_one(self):
        assert binarize(D(1.0)).atoms == B(1.0).atoms

    def test_uniform_three_points(self):
        mu = DiscreteDistribution(((0.0, 1 / 3), (0.5, 1 / 3), (1.0, 1 / 3)))
        flat = binarize(mu)
        expected = B(0.5)
        assert [x for x, _ in flat.atoms] == [x for x, _ in expected.atoms]
        assert [w for _, w in flat.atoms] == pytest.approx(
            [w for _, w in expected.atoms]
        )

    def test_bernoulli_fixed_point(self):
        for b in (0.0, 0.25, 1.0):
            assert binarize(B(b)).atoms == B(b).atoms

    def test_mass_sum_above_one_within_tolerance(self):
        # The constructor accepts masses summing within 1e-12 of 1, so the
        # mean can exceed 1 by rounding; the Bernoulli law stays valid.
        assert binarize(DiscreteDistribution(((1.0, 1.0 + 5e-13),))).atoms == B(1.0).atoms
        mu = DiscreteDistribution(((0.5, 0.5), (1.0, 0.5 + 5e-13)))
        assert binarize(mu).atoms == B(0.75 + 5e-13).atoms

    def test_preserves_binary_error_expectations(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            mu = random_distribution(rng)
            flat = binarize(mu)
            # FNR d(x) = 1-x and FPR d(x) = x are linear in x, so their
            # expectations only depend on the mean, which is preserved.
            assert flat.mean() == pytest.approx(mu.mean(), abs=1e-15)

    def test_data_processing_never_increases_f_p(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            mu_K = random_distribution(rng)
            mu_N = random_distribution(rng)
            for p in (0.1, 0.5, 0.9):
                assert f_p(p, binarize(mu_K), binarize(mu_N)) <= (
                    f_p(p, mu_K, mu_N) + 1e-10
                )


class TestWasserstein1:
    def test_unit_transport(self):
        assert wasserstein1(D(0.0), D(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_identical(self):
        rng = np.random.default_rng(47)
        mu = random_distribution(rng)
        assert wasserstein1(mu, mu) == 0.0

    def test_half_transport(self):
        assert wasserstein1(B(0.5), D(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(53)
        a, b, c = (random_distribution(rng) for _ in range(3))
        assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-14)
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-14


class TestEstimateFromSamples:
    def test_point_mass_lands_in_middle_bin(self):
        # Bin 25 of 50 covers [0.5, 0.52); its atom sits at the midpoint.
        assert estimate_from_samples([0.5] * 10, bins=50).atoms == ((0.51, 1.0),)

    def test_two_bins(self):
        hist = estimate_from_samples([0.0, 0.0, 1.0, 1.0], bins=2)
        assert hist.atoms == ((0.25, 0.5), (0.75, 0.5))

    def test_one_lands_in_last_bin(self):
        assert estimate_from_samples([1.0], bins=4).atoms == ((0.875, 1.0),)

    def test_single_bin(self):
        assert estimate_from_samples([0.0, 0.3, 1.0], bins=1).atoms == ((0.5, 1.0),)

    def test_bernoulli_frequencies(self):
        rng = np.random.default_rng(59)
        samples = (rng.random(10**4) < 0.3).astype(float).tolist()
        hist = estimate_from_samples(samples, bins=50)
        (x0, w0), (x1, w1) = hist.atoms
        assert (x0, x1) == (0.01, 0.99)
        band = 3.0 * math.sqrt(0.3 * 0.7 / 10**4)
        assert abs(w0 - 0.7) <= band
        assert w0 + w1 == 1.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(DomainError):
            estimate_from_samples([], bins=50)
        with pytest.raises(DomainError):
            estimate_from_samples([1.5], bins=50)

    def test_histogram_kl_finite_iff_covered(self):
        rng = np.random.default_rng(61)
        base = rng.random(500).tolist()
        widened = base + rng.random(500).tolist()
        hist_p = estimate_from_samples(base, bins=10)
        hist_q = estimate_from_samples(widened, bins=10)
        # every occupied P bin is occupied under Q by construction
        assert math.isfinite(kl_divergence(hist_p, hist_q))
        narrow = estimate_from_samples([0.05] * 10, bins=10)
        spread = estimate_from_samples([0.95] * 10, bins=10)
        assert kl_divergence(narrow, spread) == math.inf

    def test_kl_and_chi2_match_a_plain_binned_sum(self):
        # Reference: count each bin in plain Python and sum over the bins with
        # math.fsum, independent of the atoms the estimate builds.
        rng = np.random.default_rng(67)
        for bins in (2, 7, 50, 1000):
            beta_2_5 = rng.beta(2.0, 5.0, 400).tolist()
            beta_2_2 = rng.beta(2.0, 2.0, 3000).tolist()
            for xs, ys in ((beta_2_5, beta_2_2), (beta_2_2, beta_2_5)):
                p, q = [[0] * bins for _ in range(2)]
                for freqs, samples in ((p, xs), (q, ys)):
                    for x in samples:
                        freqs[min(int(x * bins), bins - 1)] += 1
                    freqs[:] = [c / len(samples) for c in freqs]
                kl = chi2 = math.inf
                if all(b > 0 for a, b in zip(p, q) if a > 0):
                    kl = math.fsum(a * math.log2(a / b) for a, b in zip(p, q) if a > 0)
                    chi2 = math.fsum((a - b) ** 2 / b for a, b in zip(p, q) if b > 0)
                hist_p = estimate_from_samples(xs, bins)
                hist_q = estimate_from_samples(ys, bins)
                assert kl_divergence(hist_p, hist_q) == pytest.approx(kl, abs=1e-12)
                assert chi_squared(hist_p, hist_q) == pytest.approx(chi2, abs=1e-12)

    def test_every_measure_accepts_an_estimate(self):
        narrow = estimate_from_samples([0.05] * 10, bins=10)
        spread = estimate_from_samples([0.95] * 10, bins=10)
        assert wasserstein1(narrow, spread) == pytest.approx(0.9, abs=1e-15)
        # Disjoint supports: the tester knows membership exactly, h(p)/p bits.
        assert f_p(0.5, narrow, spread) == pytest.approx(2.0, abs=1e-12)
        assert f_p_derivative(0.5, narrow, spread) == pytest.approx(-4.0, abs=1e-12)


class TestReadScores:
    def test_reads_comments_and_blanks(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# header\n0.25\n\n0.75\n1.0\n", encoding="utf-8")
        assert read_scores(path) == [0.25, 0.75, 1.0]

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n1.5\n", encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            read_scores(path)
        assert "2" in str(err.value)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0.5\nhello\n", encoding="utf-8")
        with pytest.raises(FileFormatError):
            read_scores(path)
