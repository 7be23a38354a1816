"""Score distributions and the information measures built on them.

A membership tester is summarised by two distributions over the score space
[0, 1]: the scores it assigns to keys and the scores it assigns to non-keys.
This module provides the finite-support distribution type, the divergences
used throughout the package (Kullback-Leibler, chi-squared), the mixture
functional ``f_p`` that prices a key/non-key pair of score distributions in
bits of memory per key, and estimation helpers for empirical score samples.

Conventions
-----------
* All divergences, entropies, and rates are in **bits** (log base 2).
* ``0 * log 0`` is 0; mass of P outside the support of Q makes KL(P||Q) and
  chi2(P||Q) equal ``+inf``.
* Atom locations closer than 1e-12 are treated as the same score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DistributionError, DomainError, FileFormatError

__all__ = [
    "DiscreteDistribution",
    "BinnedHistogram",
    "kl_divergence",
    "chi_squared",
    "binary_entropy",
    "f_p",
    "f_p_masses",
    "f_p_derivative",
    "binarize",
    "wasserstein1",
    "estimate_from_samples",
    "read_scores",
]

# Atoms closer than this are merged into one location.
MERGE_TOL = 1e-12
# Masses must sum to 1 within this.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability distribution with finitely many atoms on [0, 1].

    ``atoms`` is a sequence of ``(location, mass)`` pairs.  Construction
    sorts atoms by location, merges locations closer than 1e-12, drops
    zero-mass atoms, and validates that masses are non-negative and sum to 1
    within 1e-12.  Instances are immutable and compare by their normalized
    atom tuple.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        try:
            pairs = [(float(x), float(w)) for x, w in self.atoms]
        except (TypeError, ValueError) as exc:
            raise DistributionError(f"atoms must be (location, mass) pairs: {exc}")
        if not pairs:
            raise DistributionError("a distribution needs at least one atom")
        for x, w in pairs:
            if not math.isfinite(x) or x < 0.0 or x > 1.0:
                raise DistributionError(f"atom location {x!r} outside [0, 1]")
            if not math.isfinite(w) or w < 0.0:
                raise DistributionError(f"atom mass {w!r} negative or not finite")
        total = math.fsum(w for _, w in pairs)
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"atom masses sum to {total!r}, not 1")
        pairs.sort()
        merged: list[list[float]] = []
        for x, w in pairs:
            if merged and x - merged[-1][0] <= MERGE_TOL:
                merged[-1][1] += w
            else:
                merged.append([x, w])
        kept = tuple((x, w) for x, w in merged if w > 0.0)
        if not kept:  # pragma: no cover - sum==1 guarantees some positive mass
            raise DistributionError("all atoms have zero mass")
        object.__setattr__(self, "atoms", kept)

    @classmethod
    def delta(cls, location: float) -> "DiscreteDistribution":
        """Point mass at ``location``."""
        return cls(((location, 1.0),))

    @classmethod
    def bernoulli(cls, b: float) -> "DiscreteDistribution":
        """Mass ``1-b`` at score 0 and mass ``b`` at score 1."""
        if not (isinstance(b, (int, float)) and 0.0 <= b <= 1.0):
            raise DistributionError(f"bernoulli parameter {b!r} outside [0, 1]")
        if b == 0.0:
            return cls.delta(0.0)
        if b == 1.0:
            return cls.delta(1.0)
        return cls(((0.0, 1.0 - b), (1.0, b)))

    def locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms], dtype=float)

    def masses(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def mean(self) -> float:
        return float(sum(x * w for x, w in self.atoms))


@dataclass(frozen=True)
class BinnedHistogram:
    """An empirical score distribution on ``bins`` equal-width bins of [0, 1].

    Bin ``i`` covers ``[i/bins, (i+1)/bins)``; the last bin also includes the
    score 1.0.  Masses are raw frequencies -- no smoothing is applied, so
    empty bins stay empty and divergences against them are faithfully
    infinite.
    """

    bins: int
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.bins, int) or self.bins < 2:
            raise DistributionError(f"bins must be an integer >= 2, got {self.bins!r}")
        masses = tuple(float(m) for m in self.masses)
        if len(masses) != self.bins:
            raise DistributionError(
                f"expected {self.bins} masses, got {len(masses)}"
            )
        for m in masses:
            if not math.isfinite(m) or m < 0.0:
                raise DistributionError(f"bin mass {m!r} negative or not finite")
        total = math.fsum(masses)
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"bin masses sum to {total!r}, not 1")
        object.__setattr__(self, "masses", masses)

    def masses_array(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)


def _merged_grid(*dists: DiscreteDistribution) -> np.ndarray:
    """Union of atom locations, sorted, deduplicated at the merge tolerance."""
    xs = np.sort(np.concatenate([d.locations() for d in dists]))
    keep = np.concatenate(([True], np.diff(xs) > MERGE_TOL))
    return xs[keep]

def _mass_on(dist: DiscreteDistribution, grid: np.ndarray) -> np.ndarray:
    """Mass vector of ``dist`` on ``grid`` (which must cover its support)."""
    out = np.zeros(grid.size)
    locs = dist.locations()
    idx = np.clip(np.searchsorted(grid, locs), 0, grid.size - 1)
    below = np.clip(idx - 1, 0, grid.size - 1)
    pick = np.where(np.abs(grid[idx] - locs) <= np.abs(locs - grid[below]), idx, below)
    np.add.at(out, pick, dist.masses())
    return out


def _kl_vectors(p: np.ndarray, q: np.ndarray) -> float:
    """KL between two aligned mass vectors, in bits."""
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * (np.log2(pm) - np.log2(q[mask]))))


def _paired_masses(P, Q) -> tuple[np.ndarray, np.ndarray]:
    """Aligned mass vectors for a pair of distributions or histograms."""
    if isinstance(P, BinnedHistogram) or isinstance(Q, BinnedHistogram):
        if not (isinstance(P, BinnedHistogram) and isinstance(Q, BinnedHistogram)):
            raise DomainError("cannot mix a histogram with an atomic distribution")
        if P.bins != Q.bins:
            raise DomainError(f"histograms have different binning: {P.bins} vs {Q.bins}")
        return P.masses_array(), Q.masses_array()
    grid = _merged_grid(P, Q)
    return _mass_on(P, grid), _mass_on(Q, grid)


def kl_divergence(P, Q) -> float:
    """Kullback-Leibler divergence KL(P || Q) in bits.

    Accepts two DiscreteDistributions or two BinnedHistograms with identical
    binning.  Returns ``+inf`` when P puts mass where Q has none.
    """
    p, q = _paired_masses(P, Q)
    return _kl_vectors(p, q)


def chi_squared(P, Q) -> float:
    """Chi-squared divergence chi2(P || Q) = sum (p-q)^2 / q over supp(Q).

    Returns ``+inf`` when P puts mass where Q has none.  Dimensionless.
    """
    p, q = _paired_masses(P, Q)
    if np.any((p > 0.0) & (q <= 0.0)):
        return math.inf
    mask = q > 0.0
    d = p[mask] - q[mask]
    return float(np.sum(d * d / q[mask]))


def binary_entropy(x: float) -> float:
    """Entropy of a Bernoulli(x) in bits; 0 at the endpoints."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary_entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _check_density(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"key density p={p!r} outside the open interval (0, 1)")


def f_p(p: float, mu_K: DiscreteDistribution, mu_N: DiscreteDistribution) -> float:
    """Memory price, in bits per key, of the score pair (mu_K, mu_N).

    With key density ``p`` in (0, 1) and the score mixture
    ``mu_p = p*mu_K + (1-p)*mu_N``,

        f_p = KL(mu_K || mu_p) + ((1-p)/p) * KL(mu_N || mu_p).

    This equals I(X; score)/p for X ~ Bernoulli(p) indicating membership, so
    it is finite for every pair of score distributions.  Non-increasing in
    ``p``; as p -> 0 it increases to KL(mu_K || mu_N).
    """
    _check_density(p)
    grid = _merged_grid(mu_K, mu_N)
    return f_p_masses(p, _mass_on(mu_K, grid), _mass_on(mu_N, grid))


def f_p_masses(p: float, a: np.ndarray, b: np.ndarray) -> float:
    """``f_p`` of two mass vectors aligned on a common grid of locations."""
    mix = p * a + (1.0 - p) * b
    return _kl_vectors(a, mix) + (1.0 - p) / p * _kl_vectors(b, mix)


def f_p_derivative(
    p: float, mu_K: DiscreteDistribution, mu_N: DiscreteDistribution
) -> float:
    """Derivative of ``f_p`` with respect to ``p``, in bits per unit density.

    Equals ``-KL(mu_N || mu_p) / p^2``; always <= 0.
    """
    _check_density(p)
    grid = _merged_grid(mu_K, mu_N)
    a = _mass_on(mu_K, grid)
    b = _mass_on(mu_N, grid)
    mix = p * a + (1.0 - p) * b
    return -_kl_vectors(b, mix) / (p * p)


def binarize(mu: DiscreteDistribution) -> DiscreteDistribution:
    """Collapse a score distribution to a Bernoulli with the same mean.

    This is the score-space coarsening induced by thresholding bookkeeping:
    it preserves the expected value of any error metric linear in the score
    (false-negative and false-positive rates) and, by data processing, never
    increases ``f_p``.
    """
    return DiscreteDistribution.bernoulli(mu.mean())


def wasserstein1(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """1-Wasserstein (earth mover) distance on [0, 1]: integral of |F_P - F_Q|."""
    grid = _merged_grid(P, Q)
    if grid.size == 1:
        return 0.0
    diff = np.cumsum(_mass_on(P, grid) - _mass_on(Q, grid))
    return float(np.sum(np.abs(diff[:-1]) * np.diff(grid)))


def estimate_from_samples(samples: Iterable[float], bins: int = 50) -> BinnedHistogram:
    """Histogram estimate of a score distribution from raw samples in [0, 1].

    Uses ``bins`` equal-width bins (default 50); a sample equal to 1.0 lands
    in the last bin.  No smoothing: empty bins keep zero mass.
    """
    if not isinstance(bins, int) or bins < 1:
        raise DomainError(f"bins must be a positive integer, got {bins!r}")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise DomainError("need at least one sample")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError("samples must lie in [0, 1]")
    counts, _ = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return BinnedHistogram(bins, tuple((counts / arr.size).tolist()))


def read_scores(path) -> list[float]:
    """Read a UTF-8 score file: one score per line in [0, 1].

    Blank lines and lines starting with ``#`` are ignored.  Malformed lines
    raise FileFormatError with the offending line number.
    """
    scores: list[float] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise FileFormatError(f"{path}:{lineno}: not a number: {line!r}")
                if not math.isfinite(value) or not (0.0 <= value <= 1.0):
                    raise FileFormatError(f"{path}:{lineno}: score {value!r} outside [0, 1]")
                scores.append(value)
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return scores
