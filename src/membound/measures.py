"""Score distributions and the information measures built on them.

A membership tester is summarised by two distributions over the score space
[0, 1]: the scores it assigns to keys and the scores it assigns to non-keys.
This module provides the finite-support distribution type, the divergences
used throughout the package (Kullback-Leibler, chi-squared), the mixture
functional ``f_p`` that prices a key/non-key pair of score distributions in
bits of memory per key, and estimation helpers for empirical score samples.
A histogram estimate is itself a ``DiscreteDistribution`` with one atom per
occupied bin at the bin's midpoint, so every measure here accepts it.

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
        object.__setattr__(self, "atoms", tuple((x, w) for x, w in merged if w > 0.0))

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


def _aligned(P: DiscreteDistribution, Q: DiscreteDistribution):
    """``(grid, a, b)``: the sorted union of both laws' atom locations,
    deduplicated at the merge tolerance, and each law's masses on it."""
    xs = np.sort(np.concatenate((P.locations(), Q.locations())))
    grid = xs[np.concatenate(([True], np.diff(xs) > MERGE_TOL))]
    aligned = [grid]
    for dist in (P, Q):
        locs = dist.locations()
        idx = np.clip(np.searchsorted(grid, locs), 0, grid.size - 1)
        below = np.clip(idx - 1, 0, grid.size - 1)
        pick = np.where(np.abs(grid[idx] - locs) <= np.abs(locs - grid[below]), idx, below)
        masses = np.zeros(grid.size)
        np.add.at(masses, pick, dist.masses())
        aligned.append(masses)
    return tuple(aligned)


def _kl_vectors(p: np.ndarray, q: np.ndarray) -> float:
    """KL between two aligned mass vectors, in bits."""
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    pm = p[mask]
    return float(np.sum(pm * (np.log2(pm) - np.log2(q[mask]))))


def kl_divergence(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence KL(P || Q) in bits.

    Returns ``+inf`` when P puts mass where Q has none.
    """
    _, p, q = _aligned(P, Q)
    return _kl_vectors(p, q)


def chi_squared(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """Chi-squared divergence chi2(P || Q) = sum (p-q)^2 / q over supp(Q).

    Returns ``+inf`` when P puts mass where Q has none.  Dimensionless.
    """
    _, p, q = _aligned(P, Q)
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
    _, a, b = _aligned(mu_K, mu_N)
    return f_p_masses(p, a, b)


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
    _, a, b = _aligned(mu_K, mu_N)
    mix = p * a + (1.0 - p) * b
    return -_kl_vectors(b, mix) / (p * p)


def binarize(mu: DiscreteDistribution) -> DiscreteDistribution:
    """Collapse a score distribution to a Bernoulli with the same mean.

    This is the score-space coarsening induced by thresholding bookkeeping:
    it preserves the expected value of any error metric linear in the score
    (false-negative and false-positive rates) and, by data processing, never
    increases ``f_p``.  Masses sum to 1 only within the constructor's
    tolerance, so the mean is capped at 1 (it is never negative).
    """
    return DiscreteDistribution.bernoulli(min(1.0, mu.mean()))


def wasserstein1(P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """1-Wasserstein (earth mover) distance on [0, 1]: integral of |F_P - F_Q|."""
    grid, a, b = _aligned(P, Q)
    if grid.size == 1:
        return 0.0
    diff = np.cumsum(a - b)
    return float(np.sum(np.abs(diff[:-1]) * np.diff(grid)))


def estimate_from_samples(
    samples: Iterable[float], bins: int = 50
) -> DiscreteDistribution:
    """Histogram estimate of a score distribution from raw samples in [0, 1].

    Bin ``i`` of ``bins`` equal-width bins (default 50) covers
    ``[i/bins, (i+1)/bins)``; a sample equal to 1.0 lands in the last bin.
    Each occupied bin becomes one atom at its midpoint ``(i + 0.5)/bins``
    with the bin's sample frequency as mass.  No smoothing: an empty bin
    gets no atom, so divergences against it are faithfully infinite.
    """
    if not isinstance(bins, int) or bins < 1:
        raise DomainError(f"bins must be a positive integer, got {bins!r}")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise DomainError("need at least one sample")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError("samples must lie in [0, 1]")
    counts, _ = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    occupied = np.nonzero(counts)[0]
    midpoints = ((occupied + 0.5) / bins).tolist()
    return DiscreteDistribution(
        tuple(zip(midpoints, (counts[occupied] / arr.size).tolist()))
    )


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
