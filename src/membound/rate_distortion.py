"""The memory-error frontier: how many bits per key a membership tester
needs to achieve target error levels.

Given a key-side error metric d_K and a non-key-side metric d_N on the
score space [0, 1], the frontier at key density ``p`` is

    R_p(eps_K, eps_N) = min { f_p(p, mu_K, mu_N) :
                              E_{mu_K}[d_K] <= eps_K, E_{mu_N}[d_N] <= eps_N }

in bits per key.  This module provides the error metrics, the constrained
solver ``solve_rp``, closed-form optimizers for the binary and log-loss
regimes, an independent brute-force oracle for the binary case, the
small-``p`` first-order expansion, and the finite-``n`` total-memory lower
bound.

Units: rates and duals are in bits (duals in bits per unit of metric);
log-loss metric values and their budgets are in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError, TrivialRegimeError
from .measures import (
    DiscreteDistribution,
    MERGE_TOL,
    chi_squared,
    f_p_masses,
    kl_divergence,
)

__all__ = [
    "ErrorMetric",
    "metric_value",
    "FrontierPoint",
    "OptimalScorePair",
    "LogLossOptimum",
    "optimal_binary",
    "optimal_logloss",
    "solve_rp",
    "rp_binary_oracle",
    "first_order_rate",
    "memory_lower_bound",
    "frontier_to_csv",
    "frontier_sidecar",
]

_LN2 = math.log(2.0)

_KIND_SIDES = {
    "fnr": "key",
    "fpr": "nonkey",
    "logloss_key": "key",
    "logloss_nonkey": "nonkey",
    "tabulated": None,  # side supplied explicitly
}
# Every metric must award zero penalty to a perfect score: 1 for keys
# (always answer "member"), 0 for non-keys (always answer "not a member").
_ANCHOR = {"key": 1.0, "nonkey": 0.0}


@dataclass(frozen=True)
class ErrorMetric:
    """An error metric d(x) >= 0 on scores x in [0, 1].

    Named kinds: ``fnr`` d(x) = 1 - x; ``fpr`` d(x) = x (both dimensionless);
    ``logloss_key`` d(x) = -ln x and ``logloss_nonkey`` d(x) = -ln(1 - x)
    (both in nats, +inf at the bad endpoint).  ``tabulated`` metrics are
    defined only at their listed locations and are +inf elsewhere.

    Every metric must satisfy the perfect-score anchor for its side:
    d(1) = 0 for key metrics, d(0) = 0 for non-key metrics.
    """

    kind: str
    side: str
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SIDES:
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.side not in ("key", "nonkey"):
            raise DomainError(f"metric side must be 'key' or 'nonkey', got {self.side!r}")
        expected = _KIND_SIDES[self.kind]
        if expected is not None and expected != self.side:
            raise DomainError(f"metric kind {self.kind!r} is a {expected}-side metric")
        if self.kind == "tabulated":
            if not self.table:
                raise DomainError("tabulated metric needs at least one (location, penalty)")
            rows = []
            for x, pen in self.table:
                x, pen = float(x), float(pen)
                if not (0.0 <= x <= 1.0):
                    raise DomainError(f"tabulated location {x!r} outside [0, 1]")
                if not pen >= 0.0:
                    raise DomainError(f"tabulated penalty {pen!r} is negative or NaN")
                rows.append((x, pen))
            rows.sort()
            for (x0, _), (x1, _) in zip(rows, rows[1:]):
                if x1 - x0 <= MERGE_TOL:
                    raise DomainError(f"duplicate tabulated location {x1!r}")
            object.__setattr__(self, "table", tuple(rows))
        elif self.table is not None:
            raise DomainError(f"metric kind {self.kind!r} does not take a table")
        anchor = _ANCHOR[self.side]
        if metric_value(self, anchor) != 0.0:
            raise DomainError(
                f"{self.side} metric must have zero penalty at score {anchor}"
            )

    @classmethod
    def fnr(cls) -> "ErrorMetric":
        return cls("fnr", "key")

    @classmethod
    def fpr(cls) -> "ErrorMetric":
        return cls("fpr", "nonkey")

    @classmethod
    def logloss_key(cls) -> "ErrorMetric":
        return cls("logloss_key", "key")

    @classmethod
    def logloss_nonkey(cls) -> "ErrorMetric":
        return cls("logloss_nonkey", "nonkey")

    @classmethod
    def tabulated_key(cls, table: Sequence[tuple[float, float]]) -> "ErrorMetric":
        return cls("tabulated", "key", tuple(table))

    @classmethod
    def tabulated_nonkey(cls, table: Sequence[tuple[float, float]]) -> "ErrorMetric":
        return cls("tabulated", "nonkey", tuple(table))

    def is_binary(self) -> bool:
        return self.kind in ("fnr", "fpr")

    def is_logloss(self) -> bool:
        return self.kind in ("logloss_key", "logloss_nonkey")


def metric_value(metric: ErrorMetric, x: float) -> float:
    """Penalty of ``metric`` at score ``x`` (may be +inf)."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"score {x!r} outside [0, 1]")
    if metric.kind == "fnr":
        return 1.0 - x
    if metric.kind == "fpr":
        return x
    if metric.kind == "logloss_key":
        return math.inf if x == 0.0 else -math.log(x)
    if metric.kind == "logloss_nonkey":
        return math.inf if x == 1.0 else -math.log1p(-x)
    for loc, pen in metric.table:
        if abs(loc - x) <= MERGE_TOL:
            return pen
    return math.inf


@dataclass(frozen=True)
class FrontierPoint:
    """One solved point of the memory-error frontier."""

    p: float
    eps_K: float
    eps_N: float
    rate_bits_per_key: float
    mu_K: DiscreteDistribution
    mu_N: DiscreteDistribution
    dual_K: float
    dual_N: float
    converged: bool


@dataclass(frozen=True)
class OptimalScorePair:
    """Closed-form optimizer for binary metrics."""

    mu_K: DiscreteDistribution
    mu_N: DiscreteDistribution
    rate_bits_per_key: float


@dataclass(frozen=True)
class LogLossOptimum:
    """Closed-form optimizer for log-loss metrics."""

    x_star: float
    q_star: float
    mu_K: DiscreteDistribution
    mu_N: DiscreteDistribution
    rate_bits_per_key: float


def optimal_binary(eps_K: float, eps_N: float) -> OptimalScorePair:
    """Optimal score pair for FNR budget ``eps_K`` and FPR budget ``eps_N``.

    In the non-trivial regime eps_K + eps_N < 1 the optimum is
    (Bernoulli(1 - eps_K), Bernoulli(eps_N)) with rate
    KL(Bern(1-eps_K) || Bern(eps_N)) bits per key.
    """
    if not (eps_K >= 0.0 and eps_N >= 0.0):
        raise DomainError("error budgets must be nonnegative")
    if eps_K + eps_N >= 1.0:
        raise TrivialRegimeError(
            f"eps_K + eps_N = {eps_K + eps_N} >= 1: rate 0 is achievable "
            "with identical key and non-key score distributions"
        )
    mu_K = DiscreteDistribution.bernoulli(1.0 - eps_K)
    mu_N = DiscreteDistribution.bernoulli(eps_N)
    return OptimalScorePair(mu_K, mu_N, kl_divergence(mu_K, mu_N))


# Float slack for the log-loss regime boundary e^-eps_K + e^-eps_N = 1,
# which is valid (rate 0) but lands epsilon-off under float exp.
_REGIME_TOL = 1e-12


def optimal_logloss(eps_K: float, eps_N: float) -> LogLossOptimum:
    """Optimal score pair for log-loss budgets (in nats) on both sides.

    Requires eps_K > 0, eps_N > 0 and e^-eps_K + e^-eps_N >= 1.  Returns
    x* = e^-eps_K, q* = eps_N / (-ln(1 - x*)), mu_K = delta_{x*},
    mu_N = (1-q*) delta_0 + q* delta_{x*}, and rate log2(1/q*), which equals
    KL(mu_K || mu_N) identically.  On the regime boundary q* = 1 and the
    rate is 0.
    """
    if not (eps_K > 0.0 and eps_N > 0.0):
        raise DomainError("log-loss budgets must be strictly positive (nats)")
    x_star = math.exp(-eps_K)
    gap = x_star + math.exp(-eps_N) - 1.0
    if gap < -_REGIME_TOL:
        raise TrivialRegimeError(
            f"e^-eps_K + e^-eps_N = {1.0 + gap} < 1: no single score value "
            "can meet both log-loss budgets"
        )
    q_star = min(1.0, eps_N / -math.log1p(-x_star))
    mu_K = DiscreteDistribution.delta(x_star)
    if q_star == 1.0:
        mu_N = DiscreteDistribution.delta(x_star)
    else:
        mu_N = DiscreteDistribution(((0.0, 1.0 - q_star), (x_star, q_star)))
    return LogLossOptimum(x_star, q_star, mu_K, mu_N, max(0.0, -math.log2(q_star)))


def rp_binary_oracle(p: float, eps_K: float, eps_N: float, grid_size: int) -> float:
    """Brute-force R_p for FNR/FPR metrics: no optimizer, just a grid scan.

    Minimizes f_p(p, Bern(a), Bern(b)) over a uniform ``grid_size`` x
    ``grid_size`` grid of the feasible box [1-eps_K, 1] x [0, eps_N]
    (clipped to [0, 1]).  Independent of ``solve_rp`` by construction.
    """
    if grid_size < 100:
        raise DomainError(f"grid_size must be >= 100, got {grid_size}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"key density p={p!r} outside (0, 1)")
    if not (eps_K >= 0.0 and eps_N >= 0.0):
        raise DomainError("error budgets must be nonnegative")
    if eps_K + eps_N >= 1.0 and eps_K < 1.0 and eps_N < 1.0:
        raise TrivialRegimeError(
            f"eps_K + eps_N = {eps_K + eps_N} >= 1: rate 0 is achievable"
        )
    a = np.linspace(max(0.0, 1.0 - eps_K), 1.0, grid_size)[:, None]
    b = np.linspace(0.0, min(1.0, eps_N), grid_size)[None, :]
    c = p * a + (1.0 - p) * b

    def term(x, mix):
        with np.errstate(divide="ignore", invalid="ignore"):
            one = np.where(x > 0.0, x * (np.log2(np.where(x > 0.0, x, 1.0)) -
                                         np.log2(np.where(mix > 0.0, mix, 1.0))), 0.0)
            xm, mm = 1.0 - x, 1.0 - mix
            two = np.where(xm > 0.0, xm * (np.log2(np.where(xm > 0.0, xm, 1.0)) -
                                           np.log2(np.where(mm > 0.0, mm, 1.0))), 0.0)
        return one + two

    rates = term(a, c) + (1.0 - p) / p * term(b, c)
    return float(rates.min())


def first_order_rate(eps_K: float, eps_N: float, p: float) -> float:
    """Small-p expansion of the binary frontier, in bits per key:

        KL(Bern(1-eps_K) || Bern(eps_N)) - p * chi2(same pair) / (2 ln 2).

    Returns +inf when the base KL is infinite (eps_N = 0 with eps_K < 1).
    """
    if not p >= 0.0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    if not (eps_K >= 0.0 and eps_N >= 0.0):
        raise DomainError("error budgets must be nonnegative")
    if eps_K + eps_N >= 1.0:
        raise TrivialRegimeError(
            f"eps_K + eps_N = {eps_K + eps_N} >= 1: expansion undefined"
        )
    mu_K = DiscreteDistribution.bernoulli(1.0 - eps_K)
    mu_N = DiscreteDistribution.bernoulli(eps_N)
    kl = kl_divergence(mu_K, mu_N)
    if math.isinf(kl):
        return math.inf
    return kl - p * chi_squared(mu_K, mu_N) / (2.0 * _LN2)


def memory_lower_bound(n: int, fp_value: float) -> float:
    """Total-memory lower bound, in bits, for n keys at per-key price
    ``fp_value``: max(0, n*fp_value - log2(8n)/2)."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not fp_value >= 0.0:
        raise DomainError(f"fp_value must be nonnegative, got {fp_value!r}")
    if math.isinf(fp_value):
        return math.inf
    return max(0.0, n * fp_value - math.log2(8.0 * n) / 2.0)


# ---------------------------------------------------------------------------
# solve_rp internals
# ---------------------------------------------------------------------------
#
# For fixed duals (lamK, lamN) the Lagrangian
#     L = f_p + lamK * E_{muK}[d_K] + lamN * E_{muN}[d_N]
# is minimized in closed form.  Writing f_p as mutual information over the
# channel (key row muK, non-key row muN) and using the variational identity
# I = min_r sum_x pi_x KL(row_x || r), the row minimizations given the
# output mixture r are the usual exponential-tilt updates with weights
#     wK(x) = 2^{-lamK * d_K(x)},   wN(x) = 2^{-(p/(1-p)) * lamN * d_N(x)},
# leaving   p * L(r) = -p*log2(a) - (1-p)*log2(b),
#     a = sum r*wK,  b = sum r*wN.
# The objective depends on r only through (a, b), so the optimal r lies on
# the upper-right convex-hull boundary of the planar point set
# {(wK(x), wN(x))}: either a hull vertex or an interior point of a hull
# edge, where the optimum is available in closed form.  This is the exact
# fixed point of the alternating row/mixture minimization, computed without
# iterating; the optimal rows follow as muK = r*wK/a, muN = r*wN/b.
#
# The score grid is _GRID_POINTS uniform locations (plus the closed-form
# log-loss atoms and any tabulated locations); each dual is bisected on
# [0, _LAMBDA_MAX] until the constraint residual is within _RESIDUAL_TOL or
# _MAX_ITERATIONS halvings have run.

_GRID_POINTS = 201
_LAMBDA_MAX = 1e6
_RESIDUAL_TOL = 1e-6
_MAX_ITERATIONS = 200


@dataclass
class _InnerSolution:
    idx: np.ndarray      # grid indices carrying mass (for either side)
    mK: np.ndarray       # mu_K masses on idx (sums to 1)
    mN: np.ndarray       # mu_N masses on idx (sums to 1)
    E_K: float
    E_N: float


def _tilt_weights(d: np.ndarray, lam: float) -> np.ndarray:
    """2^(-lam * d) with the lam = 0 convention 1 everywhere (even d = inf)."""
    if lam == 0.0:
        return np.ones_like(d)
    with np.errstate(under="ignore"):
        return np.exp2(np.where(np.isinf(d), -np.inf, -lam * d))


def _mean_penalty(masses: np.ndarray, d: np.ndarray) -> float:
    """E[d] under the given masses, with exact-zero masses ignored."""
    carrier = masses > 0.0
    if np.any(carrier & np.isinf(d)):
        return math.inf
    return float(np.sum(masses[carrier] * d[carrier]))


def _inner_solve(
    p: float, dK: np.ndarray, dN: np.ndarray, lamK: float, lamN: float
) -> _InnerSolution:
    """Exact Lagrangian minimizer at fixed duals (see block comment above)."""
    wK = _tilt_weights(dK, lamK)
    wN = _tilt_weights(dN, lamN * p / (1.0 - p))
    n = wK.size
    # Collapse duplicate (wK, wN) statistics; the representative with the
    # smallest total penalty makes the at-lambda-zero probes report the most
    # favorable achievable expectation for the dropped constraint.
    dsum = dK + dN
    order = np.lexsort((np.arange(n), dsum, wN, wK))
    sa, sb = wK[order], wN[order]
    new_group = np.concatenate(([True], (np.diff(sa) != 0) | (np.diff(sb) != 0)))
    reps = order[new_group]
    reps = reps[(wK[reps] > 0.0) | (wN[reps] > 0.0)]
    a_r, b_r = wK[reps], wN[reps]
    # Pareto-maximal representatives, sorted by a ascending / b descending.
    o2 = np.lexsort((-b_r, -a_r))
    best_b = -1.0
    keep = []
    for i in o2:
        if b_r[i] > best_b:
            keep.append(i)
            best_b = b_r[i]
    keep.reverse()
    pts = [(a_r[i], b_r[i], reps[i]) for i in keep]
    # Upper hull (Andrew monotone chain on the Pareto staircase).
    hull: list[tuple[float, float, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (a1, b1, _), (a2, b2, _) = hull[-2], hull[-1]
            if (a2 - a1) * (pt[1] - b1) - (b2 - b1) * (pt[0] - a1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)
    ha = np.array([h[0] for h in hull])
    hb = np.array([h[1] for h in hull])
    with np.errstate(divide="ignore"):
        phi_v = p * np.log(ha) + (1.0 - p) * np.log(hb)
    best_phi = float(np.max(phi_v))
    best = (int(np.argmax(phi_v)), None)  # vertex index, edge t
    for e in range(len(hull) - 1):
        aV, bV = ha[e], hb[e]
        da, db = ha[e + 1] - aV, hb[e + 1] - bV
        prod = da * db
        if prod == 0.0:
            continue
        t = -(p * da * bV + (1.0 - p) * db * aV) / prod
        if not (0.0 < t < 1.0):
            continue
        phi = p * math.log(aV + t * da) + (1.0 - p) * math.log(bV + t * db)
        if phi > best_phi:
            best_phi = phi
            best = (e, t)
    v, t = best
    if t is None:
        idx = np.array([hull[v][2]])
        r = np.array([1.0])
        a, b = ha[v], hb[v]
    else:
        idx = np.array([hull[v][2], hull[v + 1][2]])
        r = np.array([1.0 - t, t])
        a = (1.0 - t) * ha[v] + t * ha[v + 1]
        b = (1.0 - t) * hb[v] + t * hb[v + 1]
    muK = r * wK[idx] / a if a > 0.0 else np.zeros_like(r)
    muN = r * wN[idx] / b if b > 0.0 else np.zeros_like(r)
    return _InnerSolution(
        idx, muK, muN, _mean_penalty(muK, dK[idx]), _mean_penalty(muN, dN[idx])
    )


def _mix_solutions(
    lo: _InnerSolution, hi: _InnerSolution, tau: float, dK: np.ndarray, dN: np.ndarray
) -> _InnerSolution:
    """Convex combination tau*lo + (1-tau)*hi of two Lagrangian minimizers."""
    idx = np.concatenate([lo.idx, hi.idx])
    allK = np.concatenate([tau * lo.mK, (1.0 - tau) * hi.mK])
    allN = np.concatenate([tau * lo.mN, (1.0 - tau) * hi.mN])
    uniq, inv = np.unique(idx, return_inverse=True)
    mK = np.zeros(uniq.size)
    mN = np.zeros(uniq.size)
    np.add.at(mK, inv, allK)
    np.add.at(mN, inv, allN)
    return _InnerSolution(
        uniq, mK, mN, _mean_penalty(mK, dK[uniq]), _mean_penalty(mN, dN[uniq])
    )


def _bisect_dual(
    evaluate, eps: float, side: str, dK: np.ndarray, dN: np.ndarray
) -> tuple[float, _InnerSolution, bool, object]:
    """Bisection on one dual so that the chosen side's expectation meets eps.

    ``evaluate(lam)`` returns (inner solution at that dual, tag); the
    expectation is nonincreasing in the dual.  Returns (dual, solution,
    converged, tag of the last evaluation).  A constraint already satisfied
    at dual 0 is dropped; if even ``_LAMBDA_MAX`` cannot meet the budget the
    best iterate is returned with converged = False.
    """

    def errval(sol: _InnerSolution) -> float:
        return sol.E_K if side == "K" else sol.E_N

    lo_lam = 0.0
    lo_sol, tag = evaluate(0.0)
    if errval(lo_sol) <= eps + _RESIDUAL_TOL:
        return 0.0, lo_sol, True, tag
    hi_lam = _LAMBDA_MAX
    hi_sol, tag = evaluate(hi_lam)
    if errval(hi_sol) > eps + _RESIDUAL_TOL:
        return hi_lam, hi_sol, False, tag
    if abs(errval(hi_sol) - eps) <= _RESIDUAL_TOL:
        return hi_lam, hi_sol, True, tag
    for _ in range(_MAX_ITERATIONS):
        mid = 0.5 * (lo_lam + hi_lam)
        sol, tag = evaluate(mid)
        err = errval(sol)
        if abs(err - eps) <= _RESIDUAL_TOL:
            return mid, sol, True, tag
        if err > eps:
            lo_lam, lo_sol = mid, sol
        else:
            hi_lam, hi_sol = mid, sol
        if hi_lam - lo_lam <= 1e-12 * max(1.0, hi_lam):
            break
    # The expectation jumps across the bracket (support switch): time-share
    # the two bracket ends so the budget binds exactly.
    ea, eb = errval(lo_sol), errval(hi_sol)
    if math.isinf(ea) or ea <= eb:
        tau = 0.0
    else:
        tau = min(1.0, max(0.0, (eps - eb) / (ea - eb)))
    mixed = _mix_solutions(lo_sol, hi_sol, tau, dK, dN)
    return 0.5 * (lo_lam + hi_lam), mixed, True, tag


def _zero_rate_solution(
    grid: np.ndarray, dK: np.ndarray, dN: np.ndarray, eps_K: float, eps_N: float
) -> Optional[np.ndarray]:
    """Masses of a single distribution feasible for both budgets, or None.

    Scans singletons in increasing location order, then pairs; a planar
    Pareto point of the achievable error set is a mixture of at most two
    grid points, so pairs are exhaustive.
    """
    finite = np.isfinite(dK) & np.isfinite(dN)
    idx = np.nonzero(finite)[0]
    if idx.size == 0:
        return None
    fK, fN = dK[idx], dN[idx]
    singles = np.nonzero((fK <= eps_K) & (fN <= eps_N))[0]
    if singles.size:
        out = np.zeros(grid.size)
        out[idx[singles[0]]] = 1.0
        return out
    ii, jj = np.triu_indices(idx.size, k=1)

    def t_interval(di, dj, eps):
        lo = np.zeros_like(di)
        hi = np.ones_like(di)
        denom = di - dj
        crossing = (eps - dj) / np.where(denom == 0.0, 1.0, denom)
        hi = np.where(denom > 0.0, np.minimum(hi, crossing), hi)
        lo = np.where(denom < 0.0, np.maximum(lo, crossing), lo)
        flat_bad = (denom == 0.0) & (dj > eps)
        lo = np.where(flat_bad, 2.0, lo)
        return lo, hi

    loK, hiK = t_interval(fK[ii], fK[jj], eps_K)
    loN, hiN = t_interval(fN[ii], fN[jj], eps_N)
    lo = np.maximum(loK, loN)
    hi = np.minimum(hiK, hiN)
    ok = np.nonzero(lo <= hi)[0]
    if ok.size == 0:
        return None
    k = int(ok[0])
    t = 0.5 * (lo[k] + hi[k])
    out = np.zeros(grid.size)
    out[idx[ii[k]]] += t
    out[idx[jj[k]]] += 1.0 - t
    return out


def _build_grid(metric_K: ErrorMetric, metric_N: ErrorMetric, eps_K: float) -> np.ndarray:
    pts = [np.linspace(0.0, 1.0, _GRID_POINTS)]
    if metric_K.is_logloss() or metric_N.is_logloss():
        extras = [0.0, 1.0]
        if metric_K.kind == "logloss_key":
            extras.append(math.exp(-eps_K))
        pts.append(np.array(extras))
    for metric in (metric_K, metric_N):
        if metric.kind == "tabulated":
            pts.append(np.array([x for x, _ in metric.table]))
    grid = np.sort(np.concatenate(pts))
    keep = np.concatenate(([True], np.diff(grid) > MERGE_TOL))
    return grid[keep]


def _distribution_from(grid: np.ndarray, idx: np.ndarray, masses: np.ndarray):
    atoms = [(float(grid[g]), float(w)) for g, w in zip(idx, masses) if w > 0.0]
    total = math.fsum(w for _, w in atoms)
    return DiscreteDistribution(tuple((x, w / total) for x, w in atoms))


def solve_rp(
    p: float,
    metric_K: ErrorMetric,
    metric_N: ErrorMetric,
    eps_K: float,
    eps_N: float,
) -> FrontierPoint:
    """Minimize f_p over score pairs meeting both error budgets.

    The score space is discretized on a fixed grid; the two dual
    multipliers are found by nested bisection (outer on the key budget,
    inner on the non-key budget), with each inner Lagrangian minimized
    exactly.  A budget already satisfied at dual 0 is dropped.  Jointly
    feasible budgets short-circuit to rate 0 with mu_K = mu_N.

    Deterministic: the same inputs always produce the same FrontierPoint.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"key density p={p!r} outside the open interval (0, 1)")
    if not (eps_K >= 0.0 and eps_N >= 0.0):
        raise DomainError("error budgets must be nonnegative")
    if metric_K.side != "key":
        raise DomainError("metric_K must be a key-side metric")
    if metric_N.side != "nonkey":
        raise DomainError("metric_N must be a non-key-side metric")
    grid = _build_grid(metric_K, metric_N, eps_K)
    dK = np.array([metric_value(metric_K, x) for x in grid])
    dN = np.array([metric_value(metric_N, x) for x in grid])
    drop = np.isinf(dK) & np.isinf(dN)
    if drop.any():
        grid, dK, dN = grid[~drop], dK[~drop], dN[~drop]
    if grid.size == 0 or not np.any(np.isfinite(dK) & np.isfinite(dN)):
        raise InfeasibleError("no score location has finite penalty under both metrics")
    if dK.min() > eps_K:
        raise InfeasibleError(
            f"key budget {eps_K} below the smallest achievable penalty {dK.min()}"
        )
    if dN.min() > eps_N:
        raise InfeasibleError(
            f"non-key budget {eps_N} below the smallest achievable penalty {dN.min()}"
        )

    common = _zero_rate_solution(grid, dK, dN, eps_K, eps_N)
    if common is not None:
        rho = _distribution_from(grid, np.nonzero(common)[0], common[common > 0.0])
        return FrontierPoint(p, eps_K, eps_N, 0.0, rho, rho, 0.0, 0.0, True)

    def outer_eval(lamK: float) -> tuple[_InnerSolution, tuple[float, bool]]:
        lamN, sol, ok, _ = _bisect_dual(
            lambda lamN: (_inner_solve(p, dK, dN, lamK, lamN), None),
            eps_N, "N", dK, dN,
        )
        return sol, (lamN, ok)

    # dual_N is the inner dual found at the outer search's last evaluation.
    lamK, sol, okK, (lamN, okN) = _bisect_dual(outer_eval, eps_K, "K", dK, dN)
    converged = okK and okN
    rate = f_p_masses(p, sol.mK, sol.mN)
    mu_K = _distribution_from(grid, sol.idx, sol.mK)
    mu_N = _distribution_from(grid, sol.idx, sol.mN)
    return FrontierPoint(
        p, eps_K, eps_N, max(0.0, rate), mu_K, mu_N, lamK, lamN, converged
    )


FRONTIER_CSV_HEADER = "p,eps_K,eps_N,rate_bits_per_key,dual_K,dual_N,converged"


def frontier_to_csv(points: Sequence[FrontierPoint]) -> str:
    """Render frontier points as CSV (full float precision, reproducible)."""
    lines = [FRONTIER_CSV_HEADER]
    for pt in points:
        lines.append(
            f"{pt.p!r},{pt.eps_K!r},{pt.eps_N!r},{pt.rate_bits_per_key!r},"
            f"{pt.dual_K!r},{pt.dual_N!r},{'true' if pt.converged else 'false'}"
        )
    return "\n".join(lines) + "\n"


def frontier_sidecar(points: Sequence[FrontierPoint]) -> str:
    """JSON sidecar with the per-point score distributions."""
    doc = {
        "points": [
            {
                "p": pt.p,
                "eps_K": pt.eps_K,
                "eps_N": pt.eps_N,
                "mu_K": {"atoms": [[x, w] for x, w in pt.mu_K.atoms]},
                "mu_N": {"atoms": [[x, w] for x, w in pt.mu_N.atoms]},
            }
            for pt in points
        ]
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
