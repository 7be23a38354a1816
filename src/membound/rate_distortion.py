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
    "first_order_rate",
    "memory_lower_bound",
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
            f"e^-eps_K + e^-eps_N = {1.0 + gap} < 1: every score in "
            "[e^-eps_K, 1 - e^-eps_N] meets both log-loss budgets, so rate 0 "
            "is achievable"
        )
    q_star = min(1.0, eps_N / -math.log1p(-x_star))
    mu_K = DiscreteDistribution.delta(x_star)
    if q_star == 1.0:
        mu_N = DiscreteDistribution.delta(x_star)
    else:
        mu_N = DiscreteDistribution(((0.0, 1.0 - q_star), (x_star, q_star)))
    return LogLossOptimum(x_star, q_star, mu_K, mu_N, max(0.0, -math.log2(q_star)))


def first_order_rate(eps_K: float, eps_N: float, p: float) -> float:
    """Small-p expansion of the binary frontier, in bits per key:

        KL(Bern(1-eps_K) || Bern(eps_N)) - p * chi2(same pair) / (2 ln 2).

    Returns +inf when the base KL is infinite (eps_N = 0 with eps_K < 1).
    """
    if not p >= 0.0:
        raise DomainError(f"p must be nonnegative, got {p!r}")
    best = optimal_binary(eps_K, eps_N)
    if math.isinf(best.rate_bits_per_key):
        return math.inf
    return best.rate_bits_per_key - p * chi_squared(best.mu_K, best.mu_N) / (2.0 * _LN2)


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
# iterating; the optimal rows follow as muK = r*wK/a, muN = r*wN/b.  Past
# the tilt weights and one sort, this per-lambda work runs on Python lists,
# because on the 4 binary candidates numpy's fixed cost per call outweighs
# the arithmetic; the vertex values keep np.log, which math.log does not
# match in the last ulp on every input, so near-ties break as before.
#
# The score grid is _GRID_POINTS uniform locations (plus the closed-form
# log-loss atoms and any tabulated locations).  Only two kinds of location
# can ever carry mass, so the solve runs on them alone: the vertices of the
# lower-left convex hull of the finite pairs (d_K(x), d_N(x)), and every
# location with an infinite penalty.  Any other x has penalties at or above a
# mixture of hull vertices, and since 2^(-lambda*d) is convex in d (Jensen),
# its (wK, wN) lies at or below the same mixture of theirs for every
# lambda >= 0.  Binary metrics keep the points that rounding in 1 - x puts
# strictly below the line d_K + d_N = 1; log-loss and mixed metrics have
# strictly convex curves and keep every grid point.  Each dual is found by
# _find_dual, outer on the key budget and inner on the non-key budget.  The
# expectation a dual controls is nonincreasing in it and piecewise smooth in
# u = ln(lambda), so the root is bracketed in u from a warm guess, widening
# the step geometrically up to _LAMBDA_MAX, and then refined by Brent's
# method (inverse-quadratic or secant steps with a bisection safeguard;
# Brent, "Algorithms for Minimization without Derivatives", 1973).  The
# search stops at a feasible end whose expectation lies within
# _RESIDUAL_TOL below the budget.  Where the expectation jumps (a support
# switch), the bracket narrows to _JUMP_WIDTH and its two ends are
# time-shared so that the budget binds.  Expectations are math.fsum sums
# over the very masses that are returned, so "feasible" holds in floating
# point.

_GRID_POINTS = 201
_LAMBDA_MAX = 1e6
_RESIDUAL_TOL = 1e-9
_MAX_ITERATIONS = 200
# A bracket no wider than this, relative to max(1, lambda), straddles a jump;
# it is also the smallest positive dual a bracket search tries.
_JUMP_WIDTH = 1e-12


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
        return np.exp2(-lam * d)


def _mean_penalty(masses: Sequence[float], d: Sequence[float]) -> float:
    """E[d] under the given masses, with exact-zero masses ignored."""
    return math.fsum(m * x for m, x in zip(masses, d) if m > 0.0)


def _inner_solve(
    p: float, dK: np.ndarray, dN: np.ndarray, lamK: float, lamN: float
) -> _InnerSolution:
    """Exact Lagrangian minimizer at fixed duals (see block comment above)."""
    wK = _tilt_weights(dK, lamK)
    wN = _tilt_weights(dN, lamN * p / (1.0 - p))
    order = np.lexsort((np.arange(wK.size), dK + dN, wN, wK)).tolist()
    aw, bw = wK.tolist(), wN.tolist()
    # Pareto-maximal points, scanning by a descending (b descending among
    # ties): keep each point whose b beats every point before it.  A
    # duplicate of the kept point replaces it, so of equal (wK, wN) the one
    # with the smallest total penalty stays; that makes the at-lambda-zero
    # probes report the most favorable achievable expectation for the
    # dropped constraint.
    stair: list[int] = []
    top = -math.inf
    for i in reversed(order):
        if bw[i] > top:
            stair.append(i)
            top = bw[i]
        elif bw[i] == top and aw[i] == aw[stair[-1]]:
            stair[-1] = i
    # Upper hull (Andrew monotone chain on the staircase, a ascending).
    hull: list[tuple[float, float, int]] = []
    for pt in [(aw[i], bw[i], i) for i in reversed(stair)]:
        while len(hull) >= 2:
            (a1, b1, _), (a2, b2, _) = hull[-2], hull[-1]
            if (a2 - a1) * (pt[1] - b1) - (b2 - b1) * (pt[0] - a1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(pt)
    ha = [h[0] for h in hull]
    hb = [h[1] for h in hull]
    with np.errstate(divide="ignore"):
        phi_v = p * np.log(ha) + (1.0 - p) * np.log(hb)
    v = int(np.argmax(phi_v))
    best_phi, t = float(phi_v[v]), None
    for e in range(len(hull) - 1):
        aV, bV = ha[e], hb[e]
        da, db = ha[e + 1] - aV, hb[e + 1] - bV
        prod = da * db
        if prod == 0.0:
            continue
        te = -(p * da * bV + (1.0 - p) * db * aV) / prod
        if not (0.0 < te < 1.0):
            continue
        phi = p * math.log(aV + te * da) + (1.0 - p) * math.log(bV + te * db)
        if phi > best_phi:
            best_phi, v, t = phi, e, te
    if t is None:
        idx, r = [hull[v][2]], [1.0]
        a, b = ha[v], hb[v]
    else:
        idx, r = [hull[v][2], hull[v + 1][2]], [1.0 - t, t]
        a = (1.0 - t) * ha[v] + t * ha[v + 1]
        b = (1.0 - t) * hb[v] + t * hb[v + 1]
    muK = [ri * aw[i] / a if a > 0.0 else 0.0 for ri, i in zip(r, idx)]
    muN = [ri * bw[i] / b if b > 0.0 else 0.0 for ri, i in zip(r, idx)]
    E_K = _mean_penalty(muK, [dK[i] for i in idx])
    E_N = _mean_penalty(muN, [dN[i] for i in idx])
    return _InnerSolution(np.array(idx), np.array(muK), np.array(muN), E_K, E_N)


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


@dataclass
class _Probe:
    """One evaluation in a dual search: the dual, its log, the solution, the
    evaluation's tag, and the side's expectation minus its budget."""

    lam: float
    u: float
    sol: _InnerSolution
    tag: object
    excess: float


def _find_dual(
    evaluate,
    side: str,
    budgets: tuple[float, float],
    guess: float,
    dK: np.ndarray,
    dN: np.ndarray,
) -> tuple[float, _InnerSolution, bool, object]:
    """Find the dual of one side so that its expectation meets its budget.

    ``evaluate(lam)`` returns (inner solution at that dual, tag); the side's
    expectation is nonincreasing in the dual.  ``budgets`` is (eps_K, eps_N),
    +inf on a side this search leaves to another; the bracket search starts
    at ``guess`` > 0.  Returns (dual, solution, converged, tag of the
    evaluation the solution came from).  A budget already met at dual 0 is
    dropped; if even ``_LAMBDA_MAX`` cannot meet it, that evaluation is
    returned with converged = False.  Otherwise the solution meets this
    side's budget, within ``_RESIDUAL_TOL`` of it unless time-shared at a
    jump.
    """
    eps = budgets[0] if side == "K" else budgets[1]

    def probe(lam: float) -> _Probe:
        sol, tag = evaluate(lam)
        excess = (sol.E_K if side == "K" else sol.E_N) - eps
        return _Probe(lam, math.log(lam) if lam > 0.0 else -math.inf, sol, tag, excess)

    lo = probe(0.0)
    if lo.excess <= 0.0:
        return 0.0, lo.sol, True, lo.tag
    # Bracket the root: from the guess, step down while feasible or up while
    # not, doubling the step in ln(lambda) each time.
    u_min, u_max = math.log(_JUMP_WIDTH), math.log(_LAMBDA_MAX)
    hi = None
    pt = probe(min(max(guess, _JUMP_WIDTH), _LAMBDA_MAX))
    u, step = pt.u, 1.0
    direction = -1.0 if pt.excess <= 0.0 else 1.0
    while True:
        if pt.excess <= 0.0:
            if pt.excess >= -_RESIDUAL_TOL:
                return pt.lam, pt.sol, True, pt.tag
            hi = pt
        else:
            lo = pt
        if hi is not None and (lo.lam > 0.0 or hi.lam == _JUMP_WIDTH):
            break
        if lo.lam == _LAMBDA_MAX:
            return lo.lam, lo.sol, False, lo.tag
        u += direction * step
        step *= 2.0
        pt = probe(_JUMP_WIDTH if u <= u_min else _LAMBDA_MAX if u >= u_max else math.exp(u))
    # Brent's zeroin on excess(u): b is the best iterate, c the bracket end
    # of opposite sign, a the previous b.  Feasible means excess <= 0, so
    # the feasible end of the bracket is the one with the larger dual.
    min_step = 0.5 * _JUMP_WIDTH
    b, c = hi, lo
    a = c
    d = e = b.u - a.u
    for _ in range(_MAX_ITERATIONS):
        lo, hi = (b, c) if b.excess > 0.0 else (c, b)
        if hi.lam - lo.lam <= _JUMP_WIDTH * max(1.0, hi.lam):
            break
        if abs(c.excess) < abs(b.excess):
            a, b, c = b, c, b
        xm = 0.5 * (c.u - b.u)
        fa, fb, fc = a.excess, b.excess, c.excess
        bisect = True
        if abs(e) >= min_step and math.isfinite(fa) and math.isfinite(fc) and abs(fa) > abs(fb):
            s = fb / fa
            if a is c:  # two distinct iterates: secant step
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b.u - a.u) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # Accept the step only if it stays well inside the bracket and
            # shrinks faster than the step before last.
            if 2.0 * p < 3.0 * xm * q - abs(min_step * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
                bisect = False
        if bisect:
            d = e = xm
        a = b
        b = probe(math.exp(b.u + (d if abs(d) > min_step else math.copysign(min_step, xm))))
        if -_RESIDUAL_TOL <= b.excess <= 0.0:
            return b.lam, b.sol, True, b.tag
        if (b.excess > 0.0) == (c.excess > 0.0):
            c = a
            d = e = b.u - a.u
    lo, hi = (b, c) if b.excess > 0.0 else (c, b)
    # The expectation jumps across the bracket (a support switch): time-share
    # its ends so the budget binds, then move weight to the feasible end
    # until the mixture meets every budget in floating point.
    tau = 0.0 if math.isinf(lo.excess) else -hi.excess / (lo.excess - hi.excess)
    shrink = 0.0
    while True:
        mixed = _mix_solutions(lo.sol, hi.sol, tau * (1.0 - shrink), dK, dN)
        if shrink == 1.0 or (mixed.E_K <= budgets[0] and mixed.E_N <= budgets[1]):
            return 0.5 * (lo.lam + hi.lam), mixed, True, hi.tag
        shrink = min(1.0, max(2.0 * shrink, 2.0**-52))


def _hull_chain(dK: np.ndarray, dN: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the lower-left convex hull of the finite
    pairs (dK, dN), by increasing dK (and so decreasing dN).

    Of equal pairs the lowest index is kept.  Collinear points are dropped:
    the orientation test is exact, on the penalties scaled to integers.
    With no finite pair the chain is empty.
    """
    finite = np.nonzero(np.isfinite(dK) & np.isfinite(dN))[0]
    if finite.size == 0:
        return finite
    order = finite[np.lexsort((finite, dN[finite], dK[finite]))]
    # Pareto staircase: each kept pair has dN below every pair before it.
    sN = dN[order]
    below = np.concatenate(([True], sN[1:] < np.minimum.accumulate(sN)[:-1]))
    stair = order[below]
    ratios = [v.as_integer_ratio() for v in (*dK[stair].tolist(), *dN[stair].tolist())]
    shift = max(den.bit_length() for _, den in ratios)
    ints = [num << (shift - den.bit_length()) for num, den in ratios]
    points = zip(ints[: stair.size], ints[stair.size :], stair.tolist())
    hull: list[tuple[int, int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return np.array([h[2] for h in hull])


def _zero_rate_solution(
    grid: np.ndarray,
    dK: np.ndarray,
    dN: np.ndarray,
    eps_K: float,
    eps_N: float,
    chain: np.ndarray,
) -> Optional[np.ndarray]:
    """Masses of a single distribution feasible for both budgets, or None.

    One law meets both budgets exactly when the convex hull of the finite
    pairs (dK, dN) meets the budget box [0, eps_K] x [0, eps_N].  The first
    finite location inside the box, in grid order, is returned alone.
    Otherwise only the edge of the ``_hull_chain`` that crosses dK = eps_K
    can reach the box: its midpoint mixture of the feasible stretch is
    returned if its ``math.fsum`` expectations meet both budgets.
    """
    out = np.zeros(grid.size)
    finite = np.isfinite(dK) & np.isfinite(dN)
    singles = np.nonzero(finite & (dK <= eps_K) & (dN <= eps_N))[0]
    if singles.size:
        out[singles[0]] = 1.0
        return out
    e = int(np.searchsorted(dK[chain], eps_K, side="right")) - 1
    if e < 0 or e == chain.size - 1:
        return None
    # t, the weight on w, meets the key budget up to t_K and the non-key
    # budget from t_N (dK rises and dN falls along the edge).
    v, w = chain[e], chain[e + 1]
    t_K = (eps_K - dK[v]) / (dK[w] - dK[v])
    t_N = (dN[v] - eps_N) / (dN[v] - dN[w])
    if t_N > t_K:
        return None
    t = 0.5 * (t_N + t_K)
    mass = (1.0 - t, t)
    out[v], out[w] = mass
    if (
        _mean_penalty(mass, (dK[v], dK[w])) <= eps_K
        and _mean_penalty(mass, (dN[v], dN[w])) <= eps_N
    ):
        return out
    return None


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


def _candidates(dK: np.ndarray, dN: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """The locations that can carry mass, in grid order: the hull chain's
    vertices and every location with an infinite penalty."""
    return np.union1d(chain, np.nonzero(np.isinf(dK) | np.isinf(dN))[0])


def _distribution_from(grid: np.ndarray, idx: np.ndarray, masses: np.ndarray):
    # Not renormalized: the budgets were checked on exactly these masses,
    # which sum to 1 within a few ulps.
    return DiscreteDistribution(
        tuple((float(grid[g]), float(w)) for g, w in zip(idx, masses) if w > 0.0)
    )


def solve_rp(
    p: float,
    metric_K: ErrorMetric,
    metric_N: ErrorMetric,
    eps_K: float,
    eps_N: float,
) -> FrontierPoint:
    """Minimize f_p over score pairs meeting both error budgets.

    The score space is discretized on a fixed grid; the two dual
    multipliers are found by a nested search (outer on the key budget,
    inner on the non-key budget), each bracketing its root in ln(lambda)
    from a warm guess and refining it by Brent's method, with each inner
    Lagrangian minimized exactly.  A budget already satisfied at dual 0 is
    dropped.  Jointly feasible budgets short-circuit to rate 0 with
    mu_K = mu_N, unless that law misses a budget by rounding and the dual
    search runs.  The returned laws meet both budgets in floating point,
    so the rate is never below R_p.

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

    chain = _hull_chain(dK, dN)
    common = _zero_rate_solution(grid, dK, dN, eps_K, eps_N, chain)
    if common is not None:
        rho = _distribution_from(grid, np.nonzero(common)[0], common[common > 0.0])
        return FrontierPoint(p, eps_K, eps_N, 0.0, rho, rho, 0.0, 0.0, True)
    keep = _candidates(dK, dN, chain)
    grid, dK, dN = grid[keep], dK[keep], dN[keep]

    lamN_guess = 1.0

    def outer_eval(lamK: float) -> tuple[_InnerSolution, tuple[float, bool]]:
        # Warm start: the inner dual of the previous outer evaluation.
        nonlocal lamN_guess
        lamN, sol, ok, _ = _find_dual(
            lambda lamN: (_inner_solve(p, dK, dN, lamK, lamN), None),
            "N", (math.inf, eps_N), lamN_guess, dK, dN,
        )
        if lamN > 0.0:
            lamN_guess = lamN
        return sol, (lamN, ok)

    # dual_N is the inner dual of the outer evaluation that gave the solution.
    lamK, sol, okK, (lamN, okN) = _find_dual(
        outer_eval, "K", (eps_K, eps_N), 1.0, dK, dN
    )
    converged = okK and okN
    rate = f_p_masses(p, sol.mK, sol.mN)
    mu_K = _distribution_from(grid, sol.idx, sol.mK)
    mu_N = _distribution_from(grid, sol.idx, sol.mN)
    return FrontierPoint(
        p, eps_K, eps_N, max(0.0, rate), mu_K, mu_N, lamK, lamN, converged
    )
