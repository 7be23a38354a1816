"""Shared test helpers: random distribution pairs and a mutual-information
reference implementation, used to cross-check the f_p functional; the
binary frontier's corner value, used as the FNR/FPR solver's oracle; a
plain-int reference of the keyed word stream and its rejection sampling,
used to check the library's hashing without calling it, and an
exhaustive search over the vectors a two-sided filter may store; the
GF(q) panel pass that reduces every product, and a spy on the GF(q)
elimination's panel searches; an exact scan over pairs of
penalty pairs, used to check the solver's rate-0 test; the solver's
inner Lagrangian step in whole-array numpy, used as the reference for the
list-based one; and an enumeration of every tiny tester, used to check the
exact tiny-tester frontier."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, settings

from membound import galois
from membound.rate_distortion import _InnerSolution
from membound.bruteforce import ParetoPoint, TinyTesterSpec
from membound.measures import DiscreteDistribution

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def random_distribution(
    rng: np.random.Generator,
    max_atoms: int = 6,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DiscreteDistribution:
    """A random finite distribution with locations in [lo, hi]."""
    count = int(rng.integers(1, max_atoms + 1))
    locations = lo + (hi - lo) * rng.random(count)
    weights = rng.random(count) + 1e-3
    weights /= weights.sum()
    return DiscreteDistribution(tuple(zip(locations.tolist(), weights.tolist())))


def random_pair_shared_support(
    rng: np.random.Generator, max_atoms: int = 6
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two random distributions over one location set, so KL is finite
    in both directions."""
    count = int(rng.integers(2, max_atoms + 1))
    locations = rng.random(count)
    pair = []
    for _ in range(2):
        weights = rng.random(count) + 1e-3
        weights /= weights.sum()
        pair.append(DiscreteDistribution(tuple(zip(locations.tolist(), weights.tolist()))))
    return pair[0], pair[1]


def direct_f_p(p: float, mu_K: DiscreteDistribution, mu_N: DiscreteDistribution) -> float:
    """I(X; X_hat)/p computed straight from the joint law of
    X ~ Bern(p), X_hat | X=1 ~ mu_K, X_hat | X=0 ~ mu_N."""
    mass_K = dict(mu_K.atoms)
    mass_N = dict(mu_N.atoms)
    locations = sorted(set(mass_K) | set(mass_N))
    information = 0.0
    for loc in locations:
        pk = mass_K.get(loc, 0.0)
        pn = mass_N.get(loc, 0.0)
        marginal = p * pk + (1.0 - p) * pn
        for weight, conditional in ((p, pk), (1.0 - p, pn)):
            joint = weight * conditional
            if joint > 0.0:
                information += joint * math.log2(conditional / marginal)
    return information / p


def binary_corner_rate(p: float, eps_K: float, eps_N: float) -> float:
    """f_p(p, Bern(1 - eps_K), Bern(eps_N)) by ``direct_f_p``, in bits.

    For FNR/FPR budgets with eps_K + eps_N < 1 this is R_p: the feasible
    laws are Bern(a) x Bern(b) with a >= 1 - eps_K and b <= eps_N, and f_p
    is smallest where the two are closest, at that corner.
    """
    bern = DiscreteDistribution.bernoulli
    return direct_f_p(p, bern(1.0 - eps_K), bern(eps_N))


_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=1024)
def _reference_base(seed: int, label: bytes) -> int:
    """The keyed 8-byte blake2b digest of a stream's label, as an int."""
    key = seed.to_bytes(8, "little") + b"membound.v1"
    digest = hashlib.blake2b(label, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def reference_word(seed: int, label: bytes, index: int, attempt: int = 0) -> int:
    """Word ``(index, attempt)`` of the stream keyed by (seed, label), in plain ints:
    splitmix64(base + golden * ((index << 8 | attempt) + 1)) mod 2**64, with
    base the keyed 8-byte blake2b digest of the label."""
    base = _reference_base(seed, label)
    z = (base + 0x9E3779B97F4A7C15 * (((index << 8) | attempt) + 1)) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def reference_element(word, q: int, index: int) -> int:
    """Draw ``index`` in GF(q) by rejection: the first attempt whose word is
    below the largest multiple of q that fits 64 bits, reduced mod q.
    ``word(index, attempt)`` supplies the words."""
    threshold = q * ((1 << 64) // q)
    for attempt in range(256):
        w = word(index, attempt)
        if w < threshold:
            return w % q
    raise RuntimeError("no attempt accepted")


def reference_row(seed: int, element: bytes, q: int, m: int) -> list[int]:
    """The filter's hash row of ``element`` (stream label b"E" + element)."""
    word = functools.partial(reference_word, seed, b"E" + element)
    return [reference_element(word, q, j) for j in range(m)]


def reference_dot(x, y, q: int) -> int:
    return sum(int(a) * int(b) for a, b in zip(x, y)) % q


def reference_best(seed: int, keys: list[bytes], q: int, m: int) -> int:
    """The most keys any nonzero vector of GF(q)^m satisfies, by trying
    all q**m - 1 of them against the keys' ``reference_row``s in plain ints."""
    rows = [reference_row(seed, key, q, m) for key in keys]
    return max(
        sum(reference_dot(row, y, q) == 0 for row in rows)
        for y in itertools.product(range(q), repeat=m)
        if any(y)
    )


def zero_rate_feasible(dK, dN, eps_K, eps_N) -> bool:
    """Whether a mixture of at most two finite penalty pairs (dK, dN) meets
    both budgets, in exact rationals, by a scan over all pairs.

    Budgets may be floats or Fractions; every value is scaled to an integer
    by the common denominator.  A mixture of two points with dK above
    eps_K, or two with dN above eps_N, misses the box; so besides single
    points only pairs of a key-feasible point (x, y) and a non-key-feasible
    one (x', y') remain.  The weight t on the second meets the key budget
    for t <= (eps_K - x) / (x' - x) and the non-key budget for
    t >= (y - eps_N) / (y - y'), both denominators positive.
    """
    finite = np.isfinite(dK) & np.isfinite(dN)
    n = int(finite.sum())
    values = [Fraction(v) for v in (*dK[finite].tolist(), *dN[finite].tolist(), eps_K, eps_N)]
    scale = math.lcm(*(v.denominator for v in values))
    ints = np.array([v.numerator * (scale // v.denominator) for v in values], dtype=object)
    x, y, (eK, eN) = ints[:n], ints[n : 2 * n], ints[2 * n :]
    if np.any((x <= eK) & (y <= eN)):
        return True
    kx, ky = x[x <= eK, None], y[x <= eK, None]
    nx, ny = x[y <= eN], y[y <= eN]
    return bool(np.any((ky - eN) * (nx - kx) <= (eK - kx) * (ky - ny)))


def _reference_tilt(d: np.ndarray, lam: float) -> np.ndarray:
    """2^(-lam * d) with the lam = 0 convention 1 everywhere (even d = inf)."""
    if lam == 0.0:
        return np.ones_like(d)
    with np.errstate(under="ignore"):
        return np.exp2(np.where(np.isinf(d), -np.inf, -lam * d))


def _reference_mean_penalty(masses: np.ndarray, d: np.ndarray) -> float:
    """E[d] under the given masses, with exact-zero masses ignored."""
    carrier = masses > 0.0
    if np.any(carrier & np.isinf(d)):
        return math.inf
    return math.fsum((masses[carrier] * d[carrier]).tolist())


def reference_inner_solve(
    p: float, dK: np.ndarray, dN: np.ndarray, lamK: float, lamN: float
) -> _InnerSolution:
    """The solver's exact Lagrangian minimizer at fixed duals, on whole numpy
    arrays: duplicate collapse, Pareto staircase, upper hull and edge scan.
    Raises IndexError when every (wK, wN) pair is (0, 0)."""
    wK = _reference_tilt(dK, lamK)
    wN = _reference_tilt(dN, lamN * p / (1.0 - p))
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
    # Pareto-maximal representatives: scanning by a descending (b descending
    # among ties), keep each point whose b beats every point before it.
    o2 = np.lexsort((-wN[reps], -wK[reps]))
    running = np.maximum.accumulate(wN[reps[o2]])
    stair = reps[o2[np.concatenate(([True], running[1:] > running[:-1]))]][::-1]
    # Upper hull (Andrew monotone chain on the staircase, a ascending).
    pts = zip(wK[stair].tolist(), wN[stair].tolist(), stair.tolist())
    hull: list[tuple[float, float, int]] = []
    for pt in pts:
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
        idx,
        muK,
        muN,
        _reference_mean_penalty(muK, dK[idx]),
        _reference_mean_penalty(muN, dN[idx]),
    )


def reference_gauss_jordan(
    x: np.ndarray, q: int, ncols: int
) -> tuple[int, list[tuple[int, int]]]:
    """The GF(q) panel pass that reduces every product mod q, on uint64
    ``x``: the reference for the delayed-reduction ``galois._gauss_jordan``.

    Reduces the leading ``ncols`` columns of ``x`` in place; the first
    column without a pivot ends the loop.  Returns the pivot count and the
    row swaps made, in order.
    """
    qq = np.uint64(q)
    swaps: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(x[r:, c])
        if nz.size == 0:
            break
        pr = r + int(nz[0])
        if pr != r:
            x[[r, pr]] = x[[pr, r]]
            swaps.append((r, pr))
        # Row r is zero before column c, so only columns c.. change.
        x[r, c:] = x[r, c:] * np.uint64(pow(int(x[r, c]), -1, q)) % qq
        factors = x[:, c].copy()
        factors[r] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            t = factors[hit, None] * x[r, c:] % qq
            x[hit, c:] = (x[hit, c:] + (qq - t)) % qq
        r += 1
    return r, swaps


def spy_gauss_jordan(monkeypatch) -> list[int]:
    """Record the row count of every ``galois._gauss_jordan`` call."""
    heights: list[int] = []
    inner = galois._gauss_jordan

    def spy(x, q, ncols):
        heights.append(x.shape[0])
        return inner(x, q, ncols)

    monkeypatch.setattr(galois, "_gauss_jordan", spy)
    return heights


_TABLE_CHUNK = 1 << 16


def _tiny_cell_weights(
    spec: TinyTesterSpec, init: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(state, element) counts of key and non-key occurrences."""
    cells = spec.states * spec.u
    key_w = np.zeros(cells, dtype=np.int64)
    non_w = np.zeros(cells, dtype=np.int64)
    for key_set, state in zip(spec.key_sets, init):
        members = set(key_set)
        base = state * spec.u
        for element in range(spec.u):
            if element in members:
                key_w[base + element] += 1
            else:
                non_w[base + element] += 1
    return key_w, non_w


def enumerate_tiny_frontier(spec: TinyTesterSpec) -> list[ParetoPoint]:
    """The tiny-tester frontier by scoring every (init, table) pair.

    Tables are scored in chunks of ``_TABLE_CHUNK`` ids as bit matrices
    times the cell weights.  For each FNR the witness is the first
    (init, table id) in enumeration order with the least FPR: within a
    chunk the smallest id among the least FPR, across chunks and inits
    only a strictly lower FPR replaces it.
    """
    u, n = spec.u, spec.n
    count = math.comb(u, n)
    cells = spec.states * u
    table_count = 1 << cells
    total_keys = count * n

    bit_cols = np.arange(cells, dtype=np.uint64)
    chunks: list[tuple[int, np.ndarray]] = []
    for lo in range(0, table_count, _TABLE_CHUNK):
        ids = np.arange(lo, min(lo + _TABLE_CHUNK, table_count), dtype=np.uint64)
        bits = ((ids[:, None] >> bit_cols[None, :]) & np.uint64(1)).astype(np.int64)
        chunks.append((lo, bits))

    # fnr numerator -> [fpr numerator, init, table id], first witness kept
    best: dict[int, list] = {}
    for init in itertools.product(range(spec.states), repeat=count):
        key_w, non_w = _tiny_cell_weights(spec, init)
        for lo, bits in chunks:
            fnr_num = total_keys - bits @ key_w
            fpr_num = bits @ non_w
            order = np.lexsort(
                (np.arange(fnr_num.shape[0]), fpr_num, fnr_num)
            )
            values, firsts = np.unique(fnr_num[order], return_index=True)
            for value, at in zip(values.tolist(), order[firsts].tolist()):
                fpr = int(fpr_num[at])
                seen = best.get(value)
                if seen is None or fpr < seen[0]:
                    best[value] = [fpr, init, lo + at]

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
