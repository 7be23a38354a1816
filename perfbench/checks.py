"""Output checks for the benchmark, computed apart from the library.

Every check here uses plain ``math``, ``hashlib``, ``fractions`` and Python
integers.  It reads the library's outputs (atoms, witnesses, filter
vectors, blobs) but calls none of its functions, so a fault in the library
cannot hide itself by also breaking its oracle.  A failed check raises
``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

# Tolerances.  RATE_TOL is the one the repository's tests use for frontier
# rates; BUDGET_TOL is the solver's residual tolerance (plus float slack);
# PRICE_TOL bounds the difference between two evaluations of the same f_p.
RATE_TOL = 1e-4
BUDGET_TOL = 1e-6 + 1e-12
PRICE_TOL = 1e-9
SIGMAS = 5.0

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_HEADER_BYTES = 32


class CheckFailed(AssertionError):
    """An output of the library disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Frontier points
# ---------------------------------------------------------------------------


def f_p(p: float, mu_K, mu_N) -> float:
    """KL(mu_K || mix) + (1-p)/p * KL(mu_N || mix), in bits, mix = p*mu_K + (1-p)*mu_N.

    ``mu_K`` and ``mu_N`` are sequences of (location, mass) atoms.
    """
    a: dict[float, float] = {}
    b: dict[float, float] = {}
    for x, w in mu_K:
        a[x] = a.get(x, 0.0) + w
    for x, w in mu_N:
        b[x] = b.get(x, 0.0) + w
    mix = {x: p * a.get(x, 0.0) + (1.0 - p) * b.get(x, 0.0) for x in a.keys() | b.keys()}

    def kl(P: dict[float, float]) -> float:
        return math.fsum(w * math.log2(w / mix[x]) for x, w in P.items() if w > 0.0)

    return kl(a) + (1.0 - p) / p * kl(b)


def bernoulli(b: float) -> list[tuple[float, float]]:
    return [(0.0, 1.0 - b), (1.0, b)]


def binary_frontier(p: float, eps_K: float, eps_N: float) -> float:
    """Exact R_p at FNR/FPR budgets: both budgets bind and rounding loses nothing."""
    return f_p(p, bernoulli(1.0 - eps_K), bernoulli(eps_N))


def logloss_bounds(p: float, eps_K: float, eps_N: float) -> tuple[float, float]:
    """(lower, upper) bounds on R_p at log-loss budgets in nats.

    Lower: by Jensen a feasible pair has E_K[x] >= e^-eps_K and
    E_N[x] <= 1 - e^-eps_N, and rounding scores to bits cannot raise f_p.
    Upper: f_p of the feasible closed-form pair mu_K = delta_{x*},
    mu_N = (1-q*) delta_0 + q* delta_{x*}.
    """
    lower = binary_frontier(p, 1.0 - math.exp(-eps_K), 1.0 - math.exp(-eps_N))
    x_star = math.exp(-eps_K)
    q_star = eps_N / -math.log1p(-x_star)
    upper = f_p(p, [(x_star, 1.0)], [(0.0, 1.0 - q_star), (x_star, q_star)])
    return lower, upper


def _mean(atoms, penalty) -> float:
    return math.fsum(w * penalty(x) for x, w in atoms if w > 0.0)


def _logloss_key(x: float) -> float:
    return math.inf if x == 0.0 else -math.log(x)


def _logloss_nonkey(x: float) -> float:
    return math.inf if x == 1.0 else -math.log1p(-x)


def check_point(family: str, p: float, eps_K: float, eps_N: float, rate: float, mu_K, mu_N) -> dict:
    """Check one frontier point; return its quality figures.

    ``family`` is ``"binary"`` (FNR/FPR budgets) or ``"logloss"`` (nats).
    """
    where = f"{family} point p={p!r} eps=({eps_K!r}, {eps_N!r})"
    if family == "binary":
        used_K = _mean(mu_K, lambda x: 1.0 - x)
        used_N = _mean(mu_N, lambda x: x)
    else:
        used_K = _mean(mu_K, _logloss_key)
        used_N = _mean(mu_N, _logloss_nonkey)
    excess = max(used_K - eps_K, used_N - eps_N)
    require(excess <= BUDGET_TOL, f"{where}: budget exceeded by {excess!r}")
    price = f_p(p, mu_K, mu_N)
    require(
        abs(rate - max(0.0, price)) <= PRICE_TOL,
        f"{where}: reported rate {rate!r} but its atoms price at {price!r}",
    )
    gap = 0.0
    if family == "binary":
        exact = binary_frontier(p, eps_K, eps_N)
        gap = abs(rate - exact)
        require(gap <= RATE_TOL, f"{where}: rate {rate!r} is not the exact frontier {exact!r}")
    else:
        lower, upper = logloss_bounds(p, eps_K, eps_N)
        require(
            lower - RATE_TOL <= rate <= upper + RATE_TOL,
            f"{where}: rate {rate!r} outside [{lower!r}, {upper!r}]",
        )
    return {"gap": gap, "excess": excess, "atoms": len(mu_K) + len(mu_N)}


def check_sweep(ps, rates) -> None:
    """Frontier rates do not increase with the key density."""
    pairs = sorted(zip(ps, rates))
    for (p0, r0), (p1, r1) in zip(pairs, pairs[1:]):
        require(r1 <= r0, f"sweep rate rises from {r0!r} at p={p0!r} to {r1!r} at p={p1!r}")


# ---------------------------------------------------------------------------
# Tiny testers
# ---------------------------------------------------------------------------


def tester_errors(u: int, n: int, init, table) -> tuple[Fraction, Fraction]:
    """Exact (FNR, FPR) of a tester, averaged over every n-subset key set."""
    key_sets = list(itertools.combinations(range(u), n))
    misses = false_accepts = 0
    for key_set, state in zip(key_sets, init, strict=True):
        for element in range(u):
            accepted = table[state][element]
            if element in key_set:
                misses += 1 - accepted
            else:
                false_accepts += accepted
    count = len(key_sets)
    return Fraction(misses, count * n), Fraction(false_accepts, count * (u - n))


def tiny_frontier(u: int, n: int, memory_bits: int) -> list[tuple[Fraction, Fraction]]:
    """Pareto-minimal (FNR, FPR) pairs over every deterministic tester, sorted by FNR."""
    states = 1 << memory_bits
    count = math.comb(u, n)
    best: dict[Fraction, Fraction] = {}
    for init in itertools.product(range(states), repeat=count):
        for table_id in range(1 << (states * u)):
            table = [[(table_id >> (s * u + e)) & 1 for e in range(u)] for s in range(states)]
            fnr, fpr = tester_errors(u, n, init, table)
            if fnr not in best or fpr < best[fnr]:
                best[fnr] = fpr
    frontier = []
    for fnr in sorted(best):
        if not frontier or best[fnr] < frontier[-1][1]:
            frontier.append((fnr, best[fnr]))
    return frontier


def check_tiny(u: int, n: int, memory_bits: int, points, reference=None) -> None:
    """Check a tiny-tester frontier given as (eps_K, eps_N, init, table) tuples.

    ``reference`` is the pure-Python frontier for this spec, when computed.
    """
    where = f"tiny tester ({u},{n},{memory_bits})"
    require(len(points) > 0, f"{where}: empty frontier")
    for eps_K, eps_N, init, table in points:
        recount = tester_errors(u, n, init, table)
        require(
            recount == (eps_K, eps_N),
            f"{where}: witness recounts to {recount} but is reported as {(eps_K, eps_N)}",
        )
    pairs = [(eps_K, eps_N) for eps_K, eps_N, _, _ in points]
    if (1 << memory_bits) >= math.comb(u, n):
        require(pairs == [(0, 0)], f"{where}: enough memory for zero error, got {pairs}")
    if reference is not None:
        require(pairs == reference, f"{where}: frontier {pairs} differs from enumeration {reference}")


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def hash_row(seed: int, element: bytes, q: int, m: int) -> list[int]:
    """The element's row in GF(q)^m, from the documented word stream.

    The label b"E" + element is absorbed by blake2b (8-byte digest, keyed by
    the seed's 8 little-endian bytes then b"membound.v1"); word (i, a) is
    splitmix64(base + golden * ((i << 8 | a) + 1)), and coordinate i is the
    first word of attempts a = 0, 1, ... below the largest multiple of q
    under 2**64, reduced mod q.
    """
    key = seed.to_bytes(8, "little") + b"membound.v1"
    digest = hashlib.blake2b(b"E" + element, digest_size=8, key=key).digest()
    base = int.from_bytes(digest, "little")
    limit = q * ((1 << 64) // q)
    row = []
    for i in range(m):
        for attempt in range(256):
            word = _splitmix64((base + _GOLDEN * (((i << 8) | attempt) + 1)) & _MASK64)
            if word < limit:
                row.append(word % q)
                break
        else:
            raise CheckFailed(f"no accepted word for coordinate {i}")
    return row


def accepts(seed: int, element: bytes, q: int, y) -> int:
    row = hash_row(seed, element, q, len(y))
    return int(sum(a * b for a, b in zip(row, y)) % q == 0)


def kl_bits(a: float, b: float) -> float:
    """KL(Bern(a) || Bern(b)) in bits."""
    total = 0.0
    if a > 0.0:
        total += a * math.log2(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log2((1.0 - a) / (1.0 - b))
    return total


def check_answers(seed: int, q: int, y, elements, answers) -> None:
    """The library's 0/1 answers agree with the recomputed hash rows."""
    for element, answer in zip(elements, answers, strict=True):
        expected = accepts(seed, element, q, y)
        require(
            int(answer) == expected,
            f"q={q}: element {element.hex()} answered {int(answer)}, recomputed {expected}",
        )


def check_build(n: int, eps_K: Fraction, q: int, seed: int, y, satisfied: int, keys) -> int:
    """A built filter misses exactly n - satisfied keys, at most eps_K*n; return the misses."""
    misses = sum(1 - accepts(seed, key, q, y) for key in keys)
    require(misses == n - satisfied, f"q={q} n={n}: {misses} keys missed, report says {n - satisfied}")
    require(misses <= eps_K * n, f"q={q} n={n}: {misses} keys missed, over eps_K*n = {eps_K * n}")
    return misses


def check_false_accepts(q: int, trials: int, accepted: int) -> None:
    """Accepted non-keys lie within SIGMAS standard deviations of trials/q."""
    mean = trials / q
    sigma = math.sqrt(trials * (1.0 / q) * (1.0 - 1.0 / q))
    require(
        abs(accepted - mean) <= SIGMAS * sigma,
        f"q={q}: {accepted} of {trials} non-keys accepted, expected {mean:.1f} +- {SIGMAS * sigma:.1f}",
    )


def payload_bits(q: int, m: int) -> int:
    return (q**m - 1).bit_length()


def check_blob(q: int, m: int, y, blob: bytes) -> None:
    """The blob is a 32-byte header plus y packed in base q, little-endian."""
    width = (payload_bits(q, m) + 7) // 8
    require(len(blob) == _HEADER_BYTES + width, f"q={q} m={m}: blob of {len(blob)} bytes, expected {_HEADER_BYTES + width}")
    value = int.from_bytes(blob[_HEADER_BYTES:], "little")
    coords = []
    for _ in range(m):
        value, digit = divmod(value, q)
        coords.append(digit)
    require(value == 0 and coords == list(y), f"q={q} m={m}: payload does not decode to y")


def check_size(n: int, eps_K: Fraction, q: int, bits: int) -> None:
    """n*D - log2(8n)/2 <= payload bits <= n*D + n^(2/3) + log2 q + 1."""
    D = kl_bits(1.0 - float(eps_K), 1.0 / q)
    low = n * D - math.log2(8 * n) / 2
    high = n * D + n ** (2 / 3) + math.log2(q) + 1
    require(low <= bits <= high, f"q={q} n={n}: {bits} payload bits outside [{low:.1f}, {high:.1f}]")
