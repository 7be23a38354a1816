"""The benchmark's workloads: inputs made from a seed, and one round of calls.

A round is a fixed list of library calls on the run's inputs, recorded in a
``Round``; a run repeats whole rounds, so every run attempts the same operations in the same
proportions.  The library is reached through its module attributes at call
time (``F.build``, ``RD.solve_rp``, ...), which is where the tracer in
``spans.py`` hooks in.  Each call's output is checked by ``checks.py``
before the round goes on.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from membound import bruteforce as BF
from membound import filter as F
from membound import rate_distortion as RD

import checks
from checks import require

# frontier: the CLI's `frontier --p sweep:0.001,0.1,25,log --eps-k 0.05 --eps-n 0.05`.
SWEEP_PS = tuple(float(p) for p in np.geomspace(0.001, 0.1, 25))
SWEEP_EPS = (0.05, 0.05)
# One scattered point per family and per density decade, so every seed draws
# the same mix of easy and hard points.
STRATA = ((1e-3, 1e-2), (1e-2, 1e-1), (1e-1, 0.5))
BINARY_EPS = ((0.01, 0.3), (0.005, 0.3))
LOGLOSS_EPS = ((0.02, 0.3), (0.05, 0.5))  # nats; e^-0.3 + e^-0.5 > 1 keeps every draw nontrivial
# The last spec dominates; the first is also enumerated in pure Python.
TINY_SPECS = ((3, 1, 1), (4, 1, 1), (5, 1, 1), (4, 2, 1), (3, 1, 2), (4, 1, 2))

# filter-gf2
GF2_KEYS = 4000
GF2_TRIALS = 20000
# Two-sided instances whose scan succeeds.  Their keys and filter seed do
# not depend on --seed: whether a scan succeeds depends on the keys.
TWO_SIDED = ((12, Fraction(1, 12)), (16, Fraction(2, 16)), (20, Fraction(2, 20)),
             (24, Fraction(2, 24)), (28, Fraction(2, 28)))
FIXED_SEED = 1

# filter-gfq: (q, one-sided keys, non-key trials)
GFQ = ((3, 800, 4000), (5, 500, 4000), (4294967291, 80, 2000))

KEY_BYTES = 16
SAMPLE = 8  # keys and non-keys per filter whose rows are recomputed


@dataclass
class Op:
    """One library call: its kind, wall time, work units and outcome."""

    kind: str
    seconds: float
    units: float = 1.0
    failed: bool = False


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    payload_bits: int = 0
    keys_stored: int = 0
    rates: list[float] = field(default_factory=list)  # frontier sweep rates
    quality: list[dict] = field(default_factory=list)  # per frontier point
    candidates: int = 0  # tried by two-sided scans
    scans_ok: int = 0  # two-sided scans that succeeded
    wall_s: float = 0.0

    def call(self, kind: str, fn, *args, units: float = 1.0):
        start = time.perf_counter()
        out = fn(*args)
        self.ops.append(Op(kind, time.perf_counter() - start, units))
        return out

    @property
    def bits_per_key(self) -> float:
        if self.rates:
            return math.fsum(self.rates) / len(self.rates)
        return self.payload_bits / self.keys_stored


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


@dataclass
class FrontierInputs:
    points: list[tuple[str, float, float, float]]
    metrics: dict


def frontier_inputs(seed: int) -> FrontierInputs:
    rng = random.Random(seed)
    points = []
    for lo, hi in STRATA:
        for family, (k_range, n_range) in (("binary", BINARY_EPS), ("logloss", LOGLOSS_EPS)):
            p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            points.append((family, p, rng.uniform(*k_range), rng.uniform(*n_range)))
    metrics = {
        "binary": (RD.ErrorMetric.fnr(), RD.ErrorMetric.fpr()),
        "logloss": (RD.ErrorMetric.logloss_key(), RD.ErrorMetric.logloss_nonkey()),
    }
    return FrontierInputs(points, metrics)


def _solve(rnd: Round, inputs: FrontierInputs, kind: str, family: str, p, eps_K, eps_N):
    pt = rnd.call(kind, RD.solve_rp, p, *inputs.metrics[family], eps_K, eps_N)
    rnd.quality.append(
        checks.check_point(family, p, eps_K, eps_N, pt.rate_bits_per_key, pt.mu_K.atoms, pt.mu_N.atoms)
    )
    return pt.rate_bits_per_key


def frontier_round(inputs: FrontierInputs, rnd: Round) -> None:
    rnd.rates = [_solve(rnd, inputs, "sweep", "binary", p, *SWEEP_EPS) for p in SWEEP_PS]
    checks.check_sweep(SWEEP_PS, rnd.rates)
    for family, p, eps_K, eps_N in inputs.points:
        _solve(rnd, inputs, "point", family, p, eps_K, eps_N)
    for i, (u, n, bits) in enumerate(TINY_SPECS):
        testers = (1 << bits) ** math.comb(u, n) * 2 ** ((1 << bits) * u)
        frontier = rnd.call("tiny", BF.optimal_tiny_tester, BF.TinyTesterSpec(u, n, bits), units=testers)
        points = [(pt.eps_K, pt.eps_N, pt.init, pt.table) for pt in frontier]
        checks.check_tiny(u, n, bits, points, checks.tiny_frontier(u, n, bits) if i == 0 else None)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


@dataclass
class FilterCase:
    """One filter to build, with its keys, non-keys and sizing."""

    params: F.FilterParams
    keys: list[bytes]
    nonkeys: list[bytes] = field(default_factory=list)


def _random_keys(rng: random.Random, count: int, avoid=frozenset()) -> list[bytes]:
    out: dict[bytes, None] = {}
    while len(out) < count:
        key = rng.randbytes(KEY_BYTES)
        if key not in avoid:
            out[key] = None
    return list(out)


def _fixed_keys(n: int) -> list[bytes]:
    return [hashlib.blake2b(b"perfbench-%d-%d" % (n, i), digest_size=KEY_BYTES).digest() for i in range(n)]


def _one_sided(rng: random.Random, q: int, n: int, trials: int) -> FilterCase:
    keys = _random_keys(rng, n)
    nonkeys = _random_keys(rng, trials, frozenset(keys))
    params = F.derive_params(n, 0, 1.0 / q, rng.getrandbits(64))
    return FilterCase(params, keys, nonkeys)


def _two_sided(n: int, eps_K: Fraction) -> FilterCase:
    return FilterCase(F.derive_params(n, eps_K, 0.5, FIXED_SEED), _fixed_keys(n))


@dataclass
class FilterInputs:
    one_sided: list[FilterCase]
    two_sided: list[FilterCase]


def gf2_inputs(seed: int) -> FilterInputs:
    rng = random.Random(seed)
    return FilterInputs(
        [_one_sided(rng, 2, GF2_KEYS, GF2_TRIALS)],
        [_two_sided(n, eps_K) for n, eps_K in TWO_SIDED],
    )


def gfq_inputs(seed: int) -> FilterInputs:
    rng = random.Random(seed)
    return FilterInputs([_one_sided(rng, q, n, trials) for q, n, trials in GFQ], [])


def _serialize_and_back(state):
    blob = F.serialize(state)
    return blob, F.deserialize(blob)


def _roundtrip(rnd: Round, state) -> None:
    blob, back = rnd.call("roundtrip", _serialize_and_back, state)
    p = state.params
    require(back == state, f"q={p.q} n={p.n}: deserialize(serialize(s)) != s")
    checks.check_blob(p.q, p.m, state.y.coords, blob)


def _stored(rnd: Round, case: FilterCase, state, report) -> None:
    p = case.params
    bits = checks.payload_bits(p.q, p.m)
    require(report.bits_payload == bits, f"q={p.q} n={p.n}: report gives {report.bits_payload} payload bits, not {bits}")
    checks.check_size(p.n, p.eps_K, p.q, bits)
    rnd.payload_bits += bits
    rnd.keys_stored += p.n
    _roundtrip(rnd, state)


def _run_one_sided(rnd: Round, case: FilterCase) -> None:
    p = case.params
    state, report = rnd.call("build", F.build, p, case.keys, units=p.n)
    require(report.success and report.satisfied_keys == p.n, f"q={p.q} n={p.n}: one-sided build failed: {report}")
    answers = rnd.call("query", F.query_many, state, case.keys, units=p.n)
    require(bool(np.all(answers == 1)), f"q={p.q} n={p.n}: a key is rejected")
    tester = functools.partial(F.query_many, state)
    sampler = iter(case.nonkeys).__next__
    trials = len(case.nonkeys)
    rates = rnd.call("query", F.measure_rates, tester, case.keys, sampler, trials, units=p.n + trials)
    require(rates.fnr_hat == 0.0, f"q={p.q} n={p.n}: measured FNR {rates.fnr_hat}")
    checks.check_false_accepts(p.q, trials, round(rates.fpr_hat * trials))
    sample = case.keys[:SAMPLE] + case.nonkeys[:SAMPLE]
    answers = rnd.call("query", lambda: [F.query(state, e) for e in sample], units=len(sample))
    checks.check_answers(p.seed, p.q, state.y.coords, sample, answers)
    _stored(rnd, case, state, report)


def _run_two_sided(rnd: Round, case: FilterCase) -> None:
    p = case.params
    state, report = rnd.call("two_sided", F.build, p, case.keys)
    rnd.candidates += report.candidates_tried
    if not report.success:
        rnd.ops[-1].failed = True
        return
    rnd.scans_ok += 1
    checks.check_build(p.n, p.eps_K, p.q, p.seed, state.y.coords, report.satisfied_keys, case.keys)
    _stored(rnd, case, state, report)


def filter_round(inputs: FilterInputs, rnd: Round) -> None:
    for case in inputs.one_sided:
        _run_one_sided(rnd, case)
    for case in inputs.two_sided:
        _run_two_sided(rnd, case)


WORKLOADS = {
    "frontier": (frontier_inputs, frontier_round),
    "filter-gf2": (gf2_inputs, filter_round),
    "filter-gfq": (gfq_inputs, filter_round),
}
