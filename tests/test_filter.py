"""Tests for filter sizing, build, query, serialization, and measurement."""

import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_best, reference_dot, reference_row, spy_gauss_jordan
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import membound.filter as F
import membound.galois as galois
from membound import (
    DomainError,
    FileFormatError,
    FilterParams,
    FilterState,
    MemboundError,
    TrivialRegimeError,
    build,
    derive_params,
    deserialize,
    measure_rates,
    query,
    query_many,
    random_bytes_sampler,
    read_keys,
    read_scores,
    serialize,
)
from membound.filter import _BATCH, _HEADER, wilson_interval
from membound.galois import _BLOCK

KEYS12 = [f"key-{i:02d}".encode() for i in range(12)]


@pytest.fixture(scope="module")
def built_12_seed0():
    params = derive_params(12, Fraction(1, 4), 0.5, 0)
    state, report = build(params, KEYS12)
    return params, state, report


@pytest.fixture(scope="module")
def built_1000():
    params = derive_params(1000, 0, 0.5, 3)
    keys = [b"item-%d" % i for i in range(1000)]
    state, report = build(params, keys)
    return params, keys, state, report


class TestDeriveParams:
    def test_one_sided_q2(self):
        params = derive_params(1000, 0, 0.5, 0)
        assert params.q == 2
        assert params.m == 1100
        assert params.t_n == pytest.approx(100.0, rel=1e-12)
        assert params.eps_K == Fraction(0)
        assert params.eps_N == 0.5
        assert params.threshold == 1000
        assert params.bits_payload == 1100
        assert params.payload_bytes == 138

    def test_two_sided_small(self):
        params = derive_params(12, Fraction(1, 4), 0.5, 7)
        assert params.m == 8
        assert params.t_n == 12.0 ** (2.0 / 3.0)
        assert params.threshold == 9
        assert params.bits_payload == 8
        assert params.payload_bytes == 1

    def test_one_sided_q3(self):
        params = derive_params(100, 0, 1.0 / 3.0, 0)
        assert params.q == 3
        assert params.m == 114
        assert params.bits_payload == 181  # ceil(114 * log2 3)
        assert params.payload_bytes == 23

    def test_float_eps_K_canonicalized(self):
        assert derive_params(12, 0.25, 0.5, 0).eps_K == Fraction(1, 4)

    def test_non_reciprocal_eps_N_rejected(self):
        for eps_N in (0.3, 0.25, 0.5000001, 0.0, 1.0):
            with pytest.raises(DomainError):
                derive_params(10, 0, eps_N, 0)

    def test_trivial_regime(self):
        with pytest.raises(TrivialRegimeError):
            derive_params(10, 0.6, 0.5, 0)
        with pytest.raises(TrivialRegimeError):
            derive_params(10, 0.5, 0.5, 0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_targets_are_domain_errors(self, bad):
        with pytest.raises(DomainError, match="eps_K"):
            derive_params(10, bad, 0.5, 0)
        with pytest.raises(DomainError, match="eps_N"):
            derive_params(10, 0, bad, 0)
        with pytest.raises(DomainError, match="eps_K"):
            FilterParams(n=0, eps_K=bad, q=2, m=3, seed=0)

    def test_key_count_validation(self):
        for n in (0, -1, 1.5):
            with pytest.raises(DomainError):
                derive_params(n, 0, 0.5, 0)

    def test_seed_validation(self):
        for seed in (-1, 1 << 64, 0.5):
            with pytest.raises(DomainError):
                derive_params(10, 0, 0.5, seed)


class TestFilterParams:
    def test_sizing_rule_enforced(self):
        params = derive_params(1000, 0, 0.5, 0)
        with pytest.raises(DomainError):
            dataclasses.replace(params, m=params.m + 1)
        with pytest.raises(DomainError):
            dataclasses.replace(params, m=params.m - 1)

    def test_slack_term_enforced(self):
        # t_n is derived from n, so no other value can be set.
        for n in (1, 12, 1000):
            params = derive_params(n, 0, 0.5, 0)
            assert params.t_n == float(n) ** (2.0 / 3.0)
            with pytest.raises(TypeError):
                dataclasses.replace(params, t_n=99.0)

    def test_eps_N_must_be_reciprocal_of_q(self):
        # eps_N is derived from q, so no other value can be set.
        for q in (2, 3, 5, 4294967291):
            params = derive_params(10, 0, 1.0 / q, 0)
            assert params.q == q and params.eps_N == 1.0 / q
            with pytest.raises(TypeError):
                dataclasses.replace(params, eps_N=0.25)

    def test_fields_are_the_header_values(self):
        names = [f.name for f in dataclasses.fields(FilterParams)]
        assert names == ["n", "eps_K", "q", "m", "seed"]

    def test_composite_modulus_rejected(self):
        with pytest.raises(DomainError):
            FilterParams(n=0, eps_K=0, q=4, m=3, seed=0)

    def test_degenerate_empty_instance(self):
        params = FilterParams(n=0, eps_K=0, q=2, m=3, seed=0)
        assert params.threshold == 0
        assert params.bits_payload == 3

    def test_capacity_cached_outside_the_fields(self):
        params = derive_params(1000, 0, 1.0 / 3.0, 0)
        capacity = params.capacity
        assert capacity == 3**params.m
        assert params.capacity is capacity  # computed once, then reused
        assert params.bits_payload == (3**params.m - 1).bit_length()
        assert "capacity" not in {f.name for f in dataclasses.fields(params)}
        fresh = derive_params(1000, 0, 1.0 / 3.0, 0)
        assert fresh == params and hash(fresh) == hash(params)

    def test_state_checks_the_vector_against_the_header(self):
        params = FilterParams(n=0, eps_K=0, q=3, m=3, seed=0)
        assert FilterState(params, galois.FieldVector(3, (0, 2, 0))).y.coords == (0, 2, 0)
        for q, coords in ((5, (0, 2, 0)), (3, (0, 2)), (3, (0, 0, 0))):
            with pytest.raises(DomainError):
                FilterState(params, galois.FieldVector(q, coords))

    def test_thresholds(self):
        assert derive_params(12, Fraction(1, 4), 0.5, 0).threshold == 9
        assert derive_params(10, 0, 0.5, 0).threshold == 10
        # ceil((1 - 1/3) * 10) = ceil(6.67) = 7
        assert derive_params(10, Fraction(1, 3), 0.5, 0).threshold == 7


class TestBuild:
    @pytest.mark.parametrize("eps_N,n", [(0.5, 50), (1.0 / 3.0, 20)])
    def test_one_sided_always_succeeds(self, eps_N, n):
        params = derive_params(n, 0, eps_N, 11)
        keys = [b"k%04d" % i for i in range(n)]
        state, report = build(params, keys)
        assert report.success
        assert report.satisfied_keys == n
        assert report.candidates_tried == 0
        assert report.bits_payload == params.bits_payload
        assert state.y.array.any()
        assert query_many(state, keys).all()

    # m = 2, 61, 64, 65, 129, 1024 and 1025; n = 929 hashes 15 chunks of up to 63 rows.
    @pytest.mark.parametrize("n", [1, 47, 50, 51, 106, 928, 929])
    def test_packed_gf2_build_matches_the_int64_kernel(self, n, monkeypatch):
        params = derive_params(n, 0, 0.5, 23)
        keys = [b"packed-%d" % i for i in range(n)]
        rows = F._hash_rows(params, keys)
        y = galois.nullspace_of_matrix(rows, 2)
        satisfied = int((galois.matmul_mod(rows, y, 2) == 0).sum())
        state, report = build(params, keys)
        assert state.y.array.tolist() == y.tolist()
        assert report == F.BuildReport(satisfied, 0, params.m, satisfied >= n)
        # The packed parity count agrees with the int64 dot products on a
        # vector that leaves some keys unsatisfied.
        other = np.random.default_rng(n).integers(0, 2, size=params.m)
        other[0] = 1
        monkeypatch.setattr(F, "_eliminate_gf2", lambda packed, m: other)
        _, report = build(params, keys)
        assert report.satisfied_keys == int((galois.matmul_mod(rows, other, 2) == 0).sum())
        assert n == 1 or report.satisfied_keys < n

    def test_packed_gf2_build_holds_no_int64_matrix(self):
        params = derive_params(2000, 0, 0.5, 31)
        keys = [b"memory-%d" % i for i in range(2000)]
        tracemalloc.start()
        try:
            _, report = build(params, keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.success and report.satisfied_keys == 2000
        assert peak < params.n * params.m  # an eighth of the int64 rows

    def test_one_sided_panels_search_a_short_block(self, monkeypatch):
        # A one-sided build has fewer keys than columns, so no panel's
        # pivot search or inverse needs more rows than its short block.
        heights = spy_gauss_jordan(monkeypatch)
        rng = np.random.default_rng(300)
        keys = [bytes(k) for k in rng.integers(0, 256, size=(300, 16), dtype=np.uint8)]
        params = derive_params(300, 0, 1.0 / 3, 3)
        state, report = build(params, keys)
        assert report.success and query_many(state, keys).all()
        # One call per panel up to the first free column, n: the inverse of
        # each pivot block comes from the same call.
        assert len(heights) == params.n // galois._PANEL + 1
        assert max(heights) <= galois._PANEL + galois._PIVOT_SLACK

    def test_duplicate_keys_rejected(self):
        params = derive_params(3, 0, 0.5, 0)
        with pytest.raises(DomainError):
            build(params, [b"a", b"b", b"a"])

    @pytest.mark.parametrize("eps_K", [0, Fraction(1, 4)])
    def test_keys_checked_before_any_hashing(self, eps_K, monkeypatch):
        params = derive_params(3, eps_K, 0.5, 0)
        monkeypatch.setattr(F, "sample_field_elements", None)
        # An unhashable key is refused as a key, not by the distinctness test.
        for keys in ([b"a", b"b", "c"], [b"a", b"b", [1]]):
            with pytest.raises(DomainError, match="byte string"):
                build(params, keys)

    def test_wrong_key_count_rejected(self):
        params = derive_params(3, 0, 0.5, 0)
        with pytest.raises(DomainError):
            build(params, [b"a", b"b"])

    def test_degenerate_empty_build(self):
        params = FilterParams(n=0, eps_K=0, q=2, m=4, seed=0)
        state, report = build(params, [])
        assert report.success
        assert report.satisfied_keys == 0
        assert state.y.coords == (1, 0, 0, 0)

    def test_degenerate_empty_two_sided_build(self):
        # No keys and eps_K > 0: attempt 0 forces no rows, whose kernel
        # vector is the first standard basis vector; no subset is drawn.
        params = FilterParams(n=0, eps_K=Fraction(1, 4), q=2, m=4, seed=0)
        state, report = build(params, [])
        assert report == F.BuildReport(0, 0, 4, True)
        assert state.y.coords == (1, 0, 0, 0)
        assert serialize(state) == _HEADER.pack(b"MF", 1, 2, 4, 0, 1, 4, 0) + b"\x01"
        assert deserialize(serialize(state)) == state

    def test_two_sided_first_keys_win(self):
        # m = 8, so attempt 0 forces the first 7 keys in byte order; their
        # kernel vector satisfies 11 keys, where 9 are needed.
        params = derive_params(12, Fraction(1, 4), 0.5, 7)
        state, report = build(params, KEYS12)
        assert report == F.BuildReport(11, 0, 8, True)
        assert state.y.coords == (0, 1, 0, 0, 0, 0, 0, 0)
        forced = [reference_row(7, key, 2, 8) for key in sorted(KEYS12)[:7]]
        assert all(reference_dot(row, state.y.coords, 2) == 0 for row in forced)

    def test_two_sided_meets_threshold(self, built_12_seed0):
        params, state, report = built_12_seed0
        assert report.success
        assert report.satisfied_keys >= params.threshold
        assert report.satisfied_keys == 9
        assert report.candidates_tried == 0
        # The report's count and live queries must agree.
        assert int(query_many(state, KEYS12).sum()) == report.satisfied_keys

    def test_two_sided_deterministic_and_order_independent(self):
        params = derive_params(12, Fraction(1, 4), 0.5, 8)  # wins on the second seeded subset
        state, report = build(params, KEYS12)
        assert report == F.BuildReport(11, 2, 8, True)
        blob = serialize(state)
        rng = np.random.default_rng(8)
        for _ in range(5):
            shuffled = [KEYS12[i] for i in rng.permutation(12)]
            again, again_report = build(params, shuffled)
            assert again_report == report and serialize(again) == blob

    def test_attempt_cap_exhaustion_reports_failure(self, monkeypatch):
        params = derive_params(12, Fraction(1, 4), 0.5, 8)
        bests = []
        for cap in (0, 1):
            monkeypatch.setattr(F, "_MAX_ATTEMPTS", cap)
            state, report = build(params, KEYS12)
            assert state is None and not report.success
            assert report.candidates_tried == cap
            bests.append(report.satisfied_keys)
        # The best count seen, below the 9 keys needed, never falls.
        assert bests[0] <= bests[1] < params.threshold
        monkeypatch.setattr(F, "_MAX_ATTEMPTS", 2)  # exactly the winner's subset
        state, report = build(params, KEYS12)
        assert report == F.BuildReport(11, 2, 8, True)


def _perfbench_keys(n):
    return [
        hashlib.blake2b(b"perfbench-%d-%d" % (n, i), digest_size=16).digest()
        for i in range(n)
    ]


_TINY_EPS = [Fraction(1, d) for d in (8, 6, 5, 4, 3)] + [
    Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)
]
_TINY_MAX_M = {2: 10, 3: 6}
_TINY_CASES = 32


@functools.cache
def _tiny_sizes(q):
    """(n, eps_K) pairs with m small enough to enumerate GF(q)^m whose
    threshold exceeds m - 1, so forcing the first keys cannot decide them."""
    sizes = []
    for n, eps_K in itertools.product(range(2, 30), _TINY_EPS):
        if eps_K + Fraction(1, q) < 1:
            params = derive_params(n, eps_K, 1.0 / q, 0)
            if params.m <= _TINY_MAX_M[q] and params.threshold > params.m - 1:
                sizes.append((n, eps_K))
    return sizes


@functools.cache
def _tiny_instance(q, case):
    """A seeded tiny two-sided instance and the exhaustive best count."""
    rng = random.Random(1000 * q + case)
    n, eps_K = rng.choice(_tiny_sizes(q))
    params = derive_params(n, eps_K, 1.0 / q, rng.getrandbits(64))
    keys = [b"tiny-%d-%d" % (case, j) for j in range(n)]
    return params, keys, reference_best(params.seed, keys, q, params.m)


class TestTwoSidedBuild:
    """Two-sided builds force seeded subsets of key rows to zero.  They are
    checked against an exhaustive search and plain-int hash rows."""

    @pytest.mark.parametrize("case", range(_TINY_CASES))
    @pytest.mark.parametrize("q", [2, 3])
    def test_complete_on_tiny_instances(self, q, case):
        # The build succeeds exactly when some nonzero vector of GF(q)^m
        # satisfies the threshold, and its vector is checked in plain ints.
        params, keys, best = _tiny_instance(q, case)
        state, report = build(params, keys)
        assert report.success == (best >= params.threshold)
        assert report.satisfied_keys <= best
        if state is None:
            assert report.candidates_tried == F._MAX_ATTEMPTS
            return
        rows = [reference_row(params.seed, key, q, params.m) for key in keys]
        satisfied = sum(reference_dot(row, state.y.coords, q) == 0 for row in rows)
        assert satisfied == report.satisfied_keys >= params.threshold

    @pytest.mark.parametrize("q", [2, 3])
    def test_tiny_instances_cover_both_outcomes(self, q):
        outcomes = [
            best >= params.threshold
            for params, _, best in map(functools.partial(_tiny_instance, q), range(_TINY_CASES))
        ]
        assert 0 < outcomes.count(False) < outcomes.count(True)

    # m > n, so attempt 0 forces every key.  n=30 failed after 10**7
    # random candidates (28 of the 29 keys needed).
    @pytest.mark.parametrize("n,m,threshold", [(30, 34, 29), (60, 63, 58)])
    def test_keys_below_m_succeed_at_once(self, n, m, threshold):
        params = derive_params(n, Fraction(1, 30), 0.5, 1)
        keys = _perfbench_keys(n)
        state, report = build(params, keys)
        assert (params.m, params.threshold) == (m, threshold)
        assert report == F.BuildReport(n, 0, m, True)
        rows = [reference_row(1, key, 2, m) for key in keys]
        assert all(reference_dot(row, state.y.coords, 2) == 0 for row in rows)

    def test_gfq_seeded_subsets(self):
        # q=3, m=34 and 36 of 40 keys needed: attempt 0 forces only 33.
        params = derive_params(40, Fraction(1, 10), 1.0 / 3, 1)
        keys = _perfbench_keys(40)
        state, report = build(params, keys)
        assert (params.m, params.threshold) == (34, 36) and report.success
        rows = [reference_row(1, key, 3, 34) for key in keys]
        satisfied = sum(reference_dot(row, state.y.coords, 3) == 0 for row in rows)
        assert satisfied == report.satisfied_keys >= 36

    # Reports and blob digests of perfbench's five two-sided builds.  At
    # n = 12 every key is forced; the others need m - 1 < n forced keys.
    @pytest.mark.parametrize(
        "n,eps_K,satisfied,digest",
        [
            (12, Fraction(1, 12), 12, "710547ca551c31e26bcf97a2f57acf7be554f3a2582fd779b7048dbe71a33b6f"),
            (16, Fraction(2, 16), 14, "81d8f2a4fa58a188288820726b5e72738d83ee8d88d03e2d4f8d907964922f49"),
            (20, Fraction(2, 20), 19, "7c4eb17dae585edaceb348011ffeb943536947cf1db2450eb3c97005d24c3663"),
            (24, Fraction(2, 24), 24, "55ce4b12687fe4d30da1469d2f7548ddf3cc30b0fdeb6ccb06d0054cb61eccdc"),
            (28, Fraction(2, 28), 27, "f163506544084aaf10ac4d039f06ca37e995d929c9493ca99e18cfffd12f4736"),
        ],
    )
    def test_perfbench_builds_pinned(self, n, eps_K, satisfied, digest):
        params = derive_params(n, eps_K, 0.5, 1)
        state, report = build(params, _perfbench_keys(n))
        assert report == F.BuildReport(satisfied, 0, params.m, True)
        assert hashlib.sha256(serialize(state)).hexdigest() == digest

    def test_gf2_needs_no_float_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("matmul_mod called by a GF(2) build")

        monkeypatch.setattr(F, "matmul_mod", refuse)
        params = derive_params(100, Fraction(1, 10), 0.5, 1)
        _, report = build(params, [b"isd-%d" % i for i in range(100)])
        assert report.success and report.satisfied_keys >= 90

    def test_gf2_seeded_subsets_hold_packed_rows(self, monkeypatch):
        # Every attempt eliminates a packed copy of m - 1 rows; the peak is
        # under an eighth of the int64 rows' n*m*8 bytes.
        monkeypatch.setattr(F, "_MAX_ATTEMPTS", 2)
        params = derive_params(2000, Fraction(1, 20), 0.5, 7)
        keys = [b"big-%d" % i for i in range(2000)]
        tracemalloc.start()
        try:
            state, report = build(params, keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state is None and report.candidates_tried == 2
        assert report.satisfied_keys < params.threshold
        assert peak < params.n * params.m


def _spy_query_hashing(monkeypatch, q: int) -> list[tuple[int, int]]:
    """Record (elements, columns) of every batch ``query_many`` hashes at
    modulus q: calls of ``_gf2_draw_sums`` at q = 2, whose answers are
    parities of draws with no row of them, and the shapes of the rows
    ``sample_field_elements`` draws at every other q."""
    shapes: list[tuple[int, int]] = []
    if q == 2:
        sums = F._gf2_draw_sums

        def spy(streams, columns):
            shapes.append((len(streams), len(columns)))
            return sums(streams, columns)

        monkeypatch.setattr(F, "_gf2_draw_sums", spy)
    else:
        sample = F.sample_field_elements

        def spy(*args, **kwargs):
            out = sample(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(F, "sample_field_elements", spy)
    return shapes


class TestQuery:
    def test_satisfied_keys_answer_one(self, built_1000):
        _, keys, state, report = built_1000
        assert report.satisfied_keys == 1000
        assert query(state, keys[0]) == 1
        assert query_many(state, keys).all()

    def test_query_many_matches_scalar(self, built_12_seed0):
        _, state, _ = built_12_seed0
        elements = KEYS12 + [b"stranger-%d" % i for i in range(20)]
        batched = query_many(state, elements)
        assert batched.tolist() == [query(state, e) for e in elements]

    def test_query_many_frees_each_batch(self):
        params = derive_params(100, 0, 0.5, 5)
        state, _ = build(params, [b"batch-key-%d" % i for i in range(100)])
        for count in (1, 3 * _BATCH):
            elements = [b"batch-query-%d" % i for i in range(count)]
            rows = F._hash_rows(params, elements)
            want = galois.matmul_mod(rows, state.y.array, 2) == 0
            del rows
            tracemalloc.start()
            try:
                answers = query_many(state, elements)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert answers.tolist() == want.tolist()
            # A few sampling blocks of words, however many elements.
            assert peak < 4 * _BLOCK * 8

    def test_query_batches_are_one_sampling_block(self, monkeypatch):
        params = derive_params(100, 0, 0.5, 5)
        state, _ = build(params, [b"batch-key-%d" % i for i in range(100)])
        shapes = _spy_query_hashing(monkeypatch, 2)
        query_many(state, [b"batch-query-%d" % i for i in range(3 * _BATCH)])
        # 49 support columns: _BLOCK // 49 = 1337 elements per batch.
        assert len(state._support[0]) == 49
        assert shapes == [(1337, 49)] * 9 + [(3 * _BATCH - 9 * 1337, 49)]

    def test_elements_checked_before_any_hashing(self, built_12_seed0, monkeypatch):
        params, state, _ = built_12_seed0
        calls = _spy_query_hashing(monkeypatch, params.q)
        elements = [b"k%d" % i for i in range(5000)] + ["str"]
        with pytest.raises(DomainError):
            query_many(state, elements)
        assert calls == []
        assert query_many(state, elements[:-1]).shape == (5000,)
        # y has 4 nonzero columns, so a batch is _BATCH elements, not a
        # _BLOCK of words (16384 elements).
        assert len(state._support[0]) == 4
        assert [rows for rows, _ in calls] == [_BATCH, 5000 - _BATCH]

    def test_field_built_once_per_call(self, built_12_seed0, monkeypatch):
        params, state, _ = built_12_seed0
        calls = []
        is_prime = galois.is_prime

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(galois, "is_prime", counted)
        elements = [b"k%d" % i for i in range(5000)]
        rows = [reference_row(params.seed, e, params.q, params.m) for e in elements]
        expected = [int(reference_dot(r, state.y.coords, params.q) == 0) for r in rows]
        for _ in range(2):  # the second call reuses y's cached support
            assert query_many(state, elements).tolist() == expected
        assert calls == []
        build(params, KEYS12)
        assert calls == [params.q]

    @pytest.mark.parametrize("q", [2, 3, 5, 4294967291])
    def test_only_the_support_of_y_is_hashed(self, q, monkeypatch):
        params = derive_params(6, 0, 1.0 / q, 99)
        m = params.m
        elements = [b"support-%d" % i for i in range(_BATCH + 3)]
        rows = [reference_row(params.seed, e, q, m) for e in elements]
        shapes = _spy_query_hashing(monkeypatch, q)
        rng = np.random.default_rng(q % 1000)
        dense = [int(v) for v in rng.integers(1, q, size=m)]
        dense[m // 2] = 0
        for coords in (
            [1] + [0] * (m - 1),
            [0] * (m - 1) + [q - 1],
            [0, 0, 1] + [0] * (m - 3),
            dense,
        ):
            state = FilterState(params, galois.FieldVector(q, coords))
            want = [int(reference_dot(r, coords, q) == 0) for r in rows]
            shapes.clear()
            assert query_many(state, elements).tolist() == want
            support = sum(1 for c in coords if c)
            # m <= 10 columns, so each batch is _BATCH elements.
            assert m <= 10 and shapes == [(_BATCH, support), (3, support)]
            assert query(state, elements[-1]) == want[-1]

    @pytest.mark.parametrize("block", [_BLOCK, 40, 4])
    def test_gf2_answers_match_reference_at_batch_edges(self, block, monkeypatch):
        # At q = 2 the answer is a parity of draws folded from the mixer's
        # words.  Shrunken blocks put the batch edge at a few elements, and
        # at block 4 a dense support spans column chunks of one element.
        monkeypatch.setattr(F, "_BLOCK", block)
        monkeypatch.setattr(galois, "_BLOCK", block)
        params = derive_params(6, 0, 0.5, 99)
        m = params.m
        dense = [1] * m
        dense[m // 2] = 0
        for coords in ([1] + [0] * (m - 1), [0] * (m - 1) + [1], dense):
            state = FilterState(params, galois.FieldVector(2, coords))
            step = max(1, min(_BATCH, block // sum(coords)))
            elements = [b"fold-%d" % i for i in range(max(step + 1, 16))]
            want = [
                int(reference_dot(reference_row(params.seed, e, 2, m), coords, 2) == 0)
                for e in elements
            ]
            assert 0 < sum(want) < len(want)
            for count in sorted({0, 1, step - 1, step, step + 1}):
                got = query_many(state, elements[:count])
                assert got.dtype == np.int64 and got.tolist() == want[:count]
            for i in sorted({0, step - 1, step}):
                assert query(state, elements[i]) == want[i]

    def test_hyperplane_accepts_exactly_one_in_q(self):
        # y = (1, 0, 1) over GF(2): rows with row[0] = row[2] pass -> 4 of 8.
        assert self._accept_count(2, (1, 0, 1)) == 4
        rng = np.random.default_rng(3)
        for q in (2, 3, 5):
            for m in (1, 2, 3, 4):
                for _ in range(3):
                    y = tuple(int(v) for v in rng.integers(0, q, size=m))
                    if not any(y):
                        y = (1,) + y[1:]
                    assert self._accept_count(q, y) == q ** (m - 1)

    def test_wide_field_query_matches_scalar_dot(self):
        # q*q overflows int64 here, so query_many needs the digit-split product.
        q = 4294967291
        params = derive_params(20, 0, 1.0 / q, 9)
        keys = [b"wide-%d" % i for i in range(20)]
        state, report = build(params, keys)
        assert report.success and report.satisfied_keys == 20
        nonkeys = [b"other-%d" % i for i in range(200)]
        answers = query_many(state, keys + nonkeys)
        rows = [reference_row(9, e, q, params.m) for e in keys + nonkeys]
        expected = [int(reference_dot(r, state.y.coords, q) == 0) for r in rows]
        assert answers.tolist() == expected
        assert answers[:20].all()

    @staticmethod
    def _accept_count(q, y):
        m = len(y)
        return sum(
            1
            for row in itertools.product(range(q), repeat=m)
            if sum(r * c for r, c in zip(row, y)) % q == 0
        )


def _repack(blob, **overrides):
    fields = dict(
        zip(
            ("magic", "version", "q", "m", "n", "eps_num", "eps_den", "seed"),
            _HEADER.unpack_from(blob),
        )
    )
    fields.update(overrides)
    return _HEADER.pack(*fields.values()) + blob[_HEADER.size :]


class TestSerialization:
    def test_round_trip_one_sided(self, built_1000):
        params, _, state, _ = built_1000
        blob = serialize(state)
        assert len(blob) == _HEADER.size + params.payload_bytes == 32 + 138
        restored = deserialize(blob)
        assert restored == state
        assert serialize(restored) == blob

    def test_round_trip_two_sided(self, built_12_seed0):
        params, state, _ = built_12_seed0
        blob = serialize(state)
        assert len(blob) == 32 + 1
        restored = deserialize(blob)
        assert restored.params == params
        assert restored.y == state.y

    def test_q3_payload_size(self):
        params = derive_params(100, 0, 1.0 / 3.0, 5)
        keys = [b"w%d" % i for i in range(100)]
        state, _ = build(params, keys)
        blob = serialize(state)
        assert len(blob) == 32 + 23
        assert deserialize(blob) == state

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 4252])
    def test_gf2_payload_is_the_packed_bits(self, m):
        params = FilterParams(n=0, eps_K=0, q=2, m=m, seed=0)
        coords = np.random.default_rng(m).integers(0, 2, size=m)
        coords[-1] = 1
        state = FilterState(params, galois.FieldVector(2, coords))
        value = 0
        for c in reversed(coords.tolist()):
            value = value * 2 + c
        payload = value.to_bytes((m + 7) // 8, "little")
        blob = serialize(state)
        assert blob == blob[: _HEADER.size] + payload
        assert deserialize(blob) == state
        # Every padding bit past m makes the value reach 2**m.
        for bit in range(m, 8 * len(payload)):
            padded = blob[:-1] + bytes([blob[-1] | 1 << (bit % 8)])
            with pytest.raises(FileFormatError, match="capacity"):
                deserialize(padded)

    # g = 31, 21, 9 and 1 digits per word: m on either side of word boundaries.
    @pytest.mark.parametrize(
        "q,m",
        [(3, 30), (3, 31), (3, 63), (3, 4159), (5, 21), (5, 43), (127, 8), (127, 9),
         (127, 10), (127, 4037), (4294967291, 1), (4294967291, 81)],
    )
    def test_payload_is_the_base_q_value(self, q, m):
        params = FilterParams(n=0, eps_K=0, q=q, m=m, seed=0)
        coords = np.random.default_rng(m).integers(0, q, size=m)
        coords[-1] = q - 1
        state = FilterState(params, galois.FieldVector(q, coords))
        value = 0
        for c in reversed(coords.tolist()):
            value = value * q + c
        blob = serialize(state)
        assert blob == blob[: _HEADER.size] + value.to_bytes(params.payload_bytes, "little")
        assert deserialize(blob) == state
        if q**m < 1 << (8 * params.payload_bytes):
            with pytest.raises(FileFormatError, match="capacity"):
                deserialize(blob[: _HEADER.size] + (q**m).to_bytes(params.payload_bytes, "little"))

    def test_header_fields(self, built_12_seed0):
        params, state, _ = built_12_seed0
        blob = serialize(state)
        magic, version, q, m, n, eps_num, eps_den, seed = _HEADER.unpack_from(blob)
        assert magic == b"MF"
        assert version == 1
        assert (q, m, n) == (2, 8, 12)
        assert Fraction(eps_num, eps_den) == Fraction(1, 4)
        assert seed == 0

    def test_bad_magic(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(b"XX" + blob[2:])

    def test_bad_version(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, version=2))

    def test_truncated_header(self):
        with pytest.raises(FileFormatError):
            deserialize(b"MF\x01\x00")

    def test_wrong_payload_length(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(blob[:-1])
        with pytest.raises(FileFormatError):
            deserialize(blob + b"\x00")

    def test_tampered_m_breaks_sizing(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, m=9) + b"\x00" * 100)

    def test_invalid_eps_rational(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, eps_num=3, eps_den=2))
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, eps_den=0))

    def test_eps_rational_must_be_in_lowest_terms(self, built_12_seed0):
        # 2/8 equals the stored 1/4, but would re-serialize as 1/4.
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, eps_num=2, eps_den=8))
        empty = _HEADER.pack(b"MF", 1, 2, 1, 0, 0, 1, 0) + b"\x01"
        assert serialize(deserialize(empty)) == empty
        with pytest.raises(FileFormatError):
            deserialize(_repack(empty, eps_den=4))

    def test_bytes_pinned(self):
        # Digests taken at commit 421f76e, before the scalar hashing and dot
        # product were folded into the array path.  Equal digests mean equal
        # hash rows, kernel convention and byte format.
        pins = {
            2: "7ffec9d6a8bf3af17cc91e7aa76f5d9c6b0e8855d51f874ccaa7fc2a6150ed1f",
            3: "b52cce12b6b2eb5b9b36b26a208ddd4b9962fa53602290043ff25fe6b0942d58",
        }
        for q, digest in pins.items():
            params = derive_params(40, 0, 1.0 / q, q)
            state, _ = build(params, [b"pin-%d" % i for i in range(40)])
            assert hashlib.sha256(serialize(state)).hexdigest() == digest

    @pytest.mark.parametrize(
        "q,n,digest",
        [
            (3, 300, "1ec9419c659db58eff9c64b06db07384d0a20c72409015b507c4434d3273aa6a"),
            (3, 1000, "1cbdd02ad947ccd454d6e7634f6ab1bc43fbae2b6e108e8345120c78e35d382c"),
            (5, 200, "02192a43efaa88867959c1470890df30d2e0f590b580f168997a0ebe5fdc9aab"),
            (
                4294967291,
                80,
                "3f58b5e95ac866e1f04cb960a61499e7f780a2280617db2291e59df98fd16df7",
            ),
        ],
    )
    def test_bytes_pinned_across_panels(self, q, n, digest):
        # Digests taken at commit 31e910d, before each GF(q) panel's pivots
        # were sought in a short block of rows, and the n=1000 one at
        # a2bdb02, before the elimination stopped updating the rows above
        # each panel.  m = 329, 215, 81 and 1064 (17 panels) span several
        # elimination panels.
        params = derive_params(n, 0, 1.0 / q, q)
        assert params.m > galois._PANEL
        state, _ = build(params, [b"pin-%d" % i for i in range(n)])
        assert hashlib.sha256(serialize(state)).hexdigest() == digest

    def test_composite_q(self, built_12_seed0):
        blob = serialize(built_12_seed0[1])
        with pytest.raises(FileFormatError):
            deserialize(_repack(blob, q=4))

    def test_zero_vector_rejected(self):
        header = _HEADER.pack(b"MF", 1, 2, 3, 0, 0, 1, 0)
        with pytest.raises(FileFormatError):
            deserialize(header + b"\x00")

    def test_header_sized_payload_refused_before_work(self):
        # A consistent header for a 4e6-key q=3 filter with no payload: the
        # refusal must not compute 3**4015899.
        header = _HEADER.pack(b"MF", 1, 3, 4015899, 4 * 10**6, 0, 1, 0)
        start = time.perf_counter()
        with pytest.raises(FileFormatError):
            deserialize(header)
        assert time.perf_counter() - start < 0.05

    def test_payload_value_above_capacity(self):
        # q=3, m=1: payload byte must encode a value < 3.
        header = _HEADER.pack(b"MF", 1, 3, 1, 0, 0, 1, 0)
        assert deserialize(header + b"\x02").y.coords == (2,)
        with pytest.raises(FileFormatError):
            deserialize(header + b"\x03")


@functools.cache
def _valid_blobs() -> tuple[bytes, ...]:
    blobs = []
    for q, n, eps_K in ((2, 12, Fraction(1, 4)), (2, 40, 0), (3, 40, 0), (5, 7, 0),
                        (4294967291, 3, 0)):
        params = derive_params(n, eps_K, 1.0 / q, n)
        state, _ = build(params, [b"fuzz-%d" % i for i in range(n)])
        blobs.append(serialize(state))
    return tuple(blobs)


@st.composite
def _mutated_blobs(draw) -> bytes:
    """A valid blob with q, m or n set to an edge value, some bytes
    overwritten, and possibly truncated."""
    blob = bytearray(draw(st.sampled_from(_valid_blobs())))
    fields = list(_HEADER.unpack_from(blob))
    for i in draw(st.sets(st.sampled_from((2, 3, 4)))):  # q, m, n
        fields[i] = draw(st.sampled_from((0, 1, 4, 2**32 - 1)))
    blob[: _HEADER.size] = _HEADER.pack(*fields)
    for pos, value in draw(
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=3)
    ):
        blob[pos] = value
    return bytes(blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob)


def _bounded(fn, arg):
    """fn(arg), or None if it raises a library error; within 0.1 s and 8 MB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        return fn(arg)
    except MemboundError:
        return None
    finally:
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 0.1 and peak < 8 << 20, (elapsed, peak)


_TEXT_LINES = st.sampled_from(
    ["0.5", "1", "0", " 0.25 ", "1e-3", "2", "-0.1", "nan", "inf", "#c", "", "x", "\r"]
)
_FILES = st.one_of(
    st.binary(max_size=200),
    st.lists(_TEXT_LINES, max_size=12).map(lambda lines: "\n".join(lines).encode()),
)


class TestFuzzedInput:
    """Outside input either parses into something consistent or raises a
    MemboundError subclass, quickly and in little memory."""

    @settings(max_examples=400)
    @given(st.one_of(_mutated_blobs(), st.binary(max_size=120)))
    def test_deserialize(self, blob):
        state = _bounded(deserialize, blob)
        if state is not None:
            assert serialize(state) == blob

    @settings(suppress_health_check=list(HealthCheck))
    @given(_FILES)
    def test_read_keys(self, tmp_path, data):
        path = tmp_path / "keys.txt"
        path.write_bytes(data)
        keys = _bounded(read_keys, path)
        joined = b"\n".join(keys)
        assert data in (joined, joined + b"\n")

    @settings(suppress_health_check=list(HealthCheck))
    @given(_FILES)
    def test_read_scores(self, tmp_path, data):
        path = tmp_path / "scores.txt"
        path.write_bytes(data)
        scores = _bounded(read_scores, path)
        if scores is not None:
            assert all(0.0 <= x <= 1.0 for x in scores)


class TestPerfbenchSpans:
    def test_tracer_records_every_layer(self):
        # perfbench's per-layer metrics come from spans on these names; a
        # refactor that reaches galois another way would zero them silently.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        try:
            keys = [b"span-%d" % i for i in range(40)]
            state, report = F.build(F.derive_params(40, 0, 1.0 / 3, 6), keys)
            assert report.success
            assert F.query_many(state, keys).all()
            tester = functools.partial(F.query_many, state)
            F.measure_rates(tester, keys, F.random_bytes_sampler(1, 8), 50)
            assert F.deserialize(F.serialize(state)) == state
        finally:
            tracer.uninstall()
        assert F.build is build and F.query_many is query_many
        calls = {name: row["calls"] for name, row in tracer.summary().items()}
        for name in (
            "galois.WordStream",
            "galois.sample_field_elements",
            "galois.nullspace_of_matrix",
            "filter.build",
            "filter.query_many",
            "filter.measure_rates",
            "filter.serialize",
            "filter.deserialize",
        ):
            assert calls.get(name, 0) >= 1, name


def _set_tester(key_set):
    return lambda batch: [1 if e in key_set else 0 for e in batch]


class TestMeasureRates:
    def test_oracle_tester_is_perfect(self):
        keys = [b"a", b"b", b"c"]
        rates = measure_rates(
            _set_tester(set(keys)), keys, random_bytes_sampler(0, 8), 500
        )
        assert rates.fnr_hat == 0.0
        assert rates.fpr_hat == 0.0
        assert rates.fpr_ci[0] == 0.0
        assert rates.trials == 500

    def test_constant_answer_testers(self):
        keys = [b"a", b"b"]
        sampler = random_bytes_sampler(1, 8)
        accept = measure_rates(lambda b: [1] * len(b), keys, sampler, 200)
        assert accept.fnr_hat == 0.0
        assert accept.fpr_hat == 1.0
        assert accept.fpr_ci[1] == pytest.approx(1.0, abs=1e-12)
        reject = measure_rates(lambda b: [0] * len(b), keys, sampler, 200)
        assert reject.fnr_hat == 1.0
        assert reject.fpr_hat == 0.0

    def test_built_filter_hits_design_rates(self, built_1000):
        _, keys, state, _ = built_1000
        rates = measure_rates(
            functools.partial(query_many, state),
            keys,
            random_bytes_sampler(1, 8),
            100_000,
        )
        assert rates.fnr_hat == 0.0
        assert abs(rates.fpr_hat - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)
        assert rates.fpr_ci[0] <= 0.5 <= rates.fpr_ci[1]

    def test_universe_agnostic(self, built_1000):
        _, keys, state, _ = built_1000
        tester = functools.partial(query_many, state)
        short = measure_rates(tester, keys, random_bytes_sampler(2, 8), 20_000)
        long = measure_rates(tester, keys, random_bytes_sampler(2, 64), 20_000)
        assert short.fpr_ci[0] <= long.fpr_ci[1]
        assert long.fpr_ci[0] <= short.fpr_ci[1]

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            measure_rates(lambda b: [0] * len(b), [], random_bytes_sampler(0, 8), 0)

    def test_sampler_collision_guard(self):
        keys = [bytes([i]) for i in range(256)]
        with pytest.raises(DomainError):
            measure_rates(_set_tester(set(keys)), keys, random_bytes_sampler(0, 1), 1)

    def test_sampler_length_validation(self):
        with pytest.raises(DomainError):
            random_bytes_sampler(0, 0)


class TestWilsonInterval:
    def test_empty_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and 0.9 < lo < 1.0
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1

    def test_contains_point_estimate_and_symmetric_at_half(self):
        lo, hi = wilson_interval(5000, 10000)
        assert lo < 0.5 < hi
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_width_shrinks_with_samples(self):
        w = lambda n: (lambda ci: ci[1] - ci[0])(wilson_interval(n // 2, n))
        assert w(100_000) < w(10_000) < w(1_000)


class TestSpaceOptimality:
    def test_per_key_bits_approach_the_rate(self):
        for q in (2, 3):
            rate = math.log2(q)  # optimal_binary(0, 1/q)
            for n in (10**3, 10**4, 10**5):
                params = derive_params(n, 0, 1.0 / q, 0)
                t_n = float(n) ** (2.0 / 3.0)
                bound = rate + t_n * (1 + math.log2(q)) / (n * math.log2(q)) + 8.0 / n
                assert params.bits_payload / n <= bound

    def test_built_report_matches_params(self, built_1000):
        params, _, _, report = built_1000
        assert report.bits_payload == params.bits_payload == 1100


class TestReadKeys:
    def test_round_trip_with_trailing_newline(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"alpha\nbeta\ngamma\n")
        assert read_keys(path) == [b"alpha", b"beta", b"gamma"]

    def test_no_trailing_newline(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"alpha\nbeta")
        assert read_keys(path) == [b"alpha", b"beta"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"")
        assert read_keys(path) == []

    def test_exact_bytes_preserved(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_bytes(b"a\n\nb\r\n")
        assert read_keys(path) == [b"a", b"", b"b\r"]
