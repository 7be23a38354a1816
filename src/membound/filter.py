"""Two-sided membership filter stored as a single vector over a prime field.

A key set of size ``n`` is compressed into one nonzero vector ``y`` in
GF(q)^m.  Every element hashes to a row in GF(q)^m through a seeded
pseudorandom stream, and a query accepts iff the row is orthogonal to
``y``.  Orthogonality makes the false-positive rate exactly ``1/q`` for
any fixed nonzero ``y``, while the build step chooses ``y`` so that at
least ``ceil((1 - eps_K) * n)`` key rows are satisfied, capping the
false-negative rate at ``eps_K``.

Sizing is information-theoretically tight up to a vanishing slack term:
``m = ceil((n*D + t_n) / log2 q)`` with ``D = KL(Bern(1-eps_K) ||
Bern(1/q))`` bits per key and ``t_n = n**(2/3)``, so the payload spends
``D + o(1)`` bits per key.  The build forces key rows to zero: it takes
the kernel vector of ``k = min(n, m - 1)`` key rows and keeps it if it
satisfies enough keys.  With ``eps_K = 0`` the first attempt forces every
key (a nonzero solution always exists because ``m > n``); with
``eps_K > 0`` later attempts force seeded subsets of the keys
(information-set decoding), and the first vector that satisfies enough
keys wins.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, FileFormatError, TrivialRegimeError
from .galois import (
    _BLOCK,
    FieldVector,
    WordStream,
    _eliminate_gf2,
    _gf2_draw_sums,
    _pack_gf2,
    is_prime,
    matmul_mod,
    nullspace_of_matrix,
    sample_field_elements,
    stream_bases,
)
from .rate_distortion import optimal_binary

__all__ = [
    "FilterParams",
    "FilterState",
    "BuildReport",
    "MeasuredRates",
    "derive_params",
    "build",
    "query",
    "query_many",
    "serialize",
    "deserialize",
    "measure_rates",
    "random_bytes_sampler",
    "read_keys",
    "wilson_interval",
]

_MAGIC = b"MF"
_VERSION = 1
# magic, version, q, m, n, eps_K numerator, eps_K denominator, seed
_HEADER = struct.Struct("<2sHIIIIIQ")
_MAX_DENOMINATOR = (1 << 32) - 1
_ELEMENT_TAG = b"E"
_SUBSET_TAG = b"C"
# A prime near 2**61: subset draws are uniform ranks, ties broken by key order.
_RANK_MODULUS = (1 << 61) - 1
# Seeded subsets a two-sided build forces after the first k keys.
_MAX_ATTEMPTS = 1000
_BATCH = 4096

# Two-sided 99% normal quantile used for Wilson confidence intervals.
_WILSON_Z99 = 2.5758293035489004


def _as_fraction(name: str, value) -> Fraction:
    """The nearest fraction with a 32-bit denominator to a finite number."""
    try:
        return Fraction(value).limit_denominator(_MAX_DENOMINATOR)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} {value!r} is not a finite number") from exc


def _as_error_fraction(eps_K) -> Fraction:
    """Canonical exact representation of the target false-negative rate."""
    frac = _as_fraction("eps_K", eps_K)
    if not 0 <= frac < 1:
        raise DomainError(f"eps_K must lie in [0, 1); got {eps_K!r}")
    return frac


def _prime_reciprocal(eps_N) -> int:
    """The prime q with eps_N == 1/q, or an error for any other target."""
    frac = _as_fraction("eps_N", eps_N)
    if (
        frac.numerator != 1
        or not is_prime(frac.denominator)
        or float(frac) != float(eps_N)
    ):
        raise DomainError(
            f"eps_N must be the reciprocal of a prime; got {eps_N!r}"
        )
    return frac.denominator


@dataclass(frozen=True)
class FilterParams:
    """Sizing of a filter instance: exactly the values its serialized header
    stores, from which everything else is derived.  ``eps_K`` is an exact
    rational so the threshold and the header are platform-independent.
    ``m`` follows the sizing rule ``ceil((n*D + t_n)/log2 q)`` whenever
    ``n >= 1``; the degenerate ``n = 0`` instance accepts any positive ``m``.
    """

    n: int
    eps_K: Fraction
    q: int
    m: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise DomainError(f"key count {self.n!r} must be a non-negative integer")
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise DomainError(f"modulus {self.q!r} is not prime")
        object.__setattr__(self, "eps_K", _as_error_fraction(self.eps_K))
        _require_informative(self.eps_K, self.q)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed {self.seed!r} is not an unsigned 64-bit integer")
        if not isinstance(self.m, int) or self.m < 1:
            raise DomainError(f"coordinate count {self.m!r} must be a positive integer")
        if self.n >= 1 and self.m != _sized_m(self.n, self.eps_K, self.q):
            raise DomainError(
                f"m={self.m} violates the sizing rule for "
                f"(n={self.n}, eps_K={self.eps_K}, q={self.q})"
            )

    @property
    def eps_N(self) -> float:
        """The false-positive rate, exactly 1/q."""
        return 1.0 / self.q

    @property
    def t_n(self) -> float:
        """The sizing slack term n**(2/3)."""
        return float(self.n) ** (2.0 / 3.0)

    @cached_property
    def capacity(self) -> int:
        """``q**m``, the number of vectors in GF(q)^m, computed once.

        Cached outside the dataclass fields, so equality, hashing and the
        serialized header are unchanged.
        """
        return self.q**self.m

    @property
    def bits_payload(self) -> int:
        """Exact payload width: the number of bits in q**m - 1."""
        return (self.capacity - 1).bit_length()

    @property
    def payload_bytes(self) -> int:
        return (self.bits_payload + 7) // 8

    @property
    def threshold(self) -> int:
        """Minimum number of satisfied key equations: ceil((1-eps_K)*n)."""
        return math.ceil((1 - self.eps_K) * self.n)


def _require_informative(eps_K: Fraction, q: int) -> None:
    """Refuse targets where eps_K + 1/q >= 1, tested exactly."""
    if eps_K + Fraction(1, q) >= 1:
        raise TrivialRegimeError(
            f"eps_K + eps_N = {float(eps_K) + 1.0 / q} >= 1: "
            "an always-accepting tester is optimal and no filter is needed"
        )


def _sized_m(n: int, eps_K: Fraction, q: int) -> int:
    rate = optimal_binary(float(eps_K), 1.0 / q).rate_bits_per_key
    return math.ceil((n * rate + float(n) ** (2.0 / 3.0)) / math.log2(q))


def derive_params(n: int, eps_K, eps_N, seed: int) -> FilterParams:
    """Size a filter for ``n`` keys at target error rates (eps_K, eps_N).

    ``eps_N`` must be the reciprocal of a prime — the accept set is a
    hyperplane, so only rates of the form 1/q are achievable exactly and
    nothing is silently rounded.  Non-finite or non-numeric targets raise
    ``DomainError``.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"key count {n!r} must be a positive integer")
    q = _prime_reciprocal(eps_N)
    eps_K = _as_error_fraction(eps_K)
    # Sizing calls optimal_binary, whose float test of the regime is not
    # exact, so the exact one comes first.
    _require_informative(eps_K, q)
    m = _sized_m(n, eps_K, q)
    return FilterParams(n, eps_K, q, m, seed)


@dataclass(frozen=True)
class FilterState:
    """An immutable built filter: sizing plus the learned vector ``y``."""

    params: FilterParams
    y: FieldVector

    def __post_init__(self) -> None:
        if self.y.q != self.params.q:
            raise DomainError(
                f"vector field GF({self.y.q}) does not match q={self.params.q}"
            )
        if len(self.y) != self.params.m:
            raise DomainError(
                f"vector length {len(self.y)} does not match m={self.params.m}"
            )
        if not self.y.array.any():
            raise DomainError("the filter vector y must be nonzero")

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The columns where ``y`` is nonzero, and ``y`` on them, built on first use."""
        y = self.y.array
        columns = np.flatnonzero(y)
        return columns, y[columns]


@dataclass(frozen=True)
class BuildReport:
    """Outcome of a build: how many keys the chosen vector satisfies, or
    the most any attempt satisfied when the build failed, and the number of
    seeded subsets tried (0 when the first ``k`` keys sufficed)."""

    satisfied_keys: int
    candidates_tried: int
    bits_payload: int
    success: bool


def _require_bytes(elements: Sequence[bytes]) -> None:
    for element in elements:
        if not isinstance(element, bytes):
            raise DomainError(f"element {element!r} must be a byte string")


def _element_bases(params: FilterParams, elements: Sequence[bytes]) -> np.ndarray:
    """The bases of the elements' hash streams, as one uint64 array."""
    return stream_bases(params.seed, [_ELEMENT_TAG + e for e in elements])


def _hash_rows(params: FilterParams, elements: Sequence[bytes]) -> np.ndarray:
    """Hash rows in GF(q)^m for each element, as an int64 matrix.

    Every element is checked before any is hashed; the rows then come from
    one batched ``sample_field_elements`` call over the elements' stream
    bases.
    """
    _require_bytes(elements)
    return sample_field_elements(_element_bases(params, elements), params.q, 0, params.m)


def _packed_rows(params: FilterParams, keys: list[bytes]) -> np.ndarray:
    """The GF(2) hash rows of the keys packed as by ``_pack_gf2``, with no
    int64 matrix of all the rows: keys are hashed ``_BLOCK // m`` rows at a
    time (one sampling block) and each chunk is packed into its rows."""
    m = params.m
    step = max(1, _BLOCK // m)
    packed = np.empty((len(keys), (m + 63) // 64), dtype=np.uint64)
    for lo in range(0, len(keys), step):
        packed[lo : lo + step] = _pack_gf2(_hash_rows(params, keys[lo : lo + step]))
    return packed


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits in each word of a uint64 array, by the SWAR fold: bit
    counts of 2, 4 and 8 bits, then the bytes summed into the top byte
    (``np.bitwise_count`` needs numpy 2)."""
    ones = 0x0101010101010101
    fives, threes, fifteens = (np.uint64(ones * b) for b in (0x55, 0x33, 0x0F))
    x = words - ((words >> np.uint64(1)) & fives)
    x = (x & threes) + ((x >> np.uint64(2)) & threes)
    x = (x + (x >> np.uint64(4))) & fifteens
    return (x * np.uint64(ones)) >> np.uint64(56)


def build(
    params: FilterParams, keys: Sequence[bytes]
) -> tuple[FilterState | None, BuildReport]:
    """Choose the filter vector ``y`` for a key set by forcing key rows to zero.

    The keys are sorted by their bytes and hashed once.  Each attempt
    takes ``k = min(n, m - 1)`` of the key rows and returns their
    reduced-row-echelon kernel vector, which exists because ``k < m`` and
    satisfies at least those ``k`` keys.  Attempt 0 forces the first ``k``
    keys: with ``eps_K = 0`` that is every key (``m > n``), and whenever
    ``k`` reaches ``ceil((1-eps_K)*n)`` it succeeds.  Attempt ``a >= 1``
    forces the keys at the first ``k`` places of the stable argsort of
    draws ``(a-1)*n .. a*n - 1`` of the seeded subset stream
    (information-set decoding: Prange 1962).  The first vector satisfying
    the threshold wins, so the result depends only on the parameters and
    the key set, not the key order.  After ``_MAX_ATTEMPTS`` seeded
    subsets, or after attempt 0 when ``k = n`` and every subset is the
    same, the state is None and the report carries the best count with
    ``success=False``.  Over GF(2) the rows are bit-packed and a vector's
    satisfied keys are those whose packed row shares an even number of set
    bits with it; over GF(q) with q >= 3 they are counted by one
    ``matmul_mod`` product with the key rows.
    """
    keys = list(keys)
    if len(keys) != params.n:
        raise DomainError(f"expected {params.n} keys, got {len(keys)}")
    _require_bytes(keys)
    if len(set(keys)) != len(keys):
        raise DomainError("keys must be distinct")
    keys.sort()
    n, q, m = params.n, params.q, params.m
    k = min(n, m - 1)

    if q == 2:
        rows = _packed_rows(params, keys)

        def kernel(forced) -> np.ndarray:
            return _eliminate_gf2(rows[forced].copy(), m)  # eliminated in place

        def satisfied(y: np.ndarray) -> int:
            shared = np.bitwise_xor.reduce(rows & _pack_gf2(y[None, :]), axis=1)
            return n - int((_popcount(shared) & 1).sum())

    else:
        rows = _hash_rows(params, keys)

        def kernel(forced) -> np.ndarray:
            return nullspace_of_matrix(rows[forced], q)

        def satisfied(y: np.ndarray) -> int:
            return int((matmul_mod(rows, y, q) == 0).sum())

    stream = WordStream(params.seed, _SUBSET_TAG)
    forced = slice(0, k)  # a view of the rows, not a copy
    best = 0
    for attempt in range(_MAX_ATTEMPTS + 1 if k < n else 1):
        if attempt:
            draws = sample_field_elements(stream, _RANK_MODULUS, (attempt - 1) * n, n)
            forced = np.argsort(draws, kind="stable")[:k]
        y = kernel(forced)
        count = satisfied(y)
        if count >= params.threshold:
            state = FilterState(params, FieldVector(q, y))
            return state, BuildReport(count, attempt, params.bits_payload, True)
        best = max(best, count)
    return None, BuildReport(best, attempt, params.bits_payload, False)


def query(state: FilterState, element: bytes) -> int:
    """1 iff the element's hash row is orthogonal to the filter vector."""
    return int(query_many(state, [element])[0])


def query_many(state: FilterState, elements: Sequence[bytes]) -> np.ndarray:
    """Vectorized ``query`` over a sequence of elements.

    Every element is checked before any is hashed.  Only the columns where
    ``y`` is nonzero are hashed: the others add nothing to the dot product,
    and each hash entry depends only on its element and column.  A batch is
    at most one sampling block of words, ``_BLOCK // len(support)``
    elements (at least one), and at most ``_BATCH`` elements, which bounds
    the batch's tagged labels and digests, Python objects of about 100 bytes
    per element, when the support is small.  Over GF(2)
    ``y`` is 1 on its support, so an element is accepted iff its draws
    there sum to 0, and ``_gf2_draw_sums`` gives that sum from one XOR-fold
    of the mixer's words with no row of draws.  Over GF(q) with q >= 3 the
    batch's rows are drawn and multiplied by ``y`` with ``matmul_mod``.
    """
    params = state.params
    _require_bytes(elements)
    columns, y = state._support
    step = max(1, min(_BATCH, _BLOCK // columns.size))
    out = np.empty(len(elements), dtype=np.int64)
    for lo in range(0, len(elements), step):
        chunk = elements[lo : lo + step]
        bases = _element_bases(params, chunk)
        if params.q == 2:
            answers = _gf2_draw_sums(bases, columns) == 0
        else:
            rows = sample_field_elements(bases, params.q, 0, params.m, columns)
            answers = matmul_mod(rows, y, params.q) == 0
            del rows  # free this batch before the next one is hashed
        out[lo : lo + len(chunk)] = answers
    return out


def _word_powers(q: int) -> np.ndarray:
    """``q**i`` for the ``g = 63 // bit_length(q - 1)`` base-q digits that
    one int64 word holds: ``q**g <= 2**63``, so any g digits combine below it."""
    return q ** np.arange(63 // (q - 1).bit_length(), dtype=np.int64)


def serialize(state: FilterState) -> bytes:
    """Fixed 32-byte header plus the base-q packing of ``y``.

    The payload is the little-endian encoding of ``sum(y_j * q**j)`` in
    exactly ``ceil(bits_payload / 8)`` bytes, so equal states are
    byte-identical on every platform.  For q = 2 that is ``y``'s bits
    packed little-endian, eight coordinates per byte.  The digits are
    combined ``g`` to an int64 word by ``_word_powers``, then the words in
    base ``q**g``.
    """
    p = state.params
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        p.q,
        p.m,
        p.n,
        p.eps_K.numerator,
        p.eps_K.denominator,
        p.seed,
    )
    powers = _word_powers(p.q)
    digits = np.zeros(-(-p.m // powers.size) * powers.size, dtype=np.int64)
    digits[: p.m] = state.y.array
    radix, value = p.q**powers.size, 0
    for word in reversed((digits.reshape(-1, powers.size) @ powers).tolist()):
        value = value * radix + word
    return header + value.to_bytes(p.payload_bytes, "little")


def deserialize(data: bytes) -> FilterState:
    """Inverse of ``serialize``; validates the header and payload bounds."""
    if len(data) < _HEADER.size:
        raise FileFormatError(
            f"truncated header: {len(data)} bytes < {_HEADER.size}"
        )
    magic, version, q, m, n, eps_num, eps_den, seed = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise FileFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FileFormatError(f"unsupported version {version}")
    # Lowest terms only, as serialize writes them; eps_den == 0 fails the first test.
    if eps_num >= eps_den or math.gcd(eps_num, eps_den) != 1:
        raise FileFormatError(f"invalid eps_K rational {eps_num}/{eps_den}")
    try:
        params = FilterParams(n, Fraction(eps_num, eps_den), q, m, seed)
    except DomainError as exc:
        raise FileFormatError(f"inconsistent header: {exc}") from exc
    payload = data[_HEADER.size :]
    # Refuse a payload of the wrong rough size before q**m is computed: the
    # header alone could otherwise ask for a 2**32-digit power.  The float
    # estimate of ceil(bits_payload / 8) is off by at most one byte.
    approx = math.ceil(m * math.log2(q) / 8)
    if abs(len(payload) - approx) > 1:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected about {approx}"
        )
    if len(payload) != params.payload_bytes:
        raise FileFormatError(
            f"payload is {len(payload)} bytes, expected {params.payload_bytes}"
        )
    value = int.from_bytes(payload, "little")
    if value >= params.capacity:
        raise FileFormatError("payload exceeds the base-q capacity of y")
    powers = _word_powers(q)
    radix, words = q**powers.size, []
    for _ in range(-(-m // powers.size)):
        value, word = divmod(value, radix)
        words.append(word)
    coords = (np.array(words, dtype=np.int64)[:, None] // powers % q).reshape(-1)[:m]
    try:
        return FilterState(params, FieldVector(q, coords))
    except DomainError as exc:
        raise FileFormatError(str(exc)) from exc


@dataclass(frozen=True)
class MeasuredRates:
    """Empirical error rates with Wilson 99% confidence intervals."""

    fnr_hat: float
    fpr_hat: float
    fnr_ci: tuple[float, float]
    fpr_ci: tuple[float, float]
    trials: int


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson score 99% interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    z, phat = _WILSON_Z99, successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total))
    half /= denom
    return (max(0.0, center - half), min(1.0, center + half))


def measure_rates(
    tester: Callable[[Sequence[bytes]], Sequence[int]],
    keys: Sequence[bytes],
    nonkey_sampler: Callable[[], bytes],
    trials: int,
) -> MeasuredRates:
    """Empirical FNR over the keys and FPR over sampled non-keys.

    ``tester`` maps a batch of elements to 0/1 answers (for a built
    filter, pass ``functools.partial(query_many, state)``).  Samples that
    collide with the key set are rejected and redrawn, so the FPR is
    measured over genuine non-keys.
    """
    if not isinstance(trials, int) or trials < 1:
        raise DomainError(f"trials {trials!r} must be a positive integer")
    keys = list(keys)
    key_set = set(keys)
    if keys:
        answers = np.asarray(tester(keys), dtype=np.int64)
        misses = int((answers == 0).sum())
        fnr_hat = misses / len(keys)
    else:
        misses = 0
        fnr_hat = 0.0
    nonkeys: list[bytes] = []
    attempts = 0
    while len(nonkeys) < trials:
        candidate = nonkey_sampler()
        attempts += 1
        if attempts > 100 * trials + 100:
            raise DomainError(
                "non-key sampler keeps colliding with the key set"
            )
        if candidate in key_set:
            continue
        nonkeys.append(candidate)
    accepts = int((np.asarray(tester(nonkeys), dtype=np.int64) == 1).sum())
    return MeasuredRates(
        fnr_hat=fnr_hat,
        fpr_hat=accepts / trials,
        fnr_ci=wilson_interval(misses, len(keys)),
        fpr_ci=wilson_interval(accepts, trials),
        trials=trials,
    )


def random_bytes_sampler(seed: int, length: int) -> Callable[[], bytes]:
    """A deterministic stream of random identifiers of a fixed byte length."""
    if length < 1:
        raise DomainError(f"identifier length {length!r} must be positive")
    rng = random.Random(seed)
    return lambda: rng.randbytes(length)


def read_keys(path) -> list[bytes]:
    """Load a key-set file: one key per line, identified by its exact bytes.

    The file is split on LF; the bytes before each LF (including any
    carriage returns or other whitespace) form the element identifier.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.endswith(b"\n"):
        data = data[:-1]
    return data.split(b"\n") if data else []
