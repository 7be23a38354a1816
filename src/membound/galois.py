"""Prime-field linear algebra and deterministic hashing into field elements.

The filter stores one linear functional over GF(q) (q prime) and tests
whether hashed element rows lie in its kernel.  This module provides:

* ``FieldVector`` -- a vector over GF(q): q and one read-only int64 array;
* ``matmul_mod`` -- ``a @ b mod q`` on int64 arrays, exact for every prime
  q < 2**32 and every inner length m < 2**31: one float64 BLAS matmul for a
  matrix ``b`` while m*(q-1)**2 < 2**53, one int64 matmul while
  m*(q-1)**2 < 2**63, otherwise base-2**w digits of ``b`` recombined by
  Horner's rule mod q (the delayed reduction of FFLAS-FFPACK);
* ``nullspace_of_matrix`` -- a deterministic kernel vector in the
  reduced-row-echelon convention (lowest-index free variable set to 1, all
  other free variables 0); both paths stop at the first free column.
  GF(2) is two steps: ``_pack_gf2`` packs the low bits of the rows 64
  columns per word, and ``_eliminate_gf2`` eliminates the packed rows in
  place, 8 columns at a time by the Method of Four Russians: a byte's
  pivots are found in Python ints on a short block of ``_PIVOT_SLACK`` more
  rows than the byte has columns (the full height only when that block is
  rank-deficient and rows remain below it), then one table of XOR
  combinations of its pivot rows, indexed by byte value, and one
  lookup-and-XOR pass over the rows below.  A caller can pack rows as it
  hashes them, so no int64 matrix of all the rows need exist.  Every other
  field takes a right-looking block LU with the same shape as GF(2): it
  factors panels of ``_PANEL`` columns, updates only the rows below each
  panel with ``matmul_mod`` products on column chunks of about one
  ``_BLOCK``, and so leaves an echelon form whose diagonal blocks are
  identities; the kernel vector is then read back one panel per
  ``matmul_mod`` matrix-vector product.  A panel's pivots
  and the inverse of its pivot block come from one pass over a short
  block of ``_PIVOT_SLACK`` more rows than the panel has columns, extended
  by an identity; only a rank-deficient short block with rows below it
  (probability about q**-17 for random rows) falls back to a search of
  the full height.  That pass, ``_gauss_jordan``, works on int64 in place
  and subtracts one unreduced rank-1 product per column, reducing the
  block only as often as int64 needs;
* ``WordStream`` -- a pure, keyed 64-bit word source (blake2b absorption +
  splitmix64 counter expansion), so every hash row is reproducible from
  (seed, element bytes) alone;
* ``sample_field_elements`` -- rejection sampling of field elements from one
  stream or from a batch of streams at once, at every draw of a range or
  at chosen columns of it, in cache-sized blocks mixed and reduced in
  place.  Every word comes from the one splitmix64 mixer: ``_splitmix64``
  is ``_splitmix64_state``, the state z before the final xor-shift,
  finished as z ^ (z >> 31);
* ``_gf2_draw_sums`` -- the sum over GF(2) of each stream's draws at chosen
  columns, which is what a GF(2) query needs: a draw is bit 0 XOR bit 31
  of z, so the sum is read from the XOR of the states, folded block by
  block, with no word finished or reduced on its own.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FieldError

__all__ = [
    "FieldVector",
    "is_prime",
    "matmul_mod",
    "nullspace_of_matrix",
    "WordStream",
    "sample_field_elements",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24,
# far beyond the 32-bit moduli used here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, fixed witness set)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, eq=False)
class FieldVector:
    """A vector over GF(q): a prime ``int`` ``q`` and a read-only int64 copy
    of ``array``, which must be a 1-D integer array with entries in [0, q)."""

    q: int
    array: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise FieldError(f"modulus {self.q!r} is not prime")
        try:
            arr = np.asarray(self.array)
        except ValueError as exc:
            raise FieldError(f"coordinates are not an array: {exc}") from exc
        if arr.ndim != 1 or arr.dtype.kind not in "iu" or (
            arr.size and not (0 <= arr.min() and arr.max() < self.q)
        ):
            raise FieldError(f"coordinates must be a 1-D integer array in [0, {self.q})")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates as a tuple of Python ints."""
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.q, self.array.tobytes()))


def matmul_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """``a @ b mod q`` for entries in [0, q); ``b`` is a vector or a matrix.

    Exact for every prime q < 2**32 and every inner length m < 2**31.  When
    ``b`` is a matrix and m*(q-1)**2 < 2**53, one float64 BLAS matmul holds
    every partial sum exactly.  Otherwise, while m*(q-1)**2 < 2**63, a single
    int64 matmul cannot overflow; a matrix-vector product stays in int64,
    where BLAS gains little and the float copy of ``a`` would double its
    memory.  Beyond that ``b`` is split into base-2**w digits, with w the
    widest width such that m*(q-1)*(2**w-1) < 2**63, and the per-digit
    products are combined by Horner's rule mod q.  Every such w is at most
    31, so a partial result below q < 2**32 shifted left by w still fits in
    int64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    span = a.shape[-1] * (q - 1)
    if b.ndim == 2 and span * (q - 1) < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % q
    if span * (q - 1) < 1 << 63:
        return (a @ b) % q
    w = (((1 << 63) - 1) // span + 1).bit_length() - 1
    mask = (1 << w) - 1
    digits = -(-(q - 1).bit_length() // w)
    acc = 0
    for shift in range(w * (digits - 1), -1, -w):
        acc = ((acc << w) % q + (a @ ((b >> shift) & mask)) % q) % q
    return acc


# Columns per panel of the blocked GF(q) elimination: wide enough that the
# block products dominate, narrow enough that the per-column panel loop,
# which touches every row of the panel's short block for each column,
# stays cheap.
_PANEL = 64

# Rows beyond a panel's (or a GF(2) byte's) width w in the short block its
# pivots are sought in.  A (w + 16) x w block of uniform rows over GF(q) has
# rank below w with probability under q**-16 / (q - 1): 1.2e-8 at q = 3,
# 1.5e-5 at q = 2.
_PIVOT_SLACK = 16

# Words per block of the sampling kernel (512 KB): a block and its scratch
# stay in a core's L2 cache through the mixing, rejection and reduction.
# The GF(q) trailing updates are chunked to about one block of the rows.
_BLOCK = 1 << 16


def _gauss_jordan(
    x: np.ndarray, q: int, ncols: int
) -> tuple[int, list[tuple[int, int]]]:
    """Reduce the leading ``ncols`` columns of int64 ``x`` (entries in
    [0, q)) in place over GF(q).

    Columns are taken left to right and the first one without a pivot ends
    the loop.  Returns the pivot count r (rows 0..r-1 of ``x`` then carry the
    identity on columns 0..r-1) and the row swaps made, in order.

    Each column reduces only itself and its pivot row mod q, then subtracts
    the rank-1 product of the column and the pivot row from every row of
    the trailing columns, with no reduction and no row selection.  A
    product term is below (q-1)**2, so the trailing columns are reduced
    after every ``2**62 // (q-1)**2`` products, and once at the end: every
    entry then stays above -2**62.  For q > 2**31, where (q-1)**2 >= 2**62,
    each product is reduced mod q in uint64 before it is subtracted: an
    entry loses less than q per product, and the block is reduced after
    every ``2**62 // (q-1)`` products instead.
    """
    reduce_products = (q - 1) ** 2 >= 1 << 62
    period = (1 << 62) // ((q - 1) if reduce_products else (q - 1) ** 2)
    qq = np.uint64(q)
    swaps: list[tuple[int, int]] = []
    # Every column before the first one without a pivot has one, so the
    # pivot of column r is row r.
    r = 0
    while r < ncols:
        column = x[:, r]
        column %= q
        nz = np.flatnonzero(column[r:])
        if nz.size == 0:
            break
        pr = r + int(nz[0])
        if pr != r:
            x[[r, pr]] = x[[pr, r]]
            swaps.append((r, pr))
        # Row r is zero before column r, so only columns r.. change.
        row = x[r, r:]
        row %= q
        row[:] = row.view(np.uint64) * np.uint64(pow(int(row[0]), -1, q)) % qq
        factors = column.copy()
        factors[r] = 0
        if reduce_products:
            product = factors.view(np.uint64)[:, None] * row.view(np.uint64) % qq
            x[:, r:] -= product.view(np.int64)
        else:
            x[:, r:] -= factors[:, None] * row
        r += 1
        if r % period == 0:
            x[:, r:] %= q
    x[:, r:] %= q
    return r, swaps


def _nullspace_general(mat: np.ndarray, q: int) -> np.ndarray | None:
    """Kernel vector over GF(q) by right-looking block LU, then
    back-substitution.

    The columns are taken in panels of ``_PANEL``.  Each panel's pivots are
    found by ``_gauss_jordan`` on a copy of the panel's own columns in its
    first ``width + _PIVOT_SLACK`` remaining rows, with an identity of that
    height appended.  With B the r x r block of the new pivot rows on the
    pivot columns, rows 0..r-1 of the appended part, read at the original
    positions of the rows swapped into 0..r-1, are B^-1.  Random rows give
    that short block full rank on the panel except with probability about
    q**-(_PIVOT_SLACK + 1).  When it is rank-deficient and rows remain below
    it, the pivots are sought in every remaining row instead, and B^-1
    comes from a second ``_gauss_jordan`` on [B | I].  One-sided filter
    builds have fewer rows than columns, so their last panel's short block
    holds every remaining row and the fallback is never needed there.
    Which rows serve as pivots does not change the result (see below).

    The pivot rows' trailing part A1 becomes ``B^-1 A1`` and every row below
    them loses ``L`` times that, where ``L`` is its part of the pivot
    columns; the rows above the panel are not touched.  Each of the two
    block updates is one ``matmul_mod`` product per chunk of
    ``_BLOCK // (k - j0)`` columns (at least ``_PANEL``), with k - j0 the
    rows from the panel down, so their float64 and int64 temporaries stay
    near one block, not the size of the trailing matrix.  As in FFLAS-FFPACK
    (Dumas, Giorgi and Pernet, ACM TOMS 2008) the reduction mod q is
    delayed: an update adds less than q to an entry, so the columns ahead
    of the current panel are reduced only when a panel reaches them, and
    they stay below q*(1 + m) < 2**63 until then.

    Every column before the first free column f is a pivot, so the loop
    stops at f, and the pivot rows form an echelon form of columns 0..f
    whose diagonal blocks are identities: a panel's pivot rows read
    [I | B^-1 A1] from its first column on.  With y_f = 1 and y zero after
    f, each panel's unknowns are minus its pivot rows' columns up to f
    times y there, so the panels are solved from last to first, as the
    GF(2) path solves its pivot rows.  The result is the one kernel vector
    supported on columns 0..f with y_f = 1, whichever rows the pivots came
    from, which is the reduced-row-echelon convention's.
    """
    a = np.asarray(mat, dtype=np.int64) % q
    k, m = a.shape
    for j0 in range(0, m, _PANEL):
        # The rows above the panel are pivot rows, already reduced.
        block = a[j0:, j0 : j0 + _PANEL]
        block %= q
        width = block.shape[1]
        height = min(width + _PIVOT_SLACK, k - j0)
        short = np.concatenate([block[:height], np.eye(height, dtype=np.int64)], axis=1)
        r, swaps = _gauss_jordan(short, q, width)
        if r < width and j0 + height < k:
            # Rank-deficient short block: search the full height instead.
            r, swaps = _gauss_jordan(block.copy(), q, width)
            short = None
        for s, t in swaps:
            a[[j0 + s, j0 + t], j0:] = a[[j0 + t, j0 + s], j0:]
        j1 = j0 + r
        if j1 == m:
            return None
        full = r == width
        pivots = slice(j0, j1)
        if short is None:
            inverse = np.concatenate([a[pivots, pivots], np.eye(r, dtype=np.int64)], axis=1)
            _gauss_jordan(inverse, q, r)
            inverse = inverse[:, r:]
        else:
            # Rows 0..r-1 of the appended identity hold B^-1, its column i
            # at the original position of the row now at position i.
            order = np.arange(height)
            for s, t in swaps:
                order[[s, t]] = order[[t, s]]
            inverse = short[:r, width + order[:r]]
        lower = -a[j1:, pivots] % q
        # Every column after the panel, or only the free column j1.
        stop = m if full else j1 + 1
        chunk = max(_PANEL, _BLOCK // max(k - j0, 1))
        for c0 in range(j1, stop, chunk):
            cols = slice(c0, min(c0 + chunk, stop))
            a[pivots, cols] %= q
            top = matmul_mod(inverse, a[pivots, cols], q)
            a[j1:, cols] += matmul_mod(lower, top, q)
            a[pivots, cols] = top
        if not full:
            break
    # Column f = j1 is free: solve the panels' pivot rows from last to first.
    y = np.zeros(m, dtype=np.int64)
    y[j1] = 1
    for j0 in reversed(range(0, j1, _PANEL)):
        end = min(j0 + _PANEL, j1)
        y[j0:end] = -matmul_mod(a[j0:end, end : j1 + 1], y[end : j1 + 1], q) % q
    return y


def _pack_gf2(mat: np.ndarray) -> np.ndarray:
    """The low bits of an integer matrix ``(k, m)`` as ``(k, ceil(m/64))``
    little-endian uint64 words: word w of a row holds columns 64w..64w+63,
    so byte b holds columns 8b..8b+7, and the padding bits are zero.

    Only the low bit of each entry is read, so over GF(2) the packed rows
    are the rows; the one intermediate is a uint8 bit array of the matrix's
    shape, and ``mat`` is never copied.
    """
    k, m = mat.shape
    bits = np.zeros((k, 64 * ((m + 63) // 64)), dtype=np.uint8)
    np.bitwise_and(mat, 1, out=bits[:, :m], casting="unsafe")
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _gf2_byte_pivots(values: list[int], width: int) -> tuple[int, list[int]]:
    """Pivots of the low ``width`` bits of a column of bytes, in Python ints.

    Bit j takes as its pivot the first row from j on with bit j set, after
    the pivots of bits 0..j-1 were added to the rows below them, and the
    first bit with no such row ends the search.  Returns the pivot count p
    and the row order the swaps leave (entry i is the original position of
    the row now at position i).  ``values`` is reduced in place.
    """
    order = list(range(len(values)))
    p = 0
    while p < width:
        bit = 1 << p
        pr = next((i for i in range(p, len(values)) if values[i] & bit), None)
        if pr is None:
            break
        values[p], values[pr] = values[pr], values[p]
        order[p], order[pr] = order[pr], order[p]
        pivot = values[p]
        values[p + 1 :] = [v ^ pivot if v & bit else v for v in values[p + 1 :]]
        p += 1
    return p, order


def _eliminate_gf2(packed: np.ndarray, m: int) -> np.ndarray | None:
    """GF(2) kernel vector of ``m`` columns packed as by ``_pack_gf2`` (a
    C-contiguous uint64 array), by Four-Russians elimination on the packed
    rows, in place.

    As in ``_nullspace_general``, every column before the first free column
    f is a pivot, so pivot row i has its pivot in column i and the loop
    stops at f.  Each byte of columns is eliminated in one pass (the Method
    of Four Russians: Bard, IACR ePrint 2006/251; Albrecht, Bard and Hart,
    ACM TOMS 2010).  Its pivots are found by ``_gf2_byte_pivots`` on the
    byte of a short block of the first ``width + _PIVOT_SLACK`` remaining
    rows, which random rows leave rank-deficient with probability about
    2**-16; only then, and only when rows remain below the block, the
    search covers every remaining row.  The block's rows are put in pivot
    order with one fancy-index copy.  A table of the 2**p XOR combinations
    of the p raw pivot rows is built, and the byte value each entry has on
    the pivot columns, a bijection of the 2**p patterns, re-indexes it by
    that value.  The reduced pivot rows, which carry the identity on the
    byte's pivot columns, are then the entries at the powers of two, and
    every row below is cleared on those columns by XOR-ing in the entry its
    byte selects.  The remaining rows are zero on every column before the
    byte, so the table and the update cover only words from the byte's own
    on.
    """
    k, words = packed.shape
    row_bytes = packed.view(np.uint8)
    free = None
    for b in range((m + 7) // 8):
        r0, w = 8 * b, b >> 3
        width = min(8, m - r0)
        height = min(width + _PIVOT_SLACK, k - r0)
        p, order = _gf2_byte_pivots(row_bytes[r0 : r0 + height, b].tolist(), width)
        if p < width and r0 + height < k:
            # Rank-deficient short block: search every remaining row instead.
            p, order = _gf2_byte_pivots(row_bytes[r0:, b].tolist(), width)
        if order != list(range(len(order))):
            packed[r0 : r0 + len(order)] = packed[r0 + np.array(order)]
        if p < width:
            free = r0 + p
        mask = (1 << p) - 1
        table = np.zeros((1 << p, words - w), dtype=np.uint64)
        for i in range(p):
            np.bitwise_xor(table[: 1 << i], packed[r0 + i, w:], out=table[1 << i : 2 << i])
        by_value = np.empty_like(table)
        by_value[table.view(np.uint8)[:, b & 7] & np.uint8(mask)] = table
        packed[r0 : r0 + p, w:] = by_value[1 << np.arange(p)]
        if free is not None:
            break
        below = r0 + p
        packed[below:, w:] ^= by_value[row_bytes[below:, b] & np.uint8(mask)]
    if free is None:
        return None
    y_int = 1 << free
    for r in reversed(range(free)):
        # Row r is zero on every column before its pivot r, and y's bit at r
        # is still clear, so this parity covers exactly the columns after r.
        if (int.from_bytes(packed[r].tobytes(), "little") & y_int).bit_count() & 1:
            y_int |= 1 << r
    y_bytes = np.frombuffer(y_int.to_bytes(8 * words, "little"), dtype=np.uint8)
    return np.unpackbits(y_bytes, count=m, bitorder="little").astype(np.int64)


def nullspace_of_matrix(mat: np.ndarray, q: int) -> np.ndarray | None:
    """First kernel vector of ``mat`` (shape ``(k, m)``) over GF(q).

    Deterministic: equals the reduced-row-echelon solution with the
    lowest-index free variable set to 1 and every other free variable 0.
    Returns None when the columns are linearly independent.  With no rows
    the convention yields the first standard basis vector.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if mat.ndim != 2:
        raise FieldError(f"expected a 2-D matrix, got shape {mat.shape}")
    m = mat.shape[1]
    if m < 1:
        raise FieldError("matrix needs at least one column")
    if q == 2:
        return _eliminate_gf2(_pack_gf2(mat), m)
    return _nullspace_general(mat, q)


def _shift_buffer(out: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """A uint64 array of ``out``'s shape for the mixer's shifted copies."""
    if scratch is None:
        return np.empty_like(out)
    return scratch[: out.size].reshape(out.shape)


def _splitmix64_state(bases, indices, attempt, out, scratch=None) -> np.ndarray:
    """``out`` = splitmix64's state z before its final xor-shift, for the
    input base + golden * ((index << 8 | attempt) + 1); ``_splitmix64``
    finishes it as z ^ (z >> 31).  The arguments are as for ``_splitmix64``.
    """
    if not (0 <= operator.index(attempt) < 256):
        raise DomainError(f"attempt {attempt!r} out of range")
    shifted = _shift_buffer(out, scratch)
    # golden * ((index << 8 | attempt) + 1) = golden * 256 * index
    # + golden * (attempt + 1) mod 2**64 (at attempt 255 the + 1 carries into
    # the index bits), built in the front of ``shifted`` without temporaries.
    ctrs = shifted.reshape(-1)[: np.size(indices)].reshape(np.shape(indices))
    np.multiply(indices, np.uint64((_GOLDEN << 8) & _MASK64), out=ctrs)
    offsets = np.add(bases, np.uint64(_GOLDEN * (attempt + 1) & _MASK64))
    np.add(offsets, ctrs, out=out)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(out, np.uint64(shift), out=shifted)
        np.bitwise_xor(out, shifted, out=out)
        np.multiply(out, np.uint64(mult), out=out)
    return out


def _splitmix64(bases, indices, attempt, out, scratch=None) -> np.ndarray:
    """``out`` = splitmix64(base + golden * ((index << 8 | attempt) + 1)).

    The one mixer behind every stream word.  ``bases`` and ``indices`` are
    uint64 arrays (or scalars) that broadcast to the uint64 array ``out``,
    which is filled in place; ``scratch``, when given, is a uint64 array of
    at least ``out.size`` words for the shifted copies.
    """
    _splitmix64_state(bases, indices, attempt, out, scratch)
    shifted = _shift_buffer(out, scratch)
    np.right_shift(out, np.uint64(31), out=shifted)
    return np.bitwise_xor(out, shifted, out=out)


@dataclass(frozen=True)
class WordStream:
    """A pure stream of 64-bit words keyed by ``(seed, label)``.

    The label (an element identifier, or a role tag such as the filter
    build's subset stream) is absorbed into a 64-bit base with keyed blake2b.  The word
    for rejection attempt a < 256 of draw i < 2**56 is ``_splitmix64`` of
    that base at (i, a), so any word is addressable directly, and
    ``sample_field_elements`` reads the base alone.  Equal inputs always
    produce equal words, on every platform.
    """

    seed: int
    label: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not (0 <= self.seed < 1 << 64):
            raise DomainError(f"seed {self.seed!r} is not an unsigned 64-bit integer")
        if not isinstance(self.label, bytes):
            raise DomainError("label must be bytes")
        key = self.seed.to_bytes(8, "little") + b"membound.v1"
        digest = hashlib.blake2b(self.label, digest_size=8, key=key).digest()
        object.__setattr__(self, "_base", int.from_bytes(digest, "little"))


def _rejection_threshold(q: int) -> int:
    """Largest multiple of q that fits the draw range [0, 2**64)."""
    return q * ((1 << 64) // q)


def sample_field_elements(
    stream: WordStream | Sequence[WordStream],
    q: int,
    start: int,
    count: int,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform elements of GF(q) from draws start..start+count-1.

    Draw i takes the word at attempt 0 and, while that word is at or above
    the largest multiple of q below 2**64, the word at the next attempt, up
    to attempt 255; so the result is exactly uniform.  One stream gives
    shape ``(count,)``; a sequence of streams gives a ``(len, count)`` int64
    array whose row i equals the one-stream call on stream i.

    ``columns``, a 1-D integer array of offsets in [0, count), makes only
    the draws start + columns[j], in that order, so the result has
    ``len(columns)`` entries per row: the full call's entries at those
    columns, because each draw depends only on its stream and its index.

    The output is filled in blocks of ``_BLOCK`` words (whole rows while
    they fit, else column chunks of one row): each block is mixed in place,
    its rejected words are redrawn as (row, column) pairs, and it is reduced
    mod q before the next block starts.
    """
    single = isinstance(stream, WordStream)
    streams = [stream] if single else list(stream)
    if not all(isinstance(s, WordStream) for s in streams):
        raise DomainError("streams must be WordStream instances")
    start, count = operator.index(start), operator.index(count)
    if not (0 <= start and 0 <= count and start + count <= 1 << 56):
        raise DomainError(f"draws {start!r}..+{count!r} outside [0, 2**56)")
    if columns is None:
        draws = np.arange(start, start + count, dtype=np.uint64)
    else:
        columns = np.asarray(columns)
        if columns.ndim != 1 or columns.dtype.kind not in "iu" or (
            columns.size and not (0 <= columns.min() and columns.max() < count)
        ):
            raise DomainError("columns must be a 1-D array of integers in [0, count)")
        draws = columns.astype(np.uint64) + np.uint64(start)
    # 0 when q = 2, where 2**64 itself is the threshold.
    threshold = np.uint64(_rejection_threshold(q) % (1 << 64))
    q = np.uint64(q)
    bases = np.array([s._base for s in streams], dtype=np.uint64).reshape(-1, 1)
    out = np.empty((len(streams), draws.size), dtype=np.int64)
    words = out.view(np.uint64)
    rows = max(1, _BLOCK // max(draws.size, 1))
    width = max(1, min(draws.size, _BLOCK))
    scratch = np.empty(min(len(streams), rows) * width, dtype=np.uint64)
    for c0 in range(0, draws.size, width):
        indices = draws[c0 : c0 + width]
        for r0 in range(0, len(streams), rows):
            block = words[r0 : r0 + rows, c0 : c0 + width]
            base = bases[r0 : r0 + rows]
            _splitmix64(base, indices, 0, block, scratch)
            if not threshold:  # q = 2 accepts every word; mod 2 is the low bit
                np.bitwise_and(block, np.uint64(1), out=block)
                continue
            if block.max() >= threshold:
                i, j = np.nonzero(block >= threshold)
                for attempt in range(1, 256):
                    redrawn = np.empty(i.size, dtype=np.uint64)
                    _splitmix64(base[i, 0], indices[j], attempt, redrawn)
                    block[i, j] = redrawn
                    keep = redrawn >= threshold
                    i, j = i[keep], j[keep]
                    if i.size == 0:
                        break
                else:
                    raise RuntimeError(
                        "rejection sampling did not terminate in 256 attempts"
                    )
            # block mod q, through numpy's fast division by a constant.
            quotient = scratch[: block.size].reshape(block.shape)
            np.floor_divide(block, q, out=quotient)
            np.multiply(quotient, q, out=quotient)
            np.subtract(block, quotient, out=block)
    return out[0] if single else out


def _gf2_draw_sums(streams: Sequence[WordStream], columns: np.ndarray) -> np.ndarray:
    """Sum over GF(2) of each stream's draws at ``columns``, as int64 0/1.

    Row i equals ``sample_field_elements(streams[i], 2, 0, count,
    columns).sum() % 2`` for any count above every column.  At q = 2 every
    word is accepted and the draw is its low bit, which is bit 0 of z XOR
    bit 31 of z for splitmix64's state z before its final xor-shift.  So
    the sum is bit 0 XOR bit 31 of the XOR of those states: each block of
    states (whole rows while they fit in a ``_BLOCK``, else column chunks)
    is XOR-folded along its rows, and the final xor-shift and the reduction
    are never applied word by word.
    """
    draws = np.asarray(columns, dtype=np.uint64)
    bases = np.array([s._base for s in streams], dtype=np.uint64).reshape(-1, 1)
    width = max(1, min(draws.size, _BLOCK))
    rows = max(1, _BLOCK // width)
    states = np.empty((min(len(streams), rows), width), dtype=np.uint64)
    scratch = np.empty(states.size, dtype=np.uint64)
    folded = np.zeros(len(streams), dtype=np.uint64)
    for c0 in range(0, draws.size, width):
        indices = draws[c0 : c0 + width]
        for r0 in range(0, len(streams), rows):
            base = bases[r0 : r0 + rows]
            block = states[: base.shape[0], : indices.size]
            _splitmix64_state(base, indices, 0, block, scratch)
            folded[r0 : r0 + rows] ^= np.bitwise_xor.reduce(block, axis=1)
    return ((folded ^ (folded >> np.uint64(31))) & np.uint64(1)).astype(np.int64)
