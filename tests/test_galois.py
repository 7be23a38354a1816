"""Tests for prime-field arithmetic, kernel solving, and keyed word streams."""

import dataclasses
import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import (
    reference_dot,
    reference_element,
    reference_gauss_jordan,
    reference_row,
    reference_word,
    spy_gauss_jordan,
)

from membound import (
    DomainError,
    FieldError,
    FieldVector,
    WordStream,
    is_prime,
)
from membound import galois
from membound.galois import (
    _BLOCK,
    _PANEL,
    _PIVOT_SLACK,
    _gf2_draw_sums,
    _nullspace_general,
    _pack_gf2,
    _rejection_threshold,
    _splitmix64,
    _splitmix64_state,
    matmul_mod,
    nullspace_of_matrix,
    sample_field_elements,
)


class TestIsPrime:
    def test_small_primes(self):
        for n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 65537):
            assert is_prime(n)

    def test_small_composites(self):
        for n in (4, 6, 8, 9, 10, 12, 15, 25, 49, 91, 65536):
            assert not is_prime(n)

    def test_carmichael_number(self):
        # 561 = 3 * 11 * 17 fools the plain Fermat test but not Miller-Rabin.
        assert not is_prime(561)

    def test_large_mersenne_prime(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_edge_values(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert not is_prime(-7)


class TestFieldVector:
    def test_accepts_prime_moduli(self):
        for q in (2, 3, 5, 7, 13, 65537, 4294967291):
            assert FieldVector(q, (1, 0)).q == q

    def test_rejects_composite_and_prime_power_moduli(self):
        for q in (1, 4, 6, 8, 9, 10, 25, 0, -5):
            with pytest.raises(FieldError):
                FieldVector(q, (0, 0))

    def test_rejects_non_integer_modulus(self):
        with pytest.raises(FieldError):
            FieldVector(5.0, (0, 1))

    def test_checks_each_coordinate(self):
        coords = FieldVector(5, (0, 4, np.int64(3))).coords
        assert coords == (0, 4, 3) and all(type(c) is int for c in coords)
        for bad in (-1, 5, 7, 1.5, "2"):
            with pytest.raises(FieldError):
                FieldVector(5, (0, bad, 1))

    def test_rejects_out_of_field_coords(self):
        assert FieldVector(5, np.array([0, 4, 3], dtype=np.uint8)).coords == (0, 4, 3)
        for bad in (((0, 1), (1, 0)), np.zeros((2, 2), dtype=np.int64), ((0, 1), 1)):
            with pytest.raises(FieldError):
                FieldVector(5, bad)
        with pytest.raises(FieldError):
            FieldVector(3, np.array([0, 1 << 63], dtype=np.uint64))

    def test_round_trip_through_arrays(self):
        source = np.array([1, 0, 6, 3])
        vec = FieldVector(7, source)
        assert vec.coords == (1, 0, 6, 3)
        assert np.array_equal(vec.array, source)
        assert len(vec) == 4
        source[0] = 2  # the vector holds its own copy
        assert vec.coords == (1, 0, 6, 3)

    def test_array_is_a_read_only_int64_copy(self):
        vec = FieldVector(4294967291, (4294967290, 0, 7))
        arr = vec.array
        assert arr.dtype == np.int64 and arr.tolist() == [4294967290, 0, 7]
        with pytest.raises(ValueError):
            arr[0] = 1
        assert vec.coords == (4294967290, 0, 7)
        assert all(type(c) is int for c in vec.coords)
        same = FieldVector(4294967291, np.array([4294967290, 0, 7], dtype=np.uint64))
        assert vec == same and hash(vec) == hash(same)
        assert vec != FieldVector(4294967291, (4294967290, 0, 6))
        assert vec != FieldVector(4294967311, (4294967290, 0, 7))
        assert vec != (4294967290, 0, 7)

    def test_fields_are_the_modulus_and_the_array(self):
        assert [f.name for f in dataclasses.fields(FieldVector)] == ["q", "array"]


class TestDot:
    """Inner products in GF(q): ``matmul_mod`` with a vector on the right."""

    def test_example_mod_five(self):
        # 1*3 + 2*4 = 11 = 1 mod 5
        assert matmul_mod(np.array([1, 2]), np.array([3, 4]), 5) == 1

    def test_basis_vectors_pick_out_coordinates(self):
        v = np.array([4, 5, 6])
        for i, e in enumerate(np.eye(3, dtype=np.int64)):
            assert matmul_mod(e, v, 7) == v[i]
        assert matmul_mod(np.eye(3, dtype=np.int64), v, 7).tolist() == v.tolist()

    def test_zero_vector(self):
        assert matmul_mod(np.zeros(2, dtype=np.int64), np.array([1, 2]), 3) == 0

    def test_length_mismatch_rejected(self):
        for q in (3, 4294967291):
            with pytest.raises(ValueError):
                matmul_mod(np.array([1]), np.array([1, 2]), q)

    def test_bilinearity_random(self):
        rng = np.random.default_rng(7)
        for q in (2, 3, 5, 7, 13):
            for _ in range(50):
                a, b, c = rng.integers(0, q, size=(3, 6))
                ac = matmul_mod(a, c, q)
                assert ac == reference_dot(a, c, q)
                assert matmul_mod((a + b) % q, c, q) == (ac + matmul_mod(b, c, q)) % q
                rows = np.stack([a, b, (a + b) % q])
                assert matmul_mod(rows, c, q).tolist() == [
                    reference_dot(r, c, q) for r in rows
                ]

    def test_wide_field_matches_plain_ints(self):
        # (q-1)**2 overflows int64, so the product takes the digit split.
        q = 4294967291
        rng = np.random.default_rng(29)
        for m in (1, 2, 7, 40):
            a = rng.integers(0, q, size=m)
            b = rng.integers(0, q, size=m)
            a[0] = b[0] = q - 1
            assert matmul_mod(a, b, q) == reference_dot(a, b, q)


class TestNullspace:
    def test_no_rows_gives_first_basis_vector(self):
        y = nullspace_of_matrix(np.zeros((0, 3), dtype=np.int64), 5)
        assert y.tolist() == [1, 0, 0]

    def test_all_zero_rows_give_first_basis_vector(self):
        y = nullspace_of_matrix(np.zeros((2, 3), dtype=np.int64), 3)
        assert y.tolist() == [1, 0, 0]

    def test_full_rank_returns_none(self):
        assert nullspace_of_matrix(np.eye(3, dtype=np.int64), 5) is None

    def test_parity_row_over_gf2(self):
        assert nullspace_of_matrix(np.array([[1, 1]]), 2).tolist() == [1, 1]

    def test_lowest_free_variable_convention(self):
        assert nullspace_of_matrix(np.array([[1, 0, 1]]), 2).tolist() == [0, 1, 0]
        assert nullspace_of_matrix(np.array([[2, 1, 3]]), 5).tolist() == [2, 1, 0]

    def test_matrix_shape_validation(self):
        with pytest.raises(FieldError):
            nullspace_of_matrix(np.zeros(3, dtype=np.int64), 2)
        for k, q in ((2, 2), (0, 3)):
            with pytest.raises(FieldError):
                nullspace_of_matrix(np.zeros((k, 0), dtype=np.int64), q)

    def test_underdetermined_systems_always_solved(self):
        rng = np.random.default_rng(11)
        for q in (2, 3, 5):
            for _ in range(50):
                m = int(rng.integers(2, 12))
                k = int(rng.integers(1, m))
                mat = rng.integers(0, q, size=(k, m))
                y = nullspace_of_matrix(mat, q)
                assert y is not None
                assert y.any()
                for r in mat:
                    assert reference_dot(r, y, q) == 0

    def test_deterministic(self):
        mat = np.random.default_rng(13).integers(0, 3, size=(4, 7))
        first = nullspace_of_matrix(mat, 3)
        second = nullspace_of_matrix(mat, 3)
        assert first.tolist() == second.tolist()

    def test_packed_gf2_path_matches_generic_elimination(self):
        def check(mat):
            fast = nullspace_of_matrix(mat, 2)
            slow = _nullspace_general(mat, 2)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert np.array_equal(fast, slow)
            want = _reference_kernel(mat.tolist(), mat.shape[1], 2)
            assert (None if fast is None else fast.tolist()) == want
            return want

        rng = np.random.default_rng(17)
        for m in (3, 63, 64, 65, 100, 130):
            for _ in range(5):
                k = int(rng.integers(1, min(m, 40)))
                check(rng.integers(0, 2, size=(k, m)).astype(np.int64))
        # k >= m: full rank (None) for most draws, a kernel otherwise.
        for m in (1, 3, 5, 13, 63, 64, 65, 71, 100):
            for k in (m, m + 1, m + 7):
                check(rng.integers(0, 2, size=(k, m)).astype(np.int64))
        # k = 0, and no rows left before the last column of a ragged byte.
        for m in (1, 5, 8, 13, 71):
            assert check(np.zeros((0, m), dtype=np.int64)) == [1] + [0] * (m - 1)
            assert check(rng.integers(0, 2, size=(m - 1, m)).astype(np.int64))
        # Duplicate rows, a zero column and a repeated column.
        for m in (13, 64, 130):
            for k in (m - 3, m + 5):
                mat = rng.integers(0, 2, size=(k, m)).astype(np.int64)
                mat[1], mat[4] = mat[0], mat[2]
                mat[:, m // 2] = 0
                mat[:, m - 2] = mat[:, 3]
                assert check(mat) is not None
        # A free column f planted at every bit offset of two bytes, just
        # before, on and after a word boundary, and in the last column of
        # a ragged byte: extra rows keep columns 0..f-1 independent.
        plants = [(24, f) for f in range(8)] + [(71, f) for f in range(16, 24)]
        plants += [(136, f) for f in (63, 64, 65, 127, 128)] + [(13, 12), (71, 70)]
        for m, f in plants:
            mat = rng.integers(0, 2, size=(m + 16, m)).astype(np.int64)
            mat[:, f] = mat[:, :f] @ rng.integers(0, 2, size=f) % 2
            y = check(mat)
            assert y[f] == 1 and not any(y[f + 1 :])

    def test_gf2_pivot_below_the_short_block(self, monkeypatch):
        # A byte column with no pivot in the first 8 + _PIVOT_SLACK rows of
        # its byte, and one further down, in bytes 0 and 1.  Random rows
        # leave the short block rank-deficient with probability about
        # 2**-16 per byte, so only planted rows reach the full-height search.
        heights = []
        search = galois._gf2_byte_pivots

        def spy(values, width):
            heights.append(len(values))
            return search(values, width)

        monkeypatch.setattr(galois, "_gf2_byte_pivots", spy)
        rng = np.random.default_rng(23)
        m, k, short = 40, 60, 8 + _PIVOT_SLACK

        def check(mat):
            heights.clear()
            # Column 35 depends on columns 0..34, so a kernel vector exists.
            mat[:, 35] = mat[:, :35] @ rng.integers(0, 2, size=35) % 2
            fast = nullspace_of_matrix(mat, 2)
            assert np.array_equal(fast, _nullspace_general(mat, 2))
            assert fast.tolist() == _reference_kernel(mat.tolist(), m, 2)
            assert fast[35] == 1 and not fast[36:].any()

        # Byte 0 sees the input: column 3 is zero in rows 0..short-1.
        mat = rng.integers(0, 2, size=(k, m)).astype(np.int64)
        mat[:short, 3] = 0
        mat[short + 7, 3] = 1
        check(mat)
        assert k in heights
        # Byte 1 sees rows 8.. after byte 0's update: column 13 depends on
        # columns 0..12 in every row of its short block, and not below it.
        mat = rng.integers(0, 2, size=(k, m)).astype(np.int64)
        mat[: 8 + short, 13] = mat[: 8 + short, :13] @ rng.integers(0, 2, size=13) % 2
        check(mat)
        assert max(heights) == k - 8

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    def test_packed_rows_hold_the_low_bits(self, m):
        mat = np.random.default_rng(m).integers(0, 5, size=(3, m))
        packed = _pack_gf2(mat)
        assert packed.dtype == np.uint64 and packed.shape == (3, (m + 63) // 64)
        for row, bits in zip(mat.tolist(), packed):
            value = sum((v & 1) << j for j, v in enumerate(row))
            assert int.from_bytes(bits.tobytes(), "little") == value

    def test_gf2_elimination_does_not_copy_the_matrix(self):
        mat = np.random.default_rng(19).integers(0, 2, size=(1000, 1100), dtype=np.int64)
        tracemalloc.start()
        try:
            y = nullspace_of_matrix(mat, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y is not None and not (mat @ y % 2).any()
        assert peak < mat.nbytes / 2

    def test_general_elimination_copies_the_matrix_once(self):
        # The trailing updates run in column chunks of about one _BLOCK, so
        # the peak is the reduced copy plus a few chunk-sized temporaries.
        mat = np.random.default_rng(29).integers(0, 3, size=(1000, 1100), dtype=np.int64)
        tracemalloc.start()
        try:
            y = nullspace_of_matrix(mat, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y is not None and not (mat @ y % 3).any()
        assert peak < 1.5 * mat.nbytes


def _reference_kernel(rows: list[list[int]], m: int, q: int) -> list[int] | None:
    """Kernel vector in the reduced-row-echelon convention, in Python ints.

    Gauss-Jordan column by column, up to the first column f without a
    pivot; then y_f = 1, every later column is 0, and each pivot variable
    is minus its row's entry in column f.  Going on past f would not move
    column f: every later pivot row is one of the rows left below the
    pivots, which are zero there.  Every column before f is a pivot, so the
    pivot row of column c is row c, and it is zero before column c.  None
    when every column has a pivot.
    """
    work = [[v % q for v in row] for row in rows]
    for c in range(m):
        src = next((i for i in range(c, len(work)) if work[i][c]), None)
        if src is None:
            break
        work[c], work[src] = work[src], work[c]
        scale = pow(work[c][c], -1, q)
        pivot = work[c][c:] = [v * scale % q for v in work[c][c:]]
        for i, row in enumerate(work):
            if i != c and row[c]:
                f = row[c]
                row[c:] = [(v - f * w) % q for v, w in zip(row[c:], pivot)]
    else:
        return None
    y = [0] * m
    y[c] = 1
    for i in range(c):
        y[i] = -work[i][c] % q
    return y


def _random_rows(rng: random.Random, k: int, m: int, q: int) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(m)] for _ in range(k)]


def _check_against_reference(rows: list[list[int]], m: int, q: int) -> list[int] | None:
    want = _reference_kernel(rows, m, q)
    if want is not None:
        assert all(sum(a * b for a, b in zip(row, want)) % q == 0 for row in rows)
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    got = nullspace_of_matrix(mat, q)
    assert (None if got is None else got.tolist()) == want
    return want


# The panel pass reduces its block every 2**62 // (q-1)**2 columns, and for
# q > 2**31 reduces each product instead: 759250133 reduces every 7
# columns, 2**31 - 1 every column, and 2147483659 is the first prime whose
# products are reduced.
_WIDE_PRIMES = [3, 5, 7, 759250133, 2147483647, 2147483659, 4294967291]
_PANEL_EDGES = [_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1]


class TestBlockedEliminationAgainstReference:
    """The blocked GF(q) elimination against a plain-int Gauss-Jordan."""

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    @pytest.mark.parametrize("m", _PANEL_EDGES)
    def test_random_and_rank_deficient(self, q, m):
        rng = random.Random(q % 1000 + m)
        # Underdetermined: a kernel always exists.
        _check_against_reference(_random_rows(rng, m - 2, m, q), m, q)
        # Duplicated rows and a zero column, with more rows than columns.
        rows = _random_rows(rng, m + 3, m, q)
        rows[1] = list(rows[0])
        rows[5] = list(rows[2])
        zero = m // 2
        for row in rows:
            row[zero] = 0
        assert _check_against_reference(rows, m, q) is not None
        # Rank m // 3: a product of random m+1 x r and r x m factors.
        rank = m // 3
        left = _random_rows(rng, m + 1, rank, q)
        right = _random_rows(rng, rank, m, q)
        rows = [
            [sum(a * right[t][j] for t, a in enumerate(lrow)) % q for j in range(m)]
            for lrow in left
        ]
        assert _check_against_reference(rows, m, q) is not None
        # k >= m random rows: full rank, so no kernel vector.
        assert _check_against_reference(_random_rows(rng, m + 2, m, q), m, q) is None

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    @pytest.mark.parametrize("boundary", [_PANEL, 2 * _PANEL])
    def test_first_free_column_on_a_panel_boundary(self, q, boundary):
        rng = random.Random(q % 1000 + boundary)
        m = 2 * _PANEL + 1
        # Extra rows keep columns 0..boundary-1 independent, so the first
        # free column is the planted one.
        rows = _random_rows(rng, m + 16, m, q)
        coeffs = [rng.randrange(q) for _ in range(boundary)]
        for row in rows:
            row[boundary] = sum(c * v for c, v in zip(coeffs, row)) % q
        y = _check_against_reference(rows, m, q)
        assert y[boundary] == 1 and not any(y[boundary + 1 :])

    @pytest.mark.parametrize("q", [3, 4294967291])
    @pytest.mark.parametrize("width", [_PANEL, 70])
    def test_trailing_updates_in_column_chunks(self, q, width, monkeypatch):
        # Shrink the block so the 137 columns are updated in chunks of
        # `width` columns, on and off the panel boundaries.
        m = 2 * _PANEL + 9
        monkeypatch.setattr(galois, "_BLOCK", width * (m + 16))
        rng = random.Random(q % 1000 + width)
        _check_against_reference(_random_rows(rng, m - 2, m, q), m, q)
        for free in (_PANEL + width - 1, m - 3):
            rows = _random_rows(rng, m + 16, m, q)
            coeffs = [rng.randrange(q) for _ in range(free)]
            for row in rows:
                row[free] = sum(c * v for c, v in zip(coeffs, row)) % q
            y = _check_against_reference(rows, m, q)
            assert y[free] == 1 and not any(y[free + 1 :])
        assert _check_against_reference(_random_rows(rng, m + 2, m, q), m, q) is None

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    def test_free_column_inside_a_later_panel(self, q, monkeypatch):
        # The first free column sits in the middle of panel 3, so the kernel
        # vector is read back through three full panels and part of a
        # fourth.  The same rows are then solved with the block shrunk so
        # that the updates below each panel run in chunks of 64 columns in
        # panel 0 and 70 in panel 1, off the panel boundaries.
        free = 3 * _PANEL + 17
        m, k = free + 3, free + _PIVOT_SLACK
        rng = random.Random(q % 1000 + 5)
        rows = _random_rows(rng, k, m, q)
        coeffs = [rng.randrange(q) for _ in range(free)]
        for row in rows:
            row[free] = sum(c * v for c, v in zip(coeffs, row)) % q
        y = _check_against_reference(rows, m, q)
        assert y[free] == 1 and not any(y[free + 1 :])
        widths = []
        inner = galois.matmul_mod

        def spy(a, b, q):
            if b.ndim == 2:
                widths.append(b.shape[1])
            return inner(a, b, q)

        monkeypatch.setattr(galois, "_BLOCK", 70 * (k - _PANEL))
        monkeypatch.setattr(galois, "matmul_mod", spy)
        assert nullspace_of_matrix(np.array(rows, dtype=np.int64), q).tolist() == y
        assert {64, 70} <= set(widths)

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    def test_pivot_below_the_short_block(self, q, monkeypatch):
        # A panel column with no pivot in the first _PANEL + _PIVOT_SLACK
        # rows of its panel, and one further down, in panels 0 and 1 of 3.
        heights = spy_gauss_jordan(monkeypatch)
        rng = random.Random(q % 1000 + 1)
        m, short = 2 * _PANEL + 9, _PANEL + _PIVOT_SLACK
        # Panel 0 sees the input: column 10 is zero in rows 0..short-1.
        rows = _random_rows(rng, short + 20, m, q)
        for row in rows[:short]:
            row[10] = 0
        rows[short + 7][10] = 1
        _check_against_reference(rows, m, q)
        assert max(heights) == len(rows)
        # Panel 1 sees rows _PANEL.. after panel 0's update: column
        # _PANEL + 5 depends on columns 0.._PANEL+4 in every row of its
        # short block, and not in the rows below it.
        heights.clear()
        rows = _random_rows(rng, _PANEL + short + 12, m, q)
        coeffs = [rng.randrange(q) for _ in range(_PANEL + 5)]
        for row in rows[: _PANEL + short]:
            row[_PANEL + 5] = sum(c * v for c, v in zip(coeffs, row)) % q
        assert _check_against_reference(rows, m, q) is None
        assert len(rows) - _PANEL in heights

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    def test_rank_deficient_final_panel(self, q, monkeypatch):
        # Column m-3 of the last panel depends on every column before it, so
        # the full-height search below the short block finds no pivot either.
        heights = spy_gauss_jordan(monkeypatch)
        rng = random.Random(q % 1000 + 2)
        m = 2 * _PANEL + 9
        rows = _random_rows(rng, m + 20, m, q)
        coeffs = [rng.randrange(q) for _ in range(m - 3)]
        for row in rows:
            row[m - 3] = sum(c * v for c, v in zip(coeffs, row)) % q
        y = _check_against_reference(rows, m, q)
        assert y[m - 3] == 1 and not any(y[m - 2 :])
        assert len(rows) - 2 * _PANEL in heights

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    @pytest.mark.parametrize("zero_column", [False, True])
    def test_short_block_holds_every_remaining_row(self, q, zero_column, monkeypatch):
        # k - 2 * _PANEL rows remain for the last panel of 9 columns: fewer
        # than the short block's 9 + _PIVOT_SLACK, or exactly that many.
        heights = spy_gauss_jordan(monkeypatch)
        rng = random.Random(q % 1000 + 3 + zero_column)
        m = 2 * _PANEL + 9
        for k in (m - 2, 2 * _PANEL + 9 + _PIVOT_SLACK):
            rows = _random_rows(rng, k, m, q)
            if zero_column:
                # A zero column in the last panel: rank-deficient there, and
                # no rows below the short block to search.
                for row in rows:
                    row[2 * _PANEL + 3] = 0
            _check_against_reference(rows, m, q)
        assert max(heights) <= _PANEL + _PIVOT_SLACK

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    def test_panel_pass_matches_reference(self, q):
        # The delayed-reduction panel pass against the one that reduces
        # every product: the same pivot count, swaps and reduced entries.
        rng = np.random.default_rng(q % 1000 + 4)
        w, height = _PANEL, _PANEL + _PIVOT_SLACK

        def rows(k):
            return rng.integers(0, q, size=(k, w), dtype=np.int64)

        def with_identity(block):
            return np.concatenate([block, np.eye(len(block), dtype=np.int64)], axis=1)

        zero, dependent = rows(height), rows(height)
        zero[:, 40] = 0
        coeffs = rng.integers(0, q, size=30).astype(object)
        dependent[:, 30] = dependent[:, :30].astype(object) @ coeffs % q
        cases = [
            with_identity(rows(height)),  # a panel's short block
            rows(3 * w),  # the full-height fallback
            with_identity(rows(20)),  # fewer rows than columns
            with_identity(zero),
            with_identity(dependent),
        ]
        counts = []
        for x in cases:
            want_x = x.astype(np.uint64)
            want = reference_gauss_jordan(want_x, q, w)
            assert galois._gauss_jordan(x, q, w) == want
            assert x.tolist() == want_x.tolist()
            counts.append(want[0])
        assert counts[:2] == [w, w] and counts[2] <= 20 and counts[3:] == [40, 30]

    @pytest.mark.parametrize("q", _WIDE_PRIMES)
    def test_no_rows_gives_first_basis_vector(self, q):
        for m in _PANEL_EDGES:
            y = _check_against_reference([], m, q)
            assert y == [1] + [0] * (m - 1)


class TestMatmulMod:
    @pytest.mark.parametrize("q", [2, 3, 65537, 4294967291])
    @pytest.mark.parametrize("m", [1, 81, 5000])
    def test_matches_python_int_reference(self, q, m):
        rng = np.random.default_rng(q % 1000 + m)
        rows = rng.integers(0, q, size=(6, m), dtype=np.int64)
        rows[0] = q - 1
        y = rng.integers(0, q, size=m, dtype=np.int64)
        candidates = rng.integers(0, q, size=(5, m), dtype=np.int64)
        candidates[0] = q - 1
        for b in (y, candidates.T):
            got = matmul_mod(rows, b, q)
            want = (rows.astype(object) @ b.astype(object)) % q
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()

    def test_float_product_exact_at_its_bound(self):
        # The largest prime q with 81*(q-1)**2 < 2**53: a matrix product of
        # inner length 81 runs in float64, one of length 82 in int64.  The
        # first entry's sum is odd; at length 82 it passes 2**53, where
        # float64 would round it to an even number.
        q = math.isqrt((1 << 53) // 81) + 1
        while not is_prime(q) or 81 * (q - 1) ** 2 >= 1 << 53:
            q -= 1
        odd_sum = 81 * (q - 1) ** 2 + (q - 2) ** 2
        assert odd_sum % 2 == 1 and odd_sum >= 1 << 53
        rng = np.random.default_rng(53)
        for m in (81, 82):
            a = rng.integers(0, q, size=(4, m), dtype=np.int64)
            b = rng.integers(0, q, size=(m, 3), dtype=np.int64)
            a[0] = b[:, 0] = q - 1
            a[0, -1] = b[-1, 0] = q - 2
            want = (a.astype(object) @ b.astype(object)) % q
            assert matmul_mod(a, b, q).tolist() == want.tolist()


def _words(stream, indices, attempt=0, scratch=None):
    """Words ``(i, attempt)`` of ``stream`` for each i in ``indices``, as the
    sampler mixes them: ``_splitmix64`` on the stream's base."""
    indices = np.asarray(indices, dtype=np.uint64)
    out = np.empty(indices.shape, dtype=np.uint64)
    return _splitmix64(np.uint64(stream._base), indices, attempt, out, scratch)


def _draws(stream, count=8):
    """The first ``count`` draws of ``stream`` in a 32-bit field."""
    return sample_field_elements(stream, 4294967291, 0, count).tolist()


class TestWordStream:
    def test_pure_in_seed_and_label(self):
        a = WordStream(12345, b"element")
        b = WordStream(12345, b"element")
        assert a == b
        assert _words(a, range(16)).tolist() == _words(b, range(16)).tolist()
        assert _draws(a, 16) == _draws(b, 16)

    def test_label_separation(self):
        a = WordStream(1, b"E" + b"payload")
        b = WordStream(1, b"C" + b"payload")
        assert _words(a, range(8)).tolist() != _words(b, range(8)).tolist()
        assert _draws(a) != _draws(b)

    def test_seed_separation(self):
        a = WordStream(1, b"x")
        b = WordStream(2, b"x")
        assert _words(a, range(8)).tolist() != _words(b, range(8)).tolist()
        assert _draws(a) != _draws(b)

    def test_words_are_64_bit(self):
        stream = WordStream(99, b"range")
        words = _words(stream, range(100))
        assert words.dtype == np.uint64
        assert words.tolist() == [reference_word(99, b"range", i) for i in range(100)]

    def test_attempt_counter_changes_word(self):
        stream = WordStream(5, b"retry")
        ws = {int(_words(stream, [3], attempt)[0]) for attempt in range(8)}
        assert len(ws) == 8

    def test_seed_validation(self):
        for bad in (-1, 1 << 64, 0.5, "0"):
            with pytest.raises(DomainError):
                WordStream(bad, b"x")
        with pytest.raises(DomainError):
            WordStream(0, "not bytes")

    def test_index_and_attempt_bounds(self):
        stream = WordStream(0, b"x")
        for start in (1 << 56, -1):
            with pytest.raises(DomainError):
                sample_field_elements(stream, 3, start, 1)
        for attempt in (256, -1):
            with pytest.raises(DomainError):
                _words(stream, [0], attempt)

    def test_block_matches_scalar_words(self):
        # The sampler mixes whole blocks, with and without a scratch buffer.
        seed, label = 2**63 + 9, b"vectorized"
        stream = WordStream(seed, label)
        scalar = [reference_word(seed, label, 100 + i) for i in range(257)]
        indices = np.arange(100, 357, dtype=np.uint64)
        assert _words(stream, indices).tolist() == scalar
        scratch = np.empty(300, dtype=np.uint64)
        assert _words(stream, indices, 0, scratch).tolist() == scalar

    def test_words_at_supports_attempts(self):
        stream = WordStream(4, b"at")
        got = _words(stream, [0, 5, 9], attempt=3)
        assert got.tolist() == [reference_word(4, b"at", i, 3) for i in (0, 5, 9)]

    def test_array_calls_refuse_indices_past_the_counter(self):
        # Index 2**56 would wrap onto index 0 in the 64-bit counter.
        stream = WordStream(1, b"x")
        q = 4294967291
        last = (1 << 56) - 1
        word = functools.partial(reference_word, 1, b"x")
        want = [reference_element(word, q, i) for i in range(last - 3, last + 1)]
        assert sample_field_elements(stream, q, last - 3, 4).tolist() == want
        got = sample_field_elements(stream, q, last - 3, 4, np.array([3, 0]))
        assert got.tolist() == [want[3], want[0]]
        for start, count in ((1 << 56, 4), (last, 2), (-1, 2), (0, -1)):
            with pytest.raises(DomainError):
                sample_field_elements(stream, q, start, count)
            with pytest.raises(DomainError):
                sample_field_elements(stream, q, start, count, np.array([0]))
        for args in ((0.5, 4), (0, 1.5)):
            with pytest.raises(TypeError):
                sample_field_elements(stream, q, *args)


class _ForcedRejection(WordStream):
    """A stream whose first ``rejected`` attempts at draw ``index`` give 2**64 - 1.

    2**64 - 1 lies at or above the acceptance threshold for every q > 2, so
    sampling that draw must fall through to attempt ``rejected``.  The
    sampler reads only a stream's base and takes every word from
    ``galois._splitmix64``, so the constructor patches that mixer to force
    the word wherever it mixes this stream's base at ``index``.
    ``reference`` is the plain-int reference with the same forcing.
    """

    def __init__(self, monkeypatch, seed, label, rejected=1, index=0):
        super().__init__(seed, label)
        object.__setattr__(self, "rejected", rejected)
        object.__setattr__(self, "index", index)
        mix, base = galois._splitmix64, np.uint64(self._base)

        def forced(bases, indices, attempt, out, scratch=None):
            mix(bases, indices, attempt, out, scratch)
            if attempt < rejected:
                hit = (bases == base) & (indices == np.uint64(index))
                out[np.broadcast_to(hit, out.shape)] = np.uint64((1 << 64) - 1)
            return out

        monkeypatch.setattr(galois, "_splitmix64", forced)

    def reference(self, index, attempt=0):
        if index == self.index and attempt < self.rejected:
            return (1 << 64) - 1
        return reference_word(self.seed, self.label, index, attempt)


class TestFieldSampling:
    def test_pure(self):
        q = 5
        a = sample_field_elements(WordStream(7, b"s"), q, 3, 1)[0]
        b = sample_field_elements(WordStream(7, b"s"), q, 3, 1)[0]
        assert a == b

    def test_values_in_field(self):
        q = 13
        stream = WordStream(21, b"r")
        draws = sample_field_elements(stream, q, 0, 1000)
        assert draws.min() >= 0 and draws.max() < 13

    def test_rejection_threshold_formula(self):
        for q in (2, 3, 5, 7, 13):
            assert _rejection_threshold(q) == q * ((1 << 64) // q)

    def test_uniformity(self):
        q = 7
        stream = WordStream(123, b"uniform")
        n = 100_000
        draws = sample_field_elements(stream, q, 0, n)
        counts = np.bincount(draws, minlength=7)
        p = 1.0 / 7.0
        band = 3.0 * math.sqrt(n * p * (1 - p))
        for c in counts:
            assert abs(c - n * p) <= band

    def test_vectorized_matches_scalar(self):
        word = functools.partial(reference_word, 3141, b"match")
        for q in (2, 3, 5, 7, 4294967291):
            stream = WordStream(3141, b"match")
            scalar = [reference_element(word, q, 50 + i) for i in range(200)]
            assert sample_field_elements(stream, q, 50, 200).tolist() == scalar
            one_draw = [sample_field_elements(stream, q, 50 + i, 1)[0] for i in range(5)]
            assert one_draw == scalar[:5]

    def test_rejection_retries_next_attempt(self, monkeypatch):
        forced = _ForcedRejection(monkeypatch, 777, b"reject")
        for q in (3, 5, 7):
            got = sample_field_elements(forced, q, 0, 1)[0]
            assert got == reference_word(777, b"reject", 0, 1) % q
            vec = sample_field_elements(forced, q, 0, 40)
            scalar = [reference_element(forced.reference, q, i) for i in range(40)]
            assert vec.tolist() == scalar

    def test_last_attempt_is_checked(self, monkeypatch):
        # Attempts 0..254 of draw 0 are rejected, so attempt 255 decides it.
        forced = _ForcedRejection(monkeypatch, 778, b"reject", rejected=255)
        word = reference_word(778, b"reject", 0, 255)
        for q in (3, 5, 7):
            assert word < q * ((1 << 64) // q)
            assert sample_field_elements(forced, q, 0, 1)[0] == word % q
            vec = sample_field_elements(forced, q, 0, 4)
            scalar = [reference_element(forced.reference, q, i) for i in range(4)]
            assert vec.tolist() == scalar
            assert vec[0] == word % q

    def test_counter_term_at_attempt_and_index_edges(self):
        # (index << 8 | 255) + 1 carries into the index bits; the mixer must
        # add the 1, in every layout it is called with: one row, rows of
        # bases broadcast over indices, and with or without scratch.
        streams = [WordStream(606, b"edge"), WordStream(607, b"edge")]
        bases = np.array([[s._base] for s in streams], dtype=np.uint64)
        indices = np.array([0, 1, 255, 256, 2**32, 2**56 - 2, 2**56 - 1], dtype=np.uint64)
        for attempt in (0, 1, 254, 255):
            want = [
                [reference_word(s.seed, s.label, int(i), attempt) for i in indices]
                for s in streams
            ]
            assert _words(streams[0], indices, attempt).tolist() == want[0]
            scratch = np.empty(indices.size + 3, dtype=np.uint64)
            assert _words(streams[0], indices, attempt, scratch).tolist() == want[0]
            out = np.empty((2, indices.size), dtype=np.uint64)
            assert _splitmix64(bases, indices, attempt, out).tolist() == want
            out[:] = 0
            scratch = np.empty(out.size, dtype=np.uint64)
            assert _splitmix64(bases, indices, attempt, out, scratch).tolist() == want

    def test_redraws_match_reference_at_the_last_index(self, monkeypatch):
        # Draw 2**56 - 1 rejected at attempts 0..253, among accepted draws of
        # a one-stream call; the redraw comes from attempt 254.
        last = 2**56 - 1
        forced = _ForcedRejection(monkeypatch, 780, b"reject", rejected=254, index=last)
        for q in (3, 5, 4294967291):
            got = sample_field_elements(forced, q, last - 5, 6).tolist()
            assert got == [reference_element(forced.reference, q, last - 5 + i) for i in range(6)]
            assert got[-1] == reference_word(780, b"reject", last, 254) % q

    def test_rejection_gives_up_after_256_attempts(self, monkeypatch):
        forced = _ForcedRejection(monkeypatch, 779, b"reject", rejected=256)
        with pytest.raises(RuntimeError):
            sample_field_elements(forced, 3, 0, 4)
        with pytest.raises(RuntimeError):
            sample_field_elements(forced, 3, 0, 1)


class TestGf2Fold:
    """The GF(2) query path: ``_splitmix64`` is its pre-final state followed
    by one xor-shift, and ``_gf2_draw_sums`` is the parity of the draws."""

    def test_mixer_is_state_then_final_xor_shift(self):
        rng = np.random.default_rng(41)
        bases = rng.integers(0, 1 << 64, size=(3, 1), dtype=np.uint64)
        indices = rng.integers(0, 1 << 56, size=17, dtype=np.uint64)
        indices[:2] = (0, (1 << 56) - 1)
        for attempt in range(256):
            z = _splitmix64_state(bases, indices, attempt, np.empty((3, 17), np.uint64))
            want = z ^ (z >> np.uint64(31))
            got = _splitmix64(bases, indices, attempt, np.empty((3, 17), np.uint64))
            assert np.array_equal(got, want)
        with pytest.raises(DomainError):
            _splitmix64_state(bases, indices, 256, np.empty((3, 17), np.uint64))

    @pytest.mark.parametrize("block", [_BLOCK, 24, 5])
    def test_draw_sums_are_parities_of_the_draws(self, block, monkeypatch):
        # Block 24 takes a few streams per block; block 5 splits the columns.
        monkeypatch.setattr(galois, "_BLOCK", block)
        streams = [WordStream(43, b"E-fold-%d" % i) for i in range(13)]
        m = 12
        rows = [reference_row(43, b"-fold-%d" % i, 2, m) for i in range(13)]
        for columns in ([], [0], [m - 1, 0, 5], list(range(m)), [3, 3, 7]):
            got = _gf2_draw_sums(streams, np.array(columns, dtype=np.int64))
            assert got.dtype == np.int64 and got.shape == (13,)
            assert got.tolist() == [sum(row[j] for j in columns) % 2 for row in rows]
            drawn = sample_field_elements(streams, 2, 0, m, np.array(columns, dtype=int))
            assert got.tolist() == (drawn.sum(axis=1) % 2).tolist()
        assert _gf2_draw_sums([], np.arange(m)).shape == (0,)


class TestBatchSampling:
    """Many streams in one call, on both sides of the kernel's block edges:
    B rows of m words fill one block, and a row wider than a block is split
    into column chunks."""

    @pytest.mark.parametrize("q", (2, 3, 4294967291))
    @pytest.mark.parametrize("m", (1, 81, _BLOCK + 100))
    def test_rows_match_one_stream_calls_and_reference(self, q, m):
        per_block = max(1, _BLOCK // m)
        elements = [b"batch-%d" % i for i in range(per_block + 1)]
        streams = [WordStream(11, b"E" + e) for e in elements]
        want = [reference_row(11, e, q, m) for e in elements]
        for rows in sorted({0, 1, per_block - 1, per_block, per_block + 1}):
            got = sample_field_elements(streams[:rows], q, 0, m)
            assert got.shape == (rows, m) and got.dtype == np.int64
            assert got.tolist() == want[:rows]
        # One-stream calls on the rows next to the first block edge.
        for i in {0, max(0, per_block - 1), per_block}:
            assert sample_field_elements(streams[i], q, 0, m).tolist() == want[i]

    @pytest.mark.parametrize("q", (3, 4294967291))
    def test_rejection_inside_the_second_block(self, monkeypatch, q):
        m, start, seed = 81, 5, 31
        per_block = _BLOCK // m
        row, col = per_block + 3, 40  # neither the block's first row nor column
        labels = [b"E-reject-%d" % i for i in range(2 * per_block)]
        forced = _ForcedRejection(
            monkeypatch, seed, labels[row], rejected=2, index=start + col
        )
        streams = [WordStream(seed, label) for label in labels]
        streams[row] = forced
        got = sample_field_elements(streams, q, start, m)
        word = reference_word(seed, labels[row], start + col, 2)
        assert word < _rejection_threshold(q)
        assert word % q != reference_word(seed, labels[row], start + col, 0) % q
        assert got[row, col] == word % q
        want = [reference_element(forced.reference, q, start + j) for j in range(m)]
        assert got[row].tolist() == want
        assert sample_field_elements(forced, q, start, m).tolist() == want
        for i in (0, per_block - 1, per_block, row - 1, row + 1, 2 * per_block - 1):
            word_i = functools.partial(reference_word, seed, labels[i])
            assert got[i].tolist() == [
                reference_element(word_i, q, start + j) for j in range(m)
            ]
        # The redraw addresses the draw's own index when columns are chosen.
        picked = sample_field_elements(streams, q, start, m, np.array([col, 0]))
        assert picked.tolist() == got[:, [col, 0]].tolist()

    @pytest.mark.parametrize("q", (2, 3, 4294967291))
    @pytest.mark.parametrize("m", (81, _BLOCK + 100))
    def test_columns_pick_entries_of_the_full_rows(self, q, m):
        start = 7
        for columns in ([m - 1], [m - 1, 0, 40], list(range(0, m, 3))):
            # One more row than a block of len(columns) words holds.
            rows = _BLOCK // len(columns) + 1
            streams = [WordStream(23, b"E-col-%d" % i) for i in range(rows)]
            full = sample_field_elements(streams[-2:], q, start, m)
            got = sample_field_elements(streams, q, start, m, np.array(columns))
            assert got.shape == (rows, len(columns)) and got.dtype == np.int64
            assert got[-2:].tolist() == full[:, columns].tolist()
            one = sample_field_elements(streams[0], q, start, m, columns)
            assert one.tolist() == got[0].tolist()
        word = functools.partial(reference_word, 23, b"E-col-0")
        assert one.tolist() == [reference_element(word, q, start + j) for j in columns]

    def test_columns_must_be_offsets_into_the_range(self):
        stream = WordStream(1, b"x")
        for bad in ([4], [-1], [[0]], [0.5], ["0"]):
            with pytest.raises(DomainError):
                sample_field_elements(stream, 3, 0, 4, np.array(bad))
        empty = sample_field_elements([stream], 3, 0, 4, np.array([], int))
        assert empty.shape == (1, 0)

    def test_streams_must_be_word_streams(self):
        with pytest.raises(DomainError):
            sample_field_elements([WordStream(1, b"a"), b"b"], 3, 0, 4)


class TestPinnedHash:
    """Stream words and draws pinned as literals, each derived with the
    plain-int reference in conftest; a change here changes every filter."""

    WORDS = (
        (0, 0, 6707547818499696807),
        (1, 0, 10051666135193821744),
        (2, 1, 16198805872327070199),
        (255, 0, 14383758118921653992),
        (256, 3, 11745697455180883216),
        (2**32, 0, 13916662861036932494),
        (2**56 - 1, 0, 6947506957848119627),
        (2**56 - 1, 255, 18423725369768602395),
    )
    DRAWS = {
        3: [0, 1, 0, 1, 1, 0, 1, 2],
        4294967291: [
            3037157977, 486363010, 829059619, 4289892167,
            447175580, 940725652, 3173630793, 120570937,
        ],
    }

    def test_words(self):
        stream = WordStream(2024, b"pin")
        for index, attempt, want in self.WORDS:
            assert reference_word(2024, b"pin", index, attempt) == want
            assert _words(stream, [index], attempt).tolist() == [want]

    def test_draws(self):
        stream = WordStream(2024, b"pin")
        word = functools.partial(reference_word, 2024, b"pin")
        for q, want in self.DRAWS.items():
            assert [reference_element(word, q, 1000 + i) for i in range(8)] == want
            assert sample_field_elements(stream, q, 1000, 8).tolist() == want
