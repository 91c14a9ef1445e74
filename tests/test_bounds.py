"""Exact communication bounds: matrices, protocol search, partitions."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from promisecc.bits import (
    BitString,
    Margin,
    PromiseLabel,
    classify_disj_promise,
    hamming_weight,
)
from promisecc.bounds import (
    CommMatrix,
    Rectangle,
    SearchTooWideError,
    UNDEFINED,
    _ProtocolSearch,
    check_rectangle_bound,
    exact_deterministic_cc,
    min_monochromatic_partition,
    problem_matrix,
    verify_partition,
)


def _block(m, rows, cols):
    """The block of ``m`` at the given row and column indices."""
    return CommMatrix(
        rows=tuple(m.rows[i] for i in rows),
        cols=tuple(m.cols[j] for j in cols),
        entries=[[m.entries[r][c] for c in cols] for r in rows],
    )


class TestCommMatrix:
    def test_entry_and_shape(self):
        m = problem_matrix("eq", 1)
        assert m.shape == (2, 2)
        assert m.entries[0][0] == 1
        assert m.entries[0][1] == 0

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            CommMatrix(
                rows=(BitString("0"), BitString("1")),
                cols=(BitString("0"), BitString("1")),
                entries=np.array([[2, 0], [0, 1]], dtype=np.int8),
            )

    def test_rejects_label_shape_mismatch(self):
        with pytest.raises(ValueError):
            CommMatrix(
                rows=(BitString("0"),),
                cols=(BitString("0"), BitString("1")),
                entries=np.zeros((2, 2), dtype=np.int8),
            )

    def test_defined_cells(self):
        m = problem_matrix("promise_eq", 2)
        ones = m.defined_cells(1)
        zeros = m.defined_cells(0)
        undef = m.defined_cells(UNDEFINED)
        assert len(ones) == 4  # the diagonal
        assert len(zeros) == 8  # distance-one pairs
        assert len(undef) == 4  # distance-two pairs


class TestProblemMatrix:
    def test_eq_is_identity_pattern(self):
        m = problem_matrix("eq", 2)
        assert m.entries == tuple(
            tuple(int(i == j) for j in range(4)) for i in range(4)
        )

    def test_disj_n1(self):
        m = problem_matrix("disj", 1)
        assert m.entries == ((1, 1), (1, 0))

    def test_promise_disj_undefined_only_outside_band(self):
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        undef = m.defined_cells(UNDEFINED)
        # only (1111, 1111) has intersection above the band
        assert undef == [(15, 15)]

    def test_promise_disj_requires_margin(self):
        with pytest.raises(ValueError):
            problem_matrix("promise_disj", 4)

    def test_margin_length_must_match(self):
        with pytest.raises(ValueError):
            problem_matrix("promise_disj", 4, Margin.from_text("1/4", 8))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            problem_matrix("parity", 2)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            problem_matrix("eq", 11)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_entries_match_cell_oracle(self, n):
        # every kind, and promise_disj at every margin j/n in (0, 1/4]
        def cell(kind, x, y, margin):
            d = bin(x ^ y).count("1")
            m = bin(x & y).count("1")
            if kind == "eq":
                return int(d == 0)
            if kind == "disj":
                return int(m == 0)
            if kind == "promise_eq":
                return 1 if d == 0 else 0 if 2 * d == n else UNDEFINED
            lam = margin.fraction
            return 1 if m == 0 else 0 if lam * n <= m <= (1 - lam) * n else UNDEFINED

        cases = [("eq", None), ("disj", None)]
        if n % 2 == 0:
            cases.append(("promise_eq", None))
        else:
            with pytest.raises(ValueError, match="no NO count"):
                problem_matrix("promise_eq", n)
        cases += [
            ("promise_disj", Margin(Fraction(j, n), n)) for j in range(1, n // 4 + 1)
        ]
        size = 1 << n
        for kind, margin in cases:
            want = tuple(
                tuple(cell(kind, x, y, margin) for y in range(size)) for x in range(size)
            )
            assert problem_matrix(kind, n, margin).entries == want


class TestFoolingSet:
    @staticmethod
    def _band(margin, m):
        # (x, x) overlaps in |x|, so it is a No instance iff |x| is in the band
        return [
            x for x in m.rows if classify_disj_promise(x, x, margin) is PromiseLabel.NO
        ]

    def test_fooling_pairs_all_yes(self):
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        pairs = [(x, ~x) for x in self._band(margin, m)]
        assert len(pairs) == 14
        assert all(
            classify_disj_promise(x, y, margin) is PromiseLabel.YES for x, y in pairs
        )
        assert all(
            m.entries[m.rows.index(x)][m.cols.index(y)] == 1 for x, y in pairs
        )

    def test_cross_refutation_witness(self):
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        band = self._band(margin, m)
        witness = next(
            (
                (x, z) for x in band for z in band
                if z != x and classify_disj_promise(z, ~x, margin) is PromiseLabel.NO
            ),
            None,
        )
        assert witness is not None
        x, z = witness
        # (x, ~x) and (z, ~z) are Yes, but the crossed pair is a No instance
        assert classify_disj_promise(x, ~x, margin) is PromiseLabel.YES
        assert classify_disj_promise(z, ~z, margin) is PromiseLabel.YES
        assert 1 <= hamming_weight(BitString(z.value & ~x.value, 4)) <= 3


class TestExactCc:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [
            ("eq", 1, 2),
            ("eq", 2, 3),
            ("eq", 6, 7),
            ("disj", 1, 2),
            ("disj", 2, 3),
            ("disj", 3, 4),
            ("disj", 6, 7),
        ],
    )
    def test_total_problems(self, kind, n, expected):
        assert exact_deterministic_cc(problem_matrix(kind, n)) == expected

    def test_promise_disj_n4(self):
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        assert exact_deterministic_cc(m) == 5

    @pytest.mark.parametrize("n,lam,expected", [(5, "1/5", 6), (6, "1/6", 7)])
    def test_promise_disj_margin_one_over_n(self, n, lam, expected):
        m = problem_matrix("promise_disj", n, Margin.from_text(lam, n))
        assert exact_deterministic_cc(m) == expected

    def test_promise_eq_n2(self):
        # the distance-two don't-cares let two bits suffice
        assert exact_deterministic_cc(problem_matrix("promise_eq", 2)) == 2

    def test_constant_matrix_is_free(self):
        m = CommMatrix(
            rows=(BitString("0"), BitString("1")),
            cols=(BitString("0"), BitString("1")),
            entries=np.ones((2, 2), dtype=np.int8),
        )
        assert exact_deterministic_cc(m) == 0

    def test_size_limit(self):
        # 128 rows pass MATRIX_SIZE_LIMIT
        with pytest.raises(SearchTooWideError):
            exact_deterministic_cc(problem_matrix("eq", 7))

    def test_promise_eq_n4(self):
        assert exact_deterministic_cc(problem_matrix("promise_eq", 4)) == 3

    def test_too_wide_promise_search_refuses(self):
        m = problem_matrix("promise_eq", 6)
        with pytest.raises(SearchTooWideError):
            exact_deterministic_cc(m)

    def test_one_bit_when_every_row_is_constant(self):
        # every length-5 row over {0, UNDEFINED} or {1, UNDEFINED} with a
        # defined cell: Alice names her row's value, so one bit suffices,
        # though Bob's side has 62 lines, too many to split by enumeration
        grid = [
            row
            for value in (0, 1)
            for row in itertools.product((value, UNDEFINED), repeat=5)
            if value in row
        ]
        assert len(grid) == 62
        assert exact_deterministic_cc(_matrix(grid)) == 1

    def test_promise_eq_n6_is_two_bits_by_parity(self):
        # D = 2 where the search above refuses: Alice sends the parity of
        # x and Bob answers whether his parity is the same.  A No pair
        # differs in n/2 = 3 positions, so its parities differ.
        m = problem_matrix("promise_eq", 6)
        defined = [
            (value, int(hamming_weight(x) % 2 == hamming_weight(y) % 2))
            for x, row in zip(m.rows, m.entries)
            for y, value in zip(m.cols, row)
            if value != UNDEFINED
        ]
        assert len(defined) == 64 + 64 * 20  # the diagonal, and C(6, 3) per row
        assert all(value == answer for value, answer in defined)
        # and no single bit suffices: every row and every column holds a
        # Yes and a No cell, so neither party can name the answer alone
        for line in (*m.entries, *zip(*m.entries)):
            assert {0, 1} <= set(line)


class TestPartition:
    @pytest.mark.parametrize(
        "kind,n,value,expected",
        [
            ("eq", 1, 1, 2),
            ("eq", 1, 0, 2),
            ("eq", 2, 1, 4),
            ("eq", 2, 0, 4),
            ("disj", 2, 0, 3),
            ("disj", 3, 0, 7),
            ("disj", 3, 1, 8),
            ("eq", 4, 1, 16),
            ("promise_eq", 4, 1, 4),
        ],
    )
    def test_known_counts(self, kind, n, value, expected):
        m = problem_matrix(kind, n)
        result = min_monochromatic_partition(m, value)
        assert result.count == expected
        assert verify_partition(m, value, result.rectangles)

    def test_all_ones_needs_one_rectangle(self):
        m = CommMatrix(
            rows=(BitString("0"), BitString("1")),
            cols=(BitString("0"), BitString("1")),
            entries=np.ones((2, 2), dtype=np.int8),
        )
        result = min_monochromatic_partition(m, 1)
        assert result.count == 1

    def test_no_cells_of_value(self):
        m = CommMatrix(
            rows=(BitString("0"),),
            cols=(BitString("0"),),
            entries=np.ones((1, 1), dtype=np.int8),
        )
        assert min_monochromatic_partition(m, 0).count == 0

    def test_band_complement_square(self):
        """Rows from the weight band against complement columns force one
        rectangle per complement pair."""
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        # (x, x) overlaps in |x|, so it is a No instance iff x is in the band
        band = [
            x for x in m.rows if classify_disj_promise(x, x, margin) is PromiseLabel.NO
        ]
        assert len(band) == 14
        assert all(1 <= hamming_weight(x) <= 3 for x in band)
        assert band == sorted(band)
        assert all(
            classify_disj_promise(x, ~x, margin) is PromiseLabel.YES for x in band
        )
        rows = [m.rows.index(x) for x in band]
        cols = [m.cols.index(~x) for x in band]
        sub = _block(m, rows, cols)
        result = min_monochromatic_partition(sub, 1)
        assert result.count == len(band)
        assert verify_partition(sub, 1, result.rectangles)

    def test_cap_on_enumeration_work(self):
        # undefined off the diagonal but for one zero, so that no single
        # rectangle covers the ones: nearly every row set allows all 16
        # columns
        grid = np.full((16, 16), UNDEFINED, dtype=np.int8)
        np.fill_diagonal(grid, 1)
        grid[0, 1] = 0
        with pytest.raises(
            SearchTooWideError, match="candidate rectangle enumeration too large"
        ):
            min_monochromatic_partition(_matrix(grid), 1)

    def test_one_rectangle_support_skips_the_enumeration(self):
        # a random 9x9 grid over {0, UNDEFINED} with 45 zero cells: its
        # support encloses no one, so one rectangle covers every zero; a
        # full enumeration of its tight rectangles takes seconds
        rng = random.Random(0)
        zeros = set(rng.sample(range(81), 45))
        grid = [[0 if 9 * r + c in zeros else UNDEFINED for c in range(9)]
                for r in range(9)]
        start = time.perf_counter()
        result = min_monochromatic_partition(_matrix(grid), 0)
        assert time.perf_counter() - start < 0.1
        assert result.count == 1
        assert result.rectangles == (Rectangle(range(9), range(9)),)

    def test_one_rectangle_support_is_not_held_to_the_row_cap(self):
        # 16 ones on the diagonal over UNDEFINED: no enumeration, so no cap
        grid = np.full((16, 16), UNDEFINED, dtype=np.int8)
        np.fill_diagonal(grid, 1)
        m = _matrix(grid)
        result = min_monochromatic_partition(m, 1)
        assert result.count == 1
        assert verify_partition(m, 1, result.rectangles)

    def test_cap_on_cells(self):
        m = problem_matrix("eq", 4)
        with pytest.raises(ValueError):
            min_monochromatic_partition(m, 0)  # 240 zero cells

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            min_monochromatic_partition(problem_matrix("eq", 1), 2)

    def test_rectangles_absorb_undefined_cells(self):
        m = problem_matrix("promise_eq", 4)
        result = min_monochromatic_partition(m, 1)
        assert verify_partition(m, 1, result.rectangles)
        # distance {1,3,4} neighbours merge through don't-cares
        assert result.count < 16


class TestVerifyPartition:
    def test_rejects_overlap(self):
        m = problem_matrix("eq", 1)
        rect = Rectangle(row_indices=(0,), col_indices=(0,))
        assert not verify_partition(m, 1, (rect, rect))

    def test_rejects_wrong_value(self):
        m = problem_matrix("eq", 1)
        rect = Rectangle(row_indices=(0,), col_indices=(1,))  # a zero cell
        assert not verify_partition(m, 1, (rect,))

    def test_rejects_incomplete_cover(self):
        m = problem_matrix("eq", 1)
        rect = Rectangle(row_indices=(0,), col_indices=(0,))
        assert not verify_partition(m, 1, (rect,))

    def test_accepts_hand_cover(self):
        m = problem_matrix("eq", 1)
        rects = (
            Rectangle(row_indices=(0,), col_indices=(0,)),
            Rectangle(row_indices=(1,), col_indices=(1,)),
        )
        assert verify_partition(m, 1, rects)


class TestRectangle:
    def test_sorts_indices(self):
        r = Rectangle(row_indices=(2, 0), col_indices=(1,))
        assert r.row_indices == (0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Rectangle(row_indices=(), col_indices=(0,))

    def test_cells(self):
        r = Rectangle(row_indices=(0, 1), col_indices=(2,))
        assert r.cells() == [(0, 2), (1, 2)]


class TestRectangleBound:
    def test_eq2_report(self):
        report = check_rectangle_bound(problem_matrix("eq", 2))
        assert report.to_record() == {"D": 3, "C0": 4, "C1": 4, "bound_ok": True}

    def test_disj2_report(self):
        report = check_rectangle_bound(problem_matrix("disj", 2))
        assert report.to_record() == {"D": 3, "C0": 3, "C1": 4, "bound_ok": True}

    def test_oversized_partitions_reported_as_none(self):
        margin = Margin.from_text("1/4", 4)
        report = check_rectangle_bound(problem_matrix("promise_disj", 4, margin))
        assert report.depth == 5
        assert report.zero_partition is None
        assert report.one_partition is None
        assert report.holds is None

    def test_all_unknown_when_search_too_wide(self):
        report = check_rectangle_bound(problem_matrix("promise_eq", 6))
        assert report.to_record() == {"D": None, "C0": None, "C1": None, "bound_ok": None}

    def test_all_unknown_beyond_the_size_cap(self):
        # 128 rows pass the protocol search's 64-row cap
        report = check_rectangle_bound(problem_matrix("eq", 7))
        assert report.depth is None
        assert report.holds is None


def _brute_depth(rows):
    """Minimum protocol-tree depth, trying every row and column split.

    Deliberately naive: no memo, no normal form, no lower or upper bounds.
    Line 0 stays in the second part, so each split is tried once.
    """
    if len({v for row in rows for v in row} - {UNDEFINED}) <= 1:
        return 0
    best = None
    for transpose in (False, True):
        side = tuple(zip(*rows)) if transpose else rows
        for mask in range(2, 1 << len(side), 2):
            parts = (
                tuple(line for i, line in enumerate(side) if mask >> i & 1),
                tuple(line for i, line in enumerate(side) if not mask >> i & 1),
            )
            if transpose:
                parts = tuple(tuple(zip(*part)) for part in parts)
            depth = 1 + max(_brute_depth(part) for part in parts)
            best = depth if best is None else min(best, depth)
    return best


def _matrix(grid):
    return CommMatrix(
        rows=tuple(range(len(grid))),
        cols=tuple(range(len(grid[0]))),
        entries=np.array(grid, dtype=np.int8),
    )


class TestBruteForceProtocolTree:
    @pytest.mark.parametrize(
        "kind,n", [("eq", 1), ("eq", 2), ("disj", 1), ("disj", 2), ("promise_eq", 2)]
    )
    def test_problem_matrices(self, kind, n):
        m = problem_matrix(kind, n)
        assert exact_deterministic_cc(m) == _brute_depth(m.entries)

    @pytest.mark.parametrize("kind", ["promise_eq", "promise_disj"])
    def test_promise_submatrices_n4(self, kind):
        # promise disjointness needs n >= 4 for an integer band, so its
        # small cases are 4x4 blocks of the n=4 matrix
        margin = Margin.from_text("1/4", 4) if kind == "promise_disj" else None
        m = problem_matrix(kind, 4, margin)
        rng = random.Random(4)
        for _ in range(5):
            rows, cols = (sorted(rng.sample(range(16), 4)) for _ in range(2))
            sub = _block(m, rows, cols)
            assert exact_deterministic_cc(sub) == _brute_depth(sub.entries), sub.entries

    def test_random_partial_matrices(self):
        rng = random.Random(7)
        for _ in range(80):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
            grid = tuple(
                tuple(rng.choice((0, 1, UNDEFINED)) for _ in range(n_cols))
                for _ in range(n_rows)
            )
            assert exact_deterministic_cc(_matrix(grid)) == _brute_depth(grid), grid

    def test_zero_and_one_bit_budgets(self):
        rng = random.Random(11)
        for _ in range(400):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
            grid = tuple(
                tuple(rng.choice((0, 1, UNDEFINED)) for _ in range(n_cols))
                for _ in range(n_rows)
            )
            depth = _brute_depth(grid)
            for budget in (0, 1):
                solvable = _ProtocolSearch().solvable(grid, budget)
                assert solvable == (depth <= budget), grid
