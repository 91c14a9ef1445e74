"""Exact communication bounds: matrices, protocol search, partitions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from promisecc.bits import BitString, Margin, PromiseLabel, hamming_weight, weight_band
from promisecc.bounds import (
    CommMatrix,
    Rectangle,
    SearchTooWideError,
    UNDEFINED,
    check_rectangle_bound,
    cross_pair_refutation,
    exact_deterministic_cc,
    find_cross_refutation,
    fooling_pairs,
    greedy_fooling_set,
    min_monochromatic_partition,
    problem_matrix,
    verify_partition,
)


class TestCommMatrix:
    def test_entry_and_shape(self):
        m = problem_matrix("eq", 1)
        assert m.shape == (2, 2)
        assert m.entry(0, 0) == 1
        assert m.entry(0, 1) == 0

    def test_entry_rejects_label_indices(self):
        m = problem_matrix("eq", 1)
        with pytest.raises(TypeError):
            m.entry(BitString("0"), BitString("0"))

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

    def test_submatrix(self):
        m = problem_matrix("eq", 2)
        sub = m.submatrix([0, 1], [0, 1])
        assert sub.shape == (2, 2)
        assert sub.rows == (BitString("00"), BitString("01"))
        assert sub.entry(0, 0) == 1
        assert sub.entry(0, 1) == 0

    def test_csv_roundtrip_with_undefined(self):
        m = problem_matrix("promise_eq", 2)
        restored = CommMatrix.from_csv(m.to_csv())
        assert restored.rows == m.rows
        assert restored.cols == m.cols
        assert np.array_equal(restored.entries, m.entries)

    def test_csv_symbols(self):
        text = problem_matrix("promise_eq", 2).to_csv()
        body = text.strip().splitlines()[1:]
        symbols = set("".join(line.split(",", 1)[1] for line in body).replace(",", ""))
        assert symbols == {"0", "1", "U"}


class TestProblemMatrix:
    def test_eq_is_identity_pattern(self):
        m = problem_matrix("eq", 2)
        assert np.array_equal(m.entries, np.eye(4, dtype=np.int8))

    def test_disj_n1(self):
        m = problem_matrix("disj", 1)
        assert m.entries.tolist() == [[1, 1], [1, 0]]

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
            return 1 if m == 0 else 0 if margin.low <= m <= margin.high else UNDEFINED

        cases = [("eq", None), ("disj", None)]
        if n % 2 == 0:
            cases.append(("promise_eq", None))
        cases += [
            ("promise_disj", Margin(Fraction(j, n), n)) for j in range(1, n // 4 + 1)
        ]
        size = 1 << n
        for kind, margin in cases:
            want = [
                [cell(kind, x, y, margin) for y in range(size)] for x in range(size)
            ]
            assert problem_matrix(kind, n, margin).entries.tolist() == want


class TestFoolingSet:
    def test_equality_mixed_clique(self):
        # the four diagonal ones conflict pairwise, and cells of opposite
        # value conflict with everything, so the greedy beats the plain
        # diagonal fooling set
        m = problem_matrix("eq", 2)
        found = greedy_fooling_set(m)
        assert len(found) == 6
        assert {(0, 0), (1, 1), (2, 2), (3, 3)} <= set(found)

    def test_promise_disj_band_beats_square_root(self):
        margin = Margin.from_text("1/4", 4)
        m = problem_matrix("promise_disj", 4, margin)
        found = greedy_fooling_set(m)
        assert len(found) >= 2**4

    def test_fooling_pairs_all_yes(self):
        margin = Margin.from_text("1/4", 4)
        pairs = fooling_pairs(margin)
        assert len(pairs) == len(weight_band(margin))
        assert all(y == ~x for x, y in pairs)

    def test_cross_refutation_witness(self):
        margin = Margin.from_text("1/4", 4)
        witness = find_cross_refutation(margin)
        assert witness is not None
        x, z = witness
        assert cross_pair_refutation(x, z, margin) is PromiseLabel.NO


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
        m = problem_matrix("eq", 4)
        with pytest.raises(SearchTooWideError):
            exact_deterministic_cc(m, size_limit=8)

    def test_promise_eq_n4(self):
        assert exact_deterministic_cc(problem_matrix("promise_eq", 4)) == 3

    def test_too_wide_promise_search_refuses(self):
        m = problem_matrix("promise_eq", 6)
        with pytest.raises(SearchTooWideError):
            exact_deterministic_cc(m)


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
        """Rows from the band against complement columns force one
        rectangle per fooling pair."""
        margin = Margin.from_text("1/4", 4)
        band = weight_band(margin)
        m = problem_matrix("promise_disj", 4, margin)
        rows = [m.rows.index(x) for x in band]
        cols = [m.cols.index(~x) for x in band]
        sub = m.submatrix(rows, cols)
        result = min_monochromatic_partition(sub, 1)
        assert result.count == len(band)
        assert verify_partition(sub, 1, result.rectangles)

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

    def test_json_is_sorted(self):
        report = check_rectangle_bound(problem_matrix("eq", 1))
        assert report.to_json() == '{"C0": 2, "C1": 2, "D": 2, "bound_ok": true}'


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
        assert exact_deterministic_cc(m) == _brute_depth(tuple(map(tuple, m.entries.tolist())))

    @pytest.mark.parametrize("kind", ["promise_eq", "promise_disj"])
    def test_promise_submatrices_n4(self, kind):
        # promise disjointness needs n >= 4 for an integer band, so its
        # small cases are 4x4 blocks of the n=4 matrix
        margin = Margin.from_text("1/4", 4) if kind == "promise_disj" else None
        m = problem_matrix(kind, 4, margin)
        rng = random.Random(4)
        for _ in range(5):
            rows, cols = (sorted(rng.sample(range(16), 4)) for _ in range(2))
            sub = m.submatrix(rows, cols)
            grid = tuple(map(tuple, sub.entries.tolist()))
            assert exact_deterministic_cc(sub) == _brute_depth(grid), grid

    def test_random_partial_matrices(self):
        rng = random.Random(7)
        for _ in range(80):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
            grid = tuple(
                tuple(rng.choice((0, 1, UNDEFINED)) for _ in range(n_cols))
                for _ in range(n_rows)
            )
            assert exact_deterministic_cc(_matrix(grid)) == _brute_depth(grid), grid
