"""Property tests for the tuple/bitmask helpers behind the exact searches."""

import random
from itertools import permutations

import numpy as np
from hypothesis import given, strategies as st

from promisecc.bounds import (
    UNDEFINED,
    CommMatrix,
    _balanced_masks,
    _indicator_rank,
    _normalize,
    _tight_rectangles,
    exact_deterministic_cc,
    min_monochromatic_partition,
    verify_partition,
)


@st.composite
def grids(draw, max_side, values=(0, 1, UNDEFINED)):
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    cell = st.sampled_from(values)
    return tuple(
        tuple(draw(cell) for _ in range(n_cols)) for _ in range(n_rows)
    )


def _transpose(grid):
    return tuple(zip(*grid))


def _matrix(grid):
    return CommMatrix(
        rows=tuple(range(len(grid))),
        cols=tuple(range(len(grid[0]))),
        entries=np.array(grid, dtype=np.int8),
    )


def _equivalent(form, grid) -> bool:
    """True iff form is grid after removing duplicate lines and permuting
    rows and columns (checked by brute force)."""
    if len(set(form)) != len(form) or len(set(zip(*form))) != len(form[0]):
        return False
    cols = sorted(set(zip(*grid)))
    if len(cols) != len(form[0]):
        return False
    return any(set(zip(*order)) == set(form) for order in permutations(cols))


@st.composite
def grid_and_variant(draw, shuffle_rows=True, shuffle_cols=True):
    """A grid and a copy with shuffled and duplicated rows and/or columns."""
    grid = draw(grids(4))

    def lines(count, shuffle):
        if not shuffle:
            return list(range(count))
        order = draw(st.permutations(range(count)))
        return order + draw(st.lists(st.sampled_from(order), max_size=2))

    rows = lines(len(grid), shuffle_rows)
    cols = lines(len(grid[0]), shuffle_cols)
    return grid, tuple(tuple(grid[i][j] for j in cols) for i in rows)


class TestCanonical:
    """The protocol search's memo key, :func:`_normalize`."""

    def test_normal_form_is_two_rounds_of_unique_rows_and_columns(self):
        # seeded draws: hypothesis favours the small, simple grids on which
        # a second round changes nothing
        rng = random.Random(3)
        for _ in range(500):
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
            grid = tuple(
                tuple(rng.choice((0, 1, UNDEFINED)) for _ in range(n_cols))
                for _ in range(n_rows)
            )
            a = np.array(grid, dtype=np.int8)
            for _ in range(2):
                a = np.unique(np.unique(a, axis=0), axis=1)
            assert _normalize(grid) == tuple(map(tuple, a.tolist()))

    @given(grid_and_variant(shuffle_cols=False))
    def test_row_shuffles_and_duplicates_keep_the_normal_form(self, pair):
        grid, variant = pair
        assert _normalize(variant) == _normalize(grid)

    @given(grid_and_variant(shuffle_rows=False))
    def test_column_shuffles_and_duplicates_keep_the_transposed_form(self, pair):
        grid, variant = pair
        assert _normalize(_transpose(variant)) == _normalize(_transpose(grid))

    @given(grid_and_variant())
    def test_form_of_a_shuffled_copy_is_equivalent(self, pair):
        # the form is a memo key: sound (it is the same matrix up to dedup
        # and permutation) but not complete, so a shuffled copy may land on
        # a different, equivalent form
        grid, variant = pair
        assert _equivalent(_normalize(variant), grid)

    @given(grid_and_variant())
    def test_depth_ignores_shuffles_and_duplicates(self, pair):
        grid, variant = pair
        assert exact_deterministic_cc(_matrix(variant)) == exact_deterministic_cc(
            _matrix(grid)
        )

    @given(grids(5))
    def test_depth_of_the_transpose_is_the_same(self, grid):
        # the parties swap roles; the memo keeps the two orientations apart
        assert exact_deterministic_cc(_matrix(_transpose(grid))) == exact_deterministic_cc(
            _matrix(grid)
        )


class TestBalancedMasks:
    @given(st.integers(2, 12))
    def test_every_split_once_most_balanced_first(self, count):
        expected = sorted(
            range(1, 1 << (count - 1)), key=lambda m: abs(2 * m.bit_count() - count)
        )
        assert list(_balanced_masks(count)) == expected


class TestIndicatorRank:
    @given(grids(12, values=(0, 1)))
    def test_matches_numpy_rank(self, grid):
        cells = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v]
        assert _indicator_rank(cells) == np.linalg.matrix_rank(np.array(grid))


def _brute_tight_rectangles(grid, value, cells):
    """Scan every (row subset, column subset) pair of the cells' support."""
    rows_used = sorted({r for r, _ in cells})
    cols_used = sorted({c for _, c in cells})
    index = {cell: k for k, cell in enumerate(cells)}
    found = []
    for row_mask in range(1, 1 << len(rows_used)):
        rows = [r for i, r in enumerate(rows_used) if row_mask >> i & 1]
        for col_mask in range(1, 1 << len(cols_used)):
            cols = [c for j, c in enumerate(cols_used) if col_mask >> j & 1]
            block = [(r, c) for r in rows for c in cols]
            if any(grid[r][c] not in (value, UNDEFINED) for r, c in block):
                continue
            covered = [(r, c) for r, c in block if grid[r][c] == value]
            if {r for r, _ in covered} != set(rows) or {c for _, c in covered} != set(cols):
                continue
            found.append((row_mask, col_mask, sum(1 << index[cell] for cell in covered)))
    return rows_used, cols_used, sorted(found)


class TestTightRectangles:
    @given(grids(5), st.sampled_from((0, 1)))
    def test_matches_brute_force_scan(self, grid, value):
        cells = [
            (i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v == value
        ]
        if cells:
            assert _tight_rectangles(grid, value, cells) == _brute_tight_rectangles(
                grid, value, cells
            )


class TestPartitionResults:
    @given(grids(5), st.sampled_from((0, 1)))
    def test_verify_accepts_every_search_result(self, grid, value):
        m = _matrix(grid)
        result = min_monochromatic_partition(m, value)
        assert result.count == len(result.rectangles)
        assert verify_partition(m, value, result.rectangles)
