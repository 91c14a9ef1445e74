"""Exact classical lower bounds on explicit communication matrices.

Everything here works on small partial matrices: entries are 0, 1, or
undefined (the don't-care cells of a promise problem).  Three exact
searches are provided.

* :func:`exact_deterministic_cc` finds the minimum worst-case bit count
  of a two-party protocol whose transcript determines the output, by
  protocol-tree search.  A greedy fooling-set clique gives an admissible
  lower bound and row/column deduplication gives an upper bound, so the
  recursion only runs inside the gap between the two.
* :func:`min_monochromatic_partition` finds the minimum number of
  pairwise disjoint monochromatic rectangles covering the cells of one
  value, by branch-and-bound over closed (tight) rectangles.
* :func:`check_rectangle_bound` ties the two together and asserts the
  rectangle bound D >= max(ceil(log2 C0), ceil(log2 C1)).

The searches run on plain Python data: a sub-matrix is a tuple of row
tuples, row and column sets are int bitmasks, and the rank bound uses
fraction-free integer elimination, so every step is exact.

The fooling-set constructions for promise disjointness (complement pairs
over a weight band, plus crossed-pair refutations) live here as well.
"""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    all_bitstrings,
    classify_disj_promise,
    disj_label,
    eq_label,
    weight_band,
)

UNDEFINED = -1
PROBLEM_KINDS = ("eq", "disj", "promise_eq", "promise_disj")

#: Row/column cap for the protocol-tree search.
MATRIX_SIZE_LIMIT = 64
#: Defined-cell cap for the exact partition search.
PARTITION_CELL_LIMIT = 64
#: Cap on candidate-rectangle enumeration work in the partition search.
_ENUMERATION_LIMIT = 2_000_000
#: Cap on bipartition masks tried per node of the protocol-tree search.
_BIPARTITION_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CommMatrix:
    """Partial two-party matrix: rows are Alice inputs, columns Bob inputs."""

    rows: tuple
    cols: tuple
    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=np.int8)
        if e.shape != (len(self.rows), len(self.cols)):
            raise ValueError("entry grid does not match the label counts")
        if not np.isin(e, (0, 1, UNDEFINED)).all():
            raise ValueError("entries must be 0, 1, or UNDEFINED")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))

    @property
    def shape(self):
        return self.entries.shape

    def entry(self, i: int, j: int) -> int:
        return int(self.entries[int(i), int(j)])

    def defined_cells(self, value=None):
        """Index pairs of defined cells, optionally of one value."""
        if value is None:
            mask = self.entries != UNDEFINED
        else:
            mask = self.entries == value
        return [(int(i), int(j)) for i, j in np.argwhere(mask)]

    def submatrix(self, row_indices, col_indices) -> "CommMatrix":
        ri = list(row_indices)
        ci = list(col_indices)
        return CommMatrix(
            rows=tuple(self.rows[i] for i in ri),
            cols=tuple(self.cols[j] for j in ci),
            entries=self.entries[np.ix_(ri, ci)],
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [str(c) for c in self.cols])
        symbols = {0: "0", 1: "1", UNDEFINED: "U"}
        for i, r in enumerate(self.rows):
            writer.writerow([str(r)] + [symbols[int(v)] for v in self.entries[i]])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "CommMatrix":
        """Inverse of to_csv; binary labels come back as BitString values."""
        reader = list(csv.reader(io.StringIO(text)))
        if not reader or len(reader[0]) < 2:
            raise ValueError("matrix CSV needs a header row of column labels")
        cols = tuple(_parse_label(c) for c in reader[0][1:])
        rows, grid = [], []
        values = {"0": 0, "1": 1, "U": UNDEFINED}
        for line in reader[1:]:
            if not line:
                continue
            rows.append(_parse_label(line[0]))
            try:
                grid.append([values[cell] for cell in line[1:]])
            except KeyError as exc:
                raise ValueError(f"bad matrix cell {exc.args[0]!r}") from None
        return CommMatrix(rows=tuple(rows), cols=cols, entries=np.array(grid))


def _parse_label(text: str):
    if text and set(text) <= {"0", "1"}:
        return BitString(text)
    return text


_ENTRY = {PromiseLabel.YES: 1, PromiseLabel.NO: 0, PromiseLabel.OUTSIDE: UNDEFINED}


def problem_matrix(kind: str, n: int, margin: Margin | None = None) -> CommMatrix:
    """Matrix of one of the four problems over all length-n inputs.

    An entry depends only on the popcount of ``x ^ y`` (equality) or
    ``x & y`` (disjointness), so the promise rule is evaluated once per
    count 0..n and the matrix is read from that table.
    """
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if not 1 <= n <= 10:
        raise ValueError("matrix construction supports 1 <= n <= 10")
    counts = range(n + 1)
    if kind == "promise_eq":
        if n % 2:
            raise ValueError("promise equality needs even n")
        labels = [eq_label(c, n) for c in counts]
    elif kind == "promise_disj":
        if margin is None:
            raise ValueError("promise disjointness needs a margin")
        if margin.n != n:
            raise ValueError("margin length does not match n")
        labels = [disj_label(c, margin.low, margin.high) for c in counts]
    else:
        # the total problems: count 0 is YES, every other count NO
        labels = [PromiseLabel.YES] + [PromiseLabel.NO] * n
    by_count = np.array([_ENTRY[label] for label in labels], dtype=np.int8)
    by_value = by_count[[v.bit_count() for v in range(1 << n)]]
    values = np.arange(1 << n)
    if kind in ("eq", "promise_eq"):
        pairs = values[:, None] ^ values[None, :]
    else:
        pairs = values[:, None] & values[None, :]
    words = tuple(all_bitstrings(n))
    return CommMatrix(rows=words, cols=words, entries=by_value[pairs])


# ---------------------------------------------------------------------------
# fooling sets
# ---------------------------------------------------------------------------

def _cells_conflict(grid, a, b) -> bool:
    """True iff the two defined cells cannot share one monochromatic leaf."""
    r1, c1, v1 = a
    r2, c2, v2 = b
    if v1 != v2:
        return True
    return not (
        grid[r1][c2] in (v1, UNDEFINED) and grid[r2][c1] in (v1, UNDEFINED)
    )


def _greedy_clique(grid, ordered_cells):
    chosen = []
    for cell in ordered_cells:
        if all(_cells_conflict(grid, cell, c) for c in chosen):
            chosen.append(cell)
    return chosen


def _bitstring_labels(m: CommMatrix) -> bool:
    return (
        all(isinstance(r, BitString) for r in m.rows)
        and all(isinstance(c, BitString) for c in m.cols)
        and len({r.n for r in m.rows} | {c.n for c in m.cols}) == 1
    )


def greedy_fooling_set(m: CommMatrix):
    """A pairwise-conflicting set of defined cells, greedily grown.

    Several scan orders are tried and the largest result kept; any such
    set lower-bounds the leaf count of every correct protocol tree.
    """
    grid = m.entries.tolist()
    cells = [
        (i, j, grid[i][j])
        for i in range(len(grid))
        for j in range(len(grid[0]))
        if grid[i][j] != UNDEFINED
    ]
    orders = [
        cells,
        sorted(cells, key=lambda c: (c[2], c[0], c[1])),
        sorted(cells, key=lambda c: (-c[2], c[0], c[1])),
    ]
    if _bitstring_labels(m):
        # complementary pairs conflict with each other densely, so scan
        # them first, then diagonal cells, then the rest
        def structure(cell):
            i, j, _ = cell
            x, y = m.rows[i], m.cols[j]
            if y == ~x:
                return 0
            if y == x:
                return 1
            return 2

        orders.insert(0, sorted(cells, key=lambda c: (structure(c), c[0], c[1])))
    best = []
    for order in orders:
        found = _greedy_clique(grid, order)
        if len(found) > len(best):
            best = found
    return [(r, c) for r, c, _ in best]


def fooling_pairs(margin: Margin):
    """Complement pairs (x, ~x) over the weight band; all Yes instances."""
    return [(x, ~x) for x in weight_band(margin)]


def cross_pair_refutation(x: BitString, z: BitString, margin: Margin) -> PromiseLabel:
    """Label of the crossed pair (z, ~x) for two band members x and z."""
    return classify_disj_promise(z, ~x, margin)


def find_cross_refutation(margin: Margin):
    """First pair of band members whose crossed pair is a No instance."""
    band = weight_band(margin)
    for x in band:
        for z in band:
            if z == x:
                continue
            if cross_pair_refutation(x, z, margin) is PromiseLabel.NO:
                return x, z
    return None


# ---------------------------------------------------------------------------
# exact deterministic communication complexity
# ---------------------------------------------------------------------------

def _normalize(sub: tuple) -> tuple:
    """Deduplicate and sort rows and columns to a stable normal form."""
    for _ in range(2):
        sub = sorted(set(sub))
        sub = list(zip(*sorted(set(zip(*sub)))))
    return tuple(sub)


def _canonical(sub: tuple) -> tuple:
    """Normal form up to row/col dedup, permutation, and transposition.

    Of the two orientations the one first in (shape, int8 bytes) order is
    kept; in those bytes UNDEFINED is 0xFF, so it sorts after 0 and 1.
    The form is a sound memo key, not a complete one: a shuffled copy can
    land on a different but equivalent form, which costs only a memo miss.
    """
    a = _normalize(sub)
    b = _normalize(tuple(zip(*sub)))
    shape_a, shape_b = (len(a), len(a[0])), (len(b), len(b[0]))
    if shape_a != shape_b:
        return a if shape_a < shape_b else b
    for row_a, row_b in zip(a, b):
        if row_a != row_b:
            for x, y in zip(row_a, row_b):
                if x != y:
                    return a if x & 0xFF < y & 0xFF else b
    return a


def _is_constant(sub: tuple) -> bool:
    values = {v for row in sub for v in row}
    values.discard(UNDEFINED)
    return len(values) <= 1


class SearchTooWideError(ValueError):
    """An exact search would pass one of its size caps."""


def _balanced_masks(count: int):
    """Masks over lines 1..count-1, the most balanced splits first.

    Generated one balance class at a time: a sorted list of all 2^15 masks
    of a 16-line side would hold about 1 MB for the whole search.
    """
    for imbalance in range(count % 2, count, 2):
        for mask in range(1, 1 << (count - 1)):
            if abs(2 * mask.bit_count() - count) == imbalance:
                yield mask


class _ProtocolSearch:
    """Budgeted protocol-tree search with memoized sub-rectangles."""

    def __init__(self):
        self.solvable_memo = {}
        self.node_info = {}
        self.shared_rows = {}

    def _info(self, sub):
        cached = self.node_info.get(sub)
        if cached is not None:
            return cached
        constant = _is_constant(sub)
        if constant:
            info = (True, 0, 0)
        else:
            cells = [
                (i, j, v)
                for i, row in enumerate(sub)
                for j, v in enumerate(row)
                if v != UNDEFINED
            ]
            fool = max(
                len(_greedy_clique(sub, cells)),
                len(_greedy_clique(sub, sorted(cells, key=lambda c: (c[2], c[0], c[1])))),
            )
            lower = max(1, ceil(log2(fool)))
            upper = 1 + min(ceil(log2(len(sub))), ceil(log2(len(sub[0]))))
            info = (False, lower, upper)
        # stored forms share most rows, so keep one copy of each
        self.node_info[tuple(self.shared_rows.setdefault(row, row) for row in sub)] = info
        return info

    def solvable(self, sub: tuple, budget: int) -> bool:
        sub = _canonical(sub)
        constant, lower, upper = self._info(sub)
        if constant:
            return True
        if budget >= upper:
            return True
        if budget < lower:
            return False
        memo_key = (sub, budget)
        cached = self.solvable_memo.get(memo_key)
        if cached is not None:
            return cached
        result = self._branch(sub, budget)
        self.solvable_memo[memo_key] = result
        return result

    def _branch(self, sub: tuple, budget: int) -> bool:
        # one bit from either player splits that player's side in two
        skipped_wide = False
        for side in (sub, tuple(zip(*sub))):
            count = len(side)
            if count < 2:
                continue
            if 1 << (count - 1) > _BIPARTITION_LIMIT:
                skipped_wide = True
                continue
            for mask in _balanced_masks(count):
                # bit i of `mask << 1` puts line i in the first part, so
                # line 0 always stays in the second
                part = mask << 1
                first = tuple(line for i, line in enumerate(side) if part >> i & 1)
                second = tuple(line for i, line in enumerate(side) if not part >> i & 1)
                if self.solvable(first, budget - 1) and self.solvable(
                    second, budget - 1
                ):
                    return True
        if skipped_wide:
            # without the wide side the failure to split is inconclusive
            raise SearchTooWideError(
                "protocol search would enumerate over "
                f"{_BIPARTITION_LIMIT} bipartitions"
            )
        return False


def exact_deterministic_cc(m: CommMatrix, size_limit: int = MATRIX_SIZE_LIMIT) -> int:
    """Minimum worst-case bits of a protocol whose transcript fixes the output.

    Announcing the answer counts toward the cost, so a nonconstant matrix
    never comes out below 1 and equality over n bits costs n+1.
    """
    n_rows, n_cols = m.shape
    if n_rows > size_limit or n_cols > size_limit:
        raise SearchTooWideError(
            f"matrix {n_rows}x{n_cols} exceeds the search limit {size_limit}"
        )
    if n_rows == 0 or n_cols == 0:
        return 0
    grid = tuple(map(tuple, m.entries.tolist()))
    if _is_constant(grid):
        return 0
    search = _ProtocolSearch()
    canon = _canonical(grid)
    _, lower, upper = search._info(canon)
    # the label-aware greedy usually beats the plain scans, so seed the
    # deepening with whichever clique came out larger
    lower = max(lower, ceil(log2(len(greedy_fooling_set(m)))))
    if all(UNDEFINED not in row for row in grid):
        # a depth-d tree has at most 2^d transcripts, whose rectangles
        # partition the matrix into constant pieces, so 2^d is at least
        # the rank of the one-cells plus the rank of the zero-cells
        rank_sum = sum(
            _indicator_rank(cells)
            for cells in (m.defined_cells(1), m.defined_cells(0))
            if cells
        )
        lower = max(lower, ceil(log2(rank_sum)))
    depth = lower
    while depth < upper and not search.solvable(canon, depth):
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# minimum monochromatic partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Product set of row and column indices into a matrix."""

    row_indices: tuple
    col_indices: tuple

    def __post_init__(self):
        if not self.row_indices or not self.col_indices:
            raise ValueError("rectangles must be nonempty")
        object.__setattr__(self, "row_indices", tuple(sorted(self.row_indices)))
        object.__setattr__(self, "col_indices", tuple(sorted(self.col_indices)))

    def cells(self):
        return [(r, c) for r in self.row_indices for c in self.col_indices]


@dataclass(frozen=True)
class PartitionResult:
    count: int
    rectangles: tuple


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tight_rectangles(entries, value, cells):
    """All closed allowed rectangles: every row and column carries a covered
    cell and the enclosed defined cells are exactly the covered set."""
    rows_used = sorted({r for r, _ in cells})
    cols_used = sorted({c for _, c in cells})
    if len(rows_used) > 16 or len(cols_used) > 16:
        raise SearchTooWideError("row/column support too large for the exact search")
    cell_index = {cell: k for k, cell in enumerate(cells)}
    # per used row: usable columns (value or undefined), value columns, and
    # the cell index behind each value column
    ok_cols = []
    val_cols = []
    cell_at = []
    for r in rows_used:
        ok = val = 0
        at = {}
        for j, c in enumerate(cols_used):
            e = entries[r][c]
            if e in (value, UNDEFINED):
                ok |= 1 << j
            if e == value:
                val |= 1 << j
                at[j] = cell_index[(r, c)]
        ok_cols.append(ok)
        val_cols.append(val)
        cell_at.append(at)
    rects = []
    work = 0
    for row_mask in range(1, 1 << len(rows_used)):
        picked_rows = list(_iter_bits(row_mask))
        allowed = (1 << len(cols_used)) - 1
        for i in picked_rows:
            allowed &= ok_cols[i]
        if allowed == 0:
            continue
        work += 1 << allowed.bit_count()
        if work > _ENUMERATION_LIMIT:
            raise SearchTooWideError("candidate rectangle enumeration too large")
        col_mask = allowed
        while col_mask:
            # tight: every picked row hits a value column of col_mask, and
            # together they hit all of them
            hit_cols = 0
            for i in picked_rows:
                hits = val_cols[i] & col_mask
                if not hits:
                    break
                hit_cols |= hits
            else:
                if hit_cols == col_mask:
                    cover = 0
                    for i in picked_rows:
                        for j in _iter_bits(val_cols[i] & col_mask):
                            cover |= 1 << cell_at[i][j]
                    rects.append((row_mask, col_mask, cover))
            col_mask = (col_mask - 1) & allowed
    rects.sort()
    return rows_used, cols_used, rects


def min_monochromatic_partition(
    m: CommMatrix, value: int, max_cells: int = PARTITION_CELL_LIMIT
) -> PartitionResult:
    """Minimum number of disjoint monochromatic rectangles covering all
    cells of the given value; rectangles may absorb undefined cells but
    never overlap each other.
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    cells = m.defined_cells(value)
    if not cells:
        return PartitionResult(0, ())
    if len(cells) > max_cells:
        raise SearchTooWideError(
            f"{len(cells)} cells exceed the partition search limit {max_cells}"
        )
    entries = m.entries.tolist()
    rows_used, cols_used, rects = _tight_rectangles(entries, value, cells)
    full = (1 << len(cells)) - 1
    by_cell = [[] for _ in cells]
    for idx, (_, _, cover) in enumerate(rects):
        for k in _iter_bits(cover):
            by_cell[k].append(idx)
    for options in by_cell:
        options.sort(key=lambda idx: -rects[idx][2].bit_count())

    undefined_inside = any(
        entries[r][c] == UNDEFINED for r in rows_used for c in cols_used
    )
    best_pick = _partition_search(
        entries, value, cells, rects, by_cell, full, strict=undefined_inside
    )
    rectangles = tuple(
        Rectangle(
            row_indices=tuple(rows_used[i] for i in _iter_bits(rects[idx][0])),
            col_indices=tuple(cols_used[j] for j in _iter_bits(rects[idx][1])),
        )
        for idx in best_pick
    )
    return PartitionResult(count=len(best_pick), rectangles=rectangles)


def _partition_clique_mask(entries, value, cells) -> int:
    """Cells that pairwise cannot share an allowed rectangle, as a mask.

    Each such cell forces its own rectangle, an admissible pruning bound.
    """
    tagged = [(r, c, value) for r, c in cells]
    orders = [
        tagged,
        sorted(tagged, key=lambda t: (t[1], t[0])),
        list(reversed(tagged)),
    ]
    best = []
    for order in orders:
        found = _greedy_clique(entries, order)
        if len(found) > len(best):
            best = found
    index = {cell: k for k, cell in enumerate(cells)}
    mask = 0
    for r, c, _ in best:
        mask |= 1 << index[(r, c)]
    return mask


def _stripe_seeds(rects):
    """Single-row and single-column covers; always valid partitions."""
    row_best = {}
    col_best = {}
    for idx, (rm, cm, cover) in enumerate(rects):
        if rm & (rm - 1) == 0:
            held = row_best.get(rm)
            if held is None or cover.bit_count() > rects[held][2].bit_count():
                row_best[rm] = idx
        if cm & (cm - 1) == 0:
            held = col_best.get(cm)
            if held is None or cover.bit_count() > rects[held][2].bit_count():
                col_best[cm] = idx
    return [sorted(row_best.values()), sorted(col_best.values())]


def _partition_search(entries, value, cells, rects, by_cell, full, strict) -> list:
    """Exact minimum via branch and bound seeded with greedy covers.

    With undefined cells in play (strict), overlap through those cells must
    be checked against every picked rectangle and covered-set memoization is
    unsound, so it is disabled; such instances stay small in practice.
    """

    def compatible(idx: int, picked: list) -> bool:
        if not strict:
            return True
        rm, cm, _ = rects[idx]
        for other in picked:
            orm, ocm, _ = rects[other]
            if (rm & orm) and (cm & ocm):
                return False
        return True

    best_pick: list = []
    best_count = full.bit_count() + 1
    for seed in _stripe_seeds(rects) + [
        _greedy_partition(rects, by_cell, full, compatible)
    ]:
        if seed is not None and len(seed) < best_count:
            best_pick = seed
            best_count = len(seed)

    clique_mask = _partition_clique_mask(entries, value, cells)
    lower = max(1, clique_mask.bit_count())
    if best_count <= lower:
        return best_pick
    if not strict:
        # a disjoint partition writes the cell indicator as a sum of
        # rank-one matrices, one per rectangle, so its size is at least
        # the real rank of the indicator
        lower = max(lower, _indicator_rank(cells))
        if best_count <= lower:
            return best_pick

    seen: dict = {}

    def descend(covered: int, picked: list):
        nonlocal best_count, best_pick
        if covered == full:
            if len(picked) < best_count:
                best_count = len(picked)
                best_pick = list(picked)
            return
        remaining = (clique_mask & ~covered & full).bit_count()
        if len(picked) + max(1, remaining) >= best_count:
            return
        if not strict:
            prev = seen.get(covered)
            if prev is not None and prev <= len(picked):
                return
            seen[covered] = len(picked)
        k = next(_iter_bits(~covered & full))
        for idx in by_cell[k]:
            if rects[idx][2] & covered == 0 and compatible(idx, picked):
                picked.append(idx)
                descend(covered | rects[idx][2], picked)
                picked.pop()

    descend(0, [])
    return best_pick


def _indicator_rank(cells) -> int:
    """Exact real rank of the 0/1 matrix marking the given cells.

    Fraction-free (Bareiss) elimination on Python ints keeps every step
    exact: each division by the previous pivot leaves no remainder.
    """
    rows_used = sorted({r for r, _ in cells})
    cols_used = sorted({c for _, c in cells})
    row_pos = {r: i for i, r in enumerate(rows_used)}
    col_pos = {c: j for j, c in enumerate(cols_used)}
    grid = [[0] * len(cols_used) for _ in rows_used]
    for r, c in cells:
        grid[row_pos[r]][col_pos[c]] = 1
    rank = 0
    prev = 1
    for c in range(len(cols_used)):
        pivot = next((i for i in range(rank, len(grid)) if grid[i][c]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        top = grid[rank]
        lead = top[c]
        for i in range(rank + 1, len(grid)):
            row = grid[i]
            factor = row[c]
            grid[i] = [(lead * a - factor * b) // prev for a, b in zip(row, top)]
        prev = lead
        rank += 1
        if rank == len(grid):
            break
    return rank


def _greedy_partition(rects, by_cell, full, compatible):
    """A valid partition by largest-cover-first, or None if greedy dead-ends.

    Used only to seed the exact search with an upper bound.
    """
    covered, picked = 0, []
    while covered != full:
        k = next(_iter_bits(~covered & full))
        for idx in by_cell[k]:
            if rects[idx][2] & covered == 0 and compatible(idx, picked):
                picked.append(idx)
                covered |= rects[idx][2]
                break
        else:
            return None
    return picked


def verify_partition(m: CommMatrix, value: int, rectangles) -> bool:
    """Independent scan: monochromatic, pairwise disjoint, exact cover."""
    seen = set()
    for rect in rectangles:
        for r, c in rect.cells():
            e = int(m.entries[r, c])
            if e not in (value, UNDEFINED):
                return False
            if (r, c) in seen:
                return False
            seen.add((r, c))
    target = {(r, c) for r, c in m.defined_cells(value)}
    return target <= seen


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectangleBoundReport:
    depth: int | None
    zero_partition: int | None
    one_partition: int | None
    holds: bool | None

    def to_record(self) -> dict:
        return {
            "D": self.depth,
            "C0": self.zero_partition,
            "C1": self.one_partition,
            "bound_ok": self.holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)


def check_rectangle_bound(m: CommMatrix) -> RectangleBoundReport:
    """Compute D, C0, C1 and verify D >= max(ceil(log2 C0), ceil(log2 C1)).

    A quantity beyond its search cap is reported as None.  The verdict is
    False when a known count refutes the bound, and None when D or either
    count is unknown and nothing refutes it.
    """
    try:
        depth = exact_deterministic_cc(m)
    except SearchTooWideError:
        depth = None
    counts = {}
    for value in (0, 1):
        try:
            result = min_monochromatic_partition(m, value)
        except SearchTooWideError:
            counts[value] = None
            continue
        if not verify_partition(m, value, result.rectangles):
            raise AssertionError("partition search returned an invalid cover")
        counts[value] = result.count
    needed = [ceil(log2(c)) for c in counts.values() if c]
    if depth is None:
        holds = None
    elif depth < max(needed, default=0):
        holds = False
    else:
        # true only when every count was compared, never by default
        holds = None if None in counts.values() else True
    return RectangleBoundReport(
        depth=depth,
        zero_partition=counts[0],
        one_partition=counts[1],
        holds=holds,
    )
