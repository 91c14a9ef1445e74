"""Exact classical lower bounds on explicit communication matrices.

Everything here works on small partial matrices: entries are 0, 1, or
undefined (the don't-care cells of a promise problem).  Three exact
searches are provided.

* :func:`exact_deterministic_cc` finds the minimum worst-case bit count
  of a two-party protocol whose transcript determines the output, by
  protocol-tree search.  A greedy fooling-set clique gives an admissible
  lower bound and row/column deduplication gives an upper bound, so the
  recursion only runs inside the gap between the two.  Nodes with a
  budget of zero or one bit are settled directly, without the normal
  form: zero bits need a constant node, one bit a node whose rows or
  whose columns are each constant.
* :func:`min_monochromatic_partition` finds the minimum number of
  pairwise disjoint monochromatic rectangles covering the cells of one
  value, by branch-and-bound over closed (tight) rectangles.  Candidate
  row sets are grown depth first and dropped as soon as no column is
  usable for all of them.
* :func:`check_rectangle_bound` ties the two together and asserts the
  rectangle bound D >= max(ceil(log2 C0), ceil(log2 C1)).

Everything runs on plain Python data, without numpy: a matrix's entries
and every sub-matrix are a tuple of row tuples of ints, row and column
sets are int bitmasks, and the rank bound uses fraction-free integer
elimination, so every step is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2

from .bits import (
    Margin,
    Promise,
    PromiseLabel,
    all_bitstrings,
    # not called here; perfbench/tracer.py wraps bounds.classify_disj_promise
    classify_disj_promise,
)

UNDEFINED = -1
#: Each problem by kind: whether its count is the overlap (else the
#: distance), and its margin lam (see ``Promise.from_margin``); None takes
#: the margin given.
PROBLEMS = {
    "eq": (False, Fraction(0)),
    "disj": (True, Fraction(0)),
    "promise_eq": (False, Fraction(1, 2)),
    "promise_disj": (True, None),
}

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
    """Partial two-party matrix: rows are Alice inputs, columns Bob inputs.

    ``entries`` is given as any grid of rows and kept as a tuple of row
    tuples of ints: ``entries[r][c]`` is the cell of row r and column c.
    """

    rows: tuple
    cols: tuple
    entries: tuple

    def __post_init__(self):
        entries = tuple(map(tuple, self.entries))
        if len(entries) != len(self.rows) or any(len(r) != len(self.cols) for r in entries):
            raise ValueError("entry grid does not match the label counts")
        if not {v for row in entries for v in row} <= {0, 1, UNDEFINED}:
            raise ValueError("entries must be 0, 1, or UNDEFINED")
        entries = tuple(tuple(map(int, row)) for row in entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))

    @property
    def shape(self):
        return len(self.rows), len(self.cols)

    def defined_cells(self, value: int):
        """Index pairs of the cells holding value, row by row."""
        return [
            (i, j) for i, row in enumerate(self.entries)
            for j, v in enumerate(row) if v == value
        ]


_ENTRY = {PromiseLabel.YES: 1, PromiseLabel.NO: 0, PromiseLabel.OUTSIDE: UNDEFINED}


def problem_matrix(kind: str, n: int, margin: Margin | None = None) -> CommMatrix:
    """Matrix of one of the :data:`PROBLEMS` over all length-n inputs.

    An entry depends only on the popcount of ``x ^ y`` (equality) or
    ``x & y`` (disjointness), so each problem is a :class:`Promise` and the
    matrix is its :meth:`Promise.grid` of labels, each read as an entry.
    A problem with no NO count at n is refused.
    """
    if kind not in PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if not 1 <= n <= 10:
        raise ValueError("matrix construction supports 1 <= n <= 10")
    overlap, lam = PROBLEMS[kind]
    if lam is None:
        if margin is None:
            raise ValueError("promise disjointness needs a margin")
        if margin.n != n:
            raise ValueError("margin length does not match n")
        lam = margin.fraction
    promise = Promise.from_margin(n, overlap, lam)
    if PromiseLabel.NO not in promise.labels:
        raise ValueError(f"{kind} has no NO count at n={n}")
    entries = tuple(tuple(map(_ENTRY.__getitem__, row)) for row in promise.grid())
    words = tuple(all_bitstrings(n))
    return CommMatrix(rows=words, cols=words, entries=entries)


# ---------------------------------------------------------------------------
# conflicting cells
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


def _greedy_clique(grid, orders):
    """Largest pairwise-conflicting cell set grown greedily along each scan
    order; the first order wins ties."""
    best = []
    for order in orders:
        chosen = []
        for cell in order:
            if all(_cells_conflict(grid, cell, c) for c in chosen):
                chosen.append(cell)
        if len(chosen) > len(best):
            best = chosen
    return best


# ---------------------------------------------------------------------------
# exact deterministic communication complexity
# ---------------------------------------------------------------------------

def _normalize(sub: tuple) -> tuple:
    """Deduplicate and sort rows and columns, the protocol search's memo
    key: the same matrix up to duplicate lines and line order."""
    for _ in range(2):
        sub = sorted(set(sub))
        sub = list(zip(*sorted(set(zip(*sub)))))
    return tuple(sub)


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
        if _is_constant(sub):
            info = (0, 0)
        else:
            cells = [
                (i, j, v)
                for i, row in enumerate(sub)
                for j, v in enumerate(row)
                if v != UNDEFINED
            ]
            fool = len(_greedy_clique(sub, (cells,)))
            lower = max(1, ceil(log2(fool)))
            upper = 1 + min(ceil(log2(len(sub))), ceil(log2(len(sub[0]))))
            info = (lower, upper)
        # stored forms share most rows, so keep one copy of each
        self.node_info[tuple(self.shared_rows.setdefault(row, row) for row in sub)] = info
        return info

    def solvable(self, sub: tuple, budget: int) -> bool:
        """True iff some protocol of at most budget bits solves sub.

        Budgets 0 and 1 are settled on the raw sub, before the normal form
        and the clique bound: with no bit the sub must be constant, and
        with one bit a party names the value of its own line, so every row
        or every column must be constant (ignoring UNDEFINED).  That is
        exactly what splitting one side into two constant parts finds.
        """
        if budget == 0:
            return _is_constant(sub)
        if budget == 1:
            return any(
                all(_is_constant((line,)) for line in side) for side in (sub, zip(*sub))
            )
        sub = _normalize(sub)
        lower, upper = self._info(sub)
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


def exact_deterministic_cc(m: CommMatrix) -> int:
    """Minimum worst-case bits of a protocol whose transcript fixes the output.

    Announcing the answer counts toward the cost, so a nonconstant matrix
    never comes out below 1 and equality over n bits costs n+1.  A side
    longer than MATRIX_SIZE_LIMIT raises SearchTooWideError.
    """
    n_rows, n_cols = m.shape
    if n_rows > MATRIX_SIZE_LIMIT or n_cols > MATRIX_SIZE_LIMIT:
        raise SearchTooWideError(
            f"matrix {n_rows}x{n_cols} exceeds the search limit {MATRIX_SIZE_LIMIT}"
        )
    search = _ProtocolSearch()
    # budgets below the root's clique bound fail without a branch, and
    # its dedup bound ends the loop
    depth = 0
    while not search.solvable(m.entries, depth):
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


def _live_row_sets(ok_cols, allowed, row_mask=0, picked_rows=(), start=0):
    """Row sets with a usable column, depth first, each with its mask of
    usable columns.  Adding rows only shrinks the mask, so a set is
    extended, by later rows only, while its mask is nonzero."""
    for r in range(start, len(ok_cols)):
        narrowed = allowed & ok_cols[r]
        if narrowed:
            mask = row_mask | 1 << r
            rows = picked_rows + (r,)
            yield mask, rows, narrowed
            yield from _live_row_sets(ok_cols, narrowed, mask, rows, r + 1)


def _tight_rectangles(entries, value, cells):
    """All closed allowed rectangles: every row and column carries a covered
    cell and the enclosed defined cells are exactly the covered set.

    A row set with no usable column, which :func:`_live_row_sets` skips,
    holds no rectangle and adds nothing to the work count, so the
    rectangles and every _ENUMERATION_LIMIT refusal are those of a scan
    over all row sets.
    """
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
    full = (1 << len(cols_used)) - 1
    for row_mask, picked_rows, allowed in _live_row_sets(ok_cols, full):
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


def min_monochromatic_partition(m: CommMatrix, value: int) -> PartitionResult:
    """Minimum number of disjoint monochromatic rectangles covering all
    cells of the given value; rectangles may absorb undefined cells but
    never overlap each other.  More than PARTITION_CELL_LIMIT such cells
    raise SearchTooWideError.
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    cells = m.defined_cells(value)
    if not cells:
        return PartitionResult(0, ())
    if len(cells) > PARTITION_CELL_LIMIT:
        raise SearchTooWideError(
            f"{len(cells)} cells exceed the partition search limit"
            f" {PARTITION_CELL_LIMIT}"
        )
    entries = m.entries
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
    orders = (
        tagged,
        sorted(tagged, key=lambda t: (t[1], t[0])),
        tagged[::-1],
    )
    index = {cell: k for k, cell in enumerate(cells)}
    mask = 0
    for r, c, _ in _greedy_clique(entries, orders):
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
            e = m.entries[r][c]
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
