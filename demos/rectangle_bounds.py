"""Exact communication bounds from matrices, rectangles, and rank.

For each problem a matrix over the promise inputs is built (with holes
where the promise excludes a pair). A protocol-tree search computes the
exact deterministic cost D, a cover search computes the smallest
partitions of the 1s and 0s into monochromatic rectangles, and fooling
sets bound the partitions from below. The script walks these on the
smallest instances, then shows the complement-pair family of promise
disjointness and a crossed pair that is a No instance.
"""

from fractions import Fraction
from itertools import combinations

from promisecc import (
    Margin,
    PromiseLabel,
    all_bitstrings,
    check_rectangle_bound,
    classify_disj_promise,
    exact_deterministic_cc,
    intersection_size,
    min_monochromatic_partition,
    problem_matrix,
)

# ---------------------------------------------------------------------------
# Total problems first: equality and disjointness need n + 1 bits exactly.
# check_rectangle_bound bundles D with the partition counts C1 and C0 and
# confirms D >= ceil(log2 C) for both colors.
# ---------------------------------------------------------------------------
print("exact costs and partition counts")
print(f"{'problem':>10} {'n':>3} {'D':>5} {'C1':>5} {'C0':>5} {'bound':>6}")
for kind in ("eq", "disj"):
    for n in (1, 2, 3):
        matrix = problem_matrix(kind, n)
        report = check_rectangle_bound(matrix)
        print(f"{kind:>10} {n:>3} {report.depth!s:>5} "
              f"{report.one_partition!s:>5} {report.zero_partition!s:>5} "
              f"{report.holds!s:>6}")

# ---------------------------------------------------------------------------
# Promise matrices have undefined cells; rectangles may spill into them
# but the partition only needs to cover the defined cells of one color.
# ---------------------------------------------------------------------------
matrix = problem_matrix("promise_eq", 2)
ones = min_monochromatic_partition(matrix, 1)
zeros = min_monochromatic_partition(matrix, 0)
print(f"\npromise equality n=2: D={exact_deterministic_cc(matrix)}, "
      f"C1={len(ones.rectangles)}, C0={len(zeros.rectangles)}")
for rect in ones.rectangles:
    rows = [matrix.rows[i] for i in rect.row_indices]
    cols = [matrix.cols[j] for j in rect.col_indices]
    print(f"  1-rectangle rows={[str(r) for r in rows]} "
          f"cols={[str(c) for c in cols]}")

# ---------------------------------------------------------------------------
# Fooling sets bound the partitions from below: ones that no 1-rectangle
# can share. On equality any two diagonal ones cross to zeros, so the
# 2^n diagonal cells need 2^n rectangles, which the search matches.
# ---------------------------------------------------------------------------
matrix = problem_matrix("eq", 2)
size = len(matrix.rows)
fooling = all(matrix.entries[i, j] == 0
              for i in range(size) for j in range(size) if i != j)
print(f"\nequality n=2: diagonal is a fooling set: {fooling} -> C1 >= {size}; "
      f"search: C1 = {min_monochromatic_partition(matrix, 1).count}")

# ---------------------------------------------------------------------------
# The complement-pair family of promise disjointness: every (x, ~x) with
# x in the middle weight band is a Yes instance. Two members can share no
# 1-rectangle when a crossed pair such as (z, ~x) is a No instance. At
# n=4 every two members cross that way, so the family is a fooling set;
# at n=8 some do not, so only part of the family is one.
# ---------------------------------------------------------------------------
print("\ncomplement-pair family")
for n in (4, 8):
    margin = Margin(Fraction(1, 4), n)

    def label(x, y):
        return classify_disj_promise(x, y, margin)

    # (x, x) overlaps in |x|, so it is a No instance iff x is in the band
    band = [x for x in all_bitstrings(n) if label(x, x) is PromiseLabel.NO]
    all_yes = all(label(x, ~x) is PromiseLabel.YES for x in band)
    members = list(combinations(band, 2))
    crossed = sum(PromiseLabel.NO in (label(z, ~x), label(x, ~z)) for x, z in members)
    print(f"  n={n}: {len(band)} pairs, all Yes: {all_yes}; "
          f"{crossed} of {len(members)} member pairs cross to a No instance")
    x, z = next((x, z) for x, z in members if label(z, ~x) is PromiseLabel.NO)
    print(f"    e.g. ({x},{~x}) and ({z},{~z}): ({z},{~x}) overlaps in "
          f"{intersection_size(z, ~x)} -> {label(z, ~x).value}")
