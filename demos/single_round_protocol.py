"""One round of the quantum fingerprint protocol on disjointness inputs.

The players share nothing and send a single quantum message. On a Yes
instance (disjoint inputs) the final measurement accepts with certainty.
On a No instance whose intersection holds between a quarter and three
quarters of the positions, acceptance drops to at most 1/4. Between the
spread and the collect every step is a signed permutation: swaps where x
has a 1, sign flips where y has a 1. This script simulates the round,
checks the interference closed form, and prints the acceptance landscape
by overlap size.
"""

import numpy as np

from promisecc import (
    BitString,
    Margin,
    closed_form_accept_probability,
    round_accept_probability,
    round_columns,
    run_protocol,
)
from fractions import Fraction

n = 4
margin = Margin(Fraction(1, 4), n)

# ---------------------------------------------------------------------------
# Acceptance depends only on the overlap m = |x AND y|: p = ((n - 2m)/n)^2.
# Pick one witness pair per overlap size and compare three computations:
# the dense simulation (spread and collect as matrices, signed permutations
# in between, basis measurement of (1, 0)), the integer round (the same
# signed permutations on the integer vector 1^n 0^n; the collect's uniform
# first row sums its low block to S = n - 2m, so p is exactly S^2/n^2), and
# the closed form.
# ---------------------------------------------------------------------------
print(f"single-round acceptance at n={n} (one witness pair per overlap)")
print(f"{'m':>3} {'x':>6} {'y':>6} {'dense':>10} {'S':>3} {'S^2/n^2':>10} {'closed':>10}")
for m in range(n + 1):
    x = BitString((1 << n) - 1, n)  # all ones
    y = BitString((1 << m) - 1, n)  # first m positions shared
    s, dense = (column[0] for column in round_columns([x.value], [y.value], n))
    closed = closed_form_accept_probability(x, y)
    print(f"{m:>3} {x!s:>6} {y!s:>6} {dense:>10.6f} {s:>3} {s * s / n**2:>10.6f} "
          f"{closed:>10.6f}")

# ---------------------------------------------------------------------------
# Exhaustive agreement over every pair, not just witnesses.
# ---------------------------------------------------------------------------
worst = 0.0
for xv in range(1 << n):
    x = BitString(xv, n)
    for yv in range(1 << n):
        y = BitString(yv, n)
        m = (xv & yv).bit_count()
        p = round_accept_probability(x, y)
        worst = max(worst, abs(p - closed_form_accept_probability(x, y)))
print(f"\nmax |dense - closed| over all {4**n} pairs: {worst:.2e}")

# ---------------------------------------------------------------------------
# A full protocol run bundles the simulation with promise bookkeeping.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(7)
report = run_protocol(BitString(0b1010, n), BitString(0b0101, n), margin, 1, rng)
print("\nsample run on a disjoint pair:")
for key, value in vars(report).items():
    print(f"  {key}: {value}")
