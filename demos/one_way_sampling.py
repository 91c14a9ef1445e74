"""Classical one-way protocol: sample positions of x, look them up in y.

The sender transmits k indices drawn from the 1-positions of x (or the
whole input verbatim when it has fewer than k ones). Disjoint pairs are
never misclassified; an intersecting pair escapes detection with
probability (1 - m/h)^k for overlap m and weight h. The script traces
the exact error as k grows and checks a Monte Carlo estimate against it.
"""

import math

import numpy as np

from promisecc import (
    BitString,
    detection_frequency,
    exact_detection_probability,
    positions_count,
    run_one_way,
)
from fractions import Fraction

n = 8
x = BitString(0b11111100, n)  # weight 6
y = BitString(0b00000111, n)  # overlaps x in two positions

# ---------------------------------------------------------------------------
# Exact detection probability as the number of sampled positions grows.
# ---------------------------------------------------------------------------
print(f"x={x} y={y}: overlap 2 of weight 6")
print(f"{'k':>3} {'p_detect':>10} {'p_miss':>10}")
for k in range(1, 9):
    p = exact_detection_probability(x, y, k)
    print(f"{k:>3} {p:>10.6f} {1 - p:>10.6f}")

k = positions_count(Fraction(1, 4), Fraction(1, 3))
print(f"\npositions needed for error 1/3 at lambda=1/4: k={k}")

# ---------------------------------------------------------------------------
# One full run returns the decision, the message size, and the exact
# error probability of the input pair (not an estimate).
# ---------------------------------------------------------------------------
rng = np.random.default_rng(11)
report = run_one_way(x, y, k, rng)
print("\nsingle run on the intersecting pair:")
for key, value in report._asdict().items():
    print(f"  {key}: {value}")

# ---------------------------------------------------------------------------
# Monte Carlo agreement: the empirical detection frequency over 10^5
# trials should sit within a few standard deviations of the exact value.
# ---------------------------------------------------------------------------
trials = 100_000
p = exact_detection_probability(x, y, 4)
freq = detection_frequency(x, y, 4, trials, np.random.default_rng(23))
sigma = math.sqrt(p * (1 - p) / trials)
print(f"\nk=4 over {trials} trials: exact {p:.5f}, observed {freq:.5f}, "
      f"deviation {abs(freq - p) / sigma:.2f} sigma")

# ---------------------------------------------------------------------------
# Inputs with fewer than k ones skip sampling: the sender answers 1 in a
# single bit. That is always right on disjoint pairs; on an intersecting
# pair it is a certain error, and the report flags the branch instead of
# hiding it. Band pairs at realistic n carry enough ones to avoid this.
# ---------------------------------------------------------------------------
light = BitString(0b00000101, n)  # weight 2 < k
for other in (BitString(0b11110000, n), y):
    report = run_one_way(light, other, k, np.random.default_rng(0))
    print(f"\nweight-2 input vs {other}: literal_branch={report.literal_branch}, "
          f"decision={report.decision}, bits={report.bits_communicated}, "
          f"exact_error={report.exact_error_probability}")
