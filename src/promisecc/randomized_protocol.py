"""One-way randomized protocol for promise disjointness.

Alice samples k positions among her 1-bits, uniformly and independently
with replacement, and sends the indices; Bob answers 0 (intersecting) iff
one of his bits at those positions is 1.  If Alice holds fewer than k ones
she sends the literal answer 1 in a single bit instead.

Disjoint pairs are never rejected.  On a band pair the chance that one
sampled position lands in the intersection is m/H(x) >= lam, so the miss
probability after k samples is (1 - m/H(x))**k <= (1 - lam)**k; the k that
pushes this under a target error is computed exactly in rationals.  That
miss probability is held as an exact ``Fraction`` in one place,
:func:`miss_probability`, and every probability a run reports is the
correctly rounded float of an exact value derived from it.

At tiny n a band pair can itself have fewer than k ones, forcing the
literal-1 branch and a certain error; reports flag this instead of hiding
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .bits import BitString, hamming_weight, intersection_size, np, smallest_k, unpack_bits


def miss_probability(m: int, h: int, k: int) -> Fraction:
    """Exact chance that k positions drawn uniformly from the ``h`` ones of
    x all miss the ``m`` positions shared with y: ``((h - m)/h)**k``."""
    return Fraction(h - m, h) ** k


def exact_detection_probability(x: BitString, y: BitString, k: int) -> float:
    """Probability that k sampled 1-positions of x hit the intersection:
    the float of 1 - (1 - m/H)**k.  Undefined when x has no ones (the
    protocol never samples then).
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    if k < 1:
        raise ValueError("k must be positive")
    h = hamming_weight(x)
    if h == 0:
        raise ValueError("detection undefined for weight-0 x (literal-1 branch)")
    return float(1 - miss_probability(intersection_size(x, y), h, k))


def positions_count(margin, eps=Fraction(1, 3), limit: int | None = None) -> int | None:
    """Samples needed so the miss probability on any band pair is <= eps:
    the smallest k with (1 - lam)**k <= eps, or None above ``limit``."""
    return smallest_k(margin, 1, eps, limit)


def bit_cost(n: int, k: int) -> int:
    """Bits in Alice's index message: k * ceil(log2 n).

    The literal-answer branch costs 1 bit instead; that bit is reported
    separately and is not part of the index-message accounting.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    return k * math.ceil(math.log2(n)) if n > 1 else k


class ClassicalProtocolReport(NamedTuple):
    """Outcome of one sampled execution on a fixed pair."""

    x: BitString
    y: BitString
    k: int
    decision: int
    bits_communicated: int
    exact_error_probability: float  # chance of outputting the wrong disjointness value
    literal_branch: bool  # Alice had fewer than k ones and sent the answer 1
    # chance that one of the k samples lands in the intersection; None on
    # the literal branch, which samples nothing
    p_detect: float | None


def sample_positions(weights, k: int, rng: np.random.Generator) -> np.ndarray:
    """Alice's k draws for each of N pairs: row r holds k indices into pair
    r's 1-positions, uniform below ``weights[r]``, her number of ones.

    One ``rng.integers`` call: row r equals the draw pair r would take
    alone, so a batch reads the generator in pair order and gives what
    batches of one would.
    """
    highs = np.asarray(weights, dtype=np.int64)[:, None]
    return rng.integers(0, highs, size=(len(highs), k))


def report_floats(m: int, h: int, k: int) -> tuple[float, float | None]:
    """The error and detection probability a report prints for a pair of
    overlap ``m`` whose x has ``h`` ones: the floats of the exact
    :func:`miss_probability` and of one minus it, the error 0 on a disjoint
    pair, and on the literal branch (``h < k``) the error 1 on an
    intersecting pair and no detection probability."""
    if h < k:
        return (0.0 if m == 0 else 1.0), None
    miss = miss_probability(m, h, k)
    # disjoint pairs are never detected, so only intersecting pairs can err
    return (float(miss) if m else 0.0), float(1 - miss)


class OneWayColumns(NamedTuple):
    """Outcomes of a batch of one-way runs: one array with an entry per
    pair in each field."""

    decision: np.ndarray  # 1 iff no sampled position is a 1 of y
    overlap: np.ndarray  # m = |x & y|
    weight: np.ndarray  # h, the number of ones of x
    literal_branch: np.ndarray  # h < k: Alice sent the answer 1


def one_way_columns(x_values, y_values, n: int, k: int, rng) -> OneWayColumns:
    """One sampled run of the k-position protocol per pair of word values
    ``(x_values[r], y_values[r])`` of length ``n``, as columns.

    Alice's draws for every pair that samples come from one
    :func:`sample_positions` call, so a batch reads ``rng`` in pair order
    and gives what batches of one would.  A pair whose x has fewer than k
    ones takes the literal branch and draws nothing; ``rng`` may be None
    when every pair does.  The overlap and weight the run used ride along;
    :func:`report_floats` turns them into the exact error and detection
    probabilities.
    """
    if len(x_values) != len(y_values):
        raise ValueError(f"batch mismatch: {len(x_values)} vs {len(y_values)}")
    if k < 1:
        raise ValueError("k must be positive")
    x_bits, y_bits = unpack_bits(x_values, n), unpack_bits(y_values, n)
    weights = x_bits.sum(axis=1)
    literal = weights < k
    hit = np.zeros(len(weights), dtype=bool)
    drawn = np.flatnonzero(~literal)
    if len(drawn):
        picks = sample_positions(weights[drawn], k, rng)
        # each row's 1-positions in order, ahead of its 0-positions
        ones = np.argsort(x_bits[drawn] == 0, axis=1, kind="stable")
        positions = np.take_along_axis(ones, picks, axis=1)
        hit[drawn] = np.take_along_axis(y_bits[drawn], positions, axis=1).any(axis=1)
    return OneWayColumns(
        decision=(~hit).astype(np.int64),
        overlap=(x_bits & y_bits).sum(axis=1),
        weight=weights,
        literal_branch=literal,
    )


#: Most random strings :func:`coin_mismatch` runs for one key.
COIN_ROWS = 1024


def coin_mismatch(m: int, h: int, k: int, n: int) -> str | None:
    """Run :func:`one_way_columns` on every random string of one key, the
    pair x = 1^h 0^(n-h), y = 1^m 0^(n-m) with h >= k: None if it agrees
    with :func:`miss_probability`, else what went wrong.

    The runs take h**j copies of the pair, j the largest count up to k
    with h**j at most :data:`COIN_ROWS`, and a stand-in generator whose
    ``integers`` hands out every j-tuple below h once.  They must draw once,
    from 0 below h in shape (h**j, j), and exactly h**j times
    ``miss_probability(m, h, j)`` of them must miss y."""
    where = f"coins of overlap {m} and weight {h}"
    j = max(i for i in range(1, k + 1) if h ** i <= COIN_ROWS)
    rows, calls, want = h ** j, [], [(0, [h], (h ** j, j))]

    def integers(low, highs, size):
        calls.append((low, sorted(set(np.ravel(highs).tolist())), tuple(size)))
        return np.indices((h,) * j).reshape(j, -1).T

    x, y = ((1 << h) - 1) << (n - h), ((1 << m) - 1) << (n - m)
    runs = one_way_columns([x] * rows, [y] * rows, n, j, SimpleNamespace(integers=integers))
    if calls != want:
        return f"{where}: draws (low, highs, shape) {calls}, not {want}"
    misses, exact = int(runs.decision.sum()), rows * miss_probability(m, h, j)
    if misses != exact:
        return f"{where}: {misses} of {rows} coin strings miss, not {exact}"
    return None


def run_one_way(
    x: BitString,
    y: BitString,
    k: int,
    rng: np.random.Generator | None,
) -> ClassicalProtocolReport:
    """One sampled run of the k-position protocol: a batch of one of
    :func:`one_way_columns`."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    outcome = one_way_columns([x.value], [y.value], x.n, k, rng)
    literal = bool(outcome.literal_branch[0])
    error, detect = report_floats(int(outcome.overlap[0]), int(outcome.weight[0]), k)
    return ClassicalProtocolReport(
        x, y, k,
        decision=int(outcome.decision[0]),
        # the literal answer costs one bit
        bits_communicated=1 if literal else bit_cost(x.n, k),
        exact_error_probability=error,
        literal_branch=literal,
        p_detect=detect,
    )


def detection_frequency(
    x: BitString,
    y: BitString,
    k: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo frequency of detection over many runs, vectorized.

    Requires weight(x) >= k so every run takes the sampling branch.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    h = hamming_weight(x)
    if h < k:
        raise ValueError("weight(x) < k: every run would take the literal branch")
    x_bits, y_bits = unpack_bits([x.value, y.value], x.n)
    ones = np.flatnonzero(x_bits)
    picks = rng.integers(0, h, size=(trials, k))
    hits = y_bits[ones[picks]].any(axis=1)
    return float(hits.mean())
