"""One-way randomized protocol for promise disjointness.

Alice samples k positions among her 1-bits, uniformly and independently
with replacement, and sends the indices; Bob answers 0 (intersecting) iff
one of his bits at those positions is 1.  If Alice holds fewer than k ones
she sends the literal answer 1 in a single bit instead.

Disjoint pairs are never rejected.  On a band pair the chance that one
sampled position lands in the intersection is m/H(x) >= lam, so the miss
probability after k samples is (1 - m/H(x))**k <= (1 - lam)**k; the k that
pushes this under a target error is computed exactly in rationals.

At tiny n a band pair can itself have fewer than k ones, forcing the
literal-1 branch and a certain error; reports flag this instead of hiding
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString, hamming_weight, intersection_size, smallest_k


def exact_detection_probability(x: BitString, y: BitString, k: int) -> float:
    """Probability that k sampled 1-positions of x hit the intersection:
    1 - (1 - m/H)**k.  Undefined when x has no ones (the protocol never
    samples then).
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    if k < 1:
        raise ValueError("k must be positive")
    h = hamming_weight(x)
    if h == 0:
        raise ValueError("detection undefined for weight-0 x (literal-1 branch)")
    m = intersection_size(x, y)
    return 1.0 - (1.0 - m / h) ** k


def positions_count(margin, eps=Fraction(1, 3)) -> int:
    """Samples needed so the miss probability on any band pair is <= eps:
    the smallest k with (1 - lam)**k <= eps."""
    return smallest_k(margin, 1, eps)


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


@dataclass(frozen=True)
class ClassicalProtocolReport:
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

    def to_record(self) -> dict:
        return {
            "n": self.x.n,
            "x": str(self.x),
            "y": str(self.y),
            "k": self.k,
            "decision": self.decision,
            "bits": self.bits_communicated,
            "exact_error": self.exact_error_probability,
            "literal_branch": self.literal_branch,
        }


def sample_positions(weights, k: int, rng: np.random.Generator) -> list[list[int]]:
    """Alice's k draws for each of N pairs: row r holds k indices into pair
    r's 1-positions, uniform below ``weights[r]``, her number of ones.

    One ``rng.integers`` call: row r equals the draw pair r would take
    alone, so a batch reads the generator in pair order and gives what
    batches of one would.
    """
    highs = np.asarray(weights, dtype=np.int64)[:, None]
    return rng.integers(0, highs, size=(len(highs), k)).tolist()


def one_way_runs(
    xs: list[BitString],
    ys: list[BitString],
    k: int,
    rng: np.random.Generator | None,
) -> list[ClassicalProtocolReport]:
    """One sampled run of the k-position protocol per pair (xs[r], ys[r]).

    Alice's draws for every pair that samples come from one
    :func:`sample_positions` call, so a batch reads ``rng`` in pair order
    and gives what batches of one would.  A pair whose x has fewer than k
    ones takes the literal branch and draws nothing; ``rng`` may be None
    when every pair does.  The exact error probability (of answering 1 on
    an intersecting pair, or 0 on a disjoint one) and the exact detection
    probability ride along in each report.
    """
    if k < 1:
        raise ValueError("k must be positive")
    weights = []
    for x, y in zip(xs, ys, strict=True):
        if x.n != y.n:
            raise ValueError(f"length mismatch: {x.n} vs {y.n}")
        weights.append(hamming_weight(x))
    drawn = [h for h in weights if h >= k]
    picks = iter(sample_positions(drawn, k, rng) if drawn else ())
    reports = []
    for x, y, h in zip(xs, ys, weights):
        m = intersection_size(x, y)
        if h < k:
            # literal answer: certain error exactly when the pair intersects
            reports.append(ClassicalProtocolReport(
                x=x,
                y=y,
                k=k,
                decision=1,
                bits_communicated=1,
                exact_error_probability=0.0 if m == 0 else 1.0,
                literal_branch=True,
                p_detect=None,
            ))
            continue
        ones = [i for i, bit in enumerate(str(x)) if bit == "1"]
        hit = any(y[ones[j]] for j in next(picks))
        miss = (1.0 - m / h) ** k
        reports.append(ClassicalProtocolReport(
            x=x,
            y=y,
            k=k,
            decision=0 if hit else 1,
            bits_communicated=bit_cost(x.n, k),
            # disjoint pairs are never detected, so only intersecting pairs can err
            exact_error_probability=0.0 if m == 0 else miss,
            literal_branch=False,
            p_detect=1.0 - miss,
        ))
    return reports


def run_one_way(
    x: BitString,
    y: BitString,
    k: int,
    rng: np.random.Generator | None,
) -> ClassicalProtocolReport:
    """One sampled run of the k-position protocol: a batch of one of
    :func:`one_way_runs`."""
    return one_way_runs([x], [y], k, rng)[0]


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
    h = hamming_weight(x)
    if h < k:
        raise ValueError("weight(x) < k: every run would take the literal branch")
    ones = np.array([i for i, bit in enumerate(x.bits) if bit])
    ybits = np.array(y.bits)
    picks = rng.integers(0, h, size=(trials, k))
    hits = ybits[ones[picks]].any(axis=1)
    return float(hits.mean())
