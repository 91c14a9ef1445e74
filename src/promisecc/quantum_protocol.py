"""Two-way quantum protocol for promise disjointness, with amplification.

One round prepares a uniform superposition over the low half of a
2n-dimensional register, swaps amplitudes at the sender's 1-positions,
sign-flips at the receiver's 1-positions, swaps back, interferes through
the collect operator and measures in the pair basis.  The amplitude left
on outcome ``(1, 0)`` is the mean of ``(-1)^(x_i & y_i)``, so the round
accepts with probability ``((n - 2m)/n)**2`` where ``m`` is the
intersection size: certainty when the sets are disjoint, at most
``(1 - 2*lam)**2`` anywhere in the margin band.  The dense simulation
runs on a batch of pairs at once, and so does the fast path; one pair
is a batch of one.

Repeating the round k times and accepting only on unanimous acceptance
drives the error on band instances below any target; the count that
reaches error ``eps`` is the smallest k with ``(1 - 3*lam)**k <= eps``,
computed in exact rational arithmetic.

Each round moves the register twice plus one answer bit:
``3 + 2*ceil(log2 n)`` qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    classify_disj_promise,
    intersection_size,
    smallest_k,
)
from . import qsim


@lru_cache(maxsize=None)  # Gram-Schmidt once per n, not once per chunk
def _collect(n: int) -> np.ndarray:
    return qsim.collect_op(n)


def _round_states(x_values, y_values, n: int) -> np.ndarray:
    """A batch of rounds up to the collect, from the spread's first column."""
    if len(x_values) != len(y_values):
        raise ValueError(f"batch mismatch: {len(x_values)} vs {len(y_values)}")
    swap = qsim.swap(x_values, n)
    return swap @ (qsim.phase(y_values, n) @ (swap @ qsim.uniform_over(2 * n, n)))


def round_accept_probabilities(x_values, y_values, n: int) -> list[float]:
    """Exact dense simulation of one protocol round on a batch of pairs.

    ``x_values`` and ``y_values`` hold N word values of length ``n``
    (below ``2**n``), pair r being ``(x_values[r], y_values[r])``.
    Returns, per pair, the probability that the final measurement yields
    (1, 0).
    """
    collect = _collect(n)  # before the batch's arrays: a lower peak RSS
    psi = _round_states(x_values, y_values, n)
    accept = qsim.pair_index(1, 0, n)
    # one collect @ psi per pair: a single product over the whole batch
    # rounds some last bits differently, and the values must not depend on
    # how pairs are batched
    return [float(abs((collect @ row)[accept]) ** 2) for row in psi]


def round_accept_probability(x: BitString, y: BitString) -> float:
    """Exact dense simulation of one protocol round: a batch of one.

    Returns the probability that the final measurement yields (1, 0).
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    return round_accept_probabilities([x.value], [y.value], x.n)[0]


def round_accept_probabilities_fast(x_values, y_values, n: int) -> list[float]:
    """O(n)-per-pair path through the same round on a batch: no dense
    matrix at all.  Arguments as for :func:`round_accept_probabilities`.
    """
    psi = _round_states(x_values, y_values, n)
    # collect's first row is uniform over the low block; one sum per pair,
    # so a value does not depend on the batch
    root = math.sqrt(n)
    return [abs(complex(np.sum(row[:n])) / root) ** 2 for row in psi]


def round_accept_probability_fast(x: BitString, y: BitString) -> float:
    """O(n) path through the same round: a batch of one."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    return round_accept_probabilities_fast([x.value], [y.value], x.n)[0]


def closed_form_accept_probability(x: BitString, y: BitString) -> float:
    """Independent check value ((n - 2m)/n)**2 with m the intersection size."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    n = x.n
    m = intersection_size(x, y)
    return ((n - 2 * m) / n) ** 2


def repetition_count(margin, eps=Fraction(1, 3)) -> int:
    """Rounds needed so unanimous acceptance errs at most eps on band pairs:
    the smallest k with (1 - 3*lam)**k <= eps.

    Slope 3 because one round rejects a band pair with probability
    1 - ((n-2m)/n)**2 >= 1 - (1-2*lam)**2 = 4*lam*(1-lam) >= 3*lam for
    lam <= 1/4.
    """
    return smallest_k(margin, 3, eps)


def qubit_cost(n: int, k: int = 1) -> int:
    """Qubits moved by k rounds: k * (3 + 2*ceil(log2 n))."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    return k * (3 + 2 * math.ceil(math.log2(n)))


@dataclass(frozen=True)
class QuantumProtocolReport:
    """Outcome of one k-round protocol execution on a fixed pair."""

    x: BitString
    y: BitString
    margin: Margin
    label: PromiseLabel
    p_single: float  # exact per-round acceptance probability
    k: int
    decision: int  # 1 iff all k sampled outcomes accepted
    qubits: int

    @property
    def p_accept_all(self) -> float:
        """Probability that all k rounds accept."""
        return self.p_single**self.k

    def to_record(self) -> dict:
        return {
            "n": self.x.n,
            "lambda": str(self.margin.fraction),
            "x": str(self.x),
            "y": str(self.y),
            "label": self.label.value,
            "p_single": self.p_single,
            "k": self.k,
            "p_accept_k": self.p_accept_all,
            "decision": self.decision,
            "qubits": self.qubits,
        }


def sample_decisions(p_values, k: int, rng: np.random.Generator) -> list[int]:
    """Per pair, 1 iff k sampled rounds, each accepting with probability
    ``p_values[r]``, all accept.

    One ``rng.random((N, k))`` draw: row r equals the k draws pair r would
    take alone, so a batch reads the generator in pair order and gives what
    batches of one would.
    """
    draws = rng.random((len(p_values), k))
    return (draws.max(axis=1) < np.asarray(p_values, dtype=float)).astype(int).tolist()


def run_protocol(
    x: BitString,
    y: BitString,
    margin: Margin,
    k: int,
    rng: np.random.Generator,
) -> QuantumProtocolReport:
    """Sample k independent rounds; accept only if every round accepted.

    The exact per-round probability rides along in the report so that
    callers never need to rely on sampling alone.
    """
    if k < 1:
        raise ValueError("k must be positive")
    p = round_accept_probability(x, y)
    return QuantumProtocolReport(
        x=x,
        y=y,
        margin=margin,
        label=classify_disj_promise(x, y, margin),
        p_single=p,
        k=k,
        decision=sample_decisions([p], k, rng)[0],
        qubits=qubit_cost(x.n, k),
    )
