"""Two-way quantum protocol for promise disjointness, with amplification.

One round prepares a uniform superposition over the low half of a
2n-dimensional register, swaps amplitudes at the sender's 1-positions,
sign-flips at the receiver's 1-positions, swaps back, interferes through
the collect operator and measures in the pair basis.  The amplitude left
on outcome ``(1, 0)`` is the mean of ``(-1)^(x_i & y_i)``, so the round
accepts with probability ``((n - 2m)/n)**2`` where ``m`` is the
intersection size: certainty when the sets are disjoint, at most
``(1 - 2*lam)**2`` anywhere in the margin band.  Between the spread and
the collect every operator is a signed permutation, so n times that
amplitude is the integer ``S = n - 2m`` and the round accepts with
probability exactly ``S**2 / n**2``; the dense simulation of the
collect's accept row is its float witness.  One pass over a batch of
pairs gives both (:func:`round_columns`).

Repeating the round k times and accepting only on unanimous acceptance
drives the error on band instances below any target; the count that
reaches error ``eps`` is the smallest k with ``(1 - 3*lam)**k <= eps``,
computed in exact rational arithmetic.

Each round moves the register twice plus one answer bit:
``3 + 2*ceil(log2 n)`` qubits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    classify_disj_promise,
    intersection_size,
    np,
    smallest_k,
)
from . import qsim


@lru_cache(maxsize=None)  # Gram-Schmidt once per n, not once per chunk
def _collect(n: int) -> np.ndarray:
    return qsim.collect_op(n)


def _round_states(x_values, y_values, n: int) -> np.ndarray:
    """A batch of rounds up to the collect from ``1^n 0^n``: entries 0, 1, -1."""
    if len(x_values) != len(y_values):
        raise ValueError(f"batch mismatch: {len(x_values)} vs {len(y_values)}")
    swap = qsim.swap(x_values, n)
    return swap @ (qsim.phase(y_values, n) @ (swap @ np.repeat([1.0, 0.0], n)))


def round_columns(x_values, y_values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One protocol round on a batch of pairs, read two ways.

    ``x_values`` and ``y_values`` hold N word values of length ``n``
    (below ``2**n``), pair r being ``(x_values[r], y_values[r])``.
    Returns two arrays with an entry per pair: the integer
    ``S = n - 2m``, the low block of the round's integer state that the
    collect's uniform accept row sums, so that the round accepts with
    probability exactly ``S**2 / n**2``; and the dense witness, the
    probability of outcome (1, 0) when the collect's accept row is applied
    to the state in floats.

    Both come from one pass of swap, phase, swap.  The spread is never
    applied (the pass starts from its first column), so the witness checks
    the collect's accept row only.
    """
    # before the batch's arrays: a lower peak RSS
    accept_row = _collect(n)[qsim.pair_index(1, 0, n)]
    psi = _round_states(x_values, y_values, n)
    # the integer states scaled by the spread's entry, as uniform_over has it
    weights = (accept_row * (1.0 / np.sqrt(n))).tolist()
    amplitude = np.zeros(len(psi), dtype=complex)
    # term by term over the columns: a single product over the whole batch
    # rounds some last bits differently, and a value must not depend on the
    # pairs batched with it
    for j, weight in enumerate(weights):
        amplitude += weight * psi[:, j]
    return psi[:, :n].sum(axis=1).astype(np.int64), np.abs(amplitude) ** 2


def round_accept_probability(x: BitString, y: BitString) -> float:
    """The dense witness of one protocol round: a batch of one.

    Returns the probability that the final measurement yields (1, 0).
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    return float(round_columns([x.value], [y.value], x.n)[1][0])


def round_accept_probability_fast(x: BitString, y: BitString) -> float:
    """The exact ``S**2 / n**2`` of :func:`round_columns`: a batch of one."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    return int(round_columns([x.value], [y.value], x.n)[0][0]) ** 2 / x.n ** 2


def closed_form_accept_probability(x: BitString, y: BitString) -> float:
    """Independent check value ((n - 2m)/n)**2 with m the intersection size."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    n = x.n
    m = intersection_size(x, y)
    return ((n - 2 * m) / n) ** 2


def repetition_count(margin, eps=Fraction(1, 3), limit: int | None = None) -> int | None:
    """Rounds needed so unanimous acceptance errs at most eps on band pairs:
    the smallest k with (1 - 3*lam)**k <= eps, or None above ``limit``.

    Slope 3 because one round rejects a band pair with probability
    1 - ((n-2m)/n)**2 >= 1 - (1-2*lam)**2 = 4*lam*(1-lam) >= 3*lam for
    lam <= 1/4.
    """
    return smallest_k(margin, 3, eps, limit)


def qubit_cost(n: int, k: int = 1) -> int:
    """Qubits moved by k rounds: k * (3 + 2*ceil(log2 n))."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    return k * (3 + 2 * math.ceil(math.log2(n)))


class QuantumProtocolReport(NamedTuple):
    """Outcome of one k-round protocol execution on a fixed pair."""

    x: BitString
    y: BitString
    margin: Margin
    label: PromiseLabel
    p_single: float  # exact per-round acceptance probability
    k: int
    decision: int  # 1 iff all k sampled outcomes accepted
    qubits: int


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
