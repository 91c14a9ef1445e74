"""Bit strings, Hamming metrics, the promise tables and the pair stream.

The two base problems live on pairs of equal-length binary words: equality
(are ``x`` and ``y`` the same word?) and disjointness (do ``x`` and ``y``,
read as characteristic vectors of subsets of ``{1..n}``, share an index?).
Their promise variants restrict attention to well-separated instances, and
each labels a pair by one count:

* promise equality reads the distance ``|x ^ y|``: YES at 0, NO at exactly
  ``n/2``, so odd n has no NO count (:func:`equality_promise`);
* promise disjointness reads the overlap ``|x & y|``: YES at 0, NO in the
  band ``ceil(lam*n) .. floor((1-lam)*n)`` (:func:`band`,
  :func:`disjointness_promise`).

Everything else is outside the promise and carries no correctness
obligation.  A :class:`Promise` states the rule once, as one label per
count 0..n, and every labeller reads that table.  Pairs of word values
are counted in batches by :meth:`Promise.counts`, which serves
:func:`promise_pairs` (every pair inside a promise, as words), the
problem matrices and the sweeps' pair stream; single pairs and words are
labelled by :meth:`Promise.label`.  The margin is kept as an exact
rational, so the band ends are exact integers, never float comparisons.

Words are written most-significant-position-first: ``str(x)[0]`` is the
first bit of ``x``.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np


class PromiseLabel(enum.Enum):
    """Classification of an input under a fixed promise problem."""

    YES = "yes"
    NO = "no"
    OUTSIDE = "outside"


class BitString:
    """Immutable fixed-length binary word.

    Accepts a string of 0/1 characters, an iterable of bits, or an integer
    value together with an explicit length.
    """

    __slots__ = ("n", "value")

    def __init__(self, bits, n: int | None = None):
        if isinstance(bits, BitString):
            self.n = bits.n
            self.value = bits.value
            return
        if isinstance(bits, str):
            if not bits or any(c not in "01" for c in bits):
                raise ValueError(f"not a binary word: {bits!r}")
            self.n = len(bits)
            self.value = int(bits, 2)
        elif isinstance(bits, int):
            if n is None:
                raise ValueError("integer form requires an explicit length")
            if bits < 0 or bits >> n:
                raise ValueError(f"value {bits} does not fit in {n} bits")
            self.n = n
            self.value = bits
        else:
            seq = tuple(bits)
            if any(b not in (0, 1) for b in seq):
                raise ValueError("bits must be 0 or 1")
            self.n = len(seq)
            self.value = int("".join(map(str, seq)), 2) if seq else 0
        if self.n < 1:
            raise ValueError("length must be positive")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        # 0-based; position 0 is the leftmost (first) bit.
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> (self.n - 1 - i)) & 1

    def __iter__(self):
        return iter(self.bits)

    def __invert__(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.n) - 1), self.n)

    def __xor__(self, other: "BitString") -> "BitString":
        _check_same_length(self, other)
        return BitString(self.value ^ other.value, self.n)

    def __and__(self, other: "BitString") -> "BitString":
        _check_same_length(self, other)
        return BitString(self.value & other.value, self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __lt__(self, other: "BitString") -> bool:
        return (self.n, self.value) < (other.n, other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"BitString('{self}')"


def _check_same_length(x: BitString, y: BitString) -> None:
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")


def hamming_weight(x: BitString) -> int:
    """Number of 1-bits in ``x``."""
    return x.value.bit_count()


def intersection_size(x: BitString, y: BitString) -> int:
    """Number of positions where both words carry a 1."""
    _check_same_length(x, y)
    return (x.value & y.value).bit_count()


@dataclass(frozen=True)
class Promise:
    """A promise problem on words of length ``n`` that labels a pair by one
    count: the overlap ``|x & y|`` if ``overlap``, else the distance
    ``|x ^ y|``.  ``labels[c]`` is the label of count c, for c in 0..n."""

    n: int
    overlap: bool
    labels: tuple

    @property
    def combine(self):
        """The word operation whose popcount is the count: ``&`` or ``^``."""
        return operator.and_ if self.overlap else operator.xor

    def counts(self, x_values, y_values) -> np.ndarray:
        """The count of each pair of word values: the popcount of
        ``combine`` over uint64 arrays, which broadcast as numpy operands."""
        x = np.asarray(x_values, dtype=np.uint64)
        return np.bitwise_count(self.combine(x, np.asarray(y_values, dtype=np.uint64)))

    def label(self, x: BitString, y: BitString) -> PromiseLabel:
        _check_same_length(x, y)
        if x.n != self.n:
            raise ValueError(f"promise is for n={self.n}, inputs have n={x.n}")
        return self.labels[self.combine(x.value, y.value).bit_count()]


def disjointness_promise(n: int, low: int, high: int) -> Promise:
    """Promise disjointness: overlap 0 is YES, an overlap in [low, high] NO."""
    return Promise(n, True, tuple(
        PromiseLabel.YES if m == 0
        else PromiseLabel.NO if low <= m <= high
        else PromiseLabel.OUTSIDE
        for m in range(n + 1)
    ))


def equality_promise(n: int) -> Promise:
    """Promise equality: distance 0 is YES, distance exactly n/2 NO."""
    return Promise(n, False, tuple(
        PromiseLabel.YES if d == 0
        else PromiseLabel.NO if 2 * d == n
        else PromiseLabel.OUTSIDE
        for d in range(n + 1)
    ))


def band(fraction: Fraction, n: int) -> tuple[int, int]:
    """The NO overlaps of promise disjointness with margin ``fraction``:
    ``ceil(lam*n) .. floor((1-lam)*n)``, in exact arithmetic."""
    return math.ceil(fraction * n), math.floor((1 - fraction) * n)


@dataclass(frozen=True)
class Margin:
    """Promise band parameter for disjointness: fraction ``lam`` and length ``n``.

    The no-instance band is ``lam*n <= |x & y| <= (1-lam)*n``, with
    ``lam*n`` required to be an integer.
    """

    fraction: Fraction
    n: int

    def __post_init__(self):
        lam = margin_fraction(self.fraction)
        object.__setattr__(self, "fraction", lam)
        if self.n < 1:
            raise ValueError("length must be positive")
        if (lam * self.n).denominator != 1:
            raise ValueError(f"{lam} * {self.n} is not an integer")

    @classmethod
    def from_text(cls, text: str, n: int) -> "Margin":
        """Parse a 'p/q' rational (or plain integer) margin."""
        return cls(Fraction(text), n)

    @property
    def low(self) -> int:
        return band(self.fraction, self.n)[0]

    @property
    def high(self) -> int:
        return band(self.fraction, self.n)[1]

    @cached_property
    def promise(self) -> Promise:
        """Promise disjointness with this band."""
        return disjointness_promise(self.n, self.low, self.high)

    def __str__(self) -> str:
        return str(self.fraction)


def margin_fraction(margin) -> Fraction:
    """The fraction lam of a Margin or of a bare rational, checked to be in (0, 1/4]."""
    lam = margin.fraction if isinstance(margin, Margin) else Fraction(margin)
    if not 0 < lam <= Fraction(1, 4):
        raise ValueError(f"margin fraction must be in (0, 1/4], got {lam}")
    return lam


def smallest_k(margin, slope: int, eps, limit: int | None = None) -> int | None:
    """Smallest k with (1 - slope*lam)**k <= eps, found exactly in rationals;
    equals ceil(log(eps) / log(1 - slope*lam)).  The search stops at
    ``limit``: None if no k up to it will do."""
    base = 1 - slope * margin_fraction(margin)
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"error bound must be in (0, 1), got {eps}")
    k, power = 1, base
    while power > eps:
        if k == limit:
            return None
        k += 1
        power *= base
    return k


def all_bitstrings(n: int) -> Iterator[BitString]:
    """All words of length n in lexicographic (numeric) order."""
    for v in range(1 << n):
        yield BitString(v, n)


def classify_disj_promise(x: BitString, y: BitString, margin: Margin) -> PromiseLabel:
    """Label a pair under promise disjointness with the given margin."""
    return margin.promise.label(x, y)


def promise_pairs(
    promise: Promise,
) -> Iterator[tuple[BitString, BitString, PromiseLabel]]:
    """Every pair inside ``promise`` as ``(x, y, label)``, x then y in numeric order.

    Each label is read from the table by the pair's count, a row at a
    time; OUTSIDE pairs are skipped.  All 4**n pairs are visited.
    """
    words = list(all_bitstrings(promise.n))
    values = np.arange(len(words), dtype=np.uint64)
    for x in words:
        for y, count in zip(words, promise.counts(x.value, values).tolist()):
            if (label := promise.labels[count]) is not PromiseLabel.OUTSIDE:
                yield x, y, label
