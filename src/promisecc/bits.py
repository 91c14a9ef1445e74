"""Bit strings, Hamming metrics, the two promise rules and the pair stream.

The two base problems live on pairs of equal-length binary words: equality
(are ``x`` and ``y`` the same word?) and disjointness (do ``x`` and ``y``,
read as characteristic vectors of subsets of ``{1..n}``, share an index?).
Their promise variants restrict attention to well-separated instances:

* promise equality: yes-instances are equal pairs, no-instances are pairs
  at Hamming distance exactly ``n/2`` (:func:`eq_label`);
* promise disjointness with margin ``lam``: yes-instances have empty
  intersection, no-instances have intersection size in ``[lam*n, (1-lam)*n]``
  (:func:`disj_label`).

Everything else is outside the promise and carries no correctness
obligation.  Both rules take an integer count (distance or overlap), so
every caller -- pair classifiers, word classifiers, matrix builders --
applies the same rule.  The margin is kept as an exact rational with
``lam*n`` integral so that band membership is an integer comparison, never
a float one.  :func:`promise_pairs` is the one enumerator of all pairs
inside a promise.

Words are written most-significant-position-first: ``str(x)[0]`` is the
first bit of ``x``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator


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


def hamming_distance(x: BitString, y: BitString) -> int:
    """Number of positions where ``x`` and ``y`` differ."""
    _check_same_length(x, y)
    return (x.value ^ y.value).bit_count()


def intersection_size(x: BitString, y: BitString) -> int:
    """Number of positions where both words carry a 1."""
    _check_same_length(x, y)
    return (x.value & y.value).bit_count()


@dataclass(frozen=True)
class Margin:
    """Promise band parameter for disjointness: fraction ``lam`` and length ``n``.

    The no-instance band is ``lam*n <= |x & y| <= (1-lam)*n``; both
    endpoints must be integers, which pins the band exactly.
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

    # cached: every pair classification reads both ends
    @cached_property
    def low(self) -> int:
        return int(self.fraction * self.n)

    @cached_property
    def high(self) -> int:
        return int((1 - self.fraction) * self.n)

    def __str__(self) -> str:
        return str(self.fraction)


def margin_fraction(margin) -> Fraction:
    """The fraction lam of a Margin or of a bare rational, checked to be in (0, 1/4]."""
    lam = margin.fraction if isinstance(margin, Margin) else Fraction(margin)
    if not 0 < lam <= Fraction(1, 4):
        raise ValueError(f"margin fraction must be in (0, 1/4], got {lam}")
    return lam


def smallest_k(margin, slope: int, eps) -> int:
    """Smallest k with (1 - slope*lam)**k <= eps, found exactly in rationals;
    equals ceil(log(eps) / log(1 - slope*lam))."""
    base = 1 - slope * margin_fraction(margin)
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"error bound must be in (0, 1), got {eps}")
    k, power = 1, base
    while power > eps:
        k += 1
        power *= base
    return k


def disj_label(m: int, low: int, high: int) -> PromiseLabel:
    """Promise disjointness rule: overlap m is YES at 0, NO in [low, high]."""
    if m == 0:
        return PromiseLabel.YES
    if low <= m <= high:
        return PromiseLabel.NO
    return PromiseLabel.OUTSIDE


def eq_label(d: int, n: int) -> PromiseLabel:
    """Promise equality rule: distance d is YES at 0, NO at exactly n/2.

    No parity check: for odd n nothing is NO.
    """
    if d == 0:
        return PromiseLabel.YES
    if 2 * d == n:
        return PromiseLabel.NO
    return PromiseLabel.OUTSIDE


def classify_disj_promise(x: BitString, y: BitString, margin: Margin) -> PromiseLabel:
    """Label a pair under promise disjointness with the given margin."""
    _check_same_length(x, y)
    if x.n != margin.n:
        raise ValueError(f"margin is for n={margin.n}, inputs have n={x.n}")
    return disj_label(intersection_size(x, y), margin.low, margin.high)


def classify_eq_promise(x: BitString, y: BitString) -> PromiseLabel:
    """Label a pair under promise equality (distance 0 vs distance n/2)."""
    _check_same_length(x, y)
    if x.n % 2:
        raise ValueError("promise equality needs even length (n/2 threshold)")
    return eq_label(hamming_distance(x, y), x.n)


def all_bitstrings(n: int) -> Iterator[BitString]:
    """All words of length n in lexicographic (numeric) order."""
    for v in range(1 << n):
        yield BitString(v, n)


def promise_pairs(
    n: int, classify: Callable[[BitString, BitString], PromiseLabel]
) -> Iterator[tuple[BitString, BitString, PromiseLabel]]:
    """Every pair inside a promise as ``(x, y, label)``, x then y in numeric order.

    ``classify(x, y)`` labels one pair; OUTSIDE pairs are skipped.  All
    4**n pairs are visited, so keep n small.
    """
    words = list(all_bitstrings(n))
    for x in words:
        for y in words:
            label = classify(x, y)
            if label is not PromiseLabel.OUTSIDE:
                yield x, y, label
