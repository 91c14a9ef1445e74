"""Bit strings, Hamming metrics, the promise tables and the pair stream.

The two base problems live on pairs of equal-length binary words: equality
(are ``x`` and ``y`` the same word?) and disjointness (do ``x`` and ``y``,
read as characteristic vectors of subsets of ``{1..n}``, share an index?).
Each problem labels a pair by one count, the distance ``|x ^ y|`` or the
overlap ``|x & y|``, and a margin lam: YES at count 0, NO at a count in
the band ``ceil(lam*n) .. floor((1-lam)*n)`` (:func:`band`).

* lam = 0 gives the total problem: NO at every count but 0;
* promise equality takes lam = 1/2: NO at exactly ``n/2``, so odd n has
  no NO count;
* promise disjointness takes lam in (0, 1/4].

Everything else is outside the promise and carries no correctness
obligation.  A :class:`Promise` states the rule once, as one label per
count 0..n, built by :meth:`Promise.from_margin`, and every labeller reads
that table.  Pairs of word values are counted in batches by
:meth:`Promise.counts`, which serves the problem matrices and the one pair
stream, :meth:`Promise.chunks` (every pair inside the promise, or uniform
draws kept inside it); single pairs and words are labelled by
:meth:`Promise.label`.  The margin is kept as an exact rational, so the
band ends are exact integers, never float comparisons.

Words are written most-significant-position-first: ``str(x)[0]`` is the
first bit of ``x``; :func:`unpack_bits` spreads word values into that
order.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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


@lru_cache(maxsize=None)
def _bit_masks(n: int) -> np.ndarray:
    """The value of each position, first bit first: 2**(n-1), ..., 2, 1.

    uint64 up to n = 64; Python integers beyond.
    """
    masks = np.array([1 << shift for shift in range(n - 1, -1, -1)],
                     dtype=np.uint64 if n <= 64 else object)
    masks.setflags(write=False)  # shared by every caller
    return masks


def unpack_bits(x, n: int | None = None) -> np.ndarray:
    """Boolean mask of the 1-positions, first bit first.

    ``x`` is a :class:`BitString` (shape ``(n,)``) or an array of N word
    values of length ``n`` (shape ``(N, n)``).
    """
    if isinstance(x, BitString):
        x, n = x.value, x.n
    masks = _bit_masks(n)
    values = np.asarray(x, dtype=masks.dtype)
    return np.bitwise_and(values[..., None], masks).astype(bool)


#: Candidate pairs per block of :meth:`Promise.chunks`; the pairs kept from
#: one block make one chunk.
SWEEP_CHUNK = 1024


@dataclass(frozen=True)
class Promise:
    """A promise problem on words of length ``n`` that labels a pair by one
    count: the overlap ``|x & y|`` if ``overlap``, else the distance
    ``|x ^ y|``.  ``labels[c]`` is the label of count c, for c in 0..n."""

    n: int
    overlap: bool
    labels: tuple

    @classmethod
    def from_margin(cls, n: int, overlap: bool, lam) -> "Promise":
        """Count 0 is YES, a count in ``band(lam, n)`` NO, any other OUTSIDE."""
        low, high = band(Fraction(lam), n)
        return cls(n, overlap, tuple(
            PromiseLabel.YES if c == 0
            else PromiseLabel.NO if low <= c <= high
            else PromiseLabel.OUTSIDE
            for c in range(n + 1)
        ))

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

    def chunks(self, samples: int | None = None, seed=None):
        """Chunks ``(x values, y values, YES mask)`` of the pairs inside the
        promise, as numpy arrays (uint64 word values); no chunk is empty.

        Blocks of candidate pairs are counted with :meth:`counts`, and the
        pairs inside the promise kept as one chunk.  With ``samples`` None
        the blocks are ``SWEEP_CHUNK >> n`` x values (at least one) against
        every y, so every pair comes, x then y in numeric order.  Otherwise
        the blocks are SWEEP_CHUNK pairs drawn uniformly from
        ``default_rng(seed)``, x then y, which are the values one draw per
        word would give; the stream stops after ``samples`` pairs.
        """
        n = self.n
        if samples is None:
            left = total = 1 << 2 * n
            size = max(1, SWEEP_CHUNK >> n) << n
            blocks = (
                np.divmod(np.arange(start, min(start + size, total), dtype=np.uint64), 1 << n)
                for start in range(0, total, size)
            )
        else:
            left, rng = samples, np.random.default_rng(seed)
            blocks = (
                rng.integers(0, 1 << n, size=(SWEEP_CHUNK, 2), dtype=np.uint64).T
                for _ in itertools.count()
            )
        inside = np.array([label is not PromiseLabel.OUTSIDE for label in self.labels])
        yes = np.array([label is PromiseLabel.YES for label in self.labels])
        for xs, ys in blocks:
            counts = self.counts(xs, ys)
            keep = np.flatnonzero(inside[counts])[:left]
            if len(keep):
                yield xs[keep], ys[keep], yes[counts[keep]]
            left -= len(keep)
            if not left:
                return


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

    @cached_property
    def promise(self) -> Promise:
        """Promise disjointness with this band."""
        return Promise.from_margin(self.n, True, self.fraction)

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
