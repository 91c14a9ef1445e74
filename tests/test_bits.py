"""Bit-string primitives, the promise tables, and the pair stream."""

from fractions import Fraction

import pytest

from promisecc.bits import (
    BitString,
    Margin,
    Promise,
    PromiseLabel,
    all_bitstrings,
    classify_disj_promise,
    hamming_weight,
    intersection_size,
)

HALF = Fraction(1, 2)


def _no_counts(promise):
    return [c for c, label in enumerate(promise.labels) if label is PromiseLabel.NO]


def _pairs(promise, samples=None, seed=None):
    """The chunks of ``promise`` as one list of (x value, y value, YES)."""
    return [
        pair
        for xs, ys, yes in promise.chunks(samples, seed)
        for pair in zip(xs.tolist(), ys.tolist(), yes.tolist(), strict=True)
    ]


class TestBitString:
    def test_from_text_and_back(self):
        x = BitString("0110")
        assert str(x) == "0110"
        assert len(x) == 4
        assert x.bits == (0, 1, 1, 0)

    def test_from_iterable(self):
        assert BitString([1, 0, 1]) == BitString("101")

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            BitString("01x1")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitString("")

    def test_invert(self):
        assert ~BitString("0110") == BitString("1001")

    def test_and_xor(self):
        a, b = BitString("0111"), BitString("0101")
        assert a & b == BitString("0101")
        assert a ^ b == BitString("0010")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BitString("01") & BitString("011")

    def test_ordering_is_lexicographic(self):
        xs = sorted([BitString("10"), BitString("01"), BitString("00")])
        assert [str(x) for x in xs] == ["00", "01", "10"]

    def test_hashable(self):
        assert len({BitString("01"), BitString("01"), BitString("10")}) == 2


class TestWeights:
    def test_hamming_weight(self):
        assert hamming_weight(BitString("0000")) == 0
        assert hamming_weight(BitString("1011")) == 3

    def test_intersection_size(self):
        assert intersection_size(BitString("1100"), BitString("0110")) == 1


class TestMargin:
    def test_from_text(self):
        m = Margin.from_text("1/4", 8)
        assert m.fraction == Fraction(1, 4)
        assert _no_counts(m.promise) == [2, 3, 4, 5, 6]

    def test_band_endpoints(self):
        m = Margin.from_text("1/8", 8)
        assert _no_counts(m.promise) == list(range(1, 8))

    def test_rejects_fraction_above_quarter(self):
        with pytest.raises(ValueError):
            Margin.from_text("1/3", 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Margin.from_text("0/4", 4)

    def test_rejects_non_integral_band(self):
        # 1/4 of 6 is not an integer
        with pytest.raises(ValueError):
            Margin.from_text("1/4", 6)

    def test_str(self):
        assert str(Margin.from_text("1/4", 4)) == "1/4"


class TestClassification:
    def test_disj_yes(self):
        m = Margin.from_text("1/4", 4)
        got = classify_disj_promise(BitString("0011"), BitString("1100"), m)
        assert got is PromiseLabel.YES

    def test_disj_no_across_band(self):
        m = Margin.from_text("1/4", 4)
        for x, y in [("0001", "0011"), ("0011", "0011"), ("0111", "0111")]:
            got = classify_disj_promise(BitString(x), BitString(y), m)
            assert got is PromiseLabel.NO

    def test_disj_outside(self):
        m = Margin.from_text("1/4", 4)
        got = classify_disj_promise(BitString("1111"), BitString("1111"), m)
        assert got is PromiseLabel.OUTSIDE

    def test_eq_yes(self):
        eq = Promise.from_margin(4, False, HALF)
        got = eq.label(BitString("0101"), BitString("0101"))
        assert got is PromiseLabel.YES

    def test_eq_no_at_half_distance(self):
        eq = Promise.from_margin(4, False, HALF)
        got = eq.label(BitString("0000"), BitString("0011"))
        assert got is PromiseLabel.NO

    def test_eq_outside(self):
        eq = Promise.from_margin(4, False, HALF)
        got = eq.label(BitString("0000"), BitString("0001"))
        assert got is PromiseLabel.OUTSIDE

    def test_eq_odd_length_has_no_no_count(self):
        assert PromiseLabel.NO not in Promise.from_margin(5, False, HALF).labels

    def test_integer_rules(self):
        disj = Promise.from_margin(4, True, Fraction(1, 4))
        assert [label.value for label in disj.labels] == [
            "yes", "no", "no", "no", "outside",
        ]
        eq = Promise.from_margin(4, False, HALF)
        assert [label.value for label in eq.labels] == [
            "yes", "outside", "no", "outside", "outside",
        ]
        # margin 0 is the total problem: NO at every count but 0
        total = Promise.from_margin(4, True, 0)
        assert [label.value for label in total.labels] == ["yes"] + ["no"] * 4
        assert disj.overlap and total.overlap
        assert not eq.overlap


class TestEnumeration:
    def test_all_bitstrings_count_and_order(self):
        xs = list(all_bitstrings(3))
        assert len(xs) == 8
        assert [str(x) for x in xs[:3]] == ["000", "001", "010"]

    def test_promise_pair_counts(self):
        m = Margin.from_text("1/4", 4)
        pairs = _pairs(m.promise)
        yes = [(x, y) for x, y, is_yes in pairs if is_yes]
        no = [(x, y) for x, y, is_yes in pairs if not is_yes]
        # 3^4 disjoint pairs; every other pair except (1111, 1111) lands
        # in the band [1, 3]
        assert len(yes) == 81
        assert len(no) == 174
        assert all(x & y == 0 for x, y in yes)
        assert [(x, y) for x, y, _ in pairs] == sorted((x, y) for x, y, _ in pairs)

    def test_equality_chunks(self):
        pairs = _pairs(Promise.from_margin(2, False, HALF))
        # 4 equal pairs and 8 at distance one
        assert [is_yes for _, _, is_yes in pairs].count(True) == 4
        assert len(pairs) == 12
        assert all((x ^ y).bit_count() in (0, 1) for x, y, _ in pairs)

    def test_chunks_margin_length_mismatch(self):
        # the pairs come at the margin's length; a pair of another is refused
        m = Margin.from_text("1/4", 8)
        pairs = _pairs(m.promise)
        assert max(max(x, y) for x, y, _ in pairs) == (1 << 8) - 1
        assert len(_pairs(m.promise, samples=50, seed=3)) == 50
        with pytest.raises(ValueError):
            classify_disj_promise(BitString("0011"), BitString("0011"), m)

    @staticmethod
    def _band(margin):
        # (x, x) overlaps in |x|, so it is a No instance iff |x| is in the band
        return [
            x for x in all_bitstrings(margin.n)
            if classify_disj_promise(x, x, margin) is PromiseLabel.NO
        ]

    def test_weight_band_n4(self):
        band = self._band(Margin.from_text("1/4", 4))
        assert len(band) == 14
        assert all(1 <= hamming_weight(x) <= 3 for x in band)
        assert band == sorted(band)

    def test_weight_band_n8_size(self):
        band = self._band(Margin.from_text("1/4", 8))
        assert len(band) == 238
        assert len(band) >= 2**8 // 2
