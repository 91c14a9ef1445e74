"""Bit-string primitives, promise classification, and the pair stream."""

from fractions import Fraction

import pytest

from promisecc.bits import (
    BitString,
    Margin,
    PromiseLabel,
    all_bitstrings,
    classify_disj_promise,
    classify_eq_promise,
    disj_label,
    eq_label,
    hamming_distance,
    hamming_weight,
    intersection_size,
    promise_pairs,
)


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

    def test_hamming_distance(self):
        assert hamming_distance(BitString("1010"), BitString("0110")) == 2

    def test_intersection_size(self):
        assert intersection_size(BitString("1100"), BitString("0110")) == 1


class TestMargin:
    def test_from_text(self):
        m = Margin.from_text("1/4", 8)
        assert m.fraction == Fraction(1, 4)
        assert m.low == 2
        assert m.high == 6

    def test_band_endpoints(self):
        m = Margin.from_text("1/8", 8)
        assert (m.low, m.high) == (1, 7)

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
        assert classify_eq_promise(BitString("0101"), BitString("0101")) is PromiseLabel.YES

    def test_eq_no_at_half_distance(self):
        assert classify_eq_promise(BitString("0000"), BitString("0011")) is PromiseLabel.NO

    def test_eq_outside(self):
        assert classify_eq_promise(BitString("0000"), BitString("0001")) is PromiseLabel.OUTSIDE

    def test_eq_rejects_odd_length(self):
        with pytest.raises(ValueError):
            classify_eq_promise(BitString("010"), BitString("010"))

    def test_integer_rules(self):
        assert [disj_label(m, 1, 3).value for m in range(5)] == [
            "yes", "no", "no", "no", "outside",
        ]
        assert [eq_label(d, 4).value for d in range(5)] == [
            "yes", "outside", "no", "outside", "outside",
        ]
        # odd n: no distance is n/2, so nothing is NO
        assert all(eq_label(d, 5) is not PromiseLabel.NO for d in range(6))


class TestEnumeration:
    def test_all_bitstrings_count_and_order(self):
        xs = list(all_bitstrings(3))
        assert len(xs) == 8
        assert [str(x) for x in xs[:3]] == ["000", "001", "010"]

    def test_promise_pair_counts(self):
        m = Margin.from_text("1/4", 4)
        pairs = list(promise_pairs(4, lambda x, y: classify_disj_promise(x, y, m)))
        yes = [(x, y) for x, y, label in pairs if label is PromiseLabel.YES]
        no = [(x, y) for x, y, label in pairs if label is PromiseLabel.NO]
        # 3^4 disjoint pairs; every other pair except (1111, 1111) lands
        # in the band [1, 3]
        assert len(yes) == 81
        assert len(no) == 174
        assert all(intersection_size(x, y) == 0 for x, y in yes)
        assert [(x.value, y.value) for x, y, _ in pairs] == sorted(
            (x.value, y.value) for x, y, _ in pairs
        )

    def test_promise_pairs_equality(self):
        pairs = list(promise_pairs(2, classify_eq_promise))
        # 4 equal pairs and 8 at distance one
        assert [label.value for _, _, label in pairs].count("yes") == 4
        assert len(pairs) == 12
        assert all(hamming_distance(x, y) in (0, 1) for x, y, _ in pairs)

    def test_promise_pairs_margin_length_mismatch(self):
        m = Margin.from_text("1/4", 8)
        with pytest.raises(ValueError):
            list(promise_pairs(4, lambda x, y: classify_disj_promise(x, y, m)))

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
