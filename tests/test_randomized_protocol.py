"""One-way randomized protocol: exact detection, sampling, and cost."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from promisecc.bits import BitString, Margin
from promisecc.randomized_protocol import (
    bit_cost,
    detection_frequency,
    exact_detection_probability,
    positions_count,
    report_floats,
    run_one_way,
)


class TestExactDetection:
    def test_with_replacement_formula(self):
        # weight 4, overlap 2, two samples: 1 - (1/2)^2
        p = exact_detection_probability(BitString("1111"), BitString("1100"), 2)
        assert p == pytest.approx(0.75)

    def test_disjoint_pair_never_detected(self):
        p = exact_detection_probability(BitString("1100"), BitString("0011"), 5)
        assert p == 0.0

    def test_full_overlap_always_detected(self):
        p = exact_detection_probability(BitString("1111"), BitString("1111"), 1)
        assert p == 1.0

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            exact_detection_probability(BitString("0000"), BitString("0011"), 2)

    def test_sampling_more_helps(self):
        x, y = BitString("11110000"), BitString("10000000")
        ps = [exact_detection_probability(x, y, k) for k in (1, 2, 4, 8)]
        assert ps == sorted(ps)


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 64))
    words = st.integers(0, 2**n - 1)
    return BitString(draw(words), n), BitString(draw(words), n)


@given(pairs(), st.integers(1, 64), st.integers(0, 2**32))
def test_every_reported_probability_is_the_float_of_the_exact_miss(pair, k, seed):
    x, y = pair
    m, h = (x.value & y.value).bit_count(), x.value.bit_count()
    assume(h > 0)
    miss = Fraction(h - m, h) ** k
    assert exact_detection_probability(x, y, k) == float(1 - miss)
    report = run_one_way(x, y, k, np.random.default_rng(seed))
    error, detect = report_floats(m, h, k)
    if h < k:  # the literal answer 1 samples nothing
        assert report.p_detect is detect is None
        assert report.exact_error_probability == error == float(m > 0)
    else:
        assert report.p_detect == detect == float(1 - miss)
        # a disjoint pair is never rejected, so it never errs
        assert report.exact_error_probability == error == (float(miss) if m else 0.0)


class TestPositionsCount:
    def test_quarter_margin(self):
        # (3/4)^4 = 81/256 <= 1/3 < (3/4)^3
        assert positions_count(Fraction(1, 4)) == 4

    def test_eighth_margin(self):
        assert positions_count(Fraction(1, 8)) == 9

    def test_threshold_exact(self):
        for lam in (Fraction(1, 4), Fraction(1, 8)):
            k = positions_count(lam)
            assert (1 - lam) ** k <= Fraction(1, 3)
            assert (1 - lam) ** (k - 1) > Fraction(1, 3)

    def test_accepts_margin_object(self):
        assert positions_count(Margin.from_text("1/4", 8)) == 4

    def test_tighter_eps(self):
        assert positions_count(Fraction(1, 4), eps=Fraction(1, 100)) == 17


class TestBitCost:
    def test_k_blocks_of_log_n(self):
        assert bit_cost(8, 4) == 4 * 3
        assert bit_cost(16, 5) == 5 * 4

    def test_single_bit_universe(self):
        # a position over n=1 still takes one bit to name
        assert bit_cost(1, 3) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bit_cost(0, 1)
        with pytest.raises(ValueError):
            bit_cost(4, 0)


class TestRunOneWay:
    def test_yes_pair_never_errs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rep = run_one_way(BitString("11110000"), BitString("00001111"), 4, rng)
            assert rep.decision == 1
            assert rep.exact_error_probability == 0.0

    def test_sampling_branch_fields(self):
        rng = np.random.default_rng(1)
        rep = run_one_way(BitString("11110000"), BitString("10000000"), 4, rng)
        assert not rep.literal_branch
        assert rep.bits_communicated == 4 * 3
        assert rep.exact_error_probability == pytest.approx((1 - 1 / 4) ** 4)

    def test_literal_branch_on_light_input(self):
        rng = np.random.default_rng(2)
        rep = run_one_way(BitString("01000000"), BitString("01000000"), 4, rng)
        assert rep.literal_branch
        assert rep.decision == 1
        assert rep.bits_communicated == 1
        assert rep.exact_error_probability == 1.0

    def test_literal_branch_errs_only_on_overlap(self):
        rng = np.random.default_rng(3)
        rep = run_one_way(BitString("01000000"), BitString("10000000"), 4, rng)
        assert rep.literal_branch
        assert rep.exact_error_probability == 0.0

    def test_decision_frequency_tracks_exact(self):
        x, y = BitString("11110000"), BitString("11000000")
        p = exact_detection_probability(x, y, 3)
        rng = np.random.default_rng(12)
        hits = sum(run_one_way(x, y, 3, rng).decision == 0 for _ in range(2000))
        assert hits / 2000 == pytest.approx(p, abs=0.05)


class TestDetectionFrequency:
    def test_matches_exact_within_three_sigma(self):
        x, y = BitString("11110000"), BitString("11000000")
        k, trials = 4, 100_000
        p = exact_detection_probability(x, y, k)
        freq = detection_frequency(x, y, k, trials, np.random.default_rng(21))
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(freq - p) <= 3 * sigma

    def test_deterministic_given_seed(self):
        x, y = BitString("11110000"), BitString("10100000")
        a = detection_frequency(x, y, 3, 1000, np.random.default_rng(8))
        b = detection_frequency(x, y, 3, 1000, np.random.default_rng(8))
        assert a == b

    def test_rejects_literal_branch_weight(self):
        with pytest.raises(ValueError):
            detection_frequency(BitString("0100"), BitString("0100"), 2, 10, np.random.default_rng(0))
