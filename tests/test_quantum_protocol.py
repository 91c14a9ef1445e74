"""Quantum disjointness protocol: round probabilities, amplification, cost."""

import math
from fractions import Fraction

import numpy as np
import pytest

from promisecc.bits import BitString, Margin, PromiseLabel, all_bitstrings, intersection_size
from promisecc.quantum_protocol import (
    QuantumProtocolReport,
    closed_form_accept_probability,
    qubit_cost,
    repetition_count,
    round_accept_probability,
    round_accept_probability_fast,
    run_protocol,
)
from promisecc.randomized_protocol import bit_cost, positions_count


class TestRoundProbability:
    def test_disjoint_pair_accepts_surely(self):
        p = round_accept_probability(BitString("0011"), BitString("1100"))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_half_intersection_never_accepts(self):
        p = round_accept_probability(BitString("0011"), BitString("0011"))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_single_overlap_quarter(self):
        p = round_accept_probability(BitString("0001"), BitString("0011"))
        assert p == pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form_exhaustively_n4(self):
        for x in all_bitstrings(4):
            for y in all_bitstrings(4):
                dense = round_accept_probability(x, y)
                fast = round_accept_probability_fast(x, y)
                formula = closed_form_accept_probability(x, y)
                assert dense == pytest.approx(formula, abs=1e-9)
                assert fast == pytest.approx(formula, abs=1e-9)

    def test_fast_path_matches_dense_n8_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = BitString(rng.integers(0, 2, size=8).tolist())
            y = BitString(rng.integers(0, 2, size=8).tolist())
            assert round_accept_probability_fast(x, y) == pytest.approx(
                round_accept_probability(x, y), abs=1e-9
            )

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_three_paths_agree_on_random_pairs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = BitString(rng.integers(0, 2, size=n).tolist())
            y = BitString(rng.integers(0, 2, size=n).tolist())
            formula = closed_form_accept_probability(x, y)
            assert round_accept_probability(x, y) == pytest.approx(formula, abs=1e-9)
            assert round_accept_probability_fast(x, y) == pytest.approx(formula, abs=1e-9)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            round_accept_probability(BitString("01"), BitString("011"))


class TestRepetition:
    def test_quarter_margin_needs_one_round(self):
        assert repetition_count(Fraction(1, 4)) == 1

    def test_eighth_margin_needs_three_rounds(self):
        assert repetition_count(Fraction(1, 8)) == 3

    def test_sixteenth_margin(self):
        # (13/16)^k <= 1/3 first at k = 6
        assert repetition_count(Fraction(1, 16)) == 6

    def test_tighter_eps(self):
        assert repetition_count(Fraction(1, 4), eps=Fraction(1, 10)) == 2

    def test_accepts_margin_object(self):
        assert repetition_count(Margin.from_text("1/8", 8)) == 3

    def test_is_exact_threshold(self):
        for lam in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            k = repetition_count(lam)
            base = 1 - 3 * lam
            assert base**k <= Fraction(1, 3) < base ** (k - 1) if k > 1 else True

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            repetition_count(Fraction(1, 4), eps=Fraction(3, 2))

    def test_rejects_margin_out_of_range(self):
        with pytest.raises(ValueError):
            repetition_count(Fraction(1, 3))


class TestQubitCost:
    @pytest.mark.parametrize("n,expected", [(4, 7), (16, 11), (1024, 23)])
    def test_single_round(self, n, expected):
        assert qubit_cost(n) == expected

    def test_scales_linearly_in_k(self):
        assert qubit_cost(8, 3) == 3 * qubit_cost(8)

    def test_non_power_of_two_rounds_up(self):
        assert qubit_cost(5) == 3 + 2 * 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            qubit_cost(0)
        with pytest.raises(ValueError):
            qubit_cost(4, 0)


class TestCostCeilings:
    """Exact counts against their analytic ceilings: k_q <= log2(1/eps)/(3*lam)
    rounds and k_c <= log2(1/eps)/lam positions, as -log2(1-t) >= t on (0, 1)."""

    @pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)])
    @pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)])
    def test_counts_within_ceilings(self, lam, eps):
        target_bits = math.log2(1 / eps)
        assert repetition_count(lam, eps) <= target_bits / (3 * float(lam))
        assert positions_count(lam, eps) <= target_bits / float(lam)

    def test_quarter_margin_n8_costs(self):
        k_quantum = repetition_count(Fraction(1, 4), Fraction(1, 3))
        k_classical = positions_count(Fraction(1, 4), Fraction(1, 3))
        assert (k_quantum, qubit_cost(8, k_quantum)) == (1, 9)
        assert (k_classical, bit_cost(8, k_classical)) == (4, 12)


class TestRunProtocol:
    def test_yes_pair_always_accepts(self):
        margin = Margin.from_text("1/4", 4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rep = run_protocol(BitString("0011"), BitString("1100"), margin, 3, rng)
            assert rep.decision == 1
            assert rep.label is PromiseLabel.YES
            assert rep.p_single == pytest.approx(1.0)

    def test_no_pair_rejects_often(self):
        margin = Margin.from_text("1/4", 4)
        rng = np.random.default_rng(1)
        x = y = BitString("0011")
        decisions = [run_protocol(x, y, margin, 1, rng).decision for _ in range(50)]
        # zero acceptance probability: every run rejects
        assert decisions == [0] * 50

    def test_deterministic_given_seed(self):
        margin = Margin.from_text("1/4", 4)
        x, y = BitString("0001"), BitString("0011")
        a = [run_protocol(x, y, margin, 2, np.random.default_rng(9)).decision for _ in range(10)]
        b = [run_protocol(x, y, margin, 2, np.random.default_rng(9)).decision for _ in range(10)]
        assert a == b

    def test_report_record_fields(self):
        margin = Margin.from_text("1/4", 4)
        rep = run_protocol(
            BitString("0011"), BitString("1100"), margin, 2, np.random.default_rng(4)
        )
        record = rep.to_record()
        assert record["n"] == 4
        assert record["lambda"] == "1/4"
        assert record["k"] == 2
        assert record["qubits"] == 2 * 7
        assert record["p_accept_k"] == pytest.approx(rep.p_single**2)

    def test_rejects_nonpositive_k(self):
        margin = Margin.from_text("1/4", 4)
        with pytest.raises(ValueError):
            run_protocol(BitString("0011"), BitString("1100"), margin, 0, np.random.default_rng(0))


class TestAmplifiedSoundness:
    def test_band_error_below_third_n8(self):
        """Unanimous acceptance over k rounds errs at most 1/3 on band pairs."""
        for lam_text in ("1/4", "1/8"):
            margin = Margin.from_text(lam_text, 8)
            k = repetition_count(margin)
            worst = (1 - 2 * float(margin.fraction)) ** 2
            assert worst**k <= 1 / 3 + 1e-12

    def test_band_probability_bound_spot_checks(self):
        margin = Margin.from_text("1/4", 8)
        bound = (1 - 2 * float(margin.fraction)) ** 2
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 30:
            x = BitString(rng.integers(0, 2, size=8).tolist())
            y = BitString(rng.integers(0, 2, size=8).tolist())
            if not margin.low <= intersection_size(x, y) <= margin.high:
                continue
            assert round_accept_probability_fast(x, y) <= bound + 1e-9
            checked += 1
