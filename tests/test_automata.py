"""Measure-once automata, promise word problems, and the DFA reduction."""

import json

import numpy as np
import pytest

from promisecc.automata import (
    BRUTEFORCE_DFA_LIMIT,
    Dfa,
    accept_probability,
    bruteforce_disjointness_dfa,
    classify_word,
    disjointness_automaton,
    disjointness_word,
    disjointness_word_problem,
    equality_automaton,
    equality_word,
    equality_word_problem,
    extended_transition,
    protocol_from_dfa,
    qcfa_from_json,
    qcfa_to_json,
    run_dfa,
    verify_promise_dfa,
)
from promisecc.bits import (
    BitString,
    Margin,
    PromiseLabel,
    all_bitstrings,
    hamming_distance,
    intersection_size,
)
from promisecc.quantum_protocol import closed_form_accept_probability


class TestWords:
    def test_equality_word_shape(self):
        w = equality_word(BitString("01"), BitString("10"))
        assert w == "01#10"

    def test_disjointness_word_repeats_first_block(self):
        w = disjointness_word(BitString("01"), BitString("10"))
        assert w == "01#10#01"

    def test_classify_equality_words(self):
        problem = equality_word_problem(4)
        assert classify_word(problem, "0101#0101") is PromiseLabel.YES
        assert classify_word(problem, "0101#0110") is PromiseLabel.NO
        assert classify_word(problem, "0101#0100") is PromiseLabel.OUTSIDE

    def test_classify_disjointness_words(self):
        problem = disjointness_word_problem(4)
        assert classify_word(problem, "0011#1100#0011") is PromiseLabel.YES
        assert classify_word(problem, "0011#0011#0011") is PromiseLabel.NO
        # third block must repeat the first
        assert classify_word(problem, "0011#1100#0010") is PromiseLabel.OUTSIDE

    def test_malformed_words_are_outside(self):
        cases = [
            (equality_word_problem(4),
             ["", "0101", "0101#01", "0101#0101#0101", "01a1#0101"]),
            (disjointness_word_problem(4),
             ["0011#1100", "0011#1100#0011#0011", "0011#1a00#0011",
              "0011#1100#00a1", "0011#110#0011", "0011#1100#001"]),
        ]
        for problem, malformed in cases:
            for bad in malformed:
                assert classify_word(problem, bad) is PromiseLabel.OUTSIDE, bad

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_labels_match_oracle_on_all_pairs(self, n):
        # oracle: equality NO at distance exactly n/2 (none for odd n);
        # disjointness NO for overlaps in [n/4, 3n/4], in integer arithmetic
        def eq_oracle(xv, yv):
            d = bin(xv ^ yv).count("1")
            return "yes" if d == 0 else "no" if 2 * d == n else "outside"

        def disj_oracle(xv, yv):
            m = bin(xv & yv).count("1")
            return "yes" if m == 0 else "no" if n <= 4 * m <= 3 * n else "outside"

        eq, disj = equality_word_problem(n), disjointness_word_problem(n)
        flip_last = BitString(1, n)
        for x in all_bitstrings(n):
            for y in all_bitstrings(n):
                assert classify_word(eq, equality_word(x, y)).value == eq_oracle(
                    x.value, y.value
                )
                assert classify_word(disj, disjointness_word(x, y)).value == (
                    disj_oracle(x.value, y.value)
                )
                # a third block that differs from the first is outside
                word = f"{x}#{y}#{x ^ flip_last}"
                assert classify_word(disj, word) is PromiseLabel.OUTSIDE


class TestEqualityAutomaton:
    @pytest.mark.parametrize("n", [2, 4])
    def test_state_counts(self, n):
        machine = equality_automaton(n)
        assert len(machine.quantum_labels) == n
        assert len(machine.classical_states) == n + 2

    def test_machine_validates(self):
        equality_automaton(4).validate()

    @pytest.mark.parametrize("n", [2, 4])
    def test_exact_acceptance_on_promise(self, n):
        machine = equality_automaton(n)
        problem = equality_word_problem(n)
        for x in all_bitstrings(n):
            for y in all_bitstrings(n):
                label = classify_word(problem, equality_word(x, y))
                if label is PromiseLabel.OUTSIDE:
                    continue
                p = accept_probability(machine, equality_word(x, y))
                expected = 1.0 if label is PromiseLabel.YES else 0.0
                assert p == pytest.approx(expected, abs=1e-9)

    def test_acceptance_off_promise_follows_distance(self):
        # amplitude mean over positions: (1 - 2 d / n)^2
        machine = equality_automaton(4)
        x, y = BitString("0000"), BitString("0001")
        p = accept_probability(machine, equality_word(x, y))
        d = hamming_distance(x, y)
        assert p == pytest.approx((1 - 2 * d / 4) ** 2, abs=1e-9)

    def test_rejects_bad_symbols(self):
        machine = equality_automaton(2)
        with pytest.raises(ValueError):
            accept_probability(machine, "01#0x")


class TestDisjointnessAutomaton:
    @pytest.mark.parametrize("n", [2, 4])
    def test_state_counts(self, n):
        machine = disjointness_automaton(n)
        assert len(machine.quantum_labels) == 2 * n
        assert len(machine.classical_states) == 2 * n + 2

    def test_machine_validates(self):
        disjointness_automaton(4).validate()

    def test_matches_protocol_exhaustively_n4(self):
        machine = disjointness_automaton(4)
        for x in all_bitstrings(4):
            for y in all_bitstrings(4):
                p = accept_probability(machine, disjointness_word(x, y))
                assert p == pytest.approx(closed_form_accept_probability(x, y), abs=1e-9)

    def test_yes_and_no_probabilities(self):
        machine = disjointness_automaton(4)
        assert accept_probability(
            machine, disjointness_word(BitString("0011"), BitString("1100"))
        ) == pytest.approx(1.0, abs=1e-9)
        assert accept_probability(
            machine, disjointness_word(BitString("0001"), BitString("0011"))
        ) == pytest.approx(0.25, abs=1e-9)


class TestSerialization:
    @pytest.mark.parametrize("build,n", [(equality_automaton, 4), (disjointness_automaton, 2)])
    def test_roundtrip_preserves_acceptance(self, build, n):
        machine = build(n)
        restored = qcfa_from_json(qcfa_to_json(machine))
        restored.validate()
        words = (
            [equality_word(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
            if build is equality_automaton
            else [disjointness_word(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
        )
        for w in words[:64]:
            assert accept_probability(restored, w) == pytest.approx(
                accept_probability(machine, w), abs=1e-9
            )


    def test_disjointness_n8_is_compact_and_roundtrips(self):
        machine = disjointness_automaton(8)
        blob = qcfa_to_json(machine)
        assert len(blob) < 50_000
        restored = qcfa_from_json(blob)
        assert restored.quantum_tr.keys() == machine.quantum_tr.keys()
        for key, u in machine.quantum_tr.items():
            v = restored.quantum_tr[key]
            if isinstance(u, np.ndarray):
                assert np.array_equal(v, u)
            else:
                assert np.array_equal(v.perm, u.perm) and np.array_equal(v.sign, u.sign)
        # a dense matrix comes back in C order, so products may round differently
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = BitString(rng.integers(0, 2, size=8).tolist())
            y = BitString(rng.integers(0, 2, size=8).tolist())
            w = disjointness_word(x, y)
            assert accept_probability(restored, w) == pytest.approx(
                accept_probability(machine, w), abs=1e-12
            )

    @pytest.mark.parametrize("field,value", [
        ("perm", [0, 0, 2, 3]),  # not a permutation
        ("perm", [0, 1, 2, 4]),  # index out of range
        ("sign", [1, -1, 2, 1]),  # sign other than +-1
        ("sign", [1, 1, 1]),  # sign of the wrong length
    ])
    def test_from_json_rejects_bad_signed_permutation(self, field, value):
        payload = json.loads(qcfa_to_json(disjointness_automaton(2)))
        entry = next(e for e in payload["quantum_tr"] if "perm" in e)
        entry[field] = value
        with pytest.raises(ValueError):
            qcfa_from_json(json.dumps(payload))

    def test_from_json_rejects_unknown_fields(self):
        # a payload from a machine with halting states must not load as one without
        payload = json.loads(qcfa_to_json(equality_automaton(2)))
        payload["accepting_states"] = [3]
        with pytest.raises(ValueError, match="unknown QCFA fields"):
            qcfa_from_json(json.dumps(payload))

    def test_missing_transitions_are_identity_and_stay(self):
        machine = disjointness_automaton(3)
        # reading 0 in the x block moves the counter but leaves the register
        assert (1, "0") not in machine.quantum_tr
        assert machine.classical_tr[(1, "0")] == 2
        # the first separator keeps the control in place
        assert (4, "#") not in machine.classical_tr


def _parity_dfa() -> Dfa:
    # even number of 1s accepted
    return Dfa(
        states=("even", "odd"),
        alphabet=("0", "1"),
        transition={
            ("even", "0"): "even",
            ("even", "1"): "odd",
            ("odd", "0"): "odd",
            ("odd", "1"): "even",
        },
        start="even",
        accepting=frozenset({"even"}),
    )


class TestDfa:
    def test_run_parity(self):
        d = _parity_dfa()
        assert run_dfa(d, "0110")
        assert not run_dfa(d, "0100")

    def test_extended_transition(self):
        d = _parity_dfa()
        assert extended_transition(d, "even", "111") == "odd"

    def test_unknown_symbol_raises(self):
        with pytest.raises(ValueError):
            run_dfa(_parity_dfa(), "012")


class TestBruteforceDfa:
    def test_accepts_exactly_yes_words_n2(self):
        d = bruteforce_disjointness_dfa(2)
        problem = disjointness_word_problem(2)
        for x in all_bitstrings(2):
            for y in all_bitstrings(2):
                w = disjointness_word(x, y)
                expected = intersection_size(x, y) == 0
                assert run_dfa(d, w) == expected, w
        assert verify_promise_dfa(d, 2)

    def test_state_counts_grow(self):
        sizes = [bruteforce_disjointness_dfa(n).size for n in (1, 2, 3)]
        assert sizes == sorted(sizes)
        assert all(s >= 2 for s in sizes)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            bruteforce_disjointness_dfa(BRUTEFORCE_DFA_LIMIT + 1)


class TestDfaProtocol:
    def test_cost_formula(self):
        d = bruteforce_disjointness_dfa(3)
        protocol = protocol_from_dfa(d, 3)
        expected = 1 + 2 * int(np.ceil(np.log2(d.size)))
        assert protocol.cost == expected

    def test_decides_all_pairs_n3(self):
        protocol = protocol_from_dfa(bruteforce_disjointness_dfa(3), 3)
        for x in all_bitstrings(3):
            for y in all_bitstrings(3):
                expected = 1 if intersection_size(x, y) == 0 else 0
                assert protocol.decide(x, y) == expected
