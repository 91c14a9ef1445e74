"""Dense unitary builders, signed-permutation operators, basis measurement."""

import dataclasses

import numpy as np
import pytest

from promisecc import qsim
from promisecc.automata import accept_probability, disjointness_automaton
from promisecc.bits import BitString


def _random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


class TestBasics:
    def test_pair_index_layout(self):
        # low block holds (i, 0), high block holds (i, 1), both 1-based in i
        n = 4
        assert qsim.pair_index(1, 0, n) == 0
        assert qsim.pair_index(4, 0, n) == 3
        assert qsim.pair_index(1, 1, n) == 4
        assert qsim.pair_index(4, 1, n) == 7

    def test_basis_state(self):
        psi = qsim.basis_state(4, 2)
        assert psi.shape == (4,)
        assert psi[2] == 1.0
        assert qsim.is_unit(psi)

    def test_uniform_over(self):
        psi = qsim.uniform_over(8, 4)
        assert qsim.is_unit(psi)
        assert np.allclose(psi[:4], 0.5)
        assert np.allclose(psi[4:], 0.0)


class TestUnitaries:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_spread_collect_unitary(self, n):
        assert qsim.is_unitary(qsim.spread_op(n))
        assert qsim.is_unitary(qsim.collect_op(n))

    @pytest.mark.parametrize("bits", ["0000", "1010", "1111"])
    def test_swap_phase_unitary(self, bits):
        x = BitString(bits)
        assert qsim.is_unitary(qsim.swap(x).to_matrix())
        assert qsim.is_unitary(qsim.phase(x).to_matrix())

    def test_spread_prepares_uniform_low_block(self):
        n = 4
        psi = qsim.basis_state(2 * n, qsim.pair_index(1, 0, n))
        psi = qsim.spread_op(n) @ psi
        assert np.allclose(psi, qsim.uniform_over(2 * n, n))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_spread_first_column_is_uniform_low_block(self, n):
        # the protocol round starts from this column, not from spread @ e_(1,0)
        spread = qsim.spread_op(n)
        uniform = qsim.uniform_over(2 * n, n)
        assert np.array_equal(spread[:, 0], uniform)
        assert np.array_equal(spread @ qsim.basis_state(2 * n, 0), uniform)

    def test_collect_inverts_spread_on_first_column(self):
        n = 4
        start = qsim.basis_state(2 * n, qsim.pair_index(1, 0, n))
        out = qsim.collect_op(n) @ (qsim.spread_op(n) @ start)
        assert np.allclose(out, start, atol=1e-12)

    def test_swap_moves_low_to_high_at_one_positions(self):
        u = qsim.swap(BitString("0100"))
        lo = qsim.basis_state(8, qsim.pair_index(2, 0, 4))
        hi_expected = qsim.basis_state(8, qsim.pair_index(2, 1, 4))
        assert np.array_equal(u @ lo, hi_expected)
        # zero positions stay put
        keep = qsim.basis_state(8, qsim.pair_index(1, 0, 4))
        assert np.array_equal(u @ keep, keep)

    def test_phase_flips_high_block_only(self):
        u = qsim.phase(BitString("0100"))
        hi = qsim.basis_state(8, qsim.pair_index(2, 1, 4))
        lo = qsim.basis_state(8, qsim.pair_index(2, 0, 4))
        assert np.array_equal(u @ hi, -hi)
        assert np.array_equal(u @ lo, lo)

    def test_assert_unitary_raises(self):
        with pytest.raises(ValueError):
            qsim.assert_unitary(np.ones((2, 2)))

    def test_complete_unitary_from_column(self):
        column = qsim.uniform_over(6, 3)
        u = qsim.complete_unitary_from_column(column)
        assert qsim.is_unitary(u)
        assert np.allclose(u[:, 0], column)


class TestFastPaths:
    @pytest.mark.parametrize("xbits,ybits", [("0000", "0000"), ("1010", "0110"), ("1111", "1111")])
    def test_fast_swap_matches_dense(self, xbits, ybits):
        psi = _random_state(np.random.default_rng(5), 8)
        for op in (qsim.swap(BitString(xbits)), qsim.phase(BitString(ybits))):
            assert np.array_equal(op @ psi, op.to_matrix() @ psi)


class TestSignedPermutation:
    @pytest.mark.parametrize("n", [1, 2, 7, 32, 64])
    def test_random_words_match_dense_reference(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = BitString(rng.integers(0, 2, size=n).tolist())
            y = BitString(rng.integers(0, 2, size=n).tolist())
            psi = _random_state(rng, 2 * n)
            for op in (qsim.swap(x), qsim.phase(y)):
                dense = op.to_matrix()
                assert qsim.is_unitary(dense)
                assert np.allclose(op @ psi, dense @ psi, atol=1e-15)
            assert np.array_equal(qsim.swap(x) @ (qsim.swap(x) @ psi), psi)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qsim.swap(BitString("01")) @ qsim.basis_state(6, 0)

    @pytest.mark.parametrize("n", [1, 3, 8, 64, 70])
    def test_batch_rows_are_the_single_operators(self, n):
        rng = np.random.default_rng(n)
        words = [BitString(rng.integers(0, 2, size=n).tolist()) for _ in range(6)]
        values = [w.value for w in words]
        for build in (qsim.swap, qsim.phase):
            batch = build(values, n)
            assert batch.perm.shape == batch.sign.shape == (6, 2 * n)
            assert batch.dim == 2 * n
            for row, word in enumerate(words):
                single = build(word)
                assert np.array_equal(batch.perm[row], single.perm)
                assert np.array_equal(batch.sign[row], single.sign)

    def test_batch_applies_row_by_row(self):
        rng = np.random.default_rng(3)
        n, values = 5, [0, 0b10110, 0b11111]
        psi = _random_state(rng, 2 * n)
        states = np.array([_random_state(rng, 2 * n) for _ in values])
        swaps = qsim.swap(values, n)
        # one state goes to every operator of the batch
        shared = swaps @ psi
        # a batch of states goes one to each operator
        paired = swaps @ states
        for row, v in enumerate(values):
            single = qsim.swap(BitString(v, n))
            assert np.array_equal(shared[row], single @ psi)
            assert np.array_equal(paired[row], single @ states[row])

    def test_batch_rejects_mismatched_states(self):
        swaps = qsim.swap([1, 2, 3], 2)
        with pytest.raises(ValueError):
            swaps @ np.zeros((2, 4), dtype=complex)  # two states, three operators
        with pytest.raises(ValueError):
            swaps @ np.zeros(6, dtype=complex)
        with pytest.raises(ValueError):
            qsim.swap(BitString("01")) @ np.zeros((3, 4), dtype=complex)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_ones_mask_matches_the_written_word(self, n):
        rng = np.random.default_rng(n)
        words = [BitString(rng.integers(0, 2, size=n).tolist()) for _ in range(4)]
        words += [BitString(0, n), ~BitString(0, n)]
        for word in words:
            expected = [c == "1" for c in str(word)]
            assert qsim._ones(word).tolist() == expected
        batch = qsim._ones([w.value for w in words], n)
        assert batch.tolist() == [[c == "1" for c in str(w)] for w in words]

    @pytest.mark.parametrize("perm,sign", [
        ([0, 0, 2], [1, 1, 1]),  # repeated index
        ([0, 1, 3], [1, 1, 1]),  # index out of range
        ([0.0, 1.0, 2.0], [1, 1, 1]),  # not integers
        ([0, 1, 2], [1, 0.5, 1]),  # sign off +-1
        ([0, 1, 2], [1, 1]),  # sign of the wrong length
    ])
    def test_validate_rejects(self, perm, sign):
        op = qsim.SignedPermutation(np.array(perm), np.array(sign))
        with pytest.raises(ValueError):
            op.validate()


class TestMeasurement:
    """Measurement is in the register's basis: outcome k has |psi[k]|**2."""

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        psi = _random_state(rng, 8)
        for op in (qsim.swap(BitString("1011")), qsim.phase(BitString("0110"))):
            psi = op @ psi
        total = sum(abs(psi[k]) ** 2 for k in range(8))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pair_basis_outcome_labels(self):
        labels = disjointness_automaton(2).quantum_labels
        assert set(labels) == {(1, 0), (2, 0), (1, 1), (2, 1)}
        for i, b in labels:
            assert labels[qsim.pair_index(i, b, 2)] == (i, b)

    def test_unknown_outcome_raises(self):
        machine = dataclasses.replace(
            disjointness_automaton(2), accept_outcomes=frozenset({"nope"})
        )
        with pytest.raises(ValueError):
            machine.validate()
        with pytest.raises(ValueError):
            accept_probability(machine, "01#10#01")

    def test_duplicate_labels_rejected(self):
        machine = disjointness_automaton(2)
        labels = (machine.quantum_labels[0],) * machine.dim
        with pytest.raises(ValueError):
            dataclasses.replace(machine, quantum_labels=labels).validate()
