"""The batched automaton run, the pair rule for words and the integer round.

The automaton sweep runs a chunk of words through a machine at once, as
symbol codes on integer states, labels pairs without building their words,
and checks the machine's integer against its word problem's n - 2c.  Each
must give, bit for bit, what one word or one pair gives alone, whatever
the batch around it.  The reference run below is the one-word-at-a-time
walk in complex floats that the batch replaced.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from promisecc import qsim
from promisecc.automata import (
    LEFT_MARKER,
    RIGHT_MARKER,
    WORD_ALPHABET,
    Qcfa,
    accept_columns,
    accept_probabilities,
    accept_probability,
    disjointness_automaton,
    disjointness_word,
    disjointness_word_problem,
    equality_automaton,
    equality_word,
    equality_word_problem,
    word_problems,
)
from promisecc.bits import BitString, PromiseLabel, all_bitstrings, intersection_size
from promisecc.quantum_protocol import round_columns

MACHINES = [
    (equality_automaton, equality_word, equality_word_problem),
    (disjointness_automaton, disjointness_word, disjointness_word_problem),
]


def _reference(machine: Qcfa, word: str) -> float:
    """One word, one symbol at a time, in complex floats: the walk the
    batched run replaced, with each accept row of the right marker summed
    term by term, as the run sums it."""
    index = machine.quantum_labels.index
    s = machine.initial_classical
    psi = np.zeros(machine.dim, dtype=complex)
    psi[index(machine.initial_quantum)] = 1.0
    for sym in (LEFT_MARKER, *word):
        u = machine.quantum_tr.get((s, sym))
        if u is not None:
            psi = u @ psi
        s = machine.classical_tr.get((s, sym), s)
    u = machine.quantum_tr.get((s, RIGHT_MARKER))
    if u is None:
        u = np.eye(machine.dim)
    elif isinstance(u, qsim.SignedPermutation):
        u = u.to_matrix()
    total = 0.0
    for o in sorted(index(o) for o in machine.accept_outcomes):
        amplitude = 0j
        for j in range(machine.dim):
            amplitude += u[o, j] * psi[j]
        total += float(np.abs(amplitude) ** 2)  # numpy's abs, as the run takes it
    return total


@st.composite
def chunkings(draw, items):
    """``items`` cut into consecutive chunks, empty ones included."""
    values = draw(items)
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=6)))
    bounds = [0, *cuts, len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def _run_in_chunks(machine, chunks):
    return [p for chunk in chunks for p in accept_probabilities(machine, chunk)]


@pytest.mark.parametrize("build,word_of,_", MACHINES)
@pytest.mark.parametrize("n", range(1, 9))
def test_every_word_runs_as_it_does_alone(build, word_of, _, n):
    machine = build(n)
    words = [word_of(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
    together = accept_probabilities(machine, words)
    # every word alone up to n=5; from n=6 on, a fixed sample of them
    rng = np.random.default_rng(n)
    rows = range(len(words)) if n <= 5 else sorted(rng.choice(len(words), 300, replace=False))
    assert [together[r] for r in rows] == [accept_probability(machine, words[r]) for r in rows]
    assert [together[r] for r in rows] == [_reference(machine, words[r]) for r in rows]


@given(
    st.sampled_from(MACHINES),
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.just(n), chunkings(st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
            min_size=1, max_size=30,
        )))
    ),
)
def test_chunked_runs_equal_words_alone(kind, sized_chunks):
    build, word_of, _ = kind
    n, chunks = sized_chunks
    machine = build(n)
    words = [[word_of(BitString(x, n), BitString(y, n)) for x, y in chunk]
             for chunk in chunks]
    alone = [accept_probability(machine, w) for chunk in words for w in chunk]
    assert _run_in_chunks(machine, words) == alone
    assert alone == [_reference(machine, w) for chunk in words for w in chunk]


def _branching_machine() -> Qcfa:
    """A machine whose control path, and so its operators, depend on the word.

    The first symbol sends the control to "a" or "é"; from there each
    symbol may switch branch, applying a signed permutation as it goes,
    and the right marker measures through a branch's own dense unitary.
    The left marker is dense too, with the start column (2, -1, 0)/sqrt(5).
    """
    rng = np.random.default_rng(3)

    def dense():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        return q * (np.diagonal(r) / abs(np.diagonal(r)))

    def signed(perm, sign):
        return qsim.SignedPermutation(np.array(perm), np.array(sign, dtype=float))

    start = np.array([2, -1, 0]) * (1.0 / np.sqrt(5))
    quantum_tr = {
        ("start", LEFT_MARKER): qsim.complete_unitary_from_column(start),
        ("first", "a"): signed([1, 2, 0], [1, -1, 1]),
        ("first", "é"): signed([2, 0, 1], [-1, 1, 1]),
        ("a", "a"): signed([0, 1, 2], [-1, 1, -1]),
        ("a", "é"): signed([1, 0, 2], [1, -1, 1]),
        ("é", "é"): signed([2, 1, 0], [1, 1, 1]),
        ("a", RIGHT_MARKER): dense(),
        ("é", RIGHT_MARKER): dense(),
    }
    classical_tr = {
        ("start", LEFT_MARKER): "first",
        ("first", "a"): "a",
        ("first", "é"): "é",
        ("a", "é"): "é",
        ("é", "a"): "a",
    }
    machine = Qcfa(
        quantum_labels=(0, 1, 2),
        classical_states=("start", "first", "a", "é"),
        alphabet=("a", "é"),
        quantum_tr=quantum_tr,
        classical_tr=classical_tr,
        initial_quantum=0,
        initial_classical="start",
        accept_outcomes=frozenset({0, 2}),
    )
    machine.validate()
    return machine


def _with_operator(machine: Qcfa, key, u) -> Qcfa:
    return machine._replace(quantum_tr={**machine.quantum_tr, key: u})


@given(
    st.integers(0, 12).flatmap(
        lambda length: chunkings(st.lists(
            st.text(alphabet="aé", min_size=length, max_size=length),
            min_size=1, max_size=30,
        ))
    )
)
def test_words_on_split_control_paths_run_as_they_do_alone(chunks):
    machine = _branching_machine()
    alone = [accept_probability(machine, w) for chunk in chunks for w in chunk]
    assert _run_in_chunks(machine, chunks) == alone
    assert alone == [_reference(machine, w) for chunk in chunks for w in chunk]


def test_split_control_paths_are_taken():
    # the branch, not just the symbol, decides the operator
    machine = _branching_machine()
    assert accept_probability(machine, "aé") != accept_probability(machine, "éé")
    assert len({round(p, 12) for p in accept_probabilities(
        machine, ["aaa", "aaé", "aéa", "éaa", "ééé"])}) == 5


class TestRefusedMachines:
    """The integer run takes only signed permutations between the markers,
    and a left-marker column that is an int8 vector up to scale."""

    def test_dense_middle_step(self):
        dense = qsim.complete_unitary_from_column(np.array([1, 1j, 0]) / np.sqrt(2))
        machine = _with_operator(_branching_machine(), ("a", "a"), dense)
        machine.validate()  # a valid machine, but not one the run takes
        with pytest.raises(ValueError, match=r"\('a', 'a'\) is not a signed permutation"):
            accept_probabilities(machine, ["aa"])
        # refused whether or not the words reach that step
        with pytest.raises(ValueError, match="not a signed permutation"):
            accept_probability(machine, "éé")

    @pytest.mark.parametrize("column", [
        [0.6, 0.8, 0.0],  # 3:4, but not integral at the smallest entry
        [1 / np.sqrt(2), 0.5, 0.5],  # entries of two scales
    ])
    def test_left_marker_column_off_the_integers(self, column):
        left = qsim.complete_unitary_from_column(np.array(column))
        machine = _with_operator(_branching_machine(), ("start", LEFT_MARKER), left)
        with pytest.raises(ValueError, match="not an int8 vector up to scale"):
            accept_probability(machine, "a")


class TestTransitionsReadPerRun:
    """A run reads the machine's transition dicts as they are at that run."""

    @staticmethod
    def _fresh_equality_machine() -> Qcfa:
        machine = equality_automaton(2)
        return machine._replace(quantum_tr=dict(machine.quantum_tr),
                                classical_tr=dict(machine.classical_tr))

    def test_edited_operator_is_used(self):
        machine = self._fresh_equality_machine()
        assert accept_probability(machine, "10#00") == 0.0
        identity = qsim.SignedPermutation(np.arange(2), np.ones(2))
        machine.quantum_tr[(1, "1")] = identity
        edited = self._fresh_equality_machine()
        edited.quantum_tr[(1, "1")] = identity
        fresh = accept_probability(edited, "10#00")
        assert fresh == pytest.approx(1.0, abs=1e-12)
        assert accept_probability(machine, "10#00") == fresh

    def test_successor_outside_the_classical_states(self):
        machine = self._fresh_equality_machine()
        machine.classical_tr[(0, LEFT_MARKER)] = "elsewhere"
        with pytest.raises(ValueError, match="classical states"):
            accept_probability(machine, "10#00")


class TestBatchInputs:
    def test_empty_batch(self):
        assert accept_probabilities(equality_automaton(2), []) == []
        amplitudes, dense = round_columns([], [], 3)
        assert amplitudes.shape == dense.shape == (0,)

    def test_mixed_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            accept_probabilities(equality_automaton(2), ["01#01", "01#0"])

    @pytest.mark.parametrize("bad", ["01#0x", "01#0é", "01#0\U0001f600", "01 01"])
    def test_symbol_outside_the_alphabet(self, bad):
        machine = equality_automaton(2)
        with pytest.raises(ValueError, match="outside the input alphabet"):
            accept_probabilities(machine, ["01#01", bad])
        with pytest.raises(ValueError, match="outside the input alphabet"):
            accept_probability(machine, bad)

    def test_first_symbol_outside_is_named(self):
        with pytest.raises(ValueError, match="'x'"):
            accept_probabilities(equality_automaton(2), ["01#01", "0x#0y"])

    def test_round_batch_mismatch(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            round_columns([1, 2], [3], 2)


@pytest.mark.parametrize("build,word_of,problem_of", MACHINES)
@pytest.mark.parametrize("n", range(1, 6))
def test_pair_rule_labels_every_pair_as_its_word(build, word_of, problem_of, n):
    problem = problem_of(n)
    for x in all_bitstrings(n):
        for y in all_bitstrings(n):
            assert problem.classify_pair(x, y) is problem.classify(word_of(x, y))


@given(
    st.sampled_from(MACHINES),
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1),
                            st.just(n))
    ),
)
def test_pair_rule_labels_random_pairs_as_their_words(kind, pair):
    _, word_of, problem_of = kind
    xv, yv, n = pair
    x, y = BitString(xv, n), BitString(yv, n)
    problem = problem_of(n)
    assert problem.classify_pair(x, y) is problem.classify(word_of(x, y))


def test_pair_rule_rejects_words_of_another_length():
    with pytest.raises(ValueError):
        equality_word_problem(4).classify_pair(BitString("010"), BitString("011"))


@given(
    st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.just(n), chunkings(st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
            min_size=1, max_size=40,
        )))
    ),
)
def test_batched_round_columns_equal_pairs_alone(sized_chunks):
    n, chunks = sized_chunks
    together = [
        s for chunk in chunks
        for s in round_columns([x for x, _ in chunk], [y for _, y in chunk], n)[0].tolist()
    ]
    pairs = [(x, y) for chunk in chunks for x, y in chunk]
    alone = [round_columns([x], [y], n)[0].tolist()[0] for x, y in pairs]
    assert together == alone
    assert alone == [
        n - 2 * intersection_size(BitString(x, n), BitString(y, n)) for x, y in pairs
    ]
    dense = round_columns([x for x, _ in pairs], [y for _, y in pairs], n)[1].tolist()
    for p, s in zip(dense, alone):
        assert abs(p - s * s / n**2) <= 1e-12


def _sized_pairs(max_size):
    return st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)),
        min_size=1, max_size=max_size,
    )))


@given(st.sampled_from(MACHINES), _sized_pairs(30))
def test_machine_integer_is_n_minus_twice_the_count(kind, sized_pairs):
    _, word_of, problem_of = kind
    n, pairs = sized_pairs
    xs, ys = (np.array(v, dtype=np.uint64) for v in zip(*pairs))
    problem = problem_of(n)
    codes = problem.symbol_codes(xs, ys)
    words = [word_of(BitString(x, n), BitString(y, n)) for x, y in pairs]
    assert ["".join(WORD_ALPHABET[c] for c in row) for row in codes.tolist()] == words
    integers, witness = accept_columns(problem.machine, codes)
    assert integers.dtype == np.int64
    assert integers.tolist() == problem.amplitudes(xs, ys).tolist()
    assert witness.tolist() == accept_probabilities(problem.machine, words)


@given(_sized_pairs(40))
def test_disjointness_machine_integer_is_the_round_integer(sized_pairs):
    # two models of one round: the x#y#x machine's integer is the
    # protocol round's S on the same pair
    n, pairs = sized_pairs
    xs, ys = (np.array(v, dtype=np.uint64) for v in zip(*pairs))
    problem = disjointness_word_problem(n)
    integers, _ = accept_columns(problem.machine, problem.symbol_codes(xs, ys))
    assert integers.tolist() == round_columns(xs, ys, n)[0].tolist()


@pytest.mark.parametrize("n", range(1, 7))
def test_word_problem_record_states_what_its_machine_does(n):
    xs, ys = np.divmod(np.arange(4**n, dtype=np.uint64), 2**n)
    pairs = [(BitString(int(x), n), BitString(int(y), n)) for x, y in zip(xs, ys)]
    for problem in word_problems(n):
        machine = problem.machine
        counts = (len(machine.quantum_labels), len(machine.classical_states))
        assert counts == problem.state_counts
        amplitudes = problem.amplitudes(xs, ys).tolist()
        accepted = accept_probabilities(machine, [problem.word(x, y) for x, y in pairs])
        for p, s in zip(accepted, amplitudes):
            assert abs(p - s * s / n**2) <= 1e-12
        for (x, y), s in zip(pairs, amplitudes):
            label = problem.classify_pair(x, y)
            if label is PromiseLabel.YES:
                assert abs(s) == n
            elif label is PromiseLabel.NO:
                assert s * s <= problem.no_cap * n * n
