"""Finite automata with quantum and classical states, and plain DFAs.

The quantum-classical machine scans its input once, left marker first and
right marker last.  A classical control state selects, per scanned symbol,
an operator to apply to the quantum register (a signed permutation or a
dense unitary) and a successor control state; a (state, symbol) pair with
no entry leaves the register alone and the control where it is.  After
the right marker the register is measured once in its basis, whose states
are named by ``quantum_labels``, and the accepting labels decide.
:func:`accept_probabilities` runs a batch of equal-length words at once,
rows grouped by (control state, symbol) at each step, and gives each word
the value it gets alone, reading each group's operator and successor from
the transitions as it goes, so nothing is cached on the machine;
:func:`accept_probability` is a batch of one.

Two concrete machines are built here over the alphabet ``{0, 1, #}``:

* :func:`equality_automaton` decides words ``x#y`` -- n quantum basis
  states, a position-counter control, a sign flip per scanned 1; accept
  amplitude works out to the mean of ``(-1)^(x_i + y_i)``, so equal words
  are accepted surely and words at distance n/2 surely rejected.
* :func:`disjointness_automaton` decides words ``x#y#x`` -- 2n quantum
  basis states running the disjointness protocol round in place: swaps on
  the first x block, sign flips on the y block, swaps again on the second
  x block.

Each word problem is one :class:`WordProblem` record, which is all that
sets the two apart: its promise and margin, its word, its machine and
what that machine must do.  It labels a pair by its promise table,
:meth:`WordProblem.classify_pair`, without building the word;
:meth:`WordProblem.classify` reads a word's first two blocks and the same
table.

A brute-force DFA for the ``x#y#x`` problem (tracking the first block
verbatim plus the running intersection count) witnesses the classical
cost, and :func:`protocol_from_dfa` turns any verified DFA into the
three-message deterministic protocol whose transcript costs
``1 + 2*ceil(log2 N)`` bits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, log2
from typing import Callable, NamedTuple

from .bits import BitString, Promise, PromiseLabel, np
from . import qsim

LEFT_MARKER = "^"
RIGHT_MARKER = "$"
SEPARATOR = "#"
WORD_ALPHABET = ("0", "1", SEPARATOR)


# ---------------------------------------------------------------------------
# quantum-classical machine
# ---------------------------------------------------------------------------

class Qcfa(NamedTuple):
    """Measure-once one-way automaton with quantum and classical states.

    The register's basis states are named by ``quantum_labels``, in index
    order.  ``quantum_tr`` maps (classical state, symbol-or-marker) to a
    :class:`qsim.SignedPermutation` or a dense unitary; a missing entry is
    the identity.  ``classical_tr`` gives the successor control state; a
    missing entry stays put.  After the right marker the register is
    measured in its basis, and the labels in ``accept_outcomes`` accept.
    """

    quantum_labels: tuple
    classical_states: tuple
    alphabet: tuple
    quantum_tr: dict  # (classical state, symbol) -> operator
    classical_tr: dict  # (classical state, symbol) -> classical state
    initial_quantum: object
    initial_classical: object
    accept_outcomes: frozenset = frozenset()

    @property
    def dim(self) -> int:
        return len(self.quantum_labels)

    def validate(self) -> None:
        if len(set(self.quantum_labels)) != self.dim:
            raise ValueError("quantum labels must be distinct")
        for label in (self.initial_quantum, *self.accept_outcomes):
            if label not in self.quantum_labels:
                raise ValueError(f"unknown quantum label {label!r}")
        states = set(self.classical_states)
        if not {self.initial_classical, *self.classical_tr.values()} <= states:
            raise ValueError("start or successor outside the classical states")
        symbols = set(self.alphabet) | {LEFT_MARKER, RIGHT_MARKER}
        for s, sym in (*self.classical_tr, *self.quantum_tr):
            if s not in states or sym not in symbols:
                raise ValueError(f"transition at unknown key {(s, sym)}")
        for key, u in self.quantum_tr.items():
            if isinstance(u, qsim.SignedPermutation):
                u.validate()
                u = u.to_matrix()
            if u.shape != (self.dim, self.dim):
                raise ValueError(f"operator at {key} has wrong dimension")
            qsim.assert_unitary(u)


def accept_probabilities(machine: Qcfa, words) -> list[float]:
    """Run the machine on a batch of equal-length words (markers added
    here); per word, the probability that the final measurement lands in
    an accepting outcome.

    At each step the rows are grouped by (control state, symbol), so each
    group shares one operator and one successor, read from the machine's
    transitions there and then.  A signed permutation moves and negates
    entries of the whole group in place, which is exact; a dense operator
    is applied row by row, since one product over the batch rounds some
    last bits differently.  So a word's value does not depend on its batch.
    """
    if not words:
        return []
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("words in a batch must have equal length")
    text = "".join(words)
    if not set(text) <= set(machine.alphabet):
        sym = next(c for c in text if c not in machine.alphabet)
        raise ValueError(f"symbol {sym!r} outside the input alphabet")
    # one code point per symbol, so a (state, symbol) key is one integer,
    # the state numbered by its position in classical_states
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    codes = codes.reshape(len(words), length)
    index = machine.quantum_labels.index
    psi = np.zeros((len(words), machine.dim), dtype=complex)
    psi[:, index(machine.initial_quantum)] = 1.0
    states = machine.classical_states
    numbers = {s: k for k, s in enumerate(states)}
    if not {machine.initial_classical, *machine.classical_tr.values()} <= numbers.keys():
        raise ValueError("start or successor outside the classical states")
    state = np.full(len(words), numbers[machine.initial_classical])
    columns = (np.full(len(words), ord(LEFT_MARKER)), *codes.T,
               np.full(len(words), ord(RIGHT_MARKER)))
    for column in columns:
        keys = state * _CODES + column
        if len(keys) == 1 or (keys == keys[0]).all():
            groups = [(int(keys[0]), slice(None))]
        else:
            distinct, group = np.unique(keys, return_inverse=True)
            groups = [(key, np.flatnonzero(group == g)[:, None])
                      for g, key in enumerate(distinct.tolist())]
        for key, rows in groups:
            s, sym = states[key // _CODES], chr(key % _CODES)
            state[rows] = numbers[machine.classical_tr.get((s, sym), s)]
            u = machine.quantum_tr.get((s, sym))
            if isinstance(u, qsim.SignedPermutation):
                # sign[k] * psi[perm[k]] changes only these entries
                moved = np.flatnonzero(u.perm != np.arange(u.dim))
                psi[rows, moved] = psi[rows, u.perm[moved]]
                psi[rows, np.flatnonzero(u.sign < 0)] *= -1
            elif u is not None:
                for r in np.arange(len(psi))[rows].ravel():
                    psi[r] = u @ psi[r]
    accept = [index(o) for o in machine.accept_outcomes]
    return [sum(float(abs(a) ** 2) for a in row) for row in psi[:, accept]]


#: Code points per control state in a step key.
_CODES = 0x110000


def accept_probability(machine: Qcfa, word: str) -> float:
    """Run the machine on ``word`` (markers added here) and return
    the probability that the final measurement lands in an accepting outcome.
    """
    return accept_probabilities(machine, [word])[0]


@lru_cache(maxsize=None)
def equality_automaton(n: int) -> Qcfa:
    """Machine solving the x#y promise equality problem exactly.

    n quantum basis states labelled 1..n; n+2 classical states acting as a
    position counter that resets at the separator.
    """
    if n < 1:
        raise ValueError("n must be positive")
    spread = qsim.complete_unitary_from_column(qsim.uniform_over(n, n))
    quantum_tr = {(0, LEFT_MARKER): spread, (n + 1, RIGHT_MARKER): spread.conj().T}
    classical_tr = {(0, LEFT_MARKER): 1, (n + 1, SEPARATOR): 1}
    for i in range(1, n + 1):
        sign = np.ones(n)
        sign[i - 1] = -1.0
        quantum_tr[(i, "1")] = qsim.SignedPermutation(np.arange(n), sign)
        for sym in "01":
            classical_tr[(i, sym)] = i + 1
    return Qcfa(
        quantum_labels=tuple(range(1, n + 1)),
        # 0 start, 1..n positions, n+1 at the boundaries
        classical_states=tuple(range(n + 2)),
        alphabet=WORD_ALPHABET,
        quantum_tr=quantum_tr,
        classical_tr=classical_tr,
        initial_quantum=1,
        initial_classical=0,
        accept_outcomes=frozenset({1}),
    )


@lru_cache(maxsize=None)
def disjointness_automaton(n: int) -> Qcfa:
    """Machine solving the x#y#x promise disjointness problem, one-sided.

    2n quantum basis states labelled (i, b); 2n+2 classical states count
    through the three blocks: swaps on the x blocks, sign flips on the y
    block, collect at the right marker, accept on outcome (1, 0).
    """
    if n < 1:
        raise ValueError("n must be positive")
    quantum_tr = {(0, LEFT_MARKER): qsim.spread_op(n),
                  (n + 1, RIGHT_MARKER): qsim.collect_op(n)}
    # first separator: arrive in state n+1 after the x block, stay to read y;
    # second separator: back to the x positions for the final block
    classical_tr = {(0, LEFT_MARKER): 1, (2 * n + 1, SEPARATOR): 1}
    for i in range(1, n + 1):
        only_i = BitString(1 << (n - i), n)
        # states 1..n read an x block, states n+1..2n read the y block
        quantum_tr[(i, "1")] = qsim.swap(only_i)
        quantum_tr[(n + i, "1")] = qsim.phase(only_i)
        for sym in "01":
            classical_tr[(i, sym)] = i + 1
            classical_tr[(n + i, sym)] = n + i + 1
    return Qcfa(
        quantum_labels=tuple((i, b) for b in (0, 1) for i in range(1, n + 1)),
        classical_states=tuple(range(2 * n + 2)),
        alphabet=WORD_ALPHABET,
        quantum_tr=quantum_tr,
        classical_tr=classical_tr,
        initial_quantum=(1, 0),
        initial_classical=0,
        accept_outcomes=frozenset({(1, 0)}),
    )


# ---------------------------------------------------------------------------
# word problems
# ---------------------------------------------------------------------------

def equality_word(x: BitString, y: BitString) -> str:
    return f"{x}{SEPARATOR}{y}"


def disjointness_word(x: BitString, y: BitString) -> str:
    return f"{x}{SEPARATOR}{y}{SEPARATOR}{x}"


class _Kind(NamedTuple):
    """What sets one word problem apart from the other."""

    lam: Fraction  # NO counts lie in band(lam, n)
    overlap: bool  # the count is the overlap |x & y|, else the distance |x ^ y|
    word: Callable[[BitString, BitString], str]
    automaton: Callable[[int], Qcfa]
    register: int  # the machine's quantum states per input bit


#: The word problems by kind, in report order.
_KINDS = {
    # NO at distance exactly n/2, so odd n has no NO words
    "equality": _Kind(Fraction(1, 2), False, equality_word, equality_automaton, 1),
    # lam is fixed by the machine's acceptance cap (1 - 2*lam)**2 = 1/4
    "disjointness": _Kind(Fraction(1, 4), True, disjointness_word,
                          disjointness_automaton, 2),
}


class WordProblem:
    """Promise problem over words: equality (x#y) or disjointness (x#y#x).

    The one record of each: its promise, margin, word, machine and the
    machine's state counts.  A pair's count c is its distance (x#y) or its
    overlap (x#y#x); YES is c = 0, NO is c in ``band(lam, n)``.  The
    machine's accept amplitude on the word is (n - 2c)/n
    (:meth:`amplitudes`), so it accepts YES words surely and NO words with
    probability at most :attr:`no_cap` = (1 - 2*lam)**2.  Two problems are
    equal when their n and kind are.
    """

    def __init__(self, n: int, kind: str):
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.kind = kind  # "equality" | "disjointness"

    def __eq__(self, other):
        if type(other) is not WordProblem:
            return NotImplemented
        return (self.n, self.kind) == (other.n, other.kind)

    def __hash__(self) -> int:
        return hash((self.n, self.kind))

    @property
    def lam(self) -> Fraction:
        return _KINDS[self.kind].lam

    @property
    def no_cap(self) -> Fraction:
        """The largest accept probability of a NO word, (1 - 2*lam)**2."""
        return (1 - 2 * self.lam) ** 2

    @cached_property
    def promise(self) -> Promise:
        return Promise.from_margin(self.n, _KINDS[self.kind].overlap, self.lam)

    def word(self, x: BitString, y: BitString) -> str:
        return _KINDS[self.kind].word(x, y)

    @property
    def machine(self) -> Qcfa:
        return _KINDS[self.kind].automaton(self.n)

    @property
    def state_counts(self) -> tuple[int, int]:
        """The machine's quantum and classical state counts: two classical
        states beyond the quantum ones."""
        quantum = _KINDS[self.kind].register * self.n
        return quantum, quantum + 2

    def amplitudes(self, x_values, y_values) -> np.ndarray:
        """Per pair of word values, n times the machine's accept amplitude:
        the integer n - 2c."""
        return self.n - 2 * self.promise.counts(x_values, y_values).astype(np.int64)

    def classify(self, word: str) -> PromiseLabel:
        """Label a word by :meth:`classify_pair` of its first two blocks; a
        word that is not this problem's word of those blocks, such as an
        ``x#y#x`` word whose third block is not its first, is outside."""
        blocks = word.split(SEPARATOR)
        if len(blocks) < 2 or any(
            len(b) != self.n or not set(b) <= {"0", "1"} for b in blocks[:2]
        ):
            return PromiseLabel.OUTSIDE
        x, y = BitString(blocks[0]), BitString(blocks[1])
        if self.word(x, y) != word:
            return PromiseLabel.OUTSIDE
        return self.classify_pair(x, y)

    def classify_pair(self, x: BitString, y: BitString) -> PromiseLabel:
        """Label the word of the pair without building it."""
        return self.promise.label(x, y)


def word_problems(n: int) -> tuple[WordProblem, ...]:
    """Both word problems at length n: equality, then disjointness."""
    return tuple(WordProblem(n, kind) for kind in _KINDS)


def equality_word_problem(n: int) -> WordProblem:
    return WordProblem(n, "equality")


def disjointness_word_problem(n: int) -> WordProblem:
    return WordProblem(n, "disjointness")


# ---------------------------------------------------------------------------
# deterministic automata
# ---------------------------------------------------------------------------

class Dfa(NamedTuple):
    """Total one-way deterministic automaton."""

    states: tuple
    alphabet: tuple
    transition: dict  # (state, symbol) -> state
    start: object
    accepting: frozenset

    @property
    def size(self) -> int:
        return len(self.states)


def extended_transition(d: Dfa, state, word: str):
    """Iterated transition: fold the word through delta from ``state``."""
    for sym in word:
        try:
            state = d.transition[(state, sym)]
        except KeyError:
            raise ValueError(f"symbol {sym!r} outside the automaton alphabet")
    return state


def run_dfa(d: Dfa, word: str) -> bool:
    """True iff the word drives the start state into an accepting state."""
    return extended_transition(d, d.start, word) in d.accepting


#: Largest n for which the brute-force DFA build is allowed.
BRUTEFORCE_DFA_LIMIT = 6


def bruteforce_disjointness_dfa(n: int) -> Dfa:
    """Explicit DFA deciding the x#y#x promise words.

    States track (phase, data): the first block verbatim, then the running
    intersection count against it, then a countdown over the third block.
    Built breadth-first from the start state, so only reachable states
    materialize; not minimal, just a concrete witness.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > BRUTEFORCE_DFA_LIMIT:
        raise ValueError(
            f"n={n} exceeds the brute-force bound {BRUTEFORCE_DFA_LIMIT}"
        )
    dead = ("dead",)
    start = ("x", "")

    def step(state, sym):
        if state == dead:
            return dead
        phase = state[0]
        if phase == "x":
            prefix = state[1]
            if sym in "01":
                return ("x", prefix + sym) if len(prefix) < n else dead
            return ("y", prefix, 0, 0) if len(prefix) == n else dead
        if phase == "y":
            _, x, j, m = state
            if sym in "01":
                if j >= n:
                    return dead
                return ("y", x, j + 1, m + (1 if sym == "1" and x[j] == "1" else 0))
            return ("z", m, 0) if j == n else dead
        # phase == "z": the promise pins the third block, so only count it
        _, m, j = state
        if sym in "01":
            return ("z", m, j + 1) if j < n else dead
        return dead

    states = {start, dead}
    transition = {}
    frontier = [start, dead]
    while frontier:
        s = frontier.pop()
        for sym in WORD_ALPHABET:
            t = step(s, sym)
            transition[(s, sym)] = t
            if t not in states:
                states.add(t)
                frontier.append(t)
    accepting = frozenset(
        s for s in states if s[0] == "z" and s[2] == n and s[1] == 0
    )
    return Dfa(
        states=tuple(sorted(states, key=repr)),
        alphabet=WORD_ALPHABET,
        transition=transition,
        start=start,
        accepting=accepting,
    )


def verify_promise_dfa(d: Dfa, n: int) -> bool:
    """Exhaustively check a DFA against every x#y#x promise word."""
    problem = disjointness_word_problem(n)
    return all(
        run_dfa(d, problem.word(BitString(x, n), BitString(y, n)))
        == (label is PromiseLabel.YES)
        for x, row in enumerate(problem.promise.grid())
        for y, label in enumerate(row)
        if label is not PromiseLabel.OUTSIDE
    )


class DfaProtocol(NamedTuple):
    """Three-message deterministic protocol simulated from a DFA.

    Alice sends the state after ``x#``, Bob sends the state after
    continuing through ``y#``, Alice sends the final answer bit.
    """

    dfa: Dfa
    n: int

    @property
    def cost(self) -> int:
        """Transcript length in bits: 1 + 2*ceil(log2 N)."""
        return 1 + 2 * ceil(log2(self.dfa.size))

    def decide(self, x: BitString, y: BitString) -> int:
        d = self.dfa
        after_x = extended_transition(d, d.start, f"{x}{SEPARATOR}")
        after_y = extended_transition(d, after_x, f"{y}{SEPARATOR}")
        final = extended_transition(d, after_y, str(x))
        return 1 if final in d.accepting else 0


def protocol_from_dfa(d: Dfa, n: int) -> DfaProtocol:
    """Wrap a DFA as a protocol after verifying it solves the promise words."""
    if not verify_promise_dfa(d, n):
        raise ValueError("DFA fails the exhaustive promise check")
    return DfaProtocol(dfa=d, n=n)
