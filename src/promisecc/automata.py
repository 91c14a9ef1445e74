"""Finite automata with quantum and classical states, and plain DFAs.

The quantum-classical machine scans its input once, left marker first and
right marker last.  A classical control state selects, per scanned symbol,
an operator to apply to the quantum register (a signed permutation or a
dense unitary) and a successor control state; a (state, symbol) pair with
no entry leaves the register alone and the control where it is.  After
the right marker the register is measured once in its basis, whose states
are named by ``quantum_labels``, and the accepting labels decide.

:func:`accept_columns` runs a batch of equal-length words, rows of symbol
codes, on int8 integer states through one step table, and gives each word
an exact integer and a float witness; :func:`accept_probabilities` runs
words given as text and returns the witness, and
:func:`accept_probability` is a batch of one.  A word's values do not
depend on its batch, and each run reads the machine's transitions afresh,
so nothing is cached on the machine.

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
:meth:`WordProblem.classify_pair`, and writes a batch of pairs' words as
symbol codes, :meth:`WordProblem.symbol_codes`, without building a word;
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

from .bits import BitString, Promise, PromiseLabel, np, unpack_bits
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
            signed = isinstance(u, qsim.SignedPermutation)
            if signed:
                u.validate()  # exact: every signed permutation is unitary
            if ((u.dim,) * 2 if signed else u.shape) != (self.dim, self.dim):
                raise ValueError(f"operator at {key} has wrong dimension")
            if not signed:
                qsim.assert_unitary(u)


def accept_columns(machine: Qcfa, codes) -> tuple[np.ndarray, np.ndarray]:
    """Run the machine on a batch of equal-length words (markers added
    here), given as an (N, length) array of indices into its alphabet.

    The left marker's column is read as v/sqrt(N), v integral, and every
    step between the markers is a signed permutation, so the state stays
    an integer vector V.  Returns, per word, the int64 ``v . V``: N times
    the overlap of the end state with the start, which is N times the
    accept amplitude when the right marker undoes the left.  And the float
    witness: the probability of an accepting outcome, each accept row of
    the right marker scaled by 1/sqrt(N) and summed column by column.
    Refuses a machine whose left-marker column is not an int8 vector up to
    scale, or that has any other operator between the markers.
    """
    states = machine.classical_states
    numbers = {s: k for k, s in enumerate(states)}
    if not {machine.initial_classical, *machine.classical_tr.values()} <= numbers.keys():
        raise ValueError("start or successor outside the classical states")
    accept = sorted(machine.quantum_labels.index(o) for o in machine.accept_outcomes)
    v, scale = _start_column(machine)
    successor, target, source, sign = _step_table(machine, numbers)
    codes = np.asarray(codes)
    words, dim = len(codes), machine.dim
    # one scratch column past the register, where the table's padding lands
    psi = np.zeros((words, dim + 1), dtype=np.int8)
    psi[:, :dim] = v
    start = machine.initial_classical
    state = np.full(words, numbers[machine.classical_tr.get((start, LEFT_MARKER), start)])
    rows = np.arange(words)[:, None]
    for column in codes.T:
        keys = state * len(machine.alphabet) + column
        if target.shape[1]:
            psi[rows, target[keys]] = sign[keys] * psi[rows, source[keys]]
        state = successor[keys]
    integer = np.zeros(words, dtype=np.int64)
    for j in np.flatnonzero(v):
        integer += psi[:, j].astype(np.int64) * int(v[j])
    witness = np.zeros(words)
    for s in np.flatnonzero(np.bincount(state, minlength=len(states))):
        group = np.flatnonzero(state == s)
        u = machine.quantum_tr.get((states[s], RIGHT_MARKER))
        if u is None:
            u = np.eye(dim)
        elif isinstance(u, qsim.SignedPermutation):
            u = u.to_matrix()
        for o in accept:
            amplitude = np.zeros(len(group), dtype=complex)
            # term by term: one product over the group rounds some last
            # bits differently, and a value must not depend on its batch
            for j in np.flatnonzero(u[o]):
                amplitude += complex(u[o, j] * scale) * psi[group, j]
            witness[group] += np.abs(amplitude) ** 2
    return integer, witness


def _start_column(machine: Qcfa) -> tuple[np.ndarray, float]:
    """The left marker's column, the register after it, as (v, 1/sqrt(N))
    with v integral and N = v . v; refused unless v fits int8 and
    v/sqrt(N) is the column to ``qsim.ATOL``."""
    column = np.zeros(machine.dim, dtype=complex)
    column[machine.quantum_labels.index(machine.initial_quantum)] = 1.0
    left = machine.quantum_tr.get((machine.initial_classical, LEFT_MARKER))
    if left is not None:
        column = left @ column
    magnitude = np.abs(column)
    # the smallest entry is one unit of v
    v = np.rint(column.real / magnitude[magnitude > qsim.ATOL].min())
    scale = 1.0 / np.sqrt(v @ v)
    if np.abs(v).max() > 127 or np.abs(column - v * scale).max() > qsim.ATOL:
        raise ValueError("left marker column is not an int8 vector up to scale")
    return v, scale


def _step_table(machine: Qcfa, numbers: dict):
    """The run's step table, at key ``state * len(alphabet) + symbol``:
    the successor's number, and the entries the operator moves as
    (target, source, sign) rows, ``psi[target] = sign * psi[source]``,
    padded to one width with the scratch index ``dim``."""
    symbols, dim = machine.alphabet, machine.dim
    keys = [(s, sym) for s in machine.classical_states for sym in symbols]
    successor = np.array([numbers[machine.classical_tr.get(key, key[0])] for key in keys])
    moves = {}
    for k, key in enumerate(keys):
        u = machine.quantum_tr.get(key)
        if u is None:
            continue
        if not isinstance(u, qsim.SignedPermutation):
            raise ValueError(f"operator at {key} is not a signed permutation; "
                             "only the markers may be dense")
        identity, signs = np.arange(dim), np.asarray(u.sign)
        perm = identity if u.perm is None else np.asarray(u.perm)
        moved = np.flatnonzero((perm != identity) | (signs != 1))
        if not np.isin(signs[moved], (1, -1)).all():
            raise ValueError(f"operator at {key} has a sign other than +1 or -1")
        moves[k] = (moved, perm[moved], signs[moved])
    width = max((len(m[0]) for m in moves.values()), default=0)
    target = np.full((len(keys), width), dim)
    source = np.full((len(keys), width), dim)
    sign = np.ones((len(keys), width), dtype=np.int8)
    for k, (moved, src, sgn) in moves.items():
        target[k, :len(moved)], source[k, :len(moved)], sign[k, :len(moved)] = moved, src, sgn
    return successor, target, source, sign


def accept_probabilities(machine: Qcfa, words) -> list[float]:
    """Run the machine on a batch of equal-length words (markers added
    here); per word, the probability that the final measurement lands in
    an accepting outcome: the witness of :func:`accept_columns`.
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
    # one code point per symbol, mapped to its index in the alphabet
    points = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    alphabet = np.array([ord(a) for a in machine.alphabet])
    order = np.argsort(alphabet)
    codes = order[np.searchsorted(alphabet[order], points)]
    return accept_columns(machine, codes.reshape(len(words), length))[1].tolist()


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
        sign = np.ones(n, dtype=np.int8)
        sign[i - 1] = -1
        quantum_tr[(i, "1")] = qsim.SignedPermutation(None, sign)
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
    blocks: str  # the word's blocks between separators, "x" or "y" each
    automaton: Callable[[int], Qcfa]
    register: int  # the machine's quantum states per input bit


#: The word problems by kind, in report order.
_KINDS = {
    # NO at distance exactly n/2, so odd n has no NO words
    "equality": _Kind(Fraction(1, 2), False, equality_word, "xy", equality_automaton, 1),
    # lam is fixed by the machine's acceptance cap (1 - 2*lam)**2 = 1/4
    "disjointness": _Kind(Fraction(1, 4), True, disjointness_word, "xyx",
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

    def symbol_codes(self, x_values, y_values) -> np.ndarray:
        """Per pair of word values, its word as a row of indices into
        ``WORD_ALPHABET``, built from the pairs' bits: no word is built."""
        bits = {"x": unpack_bits(x_values, self.n), "y": unpack_bits(y_values, self.n)}
        separator = np.full((len(bits["x"]), 1), WORD_ALPHABET.index(SEPARATOR),
                            dtype=np.uint8)
        # a bit's value is the index of its symbol, "0" or "1"
        parts = [p for block in _KINDS[self.kind].blocks
                 for p in (separator, bits[block].view(np.uint8))]
        return np.concatenate(parts[1:], axis=1)

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
