"""Finite automata with quantum and classical states, and plain DFAs.

The quantum-classical machine scans its input once, left marker first and
right marker last.  A classical control state selects, per scanned symbol,
an operator to apply to the quantum register (a signed permutation or a
dense unitary) and a successor control state; a (state, symbol) pair with
no entry leaves the register alone and the control where it is.  After
the right marker the register is measured once in its basis, whose states
are named by ``quantum_labels``, and the accepting labels decide.

Two concrete machines are built here over the alphabet ``{0, 1, #}``:

* :func:`equality_automaton` decides words ``x#y`` -- n quantum basis
  states, a position-counter control, a sign flip per scanned 1; accept
  amplitude works out to the mean of ``(-1)^(x_i + y_i)``, so equal words
  are accepted surely and words at distance n/2 surely rejected.
* :func:`disjointness_automaton` decides words ``x#y#x`` -- 2n quantum
  basis states running the disjointness protocol round in place: swaps on
  the first x block, sign flips on the y block, swaps again on the second
  x block.

A brute-force DFA for the ``x#y#x`` problem (tracking the first block
verbatim plus the running intersection count) witnesses the classical
cost, and :func:`protocol_from_dfa` turns any verified DFA into the
three-message deterministic protocol whose transcript costs
``1 + 2*ceil(log2 N)`` bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log2

import numpy as np

from .bits import (
    BitString,
    PromiseLabel,
    disj_label,
    eq_label,
    hamming_distance,
    intersection_size,
    promise_pairs,
)
from . import qsim

LEFT_MARKER = "^"
RIGHT_MARKER = "$"
SEPARATOR = "#"
WORD_ALPHABET = ("0", "1", SEPARATOR)


# ---------------------------------------------------------------------------
# quantum-classical machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Qcfa:
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
    accepting_states: frozenset = frozenset()
    rejecting_states: frozenset = frozenset()
    accept_outcomes: frozenset = frozenset()

    @property
    def dim(self) -> int:
        return len(self.quantum_labels)

    def halting_states(self) -> frozenset:
        return self.accepting_states | self.rejecting_states

    def validate(self) -> None:
        if self.accepting_states & self.rejecting_states:
            raise ValueError("accepting and rejecting classical states overlap")
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


def accept_probability(machine: Qcfa, word: str) -> float:
    """Run the machine on ``word`` (markers added here) and return
    the probability that the final measurement lands in an accepting outcome.

    If the classical control enters a halting state mid-word, remaining
    transitions are skipped and the measurement is applied immediately.
    """
    for sym in word:
        if sym not in machine.alphabet:
            raise ValueError(f"symbol {sym!r} outside the input alphabet")
    halting = machine.halting_states()
    index = machine.quantum_labels.index
    s = machine.initial_classical
    psi = qsim.basis_state(machine.dim, index(machine.initial_quantum))
    for sym in (LEFT_MARKER, *word, RIGHT_MARKER):
        if s in halting:
            break
        u = machine.quantum_tr.get((s, sym))
        if u is not None:
            psi = u @ psi
        s = machine.classical_tr.get((s, sym), s)
    return sum(float(abs(psi[index(o)]) ** 2) for o in machine.accept_outcomes)


def rejection_probability(machine: Qcfa, word: str) -> float:
    return 1.0 - accept_probability(machine, word)


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

@dataclass(frozen=True)
class WordProblem:
    """Promise problem over words: equality (x#y) or disjointness (x#y#x)."""

    n: int
    kind: str  # "equality" | "disjointness"

    def __post_init__(self):
        if self.kind not in ("equality", "disjointness"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")

    def classify(self, word: str) -> PromiseLabel:
        return classify_word(self, word)


def equality_word_problem(n: int) -> WordProblem:
    return WordProblem(n, "equality")


def disjointness_word_problem(n: int) -> WordProblem:
    return WordProblem(n, "disjointness")


def _parse_blocks(word: str, count: int, n: int):
    parts = word.split(SEPARATOR)
    if len(parts) != count:
        return None
    for p in parts:
        if len(p) != n or any(c not in "01" for c in p):
            return None
    return parts


def classify_word(problem: WordProblem, word: str) -> PromiseLabel:
    """Label a word by the ``bits`` rules; malformed shapes are outside.

    ``x#y`` follows :func:`eq_label`, so odd n has no NO words.  ``x#y#x``
    follows :func:`disj_label` with lambda fixed at 1/4 by the automaton's
    acceptance cap: ``(1 - 2m/n)**2 <= 1/4`` exactly when n/4 <= m <= 3n/4,
    whose integer ends are ``(n + 3) // 4`` and ``3 * n // 4``.
    """
    n = problem.n
    if problem.kind == "equality":
        parts = _parse_blocks(word, 2, n)
        if parts is None:
            return PromiseLabel.OUTSIDE
        return eq_label(hamming_distance(BitString(parts[0]), BitString(parts[1])), n)
    parts = _parse_blocks(word, 3, n)
    if parts is None or parts[2] != parts[0]:
        return PromiseLabel.OUTSIDE
    m = intersection_size(BitString(parts[0]), BitString(parts[1]))
    return disj_label(m, (n + 3) // 4, 3 * n // 4)


def equality_word(x: BitString, y: BitString) -> str:
    return f"{x}{SEPARATOR}{y}"


def disjointness_word(x: BitString, y: BitString) -> str:
    return f"{x}{SEPARATOR}{y}{SEPARATOR}{x}"


# ---------------------------------------------------------------------------
# deterministic automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dfa:
    """Total one-way deterministic automaton."""

    states: tuple
    alphabet: tuple
    transition: dict  # (state, symbol) -> state
    start: object
    accepting: frozenset

    def validate(self) -> None:
        for s in self.states:
            for sym in self.alphabet:
                if (s, sym) not in self.transition:
                    raise ValueError(f"transition missing for {(s, sym)}")

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
    pairs = promise_pairs(n, lambda x, y: problem.classify(disjointness_word(x, y)))
    return all(
        run_dfa(d, disjointness_word(x, y)) == (label is PromiseLabel.YES)
        for x, y, label in pairs
    )


@dataclass(frozen=True)
class DfaProtocol:
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _operator_to_json(u) -> dict:
    if isinstance(u, qsim.SignedPermutation):
        return {"perm": u.perm.tolist(), "sign": u.sign.astype(int).tolist()}
    return {"matrix": {"re": np.real(u).tolist(), "im": np.imag(u).tolist()}}


def _operator_from_json(entry):
    if "perm" in entry:
        return qsim.SignedPermutation(np.array(entry["perm"]), np.array(entry["sign"]))
    return np.array(entry["matrix"]["re"]) + 1j * np.array(entry["matrix"]["im"])


def _label_to_json(l):
    return list(l) if isinstance(l, tuple) else l


def _label_from_json(l):
    return tuple(l) if isinstance(l, list) else l


def qcfa_to_json(machine: Qcfa) -> str:
    """JSON description: labels, states and the transitions given.

    A signed permutation is stored as ``perm``/``sign`` lists, a dense
    operator as ``matrix`` with ``re``/``im`` rows.
    """
    payload = {
        "quantum_labels": [_label_to_json(l) for l in machine.quantum_labels],
        "classical_states": list(machine.classical_states),
        "alphabet": list(machine.alphabet),
        "initial_quantum": _label_to_json(machine.initial_quantum),
        "initial_classical": machine.initial_classical,
        "accepting_states": sorted(machine.accepting_states),
        "rejecting_states": sorted(machine.rejecting_states),
        "accept_outcomes": [_label_to_json(o) for o in sorted(machine.accept_outcomes)],
        "quantum_tr": [
            {"state": s, "symbol": sym, **_operator_to_json(u)}
            for (s, sym), u in sorted(machine.quantum_tr.items(), key=repr)
        ],
        "classical_tr": [
            {"state": s, "symbol": sym, "next": t}
            for (s, sym), t in sorted(machine.classical_tr.items(), key=repr)
        ],
    }
    return json.dumps(payload)


def qcfa_from_json(text: str) -> Qcfa:
    """Inverse of :func:`qcfa_to_json`; the machine is validated on the way in."""
    d = json.loads(text)
    machine = Qcfa(
        quantum_labels=tuple(_label_from_json(l) for l in d["quantum_labels"]),
        classical_states=tuple(_label_from_json(s) for s in d["classical_states"]),
        alphabet=tuple(d["alphabet"]),
        quantum_tr={
            (_label_from_json(e["state"]), e["symbol"]): _operator_from_json(e)
            for e in d["quantum_tr"]
        },
        classical_tr={
            (_label_from_json(e["state"]), e["symbol"]): _label_from_json(e["next"])
            for e in d["classical_tr"]
        },
        initial_quantum=_label_from_json(d["initial_quantum"]),
        initial_classical=_label_from_json(d["initial_classical"]),
        accepting_states=frozenset(_label_from_json(s) for s in d["accepting_states"]),
        rejecting_states=frozenset(_label_from_json(s) for s in d["rejecting_states"]),
        accept_outcomes=frozenset(
            _label_from_json(o) for o in d["accept_outcomes"]
        ),
    )
    machine.validate()
    return machine
