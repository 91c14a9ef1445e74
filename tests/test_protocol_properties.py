"""Property tests for the protocol round, the automata and their JSON form."""

import pytest
from hypothesis import given, strategies as st

from promisecc.automata import (
    accept_probability,
    disjointness_automaton,
    disjointness_word,
    equality_automaton,
    equality_word,
    qcfa_from_json,
    qcfa_to_json,
)
from promisecc.bits import BitString
from promisecc.quantum_protocol import (
    closed_form_accept_probability,
    round_accept_probability,
    round_accept_probability_fast,
)


def _words(n):
    return st.integers(0, (1 << n) - 1).map(lambda v: BitString(v, n))


@st.composite
def pairs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return draw(_words(n)), draw(_words(n))


@given(pairs(64))
def test_dense_fast_and_closed_form_rounds_agree(pair):
    x, y = pair
    formula = closed_form_accept_probability(x, y)
    assert round_accept_probability(x, y) == pytest.approx(formula, abs=1e-9)
    assert round_accept_probability_fast(x, y) == pytest.approx(formula, abs=1e-9)


@given(pairs(16))
def test_disjointness_automaton_matches_fast_round(pair):
    x, y = pair
    p = accept_probability(disjointness_automaton(x.n), disjointness_word(x, y))
    assert p == pytest.approx(round_accept_probability_fast(x, y), abs=1e-9)


@given(
    st.sampled_from([
        (equality_automaton, equality_word),
        (disjointness_automaton, disjointness_word),
    ]),
    st.integers(1, 8),
    st.data(),
)
def test_json_round_trip_keeps_acceptance(machine_kind, n, data):
    build, word_of = machine_kind
    machine = build(n)
    restored = qcfa_from_json(qcfa_to_json(machine))
    words = data.draw(st.lists(st.tuples(_words(n), _words(n)), min_size=1, max_size=4))
    for x, y in words:
        w = word_of(x, y)
        # a dense matrix comes back in C order, so products may round differently
        assert accept_probability(restored, w) == pytest.approx(
            accept_probability(machine, w), abs=1e-12
        )
