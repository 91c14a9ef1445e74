"""Property tests for the protocol round, the automata and the streamed
sweep reports."""

import pytest
from hypothesis import given, settings, strategies as st

from promisecc import bits, cli
from promisecc.automata import accept_probability, disjointness_automaton, disjointness_word
from promisecc.bits import BitString
from promisecc.quantum_protocol import (
    closed_form_accept_probability,
    round_accept_probability,
    round_accept_probability_fast,
    round_columns,
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


@st.composite
def batches(draw, max_n, max_size):
    n = draw(st.integers(1, max_n))
    return n, draw(st.lists(st.tuples(_words(n), _words(n)), min_size=1, max_size=max_size))


@given(batches(64, 40))
def test_batched_round_equals_batches_of_one(batch):
    n, pairs_ = batch
    together = round_columns(
        [x.value for x, _ in pairs_], [y.value for _, y in pairs_], n
    )[1].tolist()
    # bit for bit: a value must not depend on the pairs batched with it
    assert together == [round_accept_probability(x, y) for x, y in pairs_]
    for (x, y), p in zip(pairs_, together):
        assert p == pytest.approx(closed_form_accept_probability(x, y), abs=1e-12)


@given(pairs(16))
def test_disjointness_automaton_matches_fast_round(pair):
    x, y = pair
    p = accept_probability(disjointness_automaton(x.n), disjointness_word(x, y))
    assert p == pytest.approx(round_accept_probability_fast(x, y), abs=1e-9)


_SWEEP_CONFIGS = st.one_of(
    st.builds(
        dict,
        command=st.sampled_from(["quantum-sweep", "classical-sweep"]),
        n=st.sampled_from([4, 5]),
        fmt=st.sampled_from(["json", "csv"]),
        seed=st.integers(0, 3),
    ).map(lambda c: {**c, "margin_text": f"1/{c['n']}"}),
    st.builds(
        dict,
        command=st.sampled_from(["quantum-sweep", "classical-sweep", "qcfa-sweep"]),
        n=st.sampled_from([16, 64]),
        fmt=st.sampled_from(["json", "csv"]),
        mode=st.just("sample"),
        samples=st.integers(1, 12),
        seed=st.integers(0, 3),
    ),
    st.builds(
        dict,
        command=st.sampled_from(["qcfa-sweep", "bounds", "reduction"]),
        n=st.integers(1, 3),
        fmt=st.sampled_from(["json", "csv"]),
    ),
)


@settings(max_examples=15)
@given(options=_SWEEP_CONFIGS)
def test_report_bytes_do_not_depend_on_the_chunk_size(options, tmp_path_factory):
    out = tmp_path_factory.mktemp("chunks")
    reports = []
    for size in (bits.SWEEP_CHUNK, 1, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "SWEEP_CHUNK", size)
            path = out / f"chunk{size}"
            code = cli.run_experiment(cli.ExperimentConfig(out=str(path), **options))
        assert code in (cli.EXIT_OK, cli.EXIT_INVARIANT)
        reports.append((code, path.read_bytes()))
    assert reports[1] == reports[0] and reports[2] == reports[0]
