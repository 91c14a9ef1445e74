"""The protocol sweeps' one decision stream and the Monte Carlo check.

Each protocol sweep draws its random decisions from one generator, read in
pair order a chunk at a time.  The batched draws must be the draws the
pairs would take one at a time, the stream must be no other stream of the
run, and what it decides must follow the exact probabilities.  Sampled
classical sweeps also compare Monte Carlo frequencies against the exact
detection probability, with a Chernoff bound at a stated false-alarm rate.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from promisecc import cli
from promisecc.cli import EXIT_INVARIANT, EXIT_OK, ExperimentConfig, run_experiment
from promisecc.quantum_protocol import sample_decisions
from promisecc.bits import BitString, hamming_weight
from promisecc.randomized_protocol import (
    exact_detection_probability,
    one_way_runs,
    run_one_way,
    sample_positions,
)

#: Chance that a statistical check below fails on correct code.
FALSE_ALARM = 1e-9


@st.composite
def chunkings(draw, items):
    """``items`` cut into consecutive chunks, empty ones included."""
    values = draw(items)
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=6)))
    bounds = [0, *cuts, len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@given(
    chunkings(st.lists(st.integers(1, 64), min_size=1, max_size=80)),
    st.integers(1, 8),
    st.integers(0, 2**63),
)
def test_batched_picks_equal_draws_one_pair_at_a_time(chunks, k, seed):
    batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
    together = [row for chunk in chunks for row in sample_positions(chunk, k, batched)]
    # the scalar call a single pair made before the draws were batched
    alone = [single.integers(0, h, size=k).tolist() for chunk in chunks for h in chunk]
    assert together == alone
    assert all(0 <= j < h for row, h in zip(together, sum(chunks, [])) for j in row)


@given(
    st.integers(1, 10).flatmap(
        lambda n: chunkings(st.lists(
            st.tuples(st.integers(0, 2**n - 1), st.integers(0, 2**n - 1)).map(
                lambda xy: (BitString(xy[0], n), BitString(xy[1], n))
            ),
            min_size=1, max_size=40,
        ))
    ),
    st.integers(1, 6),
    st.integers(0, 2**63),
)
def test_batched_runs_equal_runs_one_pair_at_a_time(chunks, k, seed):
    # literal-branch pairs (fewer than k ones) sit among sampling ones
    batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
    together = [
        report
        for chunk in chunks
        for report in one_way_runs([x for x, _ in chunk], [y for _, y in chunk],
                                   k, batched)
    ]
    alone = [run_one_way(x, y, k, single) for chunk in chunks for x, y in chunk]
    assert together == alone
    # only the sampling pairs read the generator, each with the scalar call
    # a pair made alone before the draws were batched
    scalar = np.random.default_rng(seed)
    for report in together:
        if not report.literal_branch:
            scalar.integers(0, hamming_weight(report.x), size=k)
    assert batched.random() == scalar.random()
    for report in together:
        if report.literal_branch:
            assert report.p_detect is None
        else:
            assert report.p_detect == exact_detection_probability(
                report.x, report.y, k
            )


def test_batched_runs_reject_bad_batches():
    x, y = BitString("1100"), BitString("0110")
    with pytest.raises(ValueError):
        one_way_runs([x, x], [y], 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        one_way_runs([x], [BitString("011")], 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        one_way_runs([x], [y], 0, np.random.default_rng(0))
    # an all-literal batch reads no generator
    assert one_way_runs([x], [y], 3, None)[0].literal_branch


@given(
    chunkings(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80)),
    st.integers(1, 8),
    st.integers(0, 2**63),
)
def test_batched_decisions_equal_draws_one_pair_at_a_time(chunks, k, seed):
    batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
    together = [d for chunk in chunks for d in sample_decisions(chunk, k, batched)]
    alone = [int(max(single.random(k).tolist()) < p) for chunk in chunks for p in chunk]
    assert together == alone


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5])
def test_decision_stream_is_no_other_stream_of_the_run(seed):
    plan = ExperimentConfig(
        command="classical-sweep", n=16, mode="sample", samples=5, seed=seed
    ).validated()
    first = cli._decision_stream(plan).random(8).tolist()
    # the pair sampler, the two word streams and the Monte Carlo streams
    others = [seed, (seed, 0), (seed, 1)] + [(seed, idx, 1) for idx in range(64)]
    for entropy in others:
        assert np.random.default_rng(entropy).random(8).tolist() != first


def _hoeffding(count: int) -> float:
    """Deviation of a sum of ``count`` independent 0/1 draws from its mean
    that is reached with probability at most FALSE_ALARM."""
    return math.sqrt(count * math.log(2 / FALSE_ALARM) / 2)


def _sweep(command, tmp_path):
    # one round or one sample, so that No pairs are often accepted
    out = tmp_path / f"{command}.json"
    cfg = ExperimentConfig(command=command, n=6, margin_text="1/6", k=1, seed=3,
                           out=str(out))
    assert run_experiment(cfg) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return [r for r in records[:-1] if r["label"] == "no"]


def test_quantum_no_accepts_follow_the_exact_probability(tmp_path):
    # a No pair is accepted with probability p_single**k, independently
    no = _sweep("quantum-sweep", tmp_path)
    accepted = sum(r["decision"] for r in no)
    expected = sum(r["p_accept_k"] for r in no)
    assert abs(accepted - expected) <= _hoeffding(len(no))


def test_classical_no_misses_follow_the_exact_error(tmp_path):
    # a No pair is answered 1 (disjoint) with probability exact_error
    no = _sweep("classical-sweep", tmp_path)
    missed = sum(r["decision"] for r in no)
    expected = sum(r["exact_error"] for r in no)
    assert abs(missed - expected) <= _hoeffding(len(no))


def _binomial_tail(trials: int, p: float, count: int) -> float:
    """P(X >= count) for X ~ Binomial(trials, p)."""
    return math.fsum(
        math.comb(trials, i) * p**i * (1 - p) ** (trials - i)
        for i in range(count, trials + 1)
    )


@given(st.integers(1, 300), st.floats(0.0, 1.0), st.data())
def test_chernoff_bound_holds_on_both_tails(trials, p, data):
    count = data.draw(st.integers(0, trials))
    f = count / trials
    bound = math.exp(-trials * cli._bernoulli_divergence(f, p))
    if f >= p:
        tail = _binomial_tail(trials, p, count)
    else:
        tail = _binomial_tail(trials, 1 - p, trials - count)
    assert tail <= bound * (1 + 1e-9) + 1e-300


def test_frequency_of_a_wrong_k_is_flagged(tmp_path, monkeypatch, capsys):
    # Monte Carlo trials that sample one position too few detect less often
    real = cli.randomized_protocol.detection_frequency

    def one_short(x, y, k, trials, rng):
        return real(x, y, k - 1, trials, rng)

    monkeypatch.setattr(cli.randomized_protocol, "detection_frequency", one_short)
    cfg = ExperimentConfig(command="classical-sweep", n=16, mode="sample",
                           samples=300, seed=1, out=str(tmp_path / "c.json"))
    assert run_experiment(cfg) == EXIT_INVARIANT
    assert "Monte Carlo frequency" in capsys.readouterr().err
