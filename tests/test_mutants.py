"""Wrong programs the sweeps must catch.

Each test swaps one part of the program for a wrong one and asserts that
the sweep's checks see it: exit status 2 and the named violation.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from promisecc import automata, bits, cli, qsim, quantum_protocol, randomized_protocol
from promisecc.bits import BitString, PromiseLabel
from promisecc.cli import EXIT_INVARIANT, ExperimentConfig, run_experiment

#: Sample mode at n=16: 300 pairs, seed 1.
_SAMPLED = dict(mode="sample", samples=300, seed=1)


def _violations(tmp_path, capsys, command, n, **options):
    """Run one command; assert it exits on a violation and return stderr."""
    cfg = ExperimentConfig(command=command, n=n, out=str(tmp_path / "r.json"), **options)
    assert run_experiment(cfg) == EXIT_INVARIANT
    return capsys.readouterr().err


def _all_violations(tmp_path, monkeypatch, command, n, **options):
    """Run one command; assert it exits on a violation and return every
    violation, not only the first 20 that stderr shows."""
    row = cli._COMMAND_TABLE[command]
    flagged = []

    def sweep(plan, violations):
        flagged.append(violations)
        return row.sweep(plan, violations)

    monkeypatch.setitem(cli._COMMAND_TABLE, command, row._replace(sweep=sweep))
    cfg = ExperimentConfig(command=command, n=n, out=str(tmp_path / "r.json"), **options)
    assert run_experiment(cfg) == EXIT_INVARIANT
    return "\n".join(flagged[0])


def _flip_labels(monkeypatch, flips):
    """Make ``Promise.from_margin``, which builds every promise table, write
    the labels ``flips(n, lam)`` gives, as {count: label}."""
    real = bits.Promise.from_margin.__func__

    def flipped(cls, n, overlap, lam):
        labels = list(real(cls, n, overlap, lam).labels)
        for count, label in flips(n, Fraction(lam)).items():
            labels[count] = label
        return cls(n, overlap, tuple(labels))

    monkeypatch.setattr(bits.Promise, "from_margin", classmethod(flipped))


def _widened(n, lam):
    """The NO band one count wider at each end."""
    low, high = bits.band(lam, n)
    return {low - 1: PromiseLabel.NO, high + 1: PromiseLabel.NO}


@pytest.fixture
def fresh_machines():
    """The automaton builders are cached: drop the machines before a run, so
    that they are built from the patched operators, and after it."""
    builders = (automata.equality_automaton, automata.disjointness_automaton)
    for build in builders:
        build.cache_clear()
    yield
    for build in builders:
        build.cache_clear()


#: Per wrong operator, each command that must see it and its violation.
_OPERATOR_CHECKS = [
    ("quantum-sweep", 8, "yes pair 00000000,00000001 accepted with 9/16"),
    ("qcfa-sweep", 6, " off by "),
]


@pytest.mark.parametrize("command,n,message", _OPERATOR_CHECKS, ids=["quantum", "qcfa"])
def test_sweeps_flag_a_swap_at_the_zero_positions(
    command, n, message, tmp_path, monkeypatch, capsys, fresh_machines
):
    real = qsim.swap

    def swap_zeros(x, n=None):
        if isinstance(x, BitString):
            return real(~x)
        return real(np.asarray(x, dtype=np.uint64) ^ np.uint64((1 << n) - 1), n)

    monkeypatch.setattr(qsim, "swap", swap_zeros)
    assert message in _violations(tmp_path, capsys, command, n)


@pytest.mark.parametrize("command,n,message", _OPERATOR_CHECKS, ids=["quantum", "qcfa"])
def test_sweeps_flag_a_phase_on_the_low_block(
    command, n, message, tmp_path, monkeypatch, capsys, fresh_machines
):
    real = qsim.phase

    def phase_low(y, n=None):
        op = real(y, n)
        # the sign of (i, 1) moves to (i, 0)
        return qsim.SignedPermutation(op.perm, np.roll(op.sign, op.dim // 2, axis=-1))

    monkeypatch.setattr(qsim, "phase", phase_low)
    assert message in _violations(tmp_path, capsys, command, n)


@pytest.mark.parametrize("command,message", [
    ("quantum-sweep", "above single-round cap"),
    ("classical-sweep", "above miss cap"),
], ids=["quantum", "classical"])
def test_protocol_sweeps_flag_a_band_widened_by_one(
    command, message, tmp_path, monkeypatch
):
    _flip_labels(monkeypatch, _widened)
    assert message in _all_violations(tmp_path, monkeypatch, command, 8)


def test_classical_sweep_flags_a_widened_band_in_sample_mode(
    tmp_path, monkeypatch, capsys
):
    # the 300 pairs hold 84 NO pairs at overlap 3 and none at 13; none of
    # them has weight above 12, so the miss cap alone does not see them
    _flip_labels(monkeypatch, _widened)
    err = _violations(tmp_path, capsys, "classical-sweep", 16, **_SAMPLED)
    assert " overlap 3 outside the band" in err


#: Per flipped label of the promise table: the count, its wrong label, and
#: the violation each protocol sweep must flag.
_FLIPS = {
    "outside-to-no": (1, PromiseLabel.NO, "above single-round cap", "above miss cap"),
    "no-to-yes": (2, PromiseLabel.YES, "accepted with", "has nonzero error"),
    "yes-to-no": (0, PromiseLabel.NO, "above single-round cap", "above miss cap"),
}


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
@pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
@pytest.mark.parametrize("flip", list(_FLIPS))
def test_protocol_sweeps_flag_a_flipped_promise_label(
    flip, command, mode, tmp_path, monkeypatch
):
    count, label, quantum, classical = _FLIPS[flip]
    _flip_labels(monkeypatch, lambda n, lam: {count: label})
    n, options = (8, {}) if mode == "exhaustive" else (16, _SAMPLED)
    message = quantum if command == "quantum-sweep" else classical
    assert message in _all_violations(tmp_path, monkeypatch, command, n, **options)


def test_quantum_sweep_flags_rejected_yes_pairs(tmp_path, monkeypatch, capsys):
    # a protocol that rejects every pair
    def reject_all(p_values, k, rng):
        return [0] * len(p_values)

    monkeypatch.setattr(quantum_protocol, "sample_decisions", reject_all)
    cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(tmp_path / "q.json"))
    assert run_experiment(cfg) == EXIT_INVARIANT
    assert "invariant violation: yes pair 0000,0000 rejected" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_classical_sweep_checks_the_overlap_the_run_used(
    mode, tmp_path, monkeypatch, capsys
):
    real = randomized_protocol.one_way_columns

    def off_by_one(*args):
        runs = real(*args)
        return runs._replace(overlap=runs.overlap + 1)

    monkeypatch.setattr(randomized_protocol, "one_way_columns", off_by_one)
    sample = dict(mode="sample", samples=50, seed=1) if mode == "sample" else {}
    n = 16 if mode == "sample" else 4
    cfg = ExperimentConfig(command="classical-sweep", n=n, out=str(tmp_path / "c.json"),
                           **sample)
    assert run_experiment(cfg) == EXIT_INVARIANT
    assert " run with overlap " in capsys.readouterr().err


#: Per protocol sweep, a wrong program that accepts every NO pair, which
#: only the count of accepted NO pairs against its exact mean sees.
def _accept_every_pair(monkeypatch):
    monkeypatch.setattr(quantum_protocol, "sample_decisions",
                        lambda p_values, k, rng: [1] * len(p_values))


def _never_detect(monkeypatch):
    # at n=4 the 174 NO pairs would be accepted by chance with probability
    # 5.5e-6, above the false-alarm rate, so the tests run at n >= 8
    real = randomized_protocol.one_way_columns

    def never(*args):
        runs = real(*args)
        return runs._replace(decision=np.ones_like(runs.decision))

    monkeypatch.setattr(randomized_protocol, "one_way_columns", never)


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
@pytest.mark.parametrize("command,mutate", [
    ("quantum-sweep", _accept_every_pair),
    ("classical-sweep", _never_detect),
], ids=["quantum-accepts-all", "classical-never-detects"])
def test_protocol_sweeps_flag_no_pairs_accepted_too_often(
    command, mutate, mode, tmp_path, monkeypatch
):
    mutate(monkeypatch)
    n, options = (8, {}) if mode == "exhaustive" else (16, _SAMPLED)
    violations = _all_violations(tmp_path, monkeypatch, command, n, **options)
    assert " no pairs accepted, against " in violations


@pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
@pytest.mark.parametrize("n,lam", [(4, None), (6, "1/6"), (8, None)])
def test_exhaustive_sweeps_flag_a_no_overlap_labelled_outside(
    n, lam, command, tmp_path, monkeypatch
):
    # the overlap-2 pairs drop out of the stream, so only the per-key
    # counts against their closed form see them
    _flip_labels(monkeypatch, lambda n, lam: {2: PromiseLabel.OUTSIDE})
    violations = _all_violations(tmp_path, monkeypatch, command, n, margin_text=lam)
    assert " no pairs at " in violations
    assert " in closed form" in violations
    if command == "quantum-sweep" and n == 8:
        # overlaps 2 and 6 both give |S| = 4: 28 * 3**6 + 28 * 3**2 pairs
        assert "252 no pairs at |S|=4, against 20664 in closed form" in violations


def test_qcfa_sweep_flags_a_non_unitary_operator(
    tmp_path, capsys, fresh_machines
):
    # row 2 of the right-marker operator is doubled; the accept outcome
    # reads row 1 alone, so no probability moves
    machine = automata.equality_automaton(6)
    key = (7, automata.RIGHT_MARKER)
    op = machine.quantum_tr[key].copy()
    op[1] *= 2
    machine.quantum_tr[key] = op
    err = _violations(tmp_path, capsys, "qcfa-sweep", 6)
    assert "equality machine is invalid: matrix is not unitary" in err


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_quantum_sweep_flags_a_collect_row_that_is_not_uniform(
    mode, tmp_path, monkeypatch, capsys
):
    # only the dense witness applies the collect's accept row
    real = quantum_protocol._collect

    def skewed(n):
        op = real(n).copy()
        op[qsim.pair_index(1, 0, n), 0] *= 1.01
        return op

    monkeypatch.setattr(quantum_protocol, "_collect", skewed)
    n, options = (8, {}) if mode == "exhaustive" else (16, _SAMPLED)
    err = _violations(tmp_path, capsys, "quantum-sweep", n, **options)
    assert re.search(r"dense round on [01]+,[01]+ off by ", err)


# Wrong one-way programs that, at the configs below, only the exact coin
# check sees; each takes the real function and returns the wrong one.
def _below_weight_minus_one(real):
    # never picks x's last one
    return lambda weights, k, rng: real(np.asarray(weights) - 1, k, rng)


def _one_draw_short(real):
    return lambda weights, k, rng: real(weights, k - 1, rng)


def _miss_over_h_plus_one(real):
    return lambda m, h, k: Fraction(h - m, h + 1) ** k


#: Sample mode at n=32 with one position, the benchmark's sampled config.
_SAMPLED_32 = dict(mode="sample", samples=3000, k=1, seed=1)


@pytest.mark.parametrize("name,mutate,n,options,message", [
    ("sample_positions", _below_weight_minus_one, 16, _SAMPLED,
     r"weight 4: draws \(low, highs, shape\) \[\(0, \[3\], \(256, 4\)\)\], not"),
    ("sample_positions", _below_weight_minus_one, 32, _SAMPLED_32,
     r"weight 11: draws \(low, highs, shape\) \[\(0, \[10\], \(11, 1\)\)\], not"),
    ("miss_probability", _miss_over_h_plus_one, 32, _SAMPLED_32,
     r"coins of overlap 8 and weight 11: 3 of 11 coin strings miss, not 11/4"),
    # at the default k=4 the count of accepted NO pairs sees it too
    ("sample_positions", _one_draw_short, 8, dict(k=6),
     r"weight 6: draws \(low, highs, shape\) \[\(0, \[6\], \(216, 2\)\)\], not"),
    ("sample_positions", _one_draw_short, 16, _SAMPLED,
     r"weight 4: draws \(low, highs, shape\) \[\(0, \[4\], \(256, 3\)\)\], not"),
], ids=["biased-n16", "biased-n32", "miss-formula-n32", "k-1-n8", "k-1-n16"])
def test_classical_sweep_checks_the_run_on_every_coin_string(
    name, mutate, n, options, message, tmp_path, monkeypatch
):
    monkeypatch.setattr(randomized_protocol, name,
                        mutate(getattr(randomized_protocol, name)))
    violations = _all_violations(tmp_path, monkeypatch, "classical-sweep", n, **options)
    assert re.search(message, violations)
