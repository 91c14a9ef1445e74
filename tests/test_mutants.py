"""Wrong programs the sweeps must catch.

Each test swaps one part of the program for a wrong one and asserts that
the sweep's checks see it: exit status 2 and the named violation.
"""

import numpy as np
import pytest

from promisecc import automata, bits, cli, qsim
from promisecc.bits import BitString
from promisecc.cli import EXIT_INVARIANT, ExperimentConfig, run_experiment


def _violations(tmp_path, capsys, command, n):
    """Run one command; assert it exits on a violation and return stderr."""
    cfg = ExperimentConfig(command=command, n=n, out=str(tmp_path / "r.json"))
    assert run_experiment(cfg) == EXIT_INVARIANT
    return capsys.readouterr().err


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
    command, message, tmp_path, monkeypatch, capsys
):
    real = bits.disjointness_promise
    monkeypatch.setattr(bits, "disjointness_promise",
                        lambda n, low, high: real(n, low - 1, high + 1))
    assert message in _violations(tmp_path, capsys, command, 8)


def test_quantum_sweep_flags_rejected_yes_pairs(tmp_path, monkeypatch, capsys):
    # a protocol that rejects every pair
    def reject_all(p_values, k, rng):
        return [0] * len(p_values)

    monkeypatch.setattr(cli.quantum_protocol, "sample_decisions", reject_all)
    cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(tmp_path / "q.json"))
    assert run_experiment(cfg) == EXIT_INVARIANT
    assert "invariant violation: yes pair 0000,0000 rejected" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_classical_sweep_checks_the_overlap_the_run_used(
    mode, tmp_path, monkeypatch, capsys
):
    real = cli.randomized_protocol.one_way_columns

    def off_by_one(*args):
        runs = real(*args)
        return runs._replace(overlap=runs.overlap + 1)

    monkeypatch.setattr(cli.randomized_protocol, "one_way_columns", off_by_one)
    sample = dict(mode="sample", samples=50, seed=1) if mode == "sample" else {}
    n = 16 if mode == "sample" else 4
    cfg = ExperimentConfig(command="classical-sweep", n=n, out=str(tmp_path / "c.json"),
                           **sample)
    assert run_experiment(cfg) == EXIT_INVARIANT
    assert " run with overlap " in capsys.readouterr().err
