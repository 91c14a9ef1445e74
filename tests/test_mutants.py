"""Wrong programs the sweeps must catch.

Each test swaps one part of the program for a wrong one and asserts that
the sweep's checks see it: exit status 2 and the named violation.
"""

import pytest

from promisecc import cli
from promisecc.cli import EXIT_INVARIANT, ExperimentConfig, run_experiment


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
