"""Small reports of all five commands, pinned byte for byte by sha256.

Reports are promised to be byte-identical run to run, and changes that
only make a command faster must keep them so.  These digests turn that
into a check: a change to the sweeps, the rounds or the renderer that
moves any byte fails here.  Floating-point fields come from numpy and its
BLAS, so a different build can round a last bit differently; on a
mismatch, run the parent commit on the same machine before re-pinning.
"""

import hashlib

import pytest

from promisecc.cli import EXIT_OK, ExperimentConfig, run_experiment

CASES = {
    "quantum-n4-json": (
        dict(command="quantum-sweep", n=4, seed=1),
        256,
        "271decd4d63ef945e1da06ca084000225169f04a389a7799721702c045ac94b8",
    ),
    "classical-n4-json": (
        dict(command="classical-sweep", n=4, seed=1),
        256,
        "372f6d744ff539399b218847c94fca52e7728d9ae550f27a7678b156ff716fe5",
    ),
    "quantum-n16-sample-csv": (
        dict(command="quantum-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "a28b35ee00096805827f49134b8d33f2da2529e3c1930c64f17d64b66f89436f",
    ),
    # sample mode adds the Monte Carlo trials
    "classical-n16-sample-csv": (
        dict(command="classical-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "ac7fbc70709999f81a126b73fa8600b9f33997d60d42f7c45b3ddef8bc4fbd4b",
    ),
    "qcfa-n3-json": (
        dict(command="qcfa-sweep", n=3, seed=1),
        73,
        "9b11380cf999270c3f985e92baa2c49ea6d2ed4785f02d78a91ea45abfb14fff",
    ),
    "bounds-n3-json": (
        dict(command="bounds", n=3, seed=1),
        3,
        "92a6df957b4f15492c99e2ca118a6b7f4adbfd3cd08e2bcc4361ab20b1d51cb3",
    ),
    "reduction-n4-json": (
        dict(command="reduction", n=4, seed=1),
        2,
        "b02f7a27648a3ea7a2d6198955513ddc29e8eb85b43ca558d010d97c17d2cfbb",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_report_digest(case, tmp_path, capsys):
    options, records, digest = CASES[case]
    out = tmp_path / case
    assert run_experiment(ExperimentConfig(out=str(out), **options)) == EXIT_OK
    assert f"wrote {records} records" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
