"""Small reports of all five commands, pinned byte for byte by sha256.

Reports are promised to be byte-identical run to run, and changes that
only make a command faster must keep them so.  These digests turn that
into a check: a change to the sweeps, the rounds or the renderer that
moves any byte fails here.  Floating-point fields come from numpy and its
BLAS, so a different build can round a last bit differently; on a
mismatch, run the parent commit on the same machine before re-pinning.

The ``decision`` field of the protocol sweeps is a random draw.  A change
to how the draws are made moves it and nothing else, so the sweep reports
are also pinned with that field left out: those digests must not move
when the draws do.
"""

import csv
import hashlib
import io
import json

import pytest

from promisecc.cli import EXIT_OK, ExperimentConfig, run_experiment

CASES = {
    "quantum-n4-json": (
        dict(command="quantum-sweep", n=4, seed=1),
        256,
        "3f843a69c139650e901482729e2258722bc5fe9caa01db46ac648b1778e883bd",
    ),
    "classical-n4-json": (
        dict(command="classical-sweep", n=4, seed=1),
        256,
        "9cf32f79d181edb4ba2db85b52513a2138ffa2a6a42348a34b8cfc4471f9423e",
    ),
    "quantum-n16-sample-csv": (
        dict(command="quantum-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "fb6f5f083d26797a5b1c6d9f05fcfde77d6c9e832db99044ccc8f46577a436ce",
    ),
    # the dense round at dimension 96
    "quantum-n48-sample-csv": (
        dict(command="quantum-sweep", n=48, mode="sample", samples=200, seed=1,
             fmt="csv"),
        201,
        "9b4fdcd63dbda1acce027e22b1d99afff2bb88dc6a14ae75cacf720400ec35f9",
    ),
    # sample mode adds the Monte Carlo trials
    "classical-n16-sample-csv": (
        dict(command="classical-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "1286f92539db9c29577d3f353f3d8926d83a48572ca56090ce55d22a8ea681f1",
    ),
    "qcfa-n3-json": (
        dict(command="qcfa-sweep", n=3, seed=1),
        73,
        "9b11380cf999270c3f985e92baa2c49ea6d2ed4785f02d78a91ea45abfb14fff",
    ),
    # every word at n=6, then the rejection-sampled words at n=32 and n=64
    "qcfa-n6-csv": (
        dict(command="qcfa-sweep", n=6, seed=1, fmt="csv"),
        3965,
        "87278a388ee651c48f6ad906473e6c741d5b653150dcd4771387dde7402f432b",
    ),
    "qcfa-n32-sample-csv": (
        dict(command="qcfa-sweep", n=32, mode="sample", samples=200, seed=1,
             fmt="csv"),
        402,
        "62434e4179f4d5cdc481b98e06f10068cb54670974ef73521ab2a8a0d6be4176",
    ),
    "qcfa-n64-sample-json": (
        dict(command="qcfa-sweep", n=64, mode="sample", samples=50, seed=1),
        102,
        "e40faaea374aa2cba931ed17a70ad19789181ef52c011c64b8744cbe60d89f77",
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
    "reduction-n6-json": (
        dict(command="reduction", n=6, seed=1),
        2,
        "5ec7cd4ce22777b8a47054285231e1fc8d04be44dea2face96aca3d8ca38bdeb",
    ),
}


#: sha256 of the sweep reports above with every ``decision`` removed.
WITHOUT_DECISION = {
    "quantum-n4-json":
        "9837f0a673d578aa30597a454d65d4e41ed66a5b258cacd85c493bace2b51975",
    "quantum-n48-sample-csv":
        "ee47f34e1c18158202a1e8228bcd82820eb1f743329635401f1bf370b449a1d2",
    "classical-n4-json":
        "5f559e8c590a4e353958f29d1d881b0132a151ba57a6f129587fa22b3dc76562",
    "quantum-n16-sample-csv":
        "feecc354b44bb09149eecbced5e4ac4067401f73bcfe2a95c558c2744d041c5e",
    "classical-n16-sample-csv":
        "9fe6785c8650e6c479c01716645b8715f0d1dabc18101c1871065b5039826937",
}


def _run(case, tmp_path, capsys) -> bytes:
    options, records, _ = CASES[case]
    out = tmp_path / case
    assert run_experiment(ExperimentConfig(out=str(out), **options)) == EXIT_OK
    assert f"wrote {records} records" in capsys.readouterr().out
    return out.read_bytes()


def _without_decision(report: bytes, fmt: str) -> str:
    """The report with the ``decision`` field or column dropped, re-written
    as sorted-key JSON lines or as CSV."""
    # bytes.decode keeps every "\r", which reading the file as text would not
    text = report.decode()
    if fmt == "json":
        records = [json.loads(line) for line in text.splitlines()]
        for record in records:
            record.pop("decision", None)
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("decision")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:col] + row[col + 1:])
    return buf.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_report_digest(case, tmp_path, capsys):
    report = _run(case, tmp_path, capsys)
    assert hashlib.sha256(report).hexdigest() == CASES[case][2]


@pytest.mark.parametrize("case", WITHOUT_DECISION)
def test_report_digest_without_decision(case, tmp_path, capsys):
    fmt = CASES[case][0].get("fmt", "json")
    blind = _without_decision(_run(case, tmp_path, capsys), fmt)
    assert hashlib.sha256(blind.encode()).hexdigest() == WITHOUT_DECISION[case]
