"""Small reports of all five commands, pinned byte for byte by sha256.

Reports are promised to be byte-identical run to run, and changes that
only make a command faster must keep them so.  These digests turn that
into a check: a change to the sweeps, the rounds or the renderer that
moves any byte fails here.  The two protocol sweeps print the floats of
exact values, read from exact tables and per-key counts, but the
automaton sweep's fields come from numpy and its BLAS, so a different
build can round a last bit differently; on a mismatch, run the parent
commit on the same machine before re-pinning.

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
        "883fbb02b70eb8ef9d59035c213319184721f09d702af36f0649f63042a7276e",
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
        "b4336e382172cfef57d96fb0d222ba5132289d28703cc9e7508e2bf07cf1a42f",
    ),
    # sample mode, where the coin check meets only the drawn keys
    "classical-n16-sample-csv": (
        dict(command="classical-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "4f4eac623355b989aacbddb7057ca9067dcf6e804728c7af328f6463f41d73d3",
    ),
    "qcfa-n3-json": (
        dict(command="qcfa-sweep", n=3, seed=1),
        73,
        "274fabe1223134ef2f266943cbabe1109efd97a829f8960d22ec9976b3ea5599",
    ),
    # every word at n=6, then the rejection-sampled words at n=32 and n=64
    "qcfa-n6-csv": (
        dict(command="qcfa-sweep", n=6, seed=1, fmt="csv"),
        3965,
        "9d024935fc69f08c4ccb4551fa4caa7425d8e679194e5b0e2ebc2953452a4306",
    ),
    "qcfa-n32-sample-csv": (
        dict(command="qcfa-sweep", n=32, mode="sample", samples=200, seed=1,
             fmt="csv"),
        402,
        "38de522b2783b16beca34310453dd1967b60ee97f56d661c299e7565c9bbf425",
    ),
    "qcfa-n64-sample-json": (
        dict(command="qcfa-sweep", n=64, mode="sample", samples=50, seed=1),
        102,
        "e40faaea374aa2cba931ed17a70ad19789181ef52c011c64b8744cbe60d89f77",
    ),
    # reports of more than one SWEEP_CHUNK of records
    "quantum-n16-sample-2100-json": (
        dict(command="quantum-sweep", n=16, mode="sample", samples=2100, seed=1),
        2101,
        "6e08fc54ee512ef69262706d76a7a756ca2efce6b7422aaf3721aad29d73c035",
    ),
    "classical-n16-sample-2100-csv": (
        dict(command="classical-sweep", n=16, mode="sample", samples=2100, seed=1,
             fmt="csv"),
        2101,
        "d87ee42def06e8e6acf8f1b6c441432b3724cb84e7cfcba62dc614df46f1043d",
    ),
    "qcfa-n16-sample-1100-csv": (
        dict(command="qcfa-sweep", n=16, mode="sample", samples=1100, seed=1,
             fmt="csv"),
        2202,
        "c911b503fd875833825c77ad7339aed86875624c6072863acdb6f426c4438b2b",
    ),
    "bounds-n3-json": (
        dict(command="bounds", n=3, seed=1),
        3,
        "92a6df957b4f15492c99e2ca118a6b7f4adbfd3cd08e2bcc4361ab20b1d51cb3",
    ),
    # the promise_eq and promise_disj matrices
    "bounds-n4-json": (
        dict(command="bounds", n=4, seed=1),
        5,
        "384e112c41222ba7fdba4c28de7c101475a257cfddc1f3e31bf41ca09787ffc8",
    ),
    # odd n: no promise_eq, and a band other than lambda = 1/4
    "bounds-n5-lambda-1-5-json": (
        dict(command="bounds", n=5, margin_text="1/5", seed=1),
        4,
        "56aa6b57e0a08776497149e18b242a35ea2c3f4715e0941431fec728ed62c05b",
    ),
    "quantum-n5-lambda-1-5-json": (
        dict(command="quantum-sweep", n=5, margin_text="1/5", seed=1),
        1024,
        "3e1dbf7cac479b024d3aad884dbd81f0b0281f3bfcecfc4b4c90ea8402dad0b0",
    ),
    "classical-n6-lambda-1-6-json": (
        dict(command="classical-sweep", n=6, margin_text="1/6", seed=1),
        4096,
        "b124487beae1d4d6f2f497303eb76ff03398ea18bbaa6569f8035c456896a501",
    ),
    # every pair inside the promise at n=6, several exhaustive chunks
    "quantum-n6-lambda-1-6-json": (
        dict(command="quantum-sweep", n=6, margin_text="1/6", seed=1),
        4096,
        "095adbdb2573f1b88ea95fa750e0dbf718a5e4bb7f90bd13cf47ce1b80657ef8",
    ),
    # the full 64-bit draw range in the two protocol sweeps
    "quantum-n64-sample-json": (
        dict(command="quantum-sweep", n=64, mode="sample", samples=50, seed=1),
        51,
        "791280ed9c261d55b5716cbceeba80533b82629e6fa8da65181a476833bf3926",
    ),
    "classical-n64-sample-csv": (
        dict(command="classical-sweep", n=64, mode="sample", samples=50, seed=1,
             fmt="csv"),
        51,
        "f4a5c35ca655b43bdda614c3cad08a3da5861cfd0872026d33480b6dd85b4e2e",
    ),
    # odd n: the x#y#x band from ceil(n/4) to floor(3n/4), and no
    # equality NO words
    "qcfa-n5-json": (
        dict(command="qcfa-sweep", n=5, seed=1),
        637,
        "ded9a8bf7254f039d38106e4df526ca4c1ab47bc1ed376a4449a86d1d2002c1a",
    ),
    "reduction-n4-json": (
        dict(command="reduction", n=4, seed=1),
        2,
        "b02f7a27648a3ea7a2d6198955513ddc29e8eb85b43ca558d010d97c17d2cfbb",
    ),
    "reduction-n5-json": (
        dict(command="reduction", n=5, seed=1),
        2,
        "22426b4b65e1c07eb02d6ee4d3b13fc3a9534e1de3df5abb7e0461c142808505",
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
        "407341fe9f979f34a4eed223c631c9fa7ce2d60ce92a6a76273edd07c69066dd",
    "classical-n4-json":
        "4275a03c3052fb16bf84cc668f9cf599cdb1db5e3ded8753b398d61fcfc84e33",
    "quantum-n16-sample-csv":
        "feecc354b44bb09149eecbced5e4ac4067401f73bcfe2a95c558c2744d041c5e",
    "classical-n16-sample-csv":
        "2aa07384b6bf1cf08356b053d1bc5ab81ff58ae49cca3bc4ac15fbb027872aee",
    "quantum-n16-sample-2100-json":
        "3810787faad1c6df4bba808793f141eae148f8bc71f4e226db972a31af96a494",
    "classical-n16-sample-2100-csv":
        "7ec585bf27dc65f85e2b45f07f95f02e0b4fd3c49a79d19c63d85f88f7186986",
    "quantum-n6-lambda-1-6-json":
        "ac506d70cfc57fcdf62475feb0c92cb03641d3cfe8582d56af8bcdf678c38495",
    "quantum-n64-sample-json":
        "66b67863a72eca1014b1c522edd39917fa3fa1838db9be5a4fadec9a293c5086",
    "classical-n64-sample-csv":
        "d2c69febd5f063b3861c8745f5fcb29389e96fe8e3a454670cf2cb1205350a22",
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
