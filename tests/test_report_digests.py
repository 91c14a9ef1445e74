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
        "b4336e382172cfef57d96fb0d222ba5132289d28703cc9e7508e2bf07cf1a42f",
    ),
    # sample mode adds the Monte Carlo trials
    "classical-n16-sample-csv": (
        dict(command="classical-sweep", n=16, mode="sample", samples=300, seed=1,
             fmt="csv"),
        301,
        "bac50b338da441930cf2895bafd3c0e1be864c81b5359f6abdc9ae7cefcaf70d",
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
        "7887aa6f81f4c8f192794326d44b1943f2ec21024e4ae13518906c3003b7a192",
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
        "7861f89bf93e31ec02411bb9fdefd7dc74a8540a25b9ced24e4201b160099918",
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
        "506f6b8ddfbba2466e1a9f2d2b81240837c5b4eb021733114826c15de93e0cb9",
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
        "5f559e8c590a4e353958f29d1d881b0132a151ba57a6f129587fa22b3dc76562",
    "quantum-n16-sample-csv":
        "feecc354b44bb09149eecbced5e4ac4067401f73bcfe2a95c558c2744d041c5e",
    "classical-n16-sample-csv":
        "7cabbea580e6f816552288cdae4b5f4f559b122413a3856da5ce28f307a58066",
    "quantum-n16-sample-2100-json":
        "3810787faad1c6df4bba808793f141eae148f8bc71f4e226db972a31af96a494",
    "classical-n16-sample-2100-csv":
        "ea689f4308c755348c170cc5b36622409dd3f613cd27013575c767360aa4f29f",
    "quantum-n6-lambda-1-6-json":
        "ac506d70cfc57fcdf62475feb0c92cb03641d3cfe8582d56af8bcdf678c38495",
    "quantum-n64-sample-json":
        "66b67863a72eca1014b1c522edd39917fa3fa1838db9be5a4fadec9a293c5086",
    "classical-n64-sample-csv":
        "326cc6c5d28db2b69d4c00e2485541de27534743c77e4522ed1ee5308ab6119b",
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
