"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/check_bench.py

They run a tiny workload with the same code the real workloads use, so
they take seconds rather than the minutes a real run takes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import Command, Workload  # noqa: E402

TINY = Workload(
    "tiny",
    "every command kind and layer at the smallest sizes",
    (
        Command("quantum-sweep", 4, records=256),
        Command("classical-sweep", 4, records=21, fmt="csv", samples=20, k=1),
        Command("qcfa-sweep", 2, records=29, fmt="csv"),
        Command("qcfa-sweep", 8, records=22, fmt="csv", samples=10),
        Command("bounds", 2, records=4),
        Command("reduction", 4, records=2, min_cc=5),
    ),
    probes=(Command("quantum-sweep", 64, records=3, fmt="csv", samples=2),),
)

def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_twice():
    return [run.run_workload(TINY, 7, 1.0, trace=True) for _ in range(2)]


@pytest.fixture(scope="module")
def untraced():
    return run.run_workload(TINY, 7, 1.0, trace=False)


def test_tiny_workload_passes_its_checks(untraced, traced_twice):
    for result in (untraced, *traced_twice):
        assert result["correct"], result
        assert result["failed"] == 0
        assert result["attempted"] >= len(TINY.commands)


def test_names_and_units_match_benchmark_json(untraced, traced_twice):
    spec = _spec()
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == want_e2e
    for result in traced_twice:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


def test_count_metrics_repeat_exactly(traced_twice):
    first, second = (r["metrics"] for r in traced_twice)
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit in ("count", "bytes")]
    counts += ["bounds.decided_ratio", "cli.sample_accept_ratio"]
    for name in counts:
        assert first[name] == second[name], name
    # every layer did some work in the tiny workload
    for name in ("bits.classify_calls", "quantum_protocol.rounds",
                 "randomized_protocol.runs", "randomized_protocol.mc_trials",
                 "automata.words", "bounds.searches", "cli.pairs",
                 "cli.rng_calls", "cli.report_bytes"):
        assert first[name]["value"] > 0, name
    for layer in run.LAYERS:
        assert first[f"{layer}.self_s"]["value"] > 0, layer
    assert first["probe.failed"]["value"] == 1  # int64 overflow at n=64


def test_seed_reaches_every_command():
    for workload in [*run.WORKLOADS.values(), TINY]:
        for command in (*workload.commands, *workload.probes):
            for seed in (1, 987654321):
                args = command.cli_args(seed, Path("out"))
                assert args[args.index("--seed") + 1] == str(seed)


def _lines(records):
    return [json.dumps(r) + "\n" for r in records]


def test_checks_reject_wrong_reports():
    bounds = Command("bounds", 2, records=3)
    good = [
        {"record": "input", "problem": "eq", "D": 3},
        {"record": "input", "problem": "disj", "D": 3},
        {"record": "summary", "all_bounds_ok": True},
    ]
    assert run.check_report(bounds, _lines(good)) == []
    assert run.check_report(bounds, _lines(good[1:]))  # count and D(eq)
    wrong_d = [dict(good[0], D=2), *good[1:]]
    assert run.check_report(bounds, _lines(wrong_d))
    refuted = [*good[:2], dict(good[2], all_bounds_ok=False)]
    assert run.check_report(bounds, _lines(refuted))

    reduction = Command("reduction", 4, records=2, min_cc=5)
    rec = {"record": "input", "agreement": True, "min_cc": 5, "cost": 17}
    summary = {"record": "summary", "invariant_ok": True}
    assert run.check_report(reduction, _lines([rec, summary])) == []
    for bad in ({"min_cc": 4}, {"cost": 3}, {"agreement": False}):
        assert run.check_report(reduction, _lines([dict(rec, **bad), summary]))

    sweep = Command("quantum-sweep", 2, records=2, fmt="csv")
    csv_text = "record,x,invariant_ok\ninput,01,\nsummary,,{}\n"
    assert run.check_report(sweep, csv_text.format("true").splitlines(True)) == []
    assert run.check_report(sweep, csv_text.format("false").splitlines(True))


def test_bare_checkout_exits_nonzero_without_result():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
