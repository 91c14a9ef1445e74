"""The quantum sweep prints exact values.

A round accepts with probability exactly S**2/n**2, S = n - 2|x & y|, and
k rounds with its k-th power.  Every probability the quantum sweep prints,
per pair or in its summary, must be the correctly rounded float of that
exact value, and every YES pair must be accepted for sure.
"""

import json
from fractions import Fraction

import pytest

from promisecc.cli import EXIT_OK, ExperimentConfig, run_experiment

CASES = {
    "n5-lambda-1-5": dict(n=5, margin_text="1/5"),
    "n6-lambda-1-6-k3": dict(n=6, margin_text="1/6", k=3),
    "n8": dict(n=8),
}


@pytest.mark.parametrize("case", CASES)
def test_quantum_sweep_prints_the_floats_of_exact_values(case, tmp_path):
    options = CASES[case]
    out = tmp_path / "q.json"
    cfg = ExperimentConfig(command="quantum-sweep", seed=1, out=str(out), **options)
    assert run_experiment(cfg) == EXIT_OK
    *records, summary = [json.loads(line) for line in out.read_text().splitlines()]
    n, k = options["n"], summary["k"]
    if "k" in options:
        assert k == options["k"]
    exact = {"yes": [], "no": []}
    for record in records:
        s = n - 2 * (int(record["x"], 2) & int(record["y"], 2)).bit_count()
        p = Fraction(s * s, n * n)
        assert record["p_single"] == float(p)
        assert record["p_accept_k"] == float(p**k)
        if record["label"] == "yes":
            assert record["p_single"] == 1.0
            assert record["decision"] == 1
        exact[record["label"]].append(p)
    for label, values in exact.items():
        assert summary[f"count_{label}"] == len(values)
        assert summary[f"p_{label}_min"] == float(min(values))
        assert summary[f"p_{label}_max"] == float(max(values))
        assert summary[f"p_{label}_mean"] == float(sum(values) / len(values))
    assert summary["p_accept_k_no_max"] == float(max(exact["no"]) ** k)
