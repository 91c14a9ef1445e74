"""The protocol sweeps print exact values.

A round accepts with probability exactly S**2/n**2, S = n - 2|x & y|, and
k rounds with its k-th power.  Every probability the quantum sweep prints,
per pair or in its summary, must be the correctly rounded float of that
exact value, and every YES pair must be accepted for sure.

The one-way protocol misses an overlap of m among the h ones of x with
probability exactly ((h - m)/h)**k.  Every error and detection
probability the classical sweep prints, per pair or in its summary, must
be the correctly rounded float of its exact value, and its literal-branch
and bit counts must match a recount of the records.
"""

import json
from fractions import Fraction

import pytest

from promisecc.cli import EXIT_OK, ExperimentConfig, run_experiment
from promisecc.randomized_protocol import bit_cost

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


CLASSICAL_CASES = {
    "n8": dict(n=8),
    "n6-lambda-1-6-k3": dict(n=6, margin_text="1/6", k=3),
    "n32-sample-k1": dict(n=32, mode="sample", samples=3000, k=1),
}


@pytest.mark.parametrize("case", CLASSICAL_CASES)
def test_classical_sweep_prints_the_floats_of_exact_values(case, tmp_path):
    options = CLASSICAL_CASES[case]
    out = tmp_path / "c.json"
    cfg = ExperimentConfig(command="classical-sweep", seed=1, out=str(out), **options)
    assert run_experiment(cfg) == EXIT_OK
    *records, summary = [json.loads(line) for line in out.read_text().splitlines()]
    n, k = options["n"], summary["k"]
    if "k" in options:
        assert k == options["k"]
    errors = {"yes": [], "no": []}
    detections = []  # over the NO pairs that sample
    literal_no = bits = 0
    for record in records:
        x, y = int(record["x"], 2), int(record["y"], 2)
        m, h = (x & y).bit_count(), x.bit_count()
        literal = h < k
        assert record["literal_branch"] == literal
        assert record["bits"] == (1 if literal else bit_cost(n, k))
        bits += record["bits"]
        if literal:
            # the literal answer 1 errs exactly on intersecting pairs
            error = Fraction(int(m > 0))
            assert record["p_detect_exact"] is None
        else:
            miss = Fraction(h - m, h) ** k
            error = miss if m else Fraction(0)
            assert record["p_detect_exact"] == float(1 - miss)
        assert record["exact_error"] == float(error)
        errors[record["label"]].append(error)
        if record["label"] == "no":
            if literal:
                literal_no += 1
            else:
                detections.append(1 - miss)
    for label, values in errors.items():
        assert summary[f"count_{label}"] == len(values)
        # sampled runs at large n may draw no YES pair
        assert summary[f"err_{label}_max"] == (float(max(values)) if values else None)
    assert summary["det_no_min"] == float(min(detections))
    assert summary["det_no_max"] == float(max(detections))
    assert summary["det_no_mean"] == float(sum(detections) / len(detections))
    assert summary["literal_no_count"] == literal_no
    assert summary["bits_total"] == bits
