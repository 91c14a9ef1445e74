"""Experiment runner: config validation, reports, determinism, exit codes."""

import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from promisecc import automata, cli
from promisecc.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    ExperimentConfig,
    build_parser,
    emit_cost_table,
    main,
    run_experiment,
)


def _read_json_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestConfigValidation:
    def test_unknown_command(self):
        with pytest.raises(cli.ConfigError):
            ExperimentConfig(command="nope", n=4).validated()

    def test_sample_mode_needs_samples(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, mode="sample", seed=1)
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_sample_mode_needs_seed(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, mode="sample", samples=5)
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_exhaustive_cap(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=11)
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_bad_margin_fatal_for_protocol_sweeps(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, margin_text="1/3")
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_bad_margin_tolerated_for_bounds(self):
        # the bounds sweep simply skips the promise-disjointness matrix
        plan = ExperimentConfig(command="bounds", n=3).validated()
        assert plan.margin is None

    def test_bad_eps(self):
        cfg = ExperimentConfig(command="classical-sweep", n=4, eps_text="5/3")
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_seed_defaults_to_zero(self):
        plan = ExperimentConfig(command="quantum-sweep", n=4).validated()
        assert plan.seed == 0

    def test_output_path_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "reports"))
        plan = ExperimentConfig(command="quantum-sweep", n=4).validated()
        path = plan.output_path()
        assert path.parent == tmp_path / "reports"
        assert path.name == "quantum-sweep-n4-seed0.json"

    def test_explicit_out_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out="here.json")
        assert str(cfg.validated().output_path()) == "here.json"


class TestQuantumSweep:
    def test_exhaustive_n4(self, tmp_path):
        out = tmp_path / "q.json"
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        records = _read_json_lines(out)
        inputs = [r for r in records if r["record"] == "input"]
        summary = records[-1]
        assert len(inputs) == 255
        assert summary["record"] == "summary"
        assert summary["count_yes"] == 81
        assert summary["count_no"] == 174
        assert summary["invariant_ok"] is True
        assert summary["p_yes_min"] == 1.0
        assert summary["p_no_max"] <= 0.25 + 1e-9

    def test_sampled_respects_count(self, tmp_path):
        out = tmp_path / "q.json"
        cfg = ExperimentConfig(
            command="quantum-sweep", n=6, mode="sample", samples=40, seed=3,
            margin_text="1/6", out=str(out),
        )
        assert run_experiment(cfg) == EXIT_OK
        records = _read_json_lines(out)
        assert len([r for r in records if r["record"] == "input"]) == 40


class TestSampleModeSize:
    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    def test_n64_runs(self, command, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main([
            "--cmd", command, "--n", "64", "--mode", "sample", "--samples", "20",
            "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(_read_json_lines(out)) == 21
        capsys.readouterr()

    @pytest.mark.parametrize("command,lam", [
        ("quantum-sweep", "1/4"), ("quantum-sweep", "1/5"), ("classical-sweep", "1/5"),
    ])
    def test_n65_is_a_config_error(self, command, lam, capsys):
        code = main([
            "--cmd", command, "--n", "65", "--lambda", lam, "--mode", "sample",
            "--samples", "20", "--seed", "1",
        ])
        assert code == EXIT_CONFIG
        assert "sample mode supports n <= 64" in capsys.readouterr().err


class TestClassicalSweep:
    def test_exhaustive_n4(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = ExperimentConfig(command="classical-sweep", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        summary = _read_json_lines(out)[-1]
        assert summary["invariant_ok"] is True
        assert summary["k"] == 4
        assert summary["err_yes_max"] == 0.0

    def test_k_override(self, tmp_path):
        out = tmp_path / "c.json"
        cfg = ExperimentConfig(command="classical-sweep", n=4, k=2, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        assert _read_json_lines(out)[-1]["k"] == 2


class TestQcfaSweep:
    def test_exhaustive_n2(self, tmp_path):
        out = tmp_path / "a.json"
        cfg = ExperimentConfig(command="qcfa-sweep", n=2, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        records = _read_json_lines(out)
        summaries = [r for r in records if r["record"] == "summary"]
        assert {s["machine"] for s in summaries} == {"equality", "disjointness"}
        for s in summaries:
            assert s["invariant_ok"] is True
            assert s["deviation_max"] <= 1e-9


class TestBoundsSweep:
    def test_n2_all_bounds_hold(self, tmp_path):
        out = tmp_path / "b.json"
        cfg = ExperimentConfig(command="bounds", n=2, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        records = _read_json_lines(out)
        assert records[-1]["all_bounds_ok"] is True
        by_problem = {r["problem"]: r for r in records if r["record"] == "input"}
        assert by_problem["eq"]["D"] == 3
        assert by_problem["disj"]["C0"] == 3
        assert by_problem["promise_eq"]["D"] == 2

    def test_n4_includes_promise_disj(self, tmp_path):
        out = tmp_path / "b.json"
        cfg = ExperimentConfig(command="bounds", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        records = _read_json_lines(out)
        by_problem = {r["problem"]: r for r in records if r["record"] == "input"}
        assert by_problem["promise_disj"]["D"] == 5
        assert by_problem["promise_disj"]["lambda"] == "1/4"


class TestReductionSweep:
    def test_n2(self, tmp_path):
        out = tmp_path / "r.json"
        cfg = ExperimentConfig(command="reduction", n=2, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        summary = _read_json_lines(out)[-1]
        assert summary["agreement"] is True
        assert summary["invariant_ok"] is True
        assert summary["cost"] == 1 + 2 * 6  # 35 states round up to 2^6

    def test_dfa_failing_the_check_is_reported(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        real = cli.automata.bruteforce_disjointness_dfa

        def accepts_nothing(n):
            return dataclasses.replace(real(n), accepting=frozenset())

        monkeypatch.setattr(cli.automata, "bruteforce_disjointness_dfa", accepts_nothing)
        out = tmp_path / "r.json"
        cfg = ExperimentConfig(command="reduction", n=2, out=str(out))
        assert run_experiment(cfg) == EXIT_INVARIANT
        assert "fails the promise check" in capsys.readouterr().err
        summary = _read_json_lines(out)[-1]
        assert summary["agreement"] is False
        assert summary["cost"] is None
        assert summary["invariant_ok"] is False


def _disj_oracle(n, xv, yv):
    m = bin(xv & yv).count("1")
    return "yes" if m == 0 else "no" if n <= 4 * m <= 3 * n else "outside"


def _eq_oracle(n, xv, yv):
    d = bin(xv ^ yv).count("1")
    return "yes" if d == 0 else "no" if 2 * d == n else "outside"


def _as_text(stream):
    return [(str(x), str(y), label.value) for x, y, label in stream]


def _brute_force(n, oracle):
    return [
        (format(xv, f"0{n}b"), format(yv, f"0{n}b"), oracle(n, xv, yv))
        for xv in range(1 << n)
        for yv in range(1 << n)
        if oracle(n, xv, yv) != "outside"
    ]


def _drawn(n, count, oracle, seed):
    # reference sampler: int64 draws of x then y, rejected outside the promise
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        xv = int(rng.integers(0, 1 << n))
        yv = int(rng.integers(0, 1 << n))
        if oracle(n, xv, yv) != "outside":
            pairs.append((format(xv, f"0{n}b"), format(yv, f"0{n}b"), oracle(n, xv, yv)))
    return pairs


class TestPairStreams:
    def test_exhaustive_pairs_match_brute_force(self):
        plan = ExperimentConfig(command="quantum-sweep", n=4).validated()
        assert _as_text(cli._pair_stream(plan)) == _brute_force(4, _disj_oracle)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_word_pairs_match_brute_force(self, n):
        plan = ExperimentConfig(command="qcfa-sweep", n=n).validated()
        cases = [
            (automata.equality_word_problem(n), automata.equality_word, _eq_oracle),
            (automata.disjointness_word_problem(n), automata.disjointness_word,
             _disj_oracle),
        ]
        for problem, builder, oracle in cases:
            stream = cli._word_pair_stream(plan, problem, builder)
            assert _as_text(stream) == _brute_force(n, oracle)

    @pytest.mark.parametrize("n,seed", [(16, 5), (48, 11)])
    def test_sampled_pairs_match_int64_draws(self, n, seed):
        plan = ExperimentConfig(
            command="quantum-sweep", n=n, mode="sample", samples=200, seed=seed
        ).validated()
        assert _as_text(cli._pair_stream(plan)) == _drawn(n, 200, _disj_oracle, seed)

    def test_sampled_word_pairs_match_int64_draws(self):
        n, seed = 16, 5
        plan = ExperimentConfig(
            command="qcfa-sweep", n=n, mode="sample", samples=100, seed=seed
        ).validated()
        eq = cli._word_pair_stream(
            plan, automata.equality_word_problem(n), automata.equality_word
        )
        assert _as_text(eq) == _drawn(n, 100, _eq_oracle, (seed, 0))
        disj = cli._word_pair_stream(
            plan, automata.disjointness_word_problem(n), automata.disjointness_word
        )
        assert _as_text(disj) == _drawn(n, 100, _disj_oracle, (seed, 1))


class TestReports:
    def test_json_lines_sorted_keys(self, tmp_path):
        out = tmp_path / "q.json"
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(out))
        run_experiment(cfg)
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_csv_has_fixed_columns(self, tmp_path):
        out = tmp_path / "q.csv"
        cfg = ExperimentConfig(command="quantum-sweep", n=4, fmt="csv", out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        reader = csv.reader(io.StringIO(out.read_text()))
        header = next(reader)
        assert header == list(cli._COLUMNS["quantum-sweep"])
        widths = {len(row) for row in reader}
        assert widths == {len(header)}

    def test_csv_booleans_lowercase(self, tmp_path):
        out = tmp_path / "b.csv"
        cfg = ExperimentConfig(command="bounds", n=2, fmt="csv", out=str(out))
        run_experiment(cfg)
        assert "true" in out.read_text()


class TestReproducibility:
    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    def test_same_seed_same_bytes(self, command, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            cfg = ExperimentConfig(
                command=command, n=6, margin_text="1/6", mode="sample",
                samples=25, seed=42, out=str(out),
            )
            assert run_experiment(cfg) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_different_seed_differs(self, tmp_path):
        texts = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}.json"
            cfg = ExperimentConfig(
                command="quantum-sweep", n=6, margin_text="1/6", mode="sample",
                samples=25, seed=seed, out=str(out),
            )
            run_experiment(cfg)
            texts.append(out.read_bytes())
        assert texts[0] != texts[1]


class TestExitCodes:
    def test_config_error_is_one(self, capsys):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, mode="sample")
        assert run_experiment(cfg) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invariant_violation_is_two(self, tmp_path, monkeypatch, capsys):
        # force a wrong single-round probability so the sweep flags it
        import dataclasses

        real = cli.quantum_protocol.run_protocol

        def broken(x, y, margin, k, rng):
            return dataclasses.replace(real(x, y, margin, k, rng), p_single=0.5)

        monkeypatch.setattr(cli.quantum_protocol, "run_protocol", broken)
        out = tmp_path / "q.json"
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err
        assert out.exists()  # the report is still written

    def test_main_bad_flag_is_config_error(self, capsys):
        assert main(["--cmd", "nope", "--n", "4"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_main_runs_experiment(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["--cmd", "bounds", "--n", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert out.exists()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["--cmd", "quantum-sweep", "--n", "4"])
        assert args.margin_text == "1/4"
        assert args.eps_text == "1/3"
        assert args.mode == "exhaustive"
        assert args.fmt == "json"
        assert args.seed is None

    def test_lambda_flag_maps_to_margin(self):
        args = build_parser().parse_args(
            ["--cmd", "quantum-sweep", "--n", "8", "--lambda", "1/8"]
        )
        assert args.margin_text == "1/8"

    def test_all_commands_accepted(self):
        parser = build_parser()
        for command in COMMANDS:
            assert parser.parse_args(["--cmd", command, "--n", "2"]).cmd == command


class TestCostTable:
    def test_rows_and_ceilings(self):
        rows = emit_cost_table(
            margins=[Fraction(1, 4), Fraction(1, 8)],
            epsilons=[Fraction(1, 3)],
            ns=[4, 8],
        )
        assert len(rows) == 4
        quarter_n8 = next(
            r for r in rows if r["lambda"] == "1/4" and r["n"] == 8
        )
        assert quarter_n8["k_quantum"] == 1
        assert quarter_n8["qubits"] == 9
        assert quarter_n8["k_classical"] == 4
        assert quarter_n8["bits"] == 12
        for row in rows:
            assert row["k_quantum"] <= row["k_quantum_limit"]
            assert row["k_classical"] <= row["k_classical_limit"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            emit_cost_table([], [Fraction(1, 3)], [4])
