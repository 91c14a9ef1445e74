"""Experiment runner: config validation, reports, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promisecc import automata, bits, bounds, cli, quantum_protocol
from promisecc.bits import BitString, Promise
from promisecc.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    ExperimentConfig,
    build_parser,
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

    def test_exact_commands_cap_without_sample_hint(self):
        cfg = ExperimentConfig(command="bounds", n=7)
        with pytest.raises(cli.ConfigError, match=r"n <= 6$"):
            cfg.validated()

    @pytest.mark.parametrize("command", ["bounds", "reduction"])
    def test_sample_mode_only_for_sweeps(self, command):
        cfg = ExperimentConfig(command=command, n=4, mode="sample", samples=5, seed=1)
        with pytest.raises(cli.ConfigError, match="has no sample mode"):
            cfg.validated()

    def test_samples_need_sample_mode(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, samples=5)
        with pytest.raises(cli.ConfigError, match="needs --mode sample"):
            cfg.validated()

    @pytest.mark.parametrize("command", ["qcfa-sweep", "bounds", "reduction"])
    def test_k_only_for_protocol_sweeps(self, command):
        cfg = ExperimentConfig(command=command, n=4, k=2)
        with pytest.raises(cli.ConfigError, match="takes no --k"):
            cfg.validated()

    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    @pytest.mark.parametrize("k", [0, cli._K_CAP + 1])
    def test_k_outside_its_range(self, command, k):
        cfg = ExperimentConfig(command=command, n=4, k=k)
        with pytest.raises(cli.ConfigError, match=f"must be in 1..{cli._K_CAP}"):
            cfg.validated()

    @pytest.mark.parametrize("command,flag", [
        ("qcfa-sweep", "--lambda"), ("reduction", "--lambda"),
        ("qcfa-sweep", "--eps"), ("bounds", "--eps"), ("reduction", "--eps"),
    ])
    def test_lambda_and_eps_only_where_read(self, command, flag, capsys):
        code = main(["--cmd", command, "--n", "4", flag, "1/4"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {command} takes no {flag}\n"

    def test_defaults_only_for_commands_that_read_them(self):
        bounds_plan = ExperimentConfig(command="bounds", n=4).validated()
        assert bounds_plan.margin.fraction == Fraction(1, 4)
        assert bounds_plan.eps is None
        for command in ("qcfa-sweep", "reduction"):
            plan = ExperimentConfig(command=command, n=4).validated()
            assert plan.margin is None and plan.eps is None

    def test_negative_seed_is_one_line(self, capsys):
        code = main(["--cmd", "quantum-sweep", "--n", "4", "--seed", "-1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed must be non-negative\n"

    def test_bad_margin_fatal_for_protocol_sweeps(self):
        cfg = ExperimentConfig(command="quantum-sweep", n=4, margin_text="1/3")
        with pytest.raises(cli.ConfigError):
            cfg.validated()

    def test_bad_margin_tolerated_for_bounds(self):
        # the bounds sweep simply skips the promise-disjointness matrix
        plan = ExperimentConfig(command="bounds", n=3).validated()
        assert plan.margin is None

    @pytest.mark.parametrize("lam", ["1/2", "abc", "1/3"])
    def test_bad_explicit_margin_fatal_for_bounds(self, lam):
        with pytest.raises(cli.ConfigError, match="bad margin"):
            ExperimentConfig(command="bounds", n=4, margin_text=lam).validated()

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


class TestRepetitionCap:
    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    def test_huge_k_is_refused_at_once(self, command, tmp_path):
        # uncapped, this k asks for hundreds of GiB of decision draws
        # (quantum) or an exact power (1 - lam)**k that takes minutes
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "promisecc", "--cmd", command, "--n", "4",
             "--k", "100000000", "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_CONFIG
        assert run.stderr == f"config error: k override must be in 1..{cli._K_CAP}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    def test_k_at_the_cap_runs(self, command, tmp_path, capsys):
        out = tmp_path / "r.json"
        cfg = ExperimentConfig(command=command, n=4, k=cli._K_CAP, out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        assert _read_json_lines(out)[-1]["k"] == cli._K_CAP
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["quantum-sweep", "classical-sweep"])
    def test_eps_past_the_cap_is_refused_at_once(self, command, tmp_path):
        # uncapped, this error bound takes k = 4,983 (quantum) or 24,012
        # (classical), and seconds of exact powers to find it
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        run = subprocess.run(
            [sys.executable, "-m", "promisecc", "--cmd", command, "--n", "4",
             "--eps", f"1/{10**3000}", "--out", str(tmp_path / "r.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_CONFIG
        assert run.stderr == (
            f"config error: error bound needs k above {cli._K_CAP}, the --k cap\n"
        )
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,base",
        [("quantum-sweep", Fraction(1, 4)), ("classical-sweep", Fraction(3, 4))],
        ids=["quantum-sweep", "classical-sweep"],
    )
    def test_eps_at_the_cap_runs(self, command, base, tmp_path, capsys):
        # one round misses a band pair with probability at most base at lambda 1/4
        eps = base ** cli._K_CAP
        out = tmp_path / "r.json"
        cfg = ExperimentConfig(command=command, n=4, eps_text=str(eps), out=str(out))
        assert run_experiment(cfg) == EXIT_OK
        assert _read_json_lines(out)[-1]["k"] == cli._K_CAP
        capsys.readouterr()
        smaller = ExperimentConfig(
            command=command, n=4, eps_text=str(eps * Fraction(999_999, 10**6))
        )
        with pytest.raises(cli.ConfigError, match=f"needs k above {cli._K_CAP}"):
            smaller.validated()


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

    def test_each_summary_answers_for_its_own_machine(self, tmp_path, monkeypatch, capsys):
        # push one equality word off its expected value; the disjointness
        # machine is untouched and its summary must say so
        real = automata.accept_columns
        equality = automata.equality_automaton(4)
        hits = []

        def off_once(machine, codes):
            integers, probabilities = real(machine, codes)
            if machine is equality and not hits:
                hits.append("".join(automata.WORD_ALPHABET[c] for c in codes[0]))
                probabilities[0] += 0.5
            return integers, probabilities

        monkeypatch.setattr(automata, "accept_columns", off_once)
        out = tmp_path / "a.json"
        cfg = ExperimentConfig(command="qcfa-sweep", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_INVARIANT
        summaries = {r["machine"]: r for r in _read_json_lines(out)
                     if r["record"] == "summary"}
        assert summaries["equality"]["invariant_ok"] is False
        assert summaries["disjointness"]["invariant_ok"] is True
        err = capsys.readouterr().err
        assert f"equality word {hits[0]} off by" in err
        assert "disjointness" not in err

    def test_disjointness_expected_is_the_exact_value(self, tmp_path, capsys):
        # S**2/n**2 rounded once, S = n - 2|x & y|: 1/9 prints as
        # 0.1111111111111111, not a float round's 0.11111111111111113
        out = tmp_path / "a.json"
        assert run_experiment(ExperimentConfig(command="qcfa-sweep", n=6, out=str(out))) == EXIT_OK
        rows = [r for r in _read_json_lines(out)
                if r["record"] == "input" and r["machine"] == "disjointness"]
        assert len(rows) == 729 + 1890  # YES, then overlaps 2..4
        for r in rows:
            s = 6 - 2 * (int(r["x"], 2) & int(r["y"], 2)).bit_count()
            assert r["expected"] == s * s / 6**2
        assert 1 / 9 in {r["expected"] for r in rows}
        capsys.readouterr()

    @pytest.mark.parametrize("n", [7, 33])
    def test_sample_mode_at_odd_n_is_a_config_error(self, n, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = main([
            "--cmd", "qcfa-sweep", "--n", str(n), "--mode", "sample",
            "--samples", "1", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: promise equality has no NO words at odd n; "
            "use an even n or exhaustive mode\n"
        )
        assert not out.exists()

    def test_sample_mode_at_even_n_and_exhaustive_at_odd_n_run(self, tmp_path, capsys):
        sampled = tmp_path / "s.json"
        assert main([
            "--cmd", "qcfa-sweep", "--n", "8", "--mode", "sample", "--samples", "5",
            "--seed", "1", "--out", str(sampled),
        ]) == EXIT_OK
        labels = {r["label"] for r in _read_json_lines(sampled) if r["record"] == "input"}
        assert "no" in labels
        exhaustive = tmp_path / "e.json"
        assert main(["--cmd", "qcfa-sweep", "--n", "5", "--out", str(exhaustive)]) == EXIT_OK
        capsys.readouterr()


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
        real = automata.bruteforce_disjointness_dfa

        def accepts_nothing(n):
            return real(n)._replace(accepting=frozenset())

        monkeypatch.setattr(automata, "bruteforce_disjointness_dfa", accepts_nothing)
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


def _as_text(stream, n):
    """The pairs of a stream of chunks as (x text, y text, label text)."""
    return [
        (format(x, f"0{n}b"), format(y, f"0{n}b"), "yes" if is_yes else "no")
        for xs, ys, yes in stream
        for x, y, is_yes in zip(xs, ys, yes.tolist(), strict=True)
    ]


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


#: The total problems, the promise problems and the word problems.
_KINDS = ("eq", "disj", "promise_eq", "promise_disj", "equality", "disjointness")


def _promise(kind, n, lam):
    """The count table of ``kind`` at length n, read from the ``bounds``
    table or the word problem; promise disjointness takes the margin lam."""
    if kind in bounds.PROBLEMS:
        overlap, fixed = bounds.PROBLEMS[kind]
        return Promise.from_margin(n, overlap, lam if fixed is None else fixed)
    return automata.WordProblem(n, kind).promise


class TestPairStreams:
    def test_exhaustive_pairs_match_brute_force(self):
        plan = ExperimentConfig(command="quantum-sweep", n=4).validated()
        assert _as_text(cli._pair_stream(plan), 4) == _brute_force(4, _disj_oracle)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_word_pairs_match_brute_force(self, n):
        plan = ExperimentConfig(command="qcfa-sweep", n=n).validated()
        cases = [
            (automata.equality_word_problem(n), _eq_oracle),
            (automata.disjointness_word_problem(n), _disj_oracle),
        ]
        for problem, oracle in cases:
            stream = cli._word_pair_stream(plan, problem)
            assert _as_text(stream, n) == _brute_force(n, oracle)

    @pytest.mark.parametrize("n,seed", [(16, 5), (48, 11)])
    def test_sampled_pairs_match_int64_draws(self, n, seed):
        plan = ExperimentConfig(
            command="quantum-sweep", n=n, mode="sample", samples=200, seed=seed
        ).validated()
        assert _as_text(cli._pair_stream(plan), n) == _drawn(n, 200, _disj_oracle, seed)

    def test_sampled_word_pairs_match_int64_draws(self):
        n, seed = 16, 5
        plan = ExperimentConfig(
            command="qcfa-sweep", n=n, mode="sample", samples=100, seed=seed
        ).validated()
        eq = cli._word_pair_stream(plan, automata.equality_word_problem(n))
        assert _as_text(eq, n) == _drawn(n, 100, _eq_oracle, (seed, 0))
        disj = cli._word_pair_stream(plan, automata.disjointness_word_problem(n))
        assert _as_text(disj, n) == _drawn(n, 100, _disj_oracle, (seed, 1))

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(_KINDS),
        n=st.integers(1, 6),
        eighths=st.integers(1, 4),
        big_n=st.sampled_from([16, 64]),
        sixteenths=st.integers(1, 4),
        samples=st.integers(1, 40),
        seed=st.integers(0, 3),
    )
    def test_chunks_do_not_depend_on_the_chunk_size(
        self, kind, n, eighths, big_n, sixteenths, samples, seed
    ):
        # promise disjointness takes a margin of 1/8 .. 1/2 at n, and of
        # 1/16 .. 1/4 at big_n, so every promise keeps a fair share of the draws
        promise = _promise(kind, n, Fraction(eighths, 8))
        big = _promise(kind, big_n, Fraction(sixteenths, 16))
        want = _brute_force(
            n, lambda n, x, y: promise.label(BitString(x, n), BitString(y, n)).value
        )
        drawn = []
        for size in (1, 3, 1024):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bits, "SWEEP_CHUNK", size)
                chunks = list(promise.chunks())
                big_chunks = list(big.chunks(samples, seed))
            assert all(len(xs) for xs, _, _ in chunks + big_chunks)
            assert _as_text(chunks, n) == want
            drawn.append(_as_text(big_chunks, big_n))
        assert len(drawn[0]) == samples
        assert drawn[1] == drawn[0] and drawn[2] == drawn[0]


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
        assert header == list(cli._COMMAND_TABLE["quantum-sweep"].columns)
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
        real = quantum_protocol.round_columns

        def broken(x_values, y_values, n):
            amplitudes, witness = real(x_values, y_values, n)
            return amplitudes, np.full_like(witness, 0.5)

        monkeypatch.setattr(quantum_protocol, "round_columns", broken)
        out = tmp_path / "q.json"
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(out))
        assert run_experiment(cfg) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err
        assert out.exists()  # the report is still written

    def test_dense_round_above_one_is_flagged(self, tmp_path, monkeypatch, capsys):
        # a YES pair a hair above certainty: no verdict reads the dense
        # value, so only its witness check can catch it
        real = quantum_protocol.round_columns

        def above_one(x_values, y_values, n):
            amplitudes, witness = real(x_values, y_values, n)
            return amplitudes, np.array(
                [1 + 1e-6 if x & y == 0 else p
                 for x, y, p in zip(x_values, y_values, witness)]
            )

        monkeypatch.setattr(quantum_protocol, "round_columns", above_one)
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(tmp_path / "q.json"))
        assert run_experiment(cfg) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert "invariant violation: dense round on 0000,0000 off by 1.000e-06" in err
        assert "yes pair" not in err

    def test_sweep_stopped_half_way_leaves_no_report(self, tmp_path, monkeypatch):
        # records are streamed, so a sweep that raises after some of them
        # must not leave a short report under the output name
        real = quantum_protocol.round_columns
        calls = []

        def broken(x_values, y_values, n):
            calls.append(n)
            if len(calls) > 2:
                raise RuntimeError("stopped")
            return real(x_values, y_values, n)

        monkeypatch.setattr(bits, "SWEEP_CHUNK", 3)
        monkeypatch.setattr(quantum_protocol, "round_columns", broken)
        out = tmp_path / "q.json"
        out.write_text("earlier report\n")
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(out))
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert out.read_text() == "earlier report\n"

    def test_out_naming_a_directory_is_refused_before_the_sweep(
        self, tmp_path, monkeypatch, capsys
    ):
        def sweep(plan, violations):
            raise AssertionError("the sweep ran")

        row = cli._COMMAND_TABLE["quantum-sweep"]._replace(sweep=sweep)
        monkeypatch.setitem(cli._COMMAND_TABLE, "quantum-sweep", row)
        cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(tmp_path))
        assert run_experiment(cfg) == EXIT_CONFIG
        assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no .part file beside it

    def test_out_that_cannot_be_opened_is_one(self, tmp_path, capsys):
        # a regular file where the report's directory should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = ExperimentConfig(command="bounds", n=1, out=str(blocker / "r.json"))
        assert run_experiment(cfg) == EXIT_CONFIG
        assert "cannot write report" in capsys.readouterr().err

    def test_failed_rename_removes_the_part_file(self, tmp_path, monkeypatch, capsys):
        def refuse(self, target):
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(cli.Path, "replace", refuse)
        cfg = ExperimentConfig(command="bounds", n=1, out=str(tmp_path / "r.json"))
        assert run_experiment(cfg) == EXIT_CONFIG
        assert "Permission denied" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        # None means "not given"; the plan applies 1/4 and 1/3
        assert args.margin_text is None
        assert args.eps_text is None
        assert args.mode == "exhaustive"
        assert args.fmt == "json"
        assert args.seed is None
        plan = ExperimentConfig(**vars(args)).validated()
        assert plan.margin.fraction == Fraction(1, 4)
        assert plan.eps == Fraction(1, 3)

    def test_lambda_flag_maps_to_margin(self):
        args = build_parser().parse_args(
            ["--cmd", "quantum-sweep", "--n", "8", "--lambda", "1/8"]
        )
        assert args.margin_text == "1/8"

    def test_all_commands_accepted(self):
        parser = build_parser()
        for command in COMMANDS:
            assert parser.parse_args(["--cmd", command, "--n", "2"]).command == command
