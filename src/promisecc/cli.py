"""Command-line experiment runner.

Each command sweeps one capability over exhaustive or sampled inputs and
writes one record per evaluated input plus a trailing summary record, as
newline-delimited JSON or fixed-column CSV.  Sweeps re-assert the owning
module's guarantees while running; a violated guarantee still writes the
report but exits with status 2.  Inputs come from one stream: every pair
inside the promise, or uniform draws kept only inside it.  Per-input
randomness derives from (seed, input index), so identical configurations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import automata, bounds, quantum_protocol, randomized_protocol
from .bits import BitString, Margin, PromiseLabel, classify_disj_promise, promise_pairs

OUTPUT_DIR_ENV = "PROMISECC_OUT_DIR"
COMMANDS = ("quantum-sweep", "classical-sweep", "qcfa-sweep", "bounds", "reduction")
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
PROB_TOL = 1e-9
#: Monte Carlo trials per pair in sampled classical sweeps.
MC_TRIALS = 1000
#: Allowed Monte Carlo deviation in binomial standard deviations.
MC_SIGMA_LIMIT = 5.0

_EXHAUSTIVE_CAPS = {
    "quantum-sweep": 10,
    "classical-sweep": 10,
    "qcfa-sweep": 6,
    "bounds": 6,
    "reduction": 6,
}
#: Sample mode draws each word as one 64-bit integer.
_SAMPLE_CAP = 64

_COLUMNS = {
    "quantum-sweep": [
        "record", "n", "lambda", "x", "y", "label", "p_single", "k",
        "p_accept_k", "decision", "qubits", "count_yes", "count_no",
        "p_yes_min", "p_yes_max", "p_yes_mean", "p_no_min", "p_no_max",
        "p_no_mean", "p_accept_k_no_max", "qubits_total", "invariant_ok",
    ],
    "classical-sweep": [
        "record", "n", "lambda", "x", "y", "label", "k", "decision", "bits",
        "exact_error", "literal_branch", "p_detect_exact", "mc_frequency",
        "mc_trials", "count_yes", "count_no", "err_yes_max", "err_no_max",
        "det_no_min", "det_no_max", "det_no_mean", "literal_no_count",
        "mc_sigma_max", "bits_total", "invariant_ok",
    ],
    "qcfa-sweep": [
        "record", "machine", "n", "x", "y", "label", "p_accept", "expected",
        "deviation", "count_yes", "count_no", "p_yes_min", "p_no_max",
        "deviation_max", "quantum_states", "classical_states", "invariant_ok",
    ],
    "bounds": [
        "record", "problem", "n", "lambda", "D", "C0", "C1", "bound_ok",
        "problems", "all_bounds_ok",
    ],
    "reduction": [
        "record", "n", "dfa_states", "cost", "agreement", "min_cc",
        "cost_ge_min_cc", "invariant_ok",
    ],
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    n: int
    margin_text: str = "1/4"
    eps_text: str = "1/3"
    k: int | None = None
    mode: str = "exhaustive"
    samples: int = 0
    seed: int | None = None
    out: str | None = None
    fmt: str = "json"

    def validated(self) -> "_RunPlan":
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.mode not in ("exhaustive", "sample"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.mode == "sample":
            if self.samples < 1:
                raise ConfigError("sample mode needs --samples >= 1")
            if self.seed is None:
                raise ConfigError("sample mode needs an explicit --seed")
            if self.n > _SAMPLE_CAP:
                raise ConfigError(f"sample mode supports n <= {_SAMPLE_CAP}")
        cap = _EXHAUSTIVE_CAPS[self.command]
        if self.mode == "exhaustive" and self.n > cap:
            raise ConfigError(
                f"{self.command} exhaustive mode supports n <= {cap};"
                " use --mode sample for larger n"
            )
        if self.command in ("bounds", "reduction") and self.n > cap:
            raise ConfigError(f"{self.command} supports n <= {cap}")
        try:
            eps = Fraction(self.eps_text)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad error bound {self.eps_text!r}") from None
        if not 0 < eps < 1:
            raise ConfigError("error bound must be in (0, 1)")
        margin = None
        margin_error = None
        try:
            margin = Margin.from_text(self.margin_text, self.n)
        except (ValueError, ZeroDivisionError) as exc:
            margin_error = str(exc)
        if margin is None and self.command in ("quantum-sweep", "classical-sweep"):
            raise ConfigError(f"bad margin: {margin_error}")
        if self.k is not None and self.k < 1:
            raise ConfigError("k override must be positive")
        return _RunPlan(
            config=self,
            margin=margin,
            eps=eps,
            seed=0 if self.seed is None else self.seed,
        )


@dataclass(frozen=True)
class _RunPlan:
    config: ExperimentConfig
    margin: Margin | None
    eps: Fraction
    seed: int

    def output_path(self) -> Path:
        cfg = self.config
        if cfg.out is not None:
            return Path(cfg.out)
        base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
        ext = "json" if cfg.fmt == "json" else "csv"
        return base / f"{cfg.command}-n{cfg.n}-seed{self.seed}.{ext}"


# ---------------------------------------------------------------------------
# input streams
# ---------------------------------------------------------------------------

def _promise_stream(plan: _RunPlan, classify, seed):
    """(x, y, label) for the pairs inside a promise, exhaustive or sampled.

    Exhaustive mode is :func:`promise_pairs`.  Sample mode draws x then y
    uniformly from ``default_rng(seed)`` and redraws both until
    ``classify(x, y)`` is inside the promise, ``--samples`` times.
    """
    cfg = plan.config
    n = cfg.n
    if cfg.mode == "exhaustive":
        yield from promise_pairs(n, classify)
        return
    master = np.random.default_rng(seed)
    for _ in range(cfg.samples):
        while True:
            x = BitString(int(master.integers(0, 1 << n, dtype=np.uint64)), n)
            y = BitString(int(master.integers(0, 1 << n, dtype=np.uint64)), n)
            label = classify(x, y)
            if label is not PromiseLabel.OUTSIDE:
                yield x, y, label
                break


def _pair_stream(plan: _RunPlan):
    """Promise disjointness pairs for the protocol sweeps, seeded by the seed."""
    margin = plan.margin
    return _promise_stream(
        plan, lambda x, y: classify_disj_promise(x, y, margin), plan.seed
    )


def _word_pair_stream(plan: _RunPlan, problem: automata.WordProblem, builder):
    """Pairs whose word ``builder(x, y)`` is inside ``problem``'s promise,
    seeded by (seed, 0) for equality and (seed, 1) for disjointness."""
    stream = 0 if problem.kind == "equality" else 1
    return _promise_stream(
        plan, lambda x, y: problem.classify(builder(x, y)), (plan.seed, stream)
    )


# ---------------------------------------------------------------------------
# per-command sweeps
# ---------------------------------------------------------------------------

def _label_stats(values):
    if not values:
        return None, None, None
    return min(values), max(values), sum(values) / len(values)


def _quantum_sweep(plan: _RunPlan):
    cfg, margin = plan.config, plan.margin
    k = cfg.k or quantum_protocol.repetition_count(margin, plan.eps)
    check_eps = cfg.k is None
    single_cap = float((1 - 2 * margin.fraction) ** 2)
    records, violations = [], []
    p_yes, p_no, accept_k_no = [], [], []
    for idx, (x, y, label) in enumerate(_pair_stream(plan)):
        rng = np.random.default_rng((plan.seed, idx))
        report = quantum_protocol.run_protocol(x, y, margin, k, rng)
        rec = {"record": "input", **report.to_record()}
        records.append(rec)
        if label is PromiseLabel.YES:
            p_yes.append(report.p_single)
            if report.p_single < 1.0 - PROB_TOL:
                violations.append(f"yes pair {x},{y} accepted with {report.p_single}")
        else:
            p_no.append(report.p_single)
            accept_k_no.append(report.p_accept_all)
            if report.p_single > single_cap + PROB_TOL:
                violations.append(f"no pair {x},{y} above single-round cap")
            if check_eps and report.p_accept_all > float(plan.eps) + PROB_TOL:
                violations.append(f"no pair {x},{y} above error target")
    y_min, y_max, y_mean = _label_stats(p_yes)
    n_min, n_max, n_mean = _label_stats(p_no)
    qubits = quantum_protocol.qubit_cost(cfg.n, k)
    records.append({
        "record": "summary",
        "n": cfg.n,
        "lambda": str(margin.fraction),
        "k": k,
        "qubits": qubits,
        "count_yes": len(p_yes),
        "count_no": len(p_no),
        "p_yes_min": y_min,
        "p_yes_max": y_max,
        "p_yes_mean": y_mean,
        "p_no_min": n_min,
        "p_no_max": n_max,
        "p_no_mean": n_mean,
        "p_accept_k_no_max": max(accept_k_no, default=None),
        "qubits_total": qubits * (len(p_yes) + len(p_no)),
        "invariant_ok": not violations,
    })
    return records, violations


def _classical_sweep(plan: _RunPlan):
    cfg, margin = plan.config, plan.margin
    k = cfg.k or randomized_protocol.positions_count(margin, plan.eps)
    records, violations = [], []
    err_yes, err_no, det_no = [], [], []
    literal_no = 0
    sigma_max = 0.0
    bits_total = 0
    for idx, (x, y, label) in enumerate(_pair_stream(plan)):
        rng = np.random.default_rng((plan.seed, idx))
        report = randomized_protocol.run_one_way(x, y, k, rng)
        detect = None
        if not report.literal_branch:
            detect = randomized_protocol.exact_detection_probability(x, y, k)
        mc_freq, mc_trials = None, 0
        if cfg.mode == "sample" and not report.literal_branch:
            mc_rng = np.random.default_rng((plan.seed, idx, 1))
            mc_freq = randomized_protocol.detection_frequency(
                x, y, k, MC_TRIALS, mc_rng
            )
            mc_trials = MC_TRIALS
            spread = math.sqrt(max(detect * (1.0 - detect), 1e-12) / MC_TRIALS)
            sigma = abs(mc_freq - detect) / spread
            sigma_max = max(sigma_max, sigma)
            if sigma > MC_SIGMA_LIMIT:
                violations.append(
                    f"pair {x},{y} Monte Carlo frequency {sigma:.1f} sigma off"
                )
        rec = {
            "record": "input",
            "lambda": str(margin.fraction),
            "label": label.value,
            **report.to_record(),
            "p_detect_exact": detect,
            "mc_frequency": mc_freq,
            "mc_trials": mc_trials,
        }
        records.append(rec)
        bits_total += report.bits_communicated
        if label is PromiseLabel.YES:
            err_yes.append(report.exact_error_probability)
            if report.decision != 1:
                violations.append(f"yes pair {x},{y} rejected")
            if report.exact_error_probability != 0.0:
                violations.append(f"yes pair {x},{y} has nonzero error")
        else:
            err_no.append(report.exact_error_probability)
            if report.literal_branch:
                # tiny-n band pair with fewer ones than samples: surfaced,
                # not treated as a protocol failure
                literal_no += 1
            else:
                det_no.append(detect)
                cap = float((1 - margin.fraction) ** k)
                if report.exact_error_probability > cap + PROB_TOL:
                    violations.append(f"no pair {x},{y} above miss cap")
    d_min, d_max, d_mean = _label_stats(det_no)
    records.append({
        "record": "summary",
        "n": cfg.n,
        "lambda": str(margin.fraction),
        "k": k,
        "count_yes": len(err_yes),
        "count_no": len(err_no),
        "err_yes_max": max(err_yes, default=None),
        "err_no_max": max(err_no, default=None),
        "det_no_min": d_min,
        "det_no_max": d_max,
        "det_no_mean": d_mean,
        "literal_no_count": literal_no,
        "mc_sigma_max": sigma_max,
        "bits_total": bits_total,
        "invariant_ok": not violations,
    })
    return records, violations


def _qcfa_sweep(plan: _RunPlan):
    cfg = plan.config
    n = cfg.n
    machines = [
        (
            "equality",
            automata.equality_automaton(n),
            automata.equality_word_problem(n),
            automata.equality_word,
            n,
            n + 2,
        ),
        (
            "disjointness",
            automata.disjointness_automaton(n),
            automata.disjointness_word_problem(n),
            automata.disjointness_word,
            2 * n,
            2 * n + 2,
        ),
    ]
    records, violations = [], []
    for name, machine, problem, builder, want_q, want_c in machines:
        if len(machine.quantum_labels) != want_q or len(machine.classical_states) != want_c:
            violations.append(f"{name} machine has unexpected state counts")
        p_yes, p_no, deviations = [], [], []
        count_yes = count_no = 0
        for x, y, label in _word_pair_stream(plan, problem, builder):
            word = builder(x, y)
            p = automata.accept_probability(machine, word)
            if name == "equality":
                expected = 1.0 if label is PromiseLabel.YES else 0.0
            else:
                expected = quantum_protocol.round_accept_probability_fast(x, y)
            deviation = abs(p - expected)
            deviations.append(deviation)
            if deviation > PROB_TOL:
                violations.append(f"{name} word {word} off by {deviation:.3e}")
            if label is PromiseLabel.YES:
                count_yes += 1
                p_yes.append(p)
                if p < 1.0 - PROB_TOL:
                    violations.append(f"{name} yes word {word} not sure")
            else:
                count_no += 1
                p_no.append(p)
                cap = 0.0 if name == "equality" else 0.25
                if p > cap + PROB_TOL:
                    violations.append(f"{name} no word {word} above cap")
            records.append({
                "record": "input",
                "machine": name,
                "n": n,
                "x": str(x),
                "y": str(y),
                "label": label.value,
                "p_accept": p,
                "expected": expected,
                "deviation": deviation,
            })
        records.append({
            "record": "summary",
            "machine": name,
            "n": n,
            "count_yes": count_yes,
            "count_no": count_no,
            "p_yes_min": min(p_yes, default=None),
            "p_no_max": max(p_no, default=None),
            "deviation_max": max(deviations, default=None),
            "quantum_states": len(machine.quantum_labels),
            "classical_states": len(machine.classical_states),
            "invariant_ok": not violations,
        })
    return records, violations


def _bounds_sweep(plan: _RunPlan):
    cfg, margin = plan.config, plan.margin
    problems = ["eq", "disj"]
    if cfg.n % 2 == 0:
        problems.append("promise_eq")
    if margin is not None:
        problems.append("promise_disj")
    records, violations = [], []
    for problem in problems:
        matrix = bounds.problem_matrix(problem, cfg.n, margin)
        report = bounds.check_rectangle_bound(matrix)
        lam = str(margin.fraction) if problem == "promise_disj" else None
        records.append({
            "record": "input",
            "problem": problem,
            "n": cfg.n,
            "lambda": lam,
            **report.to_record(),
        })
        # None means the exact searches refused the size, not a failure
        if report.holds is False:
            violations.append(f"rectangle bound fails on {problem} at n={cfg.n}")
    records.append({
        "record": "summary",
        "n": cfg.n,
        "problems": len(problems),
        "all_bounds_ok": not violations,
    })
    return records, violations


def _reduction_sweep(plan: _RunPlan):
    cfg = plan.config
    n = cfg.n
    records, violations = [], []
    dfa = automata.bruteforce_disjointness_dfa(n)
    agreement = automata.verify_promise_dfa(dfa, n)
    if not agreement:
        violations.append(f"brute-force DFA fails the promise check at n={n}")
        protocol = None
    else:
        # the check above is the one protocol_from_dfa would repeat
        protocol = automata.DfaProtocol(dfa, n)
        problem = automata.disjointness_word_problem(n)
        pairs = promise_pairs(
            n, lambda x, y: problem.classify(automata.disjointness_word(x, y))
        )
        for x, y, label in pairs:
            want = 1 if label is PromiseLabel.YES else 0
            if protocol.decide(x, y) != want:
                agreement = False
                violations.append(f"protocol answer wrong on {x},{y}")
    min_cc = None
    if n % 4 == 0 and (1 << n) <= bounds.MATRIX_SIZE_LIMIT:
        matrix = bounds.problem_matrix(
            "promise_disj", n, Margin(Fraction(1, 4), n)
        )
        min_cc = bounds.exact_deterministic_cc(matrix)
    cost = protocol.cost if protocol is not None else None
    cost_ok = None
    if cost is not None and min_cc is not None:
        cost_ok = cost >= min_cc
        if not cost_ok:
            violations.append("reduction cost beats the exact lower bound")
    records.append({
        "record": "input",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "cost_ge_min_cc": cost_ok,
    })
    records.append({
        "record": "summary",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "invariant_ok": not violations,
    })
    return records, violations


_SWEEPS = {
    "quantum-sweep": _quantum_sweep,
    "classical-sweep": _classical_sweep,
    "qcfa-sweep": _qcfa_sweep,
    "bounds": _bounds_sweep,
    "reduction": _reduction_sweep,
}


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _render_json(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _render_csv(command: str, records) -> str:
    columns = _COLUMNS[command]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        row = []
        for col in columns:
            value = rec.get(col)
            if value is None:
                row.append("")
            elif isinstance(value, bool):
                row.append("true" if value else "false")
            else:
                row.append(str(value))
        writer.writerow(row)
    return buf.getvalue()


def render_report(command: str, records, fmt: str) -> str:
    return _render_json(records) if fmt == "json" else _render_csv(command, records)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Validate, sweep, write the report; 0 ok, 1 bad config, 2 violation."""
    try:
        plan = cfg.validated()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    records, violations = _SWEEPS[cfg.command](plan)
    path = plan.output_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_report(cfg.command, records, cfg.fmt)
    path.write_text(text)
    print(f"wrote {len(records)} records to {path}")
    if violations:
        for message in violations[:20]:
            print(f"invariant violation: {message}", file=sys.stderr)
        if len(violations) > 20:
            print(f"... {len(violations) - 20} more", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost table
# ---------------------------------------------------------------------------

def emit_cost_table(margins, epsilons, ns):
    """Rows of repetition counts and costs with their analytic ceilings.

    The ceilings log2(1/eps)/(3*lam) and log2(1/eps)/lam dominate the
    exact counts because -log2(1-t) >= t for t in (0, 1).
    """
    margins, epsilons, ns = list(margins), list(epsilons), list(ns)
    if not margins or not epsilons or not ns:
        raise ValueError("all three grids must be nonempty")
    rows = []
    for lam in margins:
        lam = Fraction(lam)
        for eps in epsilons:
            eps = Fraction(eps)
            k_quantum = quantum_protocol.repetition_count(lam, eps)
            k_classical = randomized_protocol.positions_count(lam, eps)
            target_bits = math.log2(1 / eps)
            quantum_limit = target_bits / (3 * float(lam))
            classical_limit = target_bits / float(lam)
            if k_quantum > quantum_limit or k_classical > classical_limit:
                raise AssertionError("computed count exceeds its analytic ceiling")
            for n in ns:
                rows.append({
                    "lambda": str(lam),
                    "eps": str(eps),
                    "n": n,
                    "k_quantum": k_quantum,
                    "qubits": quantum_protocol.qubit_cost(n, k_quantum),
                    "k_classical": k_classical,
                    "bits": randomized_protocol.bit_cost(n, k_classical),
                    "k_quantum_limit": quantum_limit,
                    "k_classical_limit": classical_limit,
                })
    return rows


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promisecc",
        description="Sweep promise-protocol experiments and write reports.",
    )
    parser.add_argument("--cmd", required=True, choices=COMMANDS,
                        help="experiment to run")
    parser.add_argument("--n", required=True, type=int, help="input length")
    parser.add_argument("--lambda", dest="margin_text", default="1/4",
                        metavar="P/Q", help="promise band fraction (default 1/4)")
    parser.add_argument("--eps", dest="eps_text", default="1/3",
                        metavar="P/Q", help="error target (default 1/3)")
    parser.add_argument("--k", type=int, default=None,
                        help="override the repetition/sample count")
    parser.add_argument("--mode", choices=("exhaustive", "sample"),
                        default="exhaustive")
    parser.add_argument("--samples", type=int, default=0,
                        help="pair count in sample mode")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="report path")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    cfg = ExperimentConfig(
        command=args.cmd,
        n=args.n,
        margin_text=args.margin_text,
        eps_text=args.eps_text,
        k=args.k,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
    )
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
