"""Command-line experiment runner.

Each command sweeps one capability over exhaustive or sampled inputs and
writes one record per evaluated input plus a trailing summary record, as
newline-delimited JSON or fixed-column CSV.  Sweeps re-assert the owning
module's guarantees while running; a violated guarantee still writes the
report but exits with status 2.  Inputs come from one stream: every pair
inside the promise, or uniform draws kept only inside it.  The protocol
sweeps draw their random decisions from one stream per sweep, seeded by
the seed and read in pair order a chunk at a time; the draws do not
depend on the chunk size.  Monte Carlo trials draw from (seed, pair index,
1).  So identical configurations produce byte-identical reports.

Reports are streamed: each sweep is a generator of records, the protocol
sweeps and the automaton sweep take their pairs in chunks of
``SWEEP_CHUNK`` (the automaton sweep runs each chunk of words through a
machine at once), and records reach the file a chunk at a time while
summary statistics are accumulated on the way.  No list of all records is
built, so memory does not grow with the number of pairs.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import automata, bounds, quantum_protocol, randomized_protocol
from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    classify_disj_promise,
    promise_pairs,
)

OUTPUT_DIR_ENV = "PROMISECC_OUT_DIR"
COMMANDS = ("quantum-sweep", "classical-sweep", "qcfa-sweep", "bounds", "reduction")
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
PROB_TOL = 1e-9
#: Monte Carlo trials per pair in sampled classical sweeps.
MC_TRIALS = 1000
#: Chance that a sampled classical sweep flags some correct Monte Carlo
#: frequency, shared over its pairs (Bonferroni).
MC_FALSE_ALARM = 1e-6
#: Pairs per batched protocol round or automaton run, and records per
#: report write.
SWEEP_CHUNK = 1024

_EXHAUSTIVE_CAPS = {
    "quantum-sweep": 10,
    "classical-sweep": 10,
    "qcfa-sweep": 6,
    "bounds": 6,
    "reduction": 6,
}
#: Sample mode draws each word as one 64-bit integer.
_SAMPLE_CAP = 64
#: Commands with a sample mode; the exact ones always cover every input.
_SAMPLE_COMMANDS = ("quantum-sweep", "classical-sweep", "qcfa-sweep")
#: Commands whose repetition or sample count --k overrides.
_K_COMMANDS = ("quantum-sweep", "classical-sweep")
#: Commands that read --lambda, and its default.
_MARGIN_COMMANDS = ("quantum-sweep", "classical-sweep", "bounds")
DEFAULT_MARGIN = "1/4"
#: Commands that read --eps, and its default.
_EPS_COMMANDS = ("quantum-sweep", "classical-sweep")
DEFAULT_EPS = "1/3"

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
    margin_text: str | None = None
    eps_text: str | None = None
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
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.k is not None and self.command not in _K_COMMANDS:
            raise ConfigError(f"{self.command} takes no --k")
        if self.margin_text is not None and self.command not in _MARGIN_COMMANDS:
            raise ConfigError(f"{self.command} takes no --lambda")
        if self.eps_text is not None and self.command not in _EPS_COMMANDS:
            raise ConfigError(f"{self.command} takes no --eps")
        if self.mode == "sample":
            if self.command not in _SAMPLE_COMMANDS:
                raise ConfigError(f"{self.command} has no sample mode")
            if self.samples < 1:
                raise ConfigError("sample mode needs --samples >= 1")
            if self.seed is None:
                raise ConfigError("sample mode needs an explicit --seed")
            if self.n > _SAMPLE_CAP:
                raise ConfigError(f"sample mode supports n <= {_SAMPLE_CAP}")
            if self.command == "qcfa-sweep" and self.n % 2:
                # the sampler would wait for x == y, one draw in 2**n
                raise ConfigError(
                    "promise equality has no NO words at odd n; "
                    "use an even n or exhaustive mode"
                )
        elif self.samples:
            raise ConfigError("--samples needs --mode sample")
        cap = _EXHAUSTIVE_CAPS[self.command]
        if self.mode == "exhaustive" and self.n > cap:
            hint = "; use --mode sample for larger n"
            raise ConfigError(
                f"{self.command} exhaustive mode supports n <= {cap}"
                + (hint if self.command in _SAMPLE_COMMANDS else "")
            )
        eps = None
        if self.command in _EPS_COMMANDS:
            eps_text = DEFAULT_EPS if self.eps_text is None else self.eps_text
            try:
                eps = Fraction(eps_text)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad error bound {eps_text!r}") from None
            if not 0 < eps < 1:
                raise ConfigError("error bound must be in (0, 1)")
        margin = None
        if self.command in _MARGIN_COMMANDS:
            margin_text = DEFAULT_MARGIN if self.margin_text is None else self.margin_text
            try:
                margin = Margin.from_text(margin_text, self.n)
            except (ValueError, ZeroDivisionError) as exc:
                # with the default margin, bounds skips promise disjointness
                if self.command != "bounds" or self.margin_text is not None:
                    raise ConfigError(f"bad margin: {exc}") from None
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
    eps: Fraction | None
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


def _word_pair_stream(plan: _RunPlan, problem: automata.WordProblem):
    """Pairs whose word is inside ``problem``'s promise, seeded by (seed, 0)
    for equality and (seed, 1) for disjointness.

    Pairs are labelled by ``problem.classify_pair``, so no word is built.
    """
    stream = 0 if problem.kind == "equality" else 1
    return _promise_stream(plan, problem.classify_pair, (plan.seed, stream))


def _decision_stream(plan: _RunPlan) -> np.random.Generator:
    """The one generator a protocol sweep draws its decisions from, read
    in pair order a chunk at a time.

    Its entropy (seed, 2) is no other stream's in the same run: the pair
    sampler uses the seed alone, the word streams (seed, 0) and (seed, 1),
    the Monte Carlo trials (seed, index, 1).
    """
    return np.random.default_rng((plan.seed, 2))


# ---------------------------------------------------------------------------
# per-command sweeps
# ---------------------------------------------------------------------------

class _Running:
    """Count, minimum, maximum and sum of a stream of numbers.

    They equal ``len``, ``min``, ``max`` and ``sum`` over the list of the
    same numbers (``sum`` adding left to right, as it does for floats up
    to Python 3.11), without keeping the list.
    """

    __slots__ = ("count", "low", "high", "total")

    def __init__(self):
        self.count, self.low, self.high, self.total = 0, None, None, 0

    def add(self, value) -> None:
        if self.count == 0:
            self.low = self.high = value
        elif value < self.low:
            self.low = value
        elif value > self.high:
            self.high = value
        self.count += 1
        self.total += value

    @property
    def mean(self):
        return self.total / self.count if self.count else None


def _chunks(items):
    """Consecutive lists of up to SWEEP_CHUNK items."""
    items = iter(items)
    while chunk := list(itertools.islice(items, SWEEP_CHUNK)):
        yield chunk


def _quantum_sweep(plan: _RunPlan, violations: list):
    cfg, margin = plan.config, plan.margin
    n = cfg.n
    k = cfg.k or quantum_protocol.repetition_count(margin, plan.eps)
    # with --k the error target is not what k was chosen for
    eps_cap = float(plan.eps) + PROB_TOL if cfg.k is None else math.inf
    single_cap = float((1 - 2 * margin.fraction) ** 2)
    qubits = quantum_protocol.qubit_cost(n, k)
    p_yes, p_no, accept_k_no = _Running(), _Running(), _Running()
    stream = _decision_stream(plan)
    for chunk in _chunks(_pair_stream(plan)):
        probabilities = quantum_protocol.round_accept_probabilities(
            [x.value for x, _, _ in chunk], [y.value for _, y, _ in chunk], n
        )
        decisions = quantum_protocol.sample_decisions(probabilities, k, stream)
        for (x, y, label), p, decision in zip(chunk, probabilities, decisions):
            report = quantum_protocol.QuantumProtocolReport(
                x=x, y=y, margin=margin, label=label, p_single=p, k=k,
                decision=decision, qubits=qubits,
            )
            yield {"record": "input", **report.to_record()}
            if label is PromiseLabel.YES:
                p_yes.add(p)
                if p < 1.0 - PROB_TOL:
                    violations.append(f"yes pair {x},{y} accepted with {p}")
            else:
                p_no.add(p)
                accept_k_no.add(report.p_accept_all)
                if p > single_cap + PROB_TOL:
                    violations.append(f"no pair {x},{y} above single-round cap")
                if report.p_accept_all > eps_cap:
                    violations.append(f"no pair {x},{y} above error target")
    yield {
        "record": "summary",
        "n": n,
        "lambda": str(margin.fraction),
        "k": k,
        "qubits": qubits,
        "count_yes": p_yes.count,
        "count_no": p_no.count,
        "p_yes_min": p_yes.low,
        "p_yes_max": p_yes.high,
        "p_yes_mean": p_yes.mean,
        "p_no_min": p_no.low,
        "p_no_max": p_no.high,
        "p_no_mean": p_no.mean,
        "p_accept_k_no_max": accept_k_no.high,
        "qubits_total": qubits * (p_yes.count + p_no.count),
        "invariant_ok": not violations,
    }


def _bernoulli_divergence(f: float, p: float) -> float:
    """KL(f || p) of two coins, in nats.

    By the Chernoff bound, the frequency of N tosses of a p-coin lies at f
    or beyond, on f's side of p, with probability at most
    exp(-N * KL(f || p)).
    """
    def term(a, b):
        if a == 0:
            return 0.0
        return math.inf if b == 0 else a * math.log(a / b)

    return term(f, p) + term(1.0 - f, 1.0 - p)


def _classical_sweep(plan: _RunPlan, violations: list):
    cfg, margin = plan.config, plan.margin
    k = cfg.k or randomized_protocol.positions_count(margin, plan.eps)
    miss_cap = float((1 - margin.fraction) ** k)
    lam = str(margin.fraction)
    err_yes, err_no, det_no = _Running(), _Running(), _Running()
    literal_no = 0
    sigma_max = 0.0
    bits_total = 0
    # a frequency is flagged when the chance of one as far off, on either
    # side, is below MC_FALSE_ALARM over the pairs: 2 exp(-N KL) < rate / pairs
    mc_exponent = math.log(2 * max(cfg.samples, 1) / MC_FALSE_ALARM)
    stream = _decision_stream(plan)
    runs = (
        (pair, report)
        for chunk in _chunks(_pair_stream(plan))
        for pair, report in zip(chunk, randomized_protocol.one_way_runs(
            [x for x, _, _ in chunk], [y for _, y, _ in chunk], k, stream
        ))
    )
    for idx, ((x, y, label), report) in enumerate(runs):
        detect = report.p_detect
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
            if MC_TRIALS * _bernoulli_divergence(mc_freq, detect) > mc_exponent:
                violations.append(
                    f"pair {x},{y} Monte Carlo frequency {mc_freq} against "
                    f"{detect:.6f} ({sigma:.1f} sigma off)"
                )
        yield {
            "record": "input",
            "lambda": lam,
            "label": label.value,
            **report.to_record(),
            "p_detect_exact": detect,
            "mc_frequency": mc_freq,
            "mc_trials": mc_trials,
        }
        bits_total += report.bits_communicated
        if label is PromiseLabel.YES:
            err_yes.add(report.exact_error_probability)
            if report.decision != 1:
                violations.append(f"yes pair {x},{y} rejected")
            if report.exact_error_probability != 0.0:
                violations.append(f"yes pair {x},{y} has nonzero error")
        else:
            err_no.add(report.exact_error_probability)
            if report.literal_branch:
                # tiny-n band pair with fewer ones than samples: surfaced,
                # not treated as a protocol failure
                literal_no += 1
            else:
                det_no.add(detect)
                if report.exact_error_probability > miss_cap + PROB_TOL:
                    violations.append(f"no pair {x},{y} above miss cap")
    yield {
        "record": "summary",
        "n": cfg.n,
        "lambda": str(margin.fraction),
        "k": k,
        "count_yes": err_yes.count,
        "count_no": err_no.count,
        "err_yes_max": err_yes.high,
        "err_no_max": err_no.high,
        "det_no_min": det_no.low,
        "det_no_max": det_no.high,
        "det_no_mean": det_no.mean,
        "literal_no_count": literal_no,
        "mc_sigma_max": sigma_max,
        "bits_total": bits_total,
        "invariant_ok": not violations,
    }


def _qcfa_sweep(plan: _RunPlan, violations: list):
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
    for name, machine, problem, builder, want_q, want_c in machines:
        # this machine's violations; its summary answers for these alone
        failed = []
        if len(machine.quantum_labels) != want_q or len(machine.classical_states) != want_c:
            failed.append(f"{name} machine has unexpected state counts")
        cap = 0.0 if name == "equality" else 0.25
        p_yes, p_no, deviations = _Running(), _Running(), _Running()
        for chunk in _chunks(_word_pair_stream(plan, problem)):
            words = [builder(x, y) for x, y, _ in chunk]
            probabilities = automata.accept_probabilities(machine, words)
            if name == "equality":
                expected = [1.0 if label is PromiseLabel.YES else 0.0
                            for _, _, label in chunk]
            else:
                expected = quantum_protocol.round_accept_probabilities_fast(
                    [x.value for x, _, _ in chunk], [y.value for _, y, _ in chunk], n
                )
            for (x, y, label), word, p, want in zip(chunk, words, probabilities, expected):
                deviation = abs(p - want)
                deviations.add(deviation)
                if deviation > PROB_TOL:
                    failed.append(f"{name} word {word} off by {deviation:.3e}")
                if label is PromiseLabel.YES:
                    p_yes.add(p)
                    if p < 1.0 - PROB_TOL:
                        failed.append(f"{name} yes word {word} not sure")
                else:
                    p_no.add(p)
                    if p > cap + PROB_TOL:
                        failed.append(f"{name} no word {word} above cap")
                yield {
                    "record": "input",
                    "machine": name,
                    "n": n,
                    "x": str(x),
                    "y": str(y),
                    "label": label.value,
                    "p_accept": p,
                    "expected": want,
                    "deviation": deviation,
                }
        violations.extend(failed)
        yield {
            "record": "summary",
            "machine": name,
            "n": n,
            "count_yes": p_yes.count,
            "count_no": p_no.count,
            "p_yes_min": p_yes.low,
            "p_no_max": p_no.high,
            "deviation_max": deviations.high,
            "quantum_states": len(machine.quantum_labels),
            "classical_states": len(machine.classical_states),
            "invariant_ok": not failed,
        }


def _bounds_sweep(plan: _RunPlan, violations: list):
    cfg, margin = plan.config, plan.margin
    problems = ["eq", "disj"]
    if cfg.n % 2 == 0:
        problems.append("promise_eq")
    if margin is not None:
        problems.append("promise_disj")
    for problem in problems:
        matrix = bounds.problem_matrix(problem, cfg.n, margin)
        report = bounds.check_rectangle_bound(matrix)
        lam = str(margin.fraction) if problem == "promise_disj" else None
        yield {
            "record": "input",
            "problem": problem,
            "n": cfg.n,
            "lambda": lam,
            **report.to_record(),
        }
        # None means the exact searches refused the size, not a failure
        if report.holds is False:
            violations.append(f"rectangle bound fails on {problem} at n={cfg.n}")
    yield {
        "record": "summary",
        "n": cfg.n,
        "problems": len(problems),
        "all_bounds_ok": not violations,
    }


def _reduction_sweep(plan: _RunPlan, violations: list):
    cfg = plan.config
    n = cfg.n
    dfa = automata.bruteforce_disjointness_dfa(n)
    protocol = automata.DfaProtocol(dfa, n)
    problem = automata.disjointness_word_problem(n)
    # decide runs the DFA over x#, y# and x: one pass checks DFA and protocol
    wrong = next((
        (x, y) for x, y, label in promise_pairs(n, problem.classify_pair)
        if protocol.decide(x, y) != (1 if label is PromiseLabel.YES else 0)
    ), None)
    agreement = wrong is None
    if not agreement:
        violations.append(
            f"brute-force DFA fails the promise check at n={n} on {wrong[0]},{wrong[1]}"
        )
    min_cc = None
    if n % 4 == 0:
        matrix = bounds.problem_matrix(
            "promise_disj", n, Margin(Fraction(1, 4), n)
        )
        try:
            min_cc = bounds.exact_deterministic_cc(matrix)
        except bounds.SearchTooWideError:
            pass
    cost = protocol.cost if agreement else None
    cost_ok = None
    if cost is not None and min_cc is not None:
        cost_ok = cost >= min_cc
        if not cost_ok:
            violations.append("reduction cost beats the exact lower bound")
    yield {
        "record": "input",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "cost_ge_min_cc": cost_ok,
    }
    yield {
        "record": "summary",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "invariant_ok": not violations,
    }


#: Each sweep is a generator of records that appends every violated
#: guarantee to the list it is given; the summary comes last.
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

_JSON = json.JSONEncoder(sort_keys=True)


def _render_json(records) -> str:
    return "".join(_JSON.encode(r) + "\n" for r in records)


def _render_csv(command: str, records, header: bool) -> str:
    columns = _COLUMNS[command]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
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


def render_report(command: str, records, fmt: str, header: bool = True) -> str:
    """Report text for ``records``; ``header=False`` leaves out the CSV
    column line, for every chunk after the first."""
    if fmt == "json":
        return _render_json(records)
    return _render_csv(command, records, header)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Validate, sweep, write the report; 0 ok, 1 bad config, 2 violation.

    Records go to the report a chunk at a time as the sweep makes them.
    """
    try:
        plan = cfg.validated()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = []
    records = _SWEEPS[cfg.command](plan, violations)
    path = plan.output_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    # the report appears under its name only once complete, so a sweep
    # that stops half way leaves a .part file, not a short report
    partial = path.with_name(path.name + ".part")
    count = 0
    with open(partial, "w") as report:
        for chunk in _chunks(records):
            report.write(render_report(cfg.command, chunk, cfg.fmt, header=not count))
            count += len(chunk)
    partial.replace(path)
    print(f"wrote {count} records to {path}")
    if violations:
        for message in violations[:20]:
            print(f"invariant violation: {message}", file=sys.stderr)
        if len(violations) > 20:
            print(f"... {len(violations) - 20} more", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


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
    parser.add_argument("--lambda", dest="margin_text", default=None, metavar="P/Q",
                        help=f"promise band fraction (default {DEFAULT_MARGIN}; "
                        "quantum and classical sweeps, bounds)")
    parser.add_argument("--eps", dest="eps_text", default=None, metavar="P/Q",
                        help=f"error target (default {DEFAULT_EPS}; "
                        "quantum and classical sweeps)")
    parser.add_argument("--k", type=int, default=None,
                        help="repetition/sample count (quantum and classical sweeps)")
    parser.add_argument("--mode", choices=("exhaustive", "sample"),
                        default="exhaustive", help="sample: the three sweeps only")
    parser.add_argument("--samples", type=int, default=0,
                        help="pair count; needs --mode sample")
    parser.add_argument("--seed", type=int, default=None, help="non-negative")
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
