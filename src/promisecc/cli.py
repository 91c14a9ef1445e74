"""Command-line experiment runner.

Each command sweeps one capability over exhaustive or sampled inputs and
writes one record per evaluated input plus a trailing summary record, as
newline-delimited JSON or fixed-column CSV.  A command is one row of a
table: its sweep, its CSV columns, the largest n of its exhaustive mode
and the options it reads; validation, the run and the writer read that
row.  The automaton sweep reads each word problem from its
:class:`automata.WordProblem` record.  Sweeps re-assert the owning
module's guarantees while running; a violated guarantee still writes the
report but exits with status 2.  Inputs come from one stream: every pair
inside the promise, or uniform draws kept only inside it, as integer
columns of word values with a YES mask.  The protocol sweeps draw their
random decisions from one stream per sweep, seeded by the seed and read
in pair order a chunk at a time; the draws do not depend on the chunk
size.  Monte Carlo trials draw from (seed, pair index, 1).  So identical
configurations produce byte-identical reports.

Reports are streamed: each sweep is a generator of column batches.  The
stream labels ``SWEEP_CHUNK`` candidate pairs at a time from the promise
table and yields the pairs kept from each block as one chunk.  The
protocol sweeps hand a chunk's value columns to the batched rounds, the
automaton sweep runs its chunk of words through a machine at once, and
each hands the writer one batch per chunk: the fields every record of
the chunk shares, once, and one list of plain Python values per other
field.  Summary records and the bounds and reduction records are
batches of one.  The writer renders a batch in one pass, a JSON line
template filled once per record or one CSV ``writerows`` call, while the
summary statistics are accumulated on the way.  No list of all records is
built, so memory does not grow with the number of pairs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import automata, bounds, quantum_protocol, randomized_protocol
from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    # not called here; perfbench/tracer.py wraps cli.classify_disj_promise
    classify_disj_promise,
    promise_pairs,
)

OUTPUT_DIR_ENV = "PROMISECC_OUT_DIR"
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
PROB_TOL = 1e-9
#: Monte Carlo trials per pair in sampled classical sweeps.
MC_TRIALS = 1000
#: Chance that a sampled classical sweep flags some correct Monte Carlo
#: frequency, shared over its pairs (Bonferroni).
MC_FALSE_ALARM = 1e-6
#: Candidate pairs per block of the pair stream; the pairs kept from one
#: block make one protocol batch, automaton run and report batch.
SWEEP_CHUNK = 1024

#: Sample mode draws each word as one 64-bit integer.
_SAMPLE_CAP = 64
#: Largest --k, given or worked out from --eps: one chunk's draws stay at
#: SWEEP_CHUNK x 4096 numbers (32 MB).
_K_CAP = 4096
DEFAULT_MARGIN = "1/4"
DEFAULT_EPS = "1/3"


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
        row = _COMMAND_TABLE[self.command]
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.mode not in ("exhaustive", "sample"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed must be non-negative")
        given = (("k", self.k), ("lambda", self.margin_text), ("eps", self.eps_text))
        for option, value in given:
            if value is not None and option not in row.options:
                raise ConfigError(f"{self.command} takes no --{option}")
        if self.mode == "sample":
            if "sample" not in row.options:
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
        if self.mode == "exhaustive" and self.n > row.cap:
            hint = "; use --mode sample for larger n"
            raise ConfigError(
                f"{self.command} exhaustive mode supports n <= {row.cap}"
                + (hint if "sample" in row.options else "")
            )
        eps = None
        if "eps" in row.options:
            eps_text = DEFAULT_EPS if self.eps_text is None else self.eps_text
            try:
                eps = Fraction(eps_text)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"bad error bound {eps_text!r}") from None
            if not 0 < eps < 1:
                raise ConfigError("error bound must be in (0, 1)")
        margin = None
        if "lambda" in row.options:
            margin_text = DEFAULT_MARGIN if self.margin_text is None else self.margin_text
            try:
                margin = Margin.from_text(margin_text, self.n)
            except (ValueError, ZeroDivisionError) as exc:
                # with the default margin, bounds skips promise disjointness
                if self.command != "bounds" or self.margin_text is not None:
                    raise ConfigError(f"bad margin: {exc}") from None
        if self.k is not None and not 1 <= self.k <= _K_CAP:
            raise ConfigError(f"k override must be in 1..{_K_CAP}")
        k = self.k
        if k is None and "k" in row.options:
            k = row.repetitions(margin, eps, _K_CAP)
            if k is None:
                raise ConfigError(f"error bound needs k above {_K_CAP}, the --k cap")
        return _RunPlan(
            config=self,
            margin=margin,
            eps=eps,
            k=k,
            seed=0 if self.seed is None else self.seed,
        )


@dataclass(frozen=True)
class _RunPlan:
    config: ExperimentConfig
    margin: Margin | None
    eps: Fraction | None
    k: int | None  # the repetition or sample count of the protocol sweeps
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

def _promise_stream(plan: _RunPlan, promise, seed):
    """Chunks ``(x values, y values, YES mask)`` of the pairs inside
    ``promise``, exhaustive or sampled; no chunk is empty.

    Both modes count blocks of candidate pairs with
    :meth:`Promise.counts`, keep the pairs inside the promise and yield
    them as one chunk.  Exhaustive blocks are ``SWEEP_CHUNK >> n`` x values
    (at least one) against every y, so the pairs come in the order of
    :func:`promise_pairs`.  Sample blocks are SWEEP_CHUNK pairs drawn
    uniformly from ``default_rng(seed)``, x then y, which are the values
    one draw per word would give; the stream stops after ``--samples``
    pairs.
    """
    n = plan.config.n
    if plan.config.mode == "exhaustive":
        left = total = 1 << 2 * n
        size = max(1, SWEEP_CHUNK >> n) << n
        blocks = (
            np.divmod(np.arange(start, min(start + size, total), dtype=np.uint64), 1 << n)
            for start in range(0, total, size)
        )
    else:
        left, rng = plan.config.samples, np.random.default_rng(seed)
        blocks = (
            rng.integers(0, 1 << n, size=(SWEEP_CHUNK, 2), dtype=np.uint64).T
            for _ in itertools.count()
        )
    inside = np.array([label is not PromiseLabel.OUTSIDE for label in promise.labels])
    yes = np.array([label is PromiseLabel.YES for label in promise.labels])
    for xs, ys in blocks:
        counts = promise.counts(xs, ys)
        keep = np.flatnonzero(inside[counts])[:left]
        if len(keep):
            yield xs[keep].tolist(), ys[keep].tolist(), yes[counts[keep]]
        left -= len(keep)
        if not left:
            return


def _pair_stream(plan: _RunPlan):
    """Promise disjointness pairs for the protocol sweeps, seeded by the seed."""
    return _promise_stream(plan, plan.margin.promise, plan.seed)


def _word_pair_stream(plan: _RunPlan, problem: automata.WordProblem):
    """Pairs whose word is inside ``problem``'s promise, seeded by (seed, i)
    for the i-th of :func:`automata.word_problems`; no word is built."""
    stream = automata.word_problems(problem.n).index(problem)
    return _promise_stream(plan, problem.promise, (plan.seed, stream))


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

    def extend(self, values) -> None:
        """Take in ``values`` in order, as one number after another."""
        values = list(values)
        if not values:
            return
        if self.count == 0:
            self.low = self.high = values[0]
        # min and max replace their pick only on a strictly smaller or
        # larger value, as comparing one number at a time would
        self.low = min([self.low, *values])
        self.high = max([self.high, *values])
        self.count += len(values)
        self.total = functools.reduce(operator.add, values, self.total)

    @property
    def mean(self):
        return self.total / self.count if self.count else None


@dataclass(frozen=True)
class _Batch:
    """Report records that share the values in ``fixed``: record r takes
    entry r of each list in ``columns`` for the other fields.

    Every value is a plain Python scalar (None, bool, int, float or str).
    """

    fixed: dict
    columns: dict
    size: int


def _record(fields: dict) -> _Batch:
    """A batch of the one record ``fields``."""
    return _Batch(fields, {}, 1)


def _flag(violations: list, checks) -> None:
    """Append the message of each failed check, pair by pair.

    ``checks`` holds (mask over a chunk's pairs, message of pair i) in the
    order the checks run on one pair.
    """
    failed = sorted(
        (i, c)
        for c, (mask, _) in enumerate(checks)
        for i in np.flatnonzero(mask).tolist()
    )
    violations.extend(checks[c][1](i) for i, c in failed)


def _pair_columns(n: int, xs, ys, yes) -> dict:
    """The x, y and label text of a chunk of pairs of length-n words."""
    spec = f"0{n}b"  # str(x), without a BitString per word
    return {
        "x": [format(x, spec) for x in xs],
        "y": [format(y, spec) for y in ys],
        "label": ["yes" if is_yes else "no" for is_yes in yes.tolist()],
    }


def _quantum_sweep(plan: _RunPlan, violations: list):
    cfg, margin, k = plan.config, plan.margin, plan.k
    n = cfg.n
    # exact verdicts per |S|; with --k, k was not chosen for the error target
    exact = [Fraction(s * s, n * n) for s in range(n + 1)]
    above_cap = np.array([p > (1 - 2 * margin.fraction) ** 2 for p in exact])
    above_eps = np.array([cfg.k is None and p ** k > plan.eps for p in exact])
    qubits = quantum_protocol.qubit_cost(n, k)
    fixed = {"record": "input", "n": n, "lambda": str(margin.fraction), "k": k,
             "qubits": qubits}
    p_yes, p_no, accept_k_no = _Running(), _Running(), _Running()
    stream = _decision_stream(plan)
    for xs, ys, yes in _pair_stream(plan):
        columns = _pair_columns(n, xs, ys, yes)
        probabilities = quantum_protocol.round_accept_probabilities(xs, ys, n)
        accept_k = [p ** k for p in probabilities]
        columns.update(
            p_single=probabilities,
            p_accept_k=accept_k,
            decision=quantum_protocol.sample_decisions(probabilities, k, stream),
        )
        yield _Batch(fixed, columns, len(xs))
        yes_list, no_list = yes.tolist(), (~yes).tolist()
        p_yes.extend(itertools.compress(probabilities, yes_list))
        p_no.extend(itertools.compress(probabilities, no_list))
        accept_k_no.extend(itertools.compress(accept_k, no_list))
        s = np.abs(quantum_protocol.round_amplitudes(xs, ys, n))
        deviation = np.abs(np.array(probabilities) - s * s / n**2)
        x_text, y_text = columns["x"], columns["y"]
        _flag(violations, [
            (yes & (s != n),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} accepted with {exact[s[i]]}"),
            (~yes & above_cap[s],
             lambda i: f"no pair {x_text[i]},{y_text[i]} above single-round cap"),
            (~yes & above_eps[s],
             lambda i: f"no pair {x_text[i]},{y_text[i]} above error target"),
            (deviation > PROB_TOL,
             lambda i: (f"dense round on {x_text[i]},{y_text[i]} off by "
                        f"{deviation[i]:.3e}")),
        ])
    yield _record({
        **fixed,
        "record": "summary",
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
    })


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
    cfg, margin, k = plan.config, plan.margin, plan.k
    n = cfg.n
    lam = margin.fraction
    fixed = {"record": "input", "n": n, "lambda": str(margin.fraction), "k": k}
    err_yes, err_no, det_no = _Running(), _Running(), _Running()
    literal_no = 0
    sigma_max = 0.0
    bits_total = 0
    # a frequency is flagged when the chance of one as far off, on either
    # side, is below MC_FALSE_ALARM over the pairs: 2 exp(-N KL) < rate / pairs
    mc_exponent = math.log(2 * max(cfg.samples, 1) / MC_FALSE_ALARM)
    stream = _decision_stream(plan)
    start = 0  # index of the chunk's first pair in the sweep
    for xs, ys, yes in _pair_stream(plan):
        columns = _pair_columns(n, xs, ys, yes)
        runs = randomized_protocol.one_way_columns(xs, ys, n, k, stream)
        detect, error = runs.p_detect, runs.exact_error_probability
        literal = np.array(runs.literal_branch, dtype=bool)
        mc_freq, mc_trials = [None] * len(xs), [0] * len(xs)
        mc_off = np.zeros(len(xs), dtype=bool)
        mc_messages = {}
        if cfg.mode == "sample":
            for i in np.flatnonzero(~literal).tolist():
                x, y = BitString(xs[i], n), BitString(ys[i], n)
                mc_rng = np.random.default_rng((plan.seed, start + i, 1))
                mc_freq[i] = freq = randomized_protocol.detection_frequency(
                    x, y, k, MC_TRIALS, mc_rng
                )
                mc_trials[i] = MC_TRIALS
                spread = math.sqrt(max(detect[i] * (1.0 - detect[i]), 1e-12) / MC_TRIALS)
                sigma = abs(freq - detect[i]) / spread
                sigma_max = max(sigma_max, sigma)
                if MC_TRIALS * _bernoulli_divergence(freq, detect[i]) > mc_exponent:
                    mc_off[i] = True
                    mc_messages[i] = (
                        f"pair {x},{y} Monte Carlo frequency {freq} against "
                        f"{detect[i]:.6f} ({sigma:.1f} sigma off)"
                    )
        columns.update(
            decision=runs.decision,
            bits=runs.bits_communicated,
            exact_error=error,
            literal_branch=runs.literal_branch,
            p_detect_exact=detect,
            mc_frequency=mc_freq,
            mc_trials=mc_trials,
        )
        yield _Batch(fixed, columns, len(xs))
        start += len(xs)
        bits_total += sum(runs.bits_communicated)
        no, sampled_no = ~yes, ~yes & ~literal
        err_yes.extend(itertools.compress(error, yes.tolist()))
        err_no.extend(itertools.compress(error, no.tolist()))
        det_no.extend(itertools.compress(detect, sampled_no.tolist()))
        # tiny-n band pairs with fewer ones than samples: surfaced, not
        # treated as protocol failures
        literal_no += int(np.count_nonzero(no & literal))
        e = np.array(error)
        # a sampled NO pair's miss (1 - m/h)**k is capped by (1 - lam)**k iff m/h >= lam
        m = margin.promise.counts(xs, ys).astype(np.int64)
        h = np.bitwise_count(np.array(xs, dtype=np.uint64)).astype(np.int64)
        x_text, y_text = columns["x"], columns["y"]
        _flag(violations, [
            (mc_off, mc_messages.__getitem__),
            (yes & (np.array(runs.decision) != 1),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} rejected"),
            (yes & (e != 0.0),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} has nonzero error"),
            (sampled_no & (m * lam.denominator < lam.numerator * h),
             lambda i: f"no pair {x_text[i]},{y_text[i]} above miss cap"),
        ])
    yield _record({
        **fixed,
        "record": "summary",
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
    })


def _qcfa_sweep(plan: _RunPlan, violations: list):
    n = plan.config.n
    for problem in automata.word_problems(n):
        name, machine, cap = problem.kind, problem.machine, problem.no_cap
        # this machine's violations; its summary answers for these alone
        failed = []
        counts = (len(machine.quantum_labels), len(machine.classical_states))
        if counts != problem.state_counts:
            failed.append(f"{name} machine has unexpected state counts")
        p_yes, p_no, deviations = _Running(), _Running(), _Running()
        fixed = {"record": "input", "machine": name, "n": n}
        for xs, ys, yes in _word_pair_stream(plan, problem):
            columns = _pair_columns(n, xs, ys, yes)
            words = [problem.word(BitString(x, n), BitString(y, n))
                     for x, y in zip(xs, ys)]
            probabilities = automata.accept_probabilities(machine, words)
            s = problem.amplitudes(xs, ys)
            expected = (s * s / n**2).tolist()
            deviation = [abs(p - want) for p, want in zip(probabilities, expected)]
            columns.update(p_accept=probabilities, expected=expected, deviation=deviation)
            yield _Batch(fixed, columns, len(xs))
            deviations.extend(deviation)
            p_yes.extend(itertools.compress(probabilities, yes.tolist()))
            p_no.extend(itertools.compress(probabilities, (~yes).tolist()))
            _flag(failed, [
                (np.array(deviation) > PROB_TOL,
                 lambda i: f"{name} word {words[i]} off by {deviation[i]:.3e}"),
                (yes & (s * s != n * n),
                 lambda i: f"{name} yes word {words[i]} not sure"),
                (~yes & (s * s * cap.denominator > cap.numerator * n * n),
                 lambda i: f"{name} no word {words[i]} above cap"),
            ])
        violations.extend(failed)
        yield _record({
            **fixed,
            "record": "summary",
            "count_yes": p_yes.count,
            "count_no": p_no.count,
            "p_yes_min": p_yes.low,
            "p_no_max": p_no.high,
            "deviation_max": deviations.high,
            "quantum_states": len(machine.quantum_labels),
            "classical_states": len(machine.classical_states),
            "invariant_ok": not failed,
        })


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
        yield _record({
            "record": "input",
            "problem": problem,
            "n": cfg.n,
            "lambda": lam,
            **report.to_record(),
        })
        # None means the exact searches refused the size, not a failure
        if report.holds is False:
            violations.append(f"rectangle bound fails on {problem} at n={cfg.n}")
    yield _record({
        "record": "summary",
        "n": cfg.n,
        "problems": len(problems),
        "all_bounds_ok": not violations,
    })


def _reduction_sweep(plan: _RunPlan, violations: list):
    cfg = plan.config
    n = cfg.n
    dfa = automata.bruteforce_disjointness_dfa(n)
    protocol = automata.DfaProtocol(dfa, n)
    problem = automata.disjointness_word_problem(n)
    # decide runs the DFA over x#, y# and x: one pass checks DFA and protocol
    wrong = next((
        (x, y) for x, y, label in promise_pairs(problem.promise)
        if protocol.decide(x, y) != (1 if label is PromiseLabel.YES else 0)
    ), None)
    agreement = wrong is None
    if not agreement:
        violations.append(
            f"brute-force DFA fails the promise check at n={n} on {wrong[0]},{wrong[1]}"
        )
    min_cc = None
    if (problem.lam * n).denominator == 1:  # else Margin refuses the band
        matrix = bounds.problem_matrix("promise_disj", n, Margin(problem.lam, n))
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
    yield _record({
        "record": "input",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "cost_ge_min_cc": cost_ok,
    })
    yield _record({
        "record": "summary",
        "n": n,
        "dfa_states": dfa.size,
        "cost": cost,
        "agreement": agreement,
        "min_cc": min_cc,
        "invariant_ok": not violations,
    })


class _Command(NamedTuple):
    """One command: its sweep, its CSV columns, the largest n of its
    exhaustive mode, and the options it reads beyond the common ones:
    "k", "lambda", "eps" and "sample" (a sample mode)."""

    #: A generator of record batches that appends every violated guarantee
    #: to the list it is given; the summary comes last.
    sweep: Callable[[_RunPlan, list], Iterator[_Batch]]
    columns: tuple[str, ...]
    cap: int
    options: frozenset = frozenset()
    #: With "k": the count for (margin, eps), None above the limit given.
    repetitions: Callable | None = None


_COMMAND_TABLE = {
    "quantum-sweep": _Command(
        _quantum_sweep,
        ("record", "n", "lambda", "x", "y", "label", "p_single", "k",
         "p_accept_k", "decision", "qubits", "count_yes", "count_no",
         "p_yes_min", "p_yes_max", "p_yes_mean", "p_no_min", "p_no_max",
         "p_no_mean", "p_accept_k_no_max", "qubits_total", "invariant_ok"),
        10, frozenset({"k", "lambda", "eps", "sample"}),
        quantum_protocol.repetition_count,
    ),
    "classical-sweep": _Command(
        _classical_sweep,
        ("record", "n", "lambda", "x", "y", "label", "k", "decision", "bits",
         "exact_error", "literal_branch", "p_detect_exact", "mc_frequency",
         "mc_trials", "count_yes", "count_no", "err_yes_max", "err_no_max",
         "det_no_min", "det_no_max", "det_no_mean", "literal_no_count",
         "mc_sigma_max", "bits_total", "invariant_ok"),
        10, frozenset({"k", "lambda", "eps", "sample"}),
        randomized_protocol.positions_count,
    ),
    "qcfa-sweep": _Command(
        _qcfa_sweep,
        ("record", "machine", "n", "x", "y", "label", "p_accept", "expected",
         "deviation", "count_yes", "count_no", "p_yes_min", "p_no_max",
         "deviation_max", "quantum_states", "classical_states", "invariant_ok"),
        6, frozenset({"sample"}),
    ),
    "bounds": _Command(
        _bounds_sweep,
        ("record", "problem", "n", "lambda", "D", "C0", "C1", "bound_ok",
         "problems", "all_bounds_ok"),
        6, frozenset({"lambda"}),
    ),
    "reduction": _Command(
        _reduction_sweep,
        ("record", "n", "dfa_states", "cost", "agreement", "min_cc",
         "cost_ge_min_cc", "invariant_ok"),
        6,
    ),
}
COMMANDS = tuple(_COMMAND_TABLE)


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

_JSON = json.JSONEncoder(sort_keys=True)
_json_text = json.encoder.encode_basestring_ascii
#: float.__repr__ of the non-finite floats, against what json writes
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value) -> str:
    """One flat value as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _json_text(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(value, int):
        return int.__repr__(value)
    return _JSON.encode(value)


def _json_cells(values) -> list[str]:
    """Each of ``values`` as ``json.dumps`` writes it."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_json_text, values))
    # bool is its own type here, so it takes the general path
    if kinds <= {int, float}:
        cells = list(map(repr, values))
        if float in kinds and not all(map(math.isfinite, values)):
            cells = [_JSON_NONFINITE.get(cell, cell) for cell in cells]
        return cells
    return list(map(_json_value, values))


def _csv_cells(values) -> list[str]:
    """Each of ``values`` as a CSV cell: empty for None, lowercase
    booleans, ``str`` for the rest."""
    return [
        "" if v is None else ("true" if v else "false") if isinstance(v, bool) else str(v)
        for v in values
    ]


def _render_json(batch: _Batch) -> str:
    """One ``json.dumps(record, sort_keys=True)`` line per record: the
    fixed fields are written once into a line template that each row of
    column cells fills."""
    fields, cells = [], []
    for name in sorted({*batch.fixed, *batch.columns}):
        if name in batch.columns:
            fields.append(_json_text(name).replace("%", "%%") + ": %s")
            cells.append(_json_cells(batch.columns[name]))
        else:
            text = f"{_json_text(name)}: {_json_value(batch.fixed[name])}"
            fields.append(text.replace("%", "%%"))
    line = "{" + ", ".join(fields) + "}\n"
    rows = zip(*cells) if cells else itertools.repeat((), batch.size)
    return "".join(map(line.__mod__, rows))


def _render_csv(columns: tuple[str, ...], batch: _Batch, header: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(columns)
    cells = [
        _csv_cells(batch.columns[name]) if name in batch.columns
        else itertools.repeat(_csv_cells([batch.fixed.get(name)])[0], batch.size)
        for name in columns
    ]
    writer.writerows(zip(*cells))
    return buf.getvalue()


def render_report(command: str, batch: _Batch, fmt: str, header: bool = True) -> str:
    """Report text for the records of ``batch``; ``header=False`` leaves
    out the CSV column line, for every batch after the first."""
    if fmt == "json":
        return _render_json(batch)
    return _render_csv(_COMMAND_TABLE[command].columns, batch, header)


def _write_error(message: str) -> int:
    print(f"cannot write report: {message}", file=sys.stderr)
    return EXIT_CONFIG


def run_experiment(cfg: ExperimentConfig) -> int:
    """Validate, sweep, write the report; 0 ok, 1 bad config or report
    path, 2 violation.

    Records go to the report a batch at a time as the sweep makes them.
    """
    try:
        plan = cfg.validated()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    path = plan.output_path()
    if path.is_dir():
        return _write_error(f"{path} is a directory")
    # the report appears under its name only once complete, so a sweep
    # that stops half way leaves a .part file, not a short report
    partial = path.with_name(path.name + ".part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        report = open(partial, "w")
    except OSError as exc:
        return _write_error(str(exc))
    violations = []
    count = 0
    with report:
        for batch in _COMMAND_TABLE[cfg.command].sweep(plan, violations):
            report.write(render_report(cfg.command, batch, cfg.fmt, header=not count))
            count += batch.size
    try:
        partial.replace(path)
    except OSError as exc:
        partial.unlink(missing_ok=True)
        return _write_error(str(exc))
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
