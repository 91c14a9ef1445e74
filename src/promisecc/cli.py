"""Command-line experiment runner.

Each command sweeps one capability over exhaustive or sampled inputs and
writes one record per evaluated input plus a trailing summary record, as
newline-delimited JSON or fixed-column CSV.  A command is one row of a
table: its sweep, its CSV columns, the largest n of its exhaustive mode
and the options it reads; validation, the run and the writer read that
row.  Each sweep imports the model modules it runs when it starts, so a
command loads only those.  The automaton sweep reads each word problem
from its :class:`automata.WordProblem` record.  Sweeps re-assert the owning
module's guarantees while running; a violated guarantee still writes the
report but exits with status 2.  Inputs come from one stream, the
promise's :meth:`bits.Promise.chunks`: every pair inside the promise
(exhaustive mode, and ``reduction``), or ``--samples`` uniform draws kept
only inside it, as integer columns of word values with a YES mask.
``bounds`` runs each problem of :data:`bounds.PROBLEMS` that has a NO
count at n.  The protocol sweeps draw their random decisions from one
stream per sweep, seeded by the seed and read in pair order a chunk at a
time; the draws do not depend on the chunk size.  So identical
configurations produce byte-identical reports.  In both modes the
classical sweep checks its one-way code exactly, on every random string
of each (overlap, weight) key it meets.

Reports are streamed: each sweep is a generator of column batches.  The
stream labels ``bits.SWEEP_CHUNK`` candidate pairs at a time from the
promise table and yields the pairs kept from each block as one chunk.  The
protocol sweeps hand a chunk's value columns to the batched rounds, the
automaton sweep runs its chunk of words through a machine at once, and
each hands the writer one batch per chunk: the fields every record of
the chunk shares, once, and one column per other field.  A column is a
list of plain Python values, or a coded column: the distinct values once
and one index into them per record.  The x and y text, the labels,
decisions, bits and flags are coded columns, and so are the protocol
sweeps' probabilities: each is a function of a few integer counts, read
from a small table that the sweep fills once (the quantum sweep prints
the floats of the exact ``S**2/n**2`` and its k-th power per |S|, the
classical sweep the floats of the exact error and detection probability
per overlap and weight).  Each protocol sweep also counts its NO and YES
pairs per table key, and its summary is read from those counts and the
table: floats of exact extremes and means, which do not depend on the
order of the pairs.  In exhaustive mode it compares each key's counts
with their closed forms, labelled from lambda alone.  The automaton
sweep validates each machine before it runs it; its probabilities are
machine floats, kept as witnesses, and its summary takes their extremes
chunk by chunk.  Summary records and the bounds and reduction records
are batches of one.  The writer renders a batch in one pass, each
distinct value of a coded column once, then a JSON line template filled
once per record or one CSV ``writerows`` call.  No list of all records
is built, so memory does not grow with the number of pairs.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .bits import (
    BitString,
    Margin,
    Promise,
    PromiseLabel,
    # not called here; perfbench/tracer.py wraps cli.classify_disj_promise
    classify_disj_promise,
    # numpy on first use; perfbench/tracer.py replaces cli.np
    np,
)

OUTPUT_DIR_ENV = "PROMISECC_OUT_DIR"
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
PROB_TOL = 1e-9
#: Chance that a protocol sweep flags its count of accepted NO pairs when
#: the decisions are right.
MC_FALSE_ALARM = 1e-6

#: Sample mode draws each word as one 64-bit integer.
_SAMPLE_CAP = 64
#: Largest --k, given or worked out from --eps: one chunk's draws stay at
#: bits.SWEEP_CHUNK x 4096 numbers (32 MB).
_K_CAP = 4096
DEFAULT_MARGIN = "1/4"
DEFAULT_EPS = "1/3"


class ConfigError(ValueError):
    pass


class ExperimentConfig(NamedTuple):
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
            if self.command == "qcfa-sweep":
                from . import automata

                if any(PromiseLabel.NO not in problem.promise.labels
                       for problem in automata.word_problems(self.n)):
                    # e.g. equality at odd n, whose sampler would wait for
                    # x == y, one draw in 2**n
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
            module, function = row.repetitions.split(".")
            repetitions = getattr(importlib.import_module(f".{module}", __package__), function)
            k = repetitions(margin, eps, _K_CAP)
            if k is None:
                raise ConfigError(f"error bound needs k above {_K_CAP}, the --k cap")
        return _RunPlan(
            config=self,
            margin=margin,
            eps=eps,
            k=k,
            seed=0 if self.seed is None else self.seed,
        )


class _RunPlan(NamedTuple):
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

def _pair_stream(plan: _RunPlan):
    """Promise disjointness pairs for the protocol sweeps, seeded by the seed."""
    return plan.margin.promise.chunks(plan.config.samples or None, plan.seed)


def _word_pair_stream(plan: _RunPlan, problem: automata.WordProblem):
    """Pairs whose word is inside ``problem``'s promise, seeded by (seed, i)
    for the i-th of :func:`automata.word_problems`; no word is built."""
    from . import automata

    stream = automata.word_problems(problem.n).index(problem)
    return problem.promise.chunks(plan.config.samples or None, (plan.seed, stream))


def _decision_stream(plan: _RunPlan) -> np.random.Generator:
    """The one generator a protocol sweep draws its decisions from, read
    in pair order a chunk at a time.

    Its entropy (seed, 2) is no other stream's in the same run: the pair
    sampler uses the seed alone, the word streams (seed, 0) and (seed, 1).
    """
    return np.random.default_rng((plan.seed, 2))


# ---------------------------------------------------------------------------
# per-command sweeps
# ---------------------------------------------------------------------------

class _Coded:
    """A report column of few distinct values: record r takes
    ``values[codes[r]]``, so each distinct value is rendered once."""

    __slots__ = ("values", "codes")

    def __init__(self, values: list, codes):
        self.values = values
        self.codes = np.asarray(codes, dtype=np.intp)

    def __getitem__(self, r: int):
        return self.values[self.codes[r]]


class _Batch(NamedTuple):
    """Report records that share the values in ``fixed``: record r takes,
    for each other field, entry r of its list in ``columns`` or its
    :class:`_Coded` value.

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
    """The x, y and label text of a chunk of pairs of length-n words, as
    coded columns: each distinct word of the chunk is formatted once."""
    columns = {"label": _Coded(["no", "yes"], yes)}
    spec = f"0{n}b"  # str(x), without a BitString per word
    for name, values in (("x", xs), ("y", ys)):
        distinct, codes = np.unique(values, return_inverse=True)
        columns[name] = _Coded([format(v, spec) for v in distinct.tolist()], codes)
    return columns


def _quantum_sweep(plan: _RunPlan, violations: list):
    from . import quantum_protocol

    cfg, margin, k = plan.config, plan.margin, plan.k
    n = cfg.n
    # exact values per |S|, and the report prints their floats; with --k,
    # k was not chosen for the error target
    exact = [Fraction(s * s, n * n) for s in range(n + 1)]
    exact_k = [p ** k for p in exact]
    p_single, p_accept_k = [float(p) for p in exact], [float(p) for p in exact_k]
    p_table = np.array(p_single)
    above_cap = np.array([p > (1 - 2 * margin.fraction) ** 2 for p in exact])
    above_eps = np.array([cfg.k is None and p > plan.eps for p in exact_k])
    qubits = quantum_protocol.qubit_cost(n, k)
    fixed = {"record": "input", "n": n, "lambda": str(margin.fraction), "k": k,
             "qubits": qubits}
    # pairs per |S|: NO pairs in row 0, YES pairs in row 1
    counts = np.zeros((2, n + 1), dtype=np.int64)
    accepted_no = 0
    stream = _decision_stream(plan)
    for xs, ys, yes in _pair_stream(plan):
        columns = _pair_columns(n, xs, ys, yes)
        amplitudes, witness = quantum_protocol.round_columns(xs, ys, n)
        s = np.abs(amplitudes)
        decision = np.asarray(quantum_protocol.sample_decisions(p_table[s], k, stream))
        columns.update(
            p_single=_Coded(p_single, s),
            p_accept_k=_Coded(p_accept_k, s),
            decision=_Coded([0, 1], decision),
        )
        yield _Batch(fixed, columns, len(xs))
        counts += [np.bincount(s[~yes], minlength=n + 1),
                   np.bincount(s[yes], minlength=n + 1)]
        accepted_no += int(decision[~yes].sum())
        deviation = np.abs(witness - p_table[s])
        x_text, y_text = columns["x"], columns["y"]
        _flag(violations, [
            (yes & (s != n),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} accepted with {exact[s[i]]}"),
            (yes & (decision != 1),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} rejected"),
            (~yes & above_cap[s],
             lambda i: f"no pair {x_text[i]},{y_text[i]} above single-round cap"),
            (~yes & above_eps[s],
             lambda i: f"no pair {x_text[i]},{y_text[i]} above error target"),
            (deviation > PROB_TOL,
             lambda i: (f"dense round on {x_text[i]},{y_text[i]} off by "
                        f"{deviation[i]:.3e}")),
        ])
    if cfg.mode == "exhaustive":
        _check_pair_counts(violations, counts, n, margin.fraction,
                           lambda a: [(abs(n - 2 * a), math.comb(n, a) * 3 ** (n - a))],
                           lambda s: f"|S|={s}")
    no_row, yes_row = counts.tolist()
    # a NO pair at |S| passes all k rounds with probability exact_k[|S|]
    _check_accepted_no(violations, accepted_no, no_row, exact_k.__getitem__)
    summary = {"p_accept_k_no_max": _per_key(no_row, exact_k.__getitem__)[1]}
    for label, row in (("no", no_row), ("yes", yes_row)):
        low, high, mean = _per_key(row, exact.__getitem__)
        summary.update({f"count_{label}": sum(row), f"p_{label}_min": low,
                        f"p_{label}_max": high, f"p_{label}_mean": mean})
    yield _record({
        **fixed,
        **summary,
        "record": "summary",
        "qubits_total": qubits * int(counts.sum()),
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


def _per_key(row: list, value) -> tuple:
    """The floats of the least, greatest and count-weighted mean of the
    exact ``value(key)``, called once per key that ``row`` (pairs per key)
    counts; Nones for an empty row.  Rounding to float is monotone, so the
    floats of the exact extremes are the extremes of the floats."""
    values = {key: value(key) for key, count in enumerate(row) if count}
    if not values:
        return None, None, None
    mean = sum(row[key] * v for key, v in values.items()) / sum(row)
    return float(min(values.values())), float(max(values.values())), float(mean)


def _in_band(m, lam: Fraction, n: int):
    """lam*n <= m <= (1 - lam)*n, from lam itself, not from a promise table;
    ``m`` is an int or an array of them."""
    return ((m * lam.denominator >= lam.numerator * n)
            & (m * lam.denominator <= (lam.denominator - lam.numerator) * n))


def _check_pair_counts(violations: list, counts, n: int, lam: Fraction,
                       keyed, where) -> None:
    """Flag each key whose count of NO or YES pairs in an exhaustive sweep,
    rows 0 and 1 of ``counts``, is not its closed form.

    Each overlap a is labelled from lam alone, 0 YES and the band NO, and
    ``keyed(a)`` gives its pairs, as (key, count); ``where(key)`` names
    the key.
    """
    closed = np.zeros_like(counts).tolist()
    for a in range(n + 1):
        if a == 0 or _in_band(a, lam, n):
            for key, count in keyed(a):
                closed[a == 0][key] += count
    for label, row, want in zip(("no", "yes"), counts.tolist(), closed):
        violations.extend(
            f"{count} {label} pairs at {where(key)}, against {expected} in closed form"
            for key, (count, expected) in enumerate(zip(row, want)) if count != expected
        )


def _check_accepted_no(violations: list, accepted: int, no_row: list, error) -> None:
    """Flag a sweep whose NO pairs, ``no_row[key]`` of them per key, were
    accepted ``accepted`` times, where ``error(key)`` is the exact chance
    that a NO pair of that key is accepted.

    By Hoeffding's bound, which holds for unequal probabilities, the
    frequency lies at f or beyond, on f's side of the mean p, with
    probability at most exp(-pairs * KL(f || p)).  The count is flagged
    when that chance, on either side, is below MC_FALSE_ALARM.
    """
    pairs = sum(no_row)
    mean = _per_key(no_row, error)[2]
    if pairs and pairs * _bernoulli_divergence(
        accepted / pairs, mean
    ) > math.log(2 / MC_FALSE_ALARM):
        violations.append(f"{accepted} of {pairs} no pairs accepted, against "
                          f"{mean * pairs:.1f} expected")


def _classical_sweep(plan: _RunPlan, violations: list):
    from . import randomized_protocol

    cfg, margin, k = plan.config, plan.margin, plan.k
    n = cfg.n
    lam = margin.fraction
    fixed = {"record": "input", "n": n, "lambda": str(margin.fraction), "k": k}
    # the exact error and detection floats of each (overlap m, weight h)
    # a run reports, worked out once per sweep, at key m * (n + 1) + h
    table = {}
    cost = randomized_protocol.bit_cost(n, k)
    # pairs per key: NO pairs in row 0, YES pairs in row 1
    counts = np.zeros((2, (n + 1) ** 2), dtype=np.int64)
    accepted_no = 0
    stream = _decision_stream(plan)
    for xs, ys, yes in _pair_stream(plan):
        columns = _pair_columns(n, xs, ys, yes)
        runs = randomized_protocol.one_way_columns(xs, ys, n, k, stream)
        m, h, literal = runs.overlap, runs.weight, runs.literal_branch
        pair_keys = m * (n + 1) + h
        keys, codes = np.unique(pair_keys, return_inverse=True)
        for key in keys.tolist():
            if key not in table:
                m_key, h_key = divmod(key, n + 1)
                table[key] = randomized_protocol.report_floats(m_key, h_key, k)
                # the run's own code on every random string of a key that draws
                message = h_key >= k and randomized_protocol.coin_mismatch(m_key, h_key, k, n)
                violations.extend([message] if message else [])
        error = [table[key][0] for key in keys.tolist()]
        detect = [table[key][1] for key in keys.tolist()]
        columns.update(
            decision=_Coded([0, 1], runs.decision),
            bits=_Coded([cost, 1], literal),
            exact_error=_Coded(error, codes),
            literal_branch=_Coded([False, True], literal),
            p_detect_exact=_Coded(detect, codes),
        )
        yield _Batch(fixed, columns, len(xs))
        counts += [np.bincount(pair_keys[~yes], minlength=(n + 1) ** 2),
                   np.bincount(pair_keys[yes], minlength=(n + 1) ** 2)]
        accepted_no += int(runs.decision[~yes].sum())
        sampled_no = ~yes & ~literal
        # the run's own overlap and weight, against the pair's counts
        m_pair = margin.promise.counts(xs, ys)
        h_pair = np.bitwise_count(xs)
        x_text, y_text = columns["x"], columns["y"]
        _flag(violations, [
            (yes & (runs.decision != 1),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} rejected"),
            (yes & (np.array(error)[codes] != 0.0),
             lambda i: f"yes pair {x_text[i]},{y_text[i]} has nonzero error"),
            ((m != m_pair) | (h != h_pair),
             lambda i: (f"pair {x_text[i]},{y_text[i]} run with overlap {m[i]} "
                        f"and weight {h[i]}, not {m_pair[i]} and {h_pair[i]}")),
            (~yes & ~_in_band(m, lam, n),
             lambda i: f"no pair {x_text[i]},{y_text[i]} overlap {m[i]} outside the band"),
            # a sampled NO pair's miss (1 - m/h)**k is capped by
            # (1 - lam)**k iff m/h >= lam
            (sampled_no & (m * lam.denominator < lam.numerator * h),
             lambda i: f"no pair {x_text[i]},{y_text[i]} above miss cap"),
        ])
    if cfg.mode == "exhaustive":
        _check_pair_counts(violations, counts, n, lam, lambda a: [
            (a * (n + 1) + h, math.comb(n, h) * math.comb(h, a) * 2 ** (n - h))
            for h in range(a, n + 1)
        ], lambda key: "overlap {} and weight {}".format(*divmod(key, n + 1)))
    # a key's pairs took the literal branch iff its weight h is below k
    literal_key = np.arange((n + 1) ** 2) % (n + 1) < k
    literal_pairs = int(counts[:, literal_key].sum())
    no_row, yes_row = counts.tolist()
    # a NO pair is accepted, wrongly, with its key's error
    error = {key: floats[0] for key, floats in table.items()}.__getitem__
    _check_accepted_no(violations, accepted_no, no_row, error)
    # over the sampled NO pairs, the exact detection probabilities
    det_min, det_max, det_mean = _per_key(
        np.where(literal_key, 0, counts[0]).tolist(),
        lambda key: 1 - randomized_protocol.miss_probability(*divmod(key, n + 1), k),
    )
    yield _record({
        **fixed,
        "record": "summary",
        "count_yes": sum(yes_row),
        "count_no": sum(no_row),
        "err_yes_max": _per_key(yes_row, error)[1],
        "err_no_max": _per_key(no_row, error)[1],
        "det_no_min": det_min,
        "det_no_max": det_max,
        "det_no_mean": det_mean,
        # tiny-n band pairs with fewer ones than samples: surfaced, not
        # treated as protocol failures
        "literal_no_count": int(counts[0, literal_key].sum()),
        "bits_total": cost * (int(counts.sum()) - literal_pairs) + literal_pairs,
        "invariant_ok": not violations,
    })


def _qcfa_sweep(plan: _RunPlan, violations: list):
    from . import automata

    n = plan.config.n
    for problem in automata.word_problems(n):
        name, machine, cap = problem.kind, problem.machine, problem.no_cap
        # this machine's violations; its summary answers for these alone
        failed = []
        try:
            machine.validate()
        except ValueError as exc:
            failed.append(f"{name} machine is invalid: {exc}")
        counts = (len(machine.quantum_labels), len(machine.classical_states))
        if counts != problem.state_counts:
            failed.append(f"{name} machine has unexpected state counts")
        # the machine's floats are witnesses: their extremes, chunk by chunk
        count_yes = count_no = 0
        p_yes_min, p_no_max, deviation_max = math.inf, -math.inf, -math.inf
        fixed = {"record": "input", "machine": name, "n": n}
        for xs, ys, yes in _word_pair_stream(plan, problem):
            columns = _pair_columns(n, xs, ys, yes)
            words = [problem.word(BitString(x, n), BitString(y, n))
                     for x, y in zip(xs.tolist(), ys.tolist())]
            probabilities = automata.accept_probabilities(machine, words)
            s = problem.amplitudes(xs, ys)
            expected = (s * s / n**2).tolist()
            deviation = [abs(p - want) for p, want in zip(probabilities, expected)]
            columns.update(p_accept=probabilities, expected=expected, deviation=deviation)
            yield _Batch(fixed, columns, len(xs))
            p_yes = list(itertools.compress(probabilities, yes.tolist()))
            p_no = list(itertools.compress(probabilities, (~yes).tolist()))
            count_yes, count_no = count_yes + len(p_yes), count_no + len(p_no)
            p_yes_min = min([p_yes_min, *p_yes])
            p_no_max = max([p_no_max, *p_no])
            deviation_max = max([deviation_max, *deviation])
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
            "count_yes": count_yes,
            "count_no": count_no,
            "p_yes_min": p_yes_min if count_yes else None,
            "p_no_max": p_no_max if count_no else None,
            "deviation_max": deviation_max if count_yes + count_no else None,
            "quantum_states": len(machine.quantum_labels),
            "classical_states": len(machine.classical_states),
            "invariant_ok": not failed,
        })


def _bounds_sweep(plan: _RunPlan, violations: list):
    from . import bounds

    cfg, margin = plan.config, plan.margin
    # each problem with a NO count at n; promise_disj takes the margin
    problems = [
        kind for kind, (overlap, lam) in bounds.PROBLEMS.items()
        if (margin is not None if lam is None
            else PromiseLabel.NO in Promise.from_margin(cfg.n, overlap, lam).labels)
    ]
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
    from . import automata, bounds

    cfg = plan.config
    n = cfg.n
    dfa = automata.bruteforce_disjointness_dfa(n)
    protocol = automata.DfaProtocol(dfa, n)
    problem = automata.disjointness_word_problem(n)
    # decide runs the DFA over x#, y# and x: one pass checks DFA and protocol
    pairs = (
        (BitString(x, n), BitString(y, n), label is PromiseLabel.YES)
        for x, row in enumerate(problem.promise.grid())
        for y, label in enumerate(row)
        if label is not PromiseLabel.OUTSIDE
    )
    wrong = next(((x, y) for x, y, is_yes in pairs if protocol.decide(x, y) != is_yes), None)
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
    #: With "k": "module.function" of the function that gives the count for
    #: (margin, eps), None above the limit given; imported only to work out
    #: k, so that loading cli loads no protocol module.
    repetitions: str | None = None


_COMMAND_TABLE = {
    "quantum-sweep": _Command(
        _quantum_sweep,
        ("record", "n", "lambda", "x", "y", "label", "p_single", "k",
         "p_accept_k", "decision", "qubits", "count_yes", "count_no",
         "p_yes_min", "p_yes_max", "p_yes_mean", "p_no_min", "p_no_max",
         "p_no_mean", "p_accept_k_no_max", "qubits_total", "invariant_ok"),
        10, frozenset({"k", "lambda", "eps", "sample"}),
        "quantum_protocol.repetition_count",
    ),
    "classical-sweep": _Command(
        _classical_sweep,
        ("record", "n", "lambda", "x", "y", "label", "k", "decision", "bits",
         "exact_error", "literal_branch", "p_detect_exact", "count_yes",
         "count_no", "err_yes_max", "err_no_max", "det_no_min", "det_no_max",
         "det_no_mean", "literal_no_count", "bits_total", "invariant_ok"),
        10, frozenset({"k", "lambda", "eps", "sample"}),
        "randomized_protocol.positions_count",
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


def _csv_value(value) -> str:
    """One flat value as a CSV cell: empty for None, lowercase booleans,
    ``str`` for the rest."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _cells(column, render) -> list[str]:
    """Each record's cell of ``column``, each value rendered by ``render``:
    a list value by value, or a :class:`_Coded` column whose distinct
    values are rendered once."""
    if isinstance(column, _Coded):
        cells = np.array(list(map(render, column.values)), dtype=object)
        return cells[column.codes].tolist()
    return list(map(render, column))


def _render_json(batch: _Batch) -> str:
    """One ``json.dumps(record, sort_keys=True)`` line per record: the
    fixed fields are written once into a line template that each row of
    column cells fills."""
    fields, cells = [], []
    for name in sorted({*batch.fixed, *batch.columns}):
        if name in batch.columns:
            fields.append(_json_text(name).replace("%", "%%") + ": %s")
            cells.append(_cells(batch.columns[name], _json_value))
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
        _cells(batch.columns[name], _csv_value) if name in batch.columns
        else itertools.repeat(_csv_value(batch.fixed.get(name)), batch.size)
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
    parser.add_argument("--cmd", dest="command", required=True, choices=COMMANDS,
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
    return run_experiment(ExperimentConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
