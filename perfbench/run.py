"""promisecc benchmark: fixed CLI configs, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exhaustive-sweeps --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 0

Each workload is a list of ``python -m promisecc --cmd ...`` configs.  Every
command runs in a fresh process, one after another (closed loop, one
client), with the workload seed passed as ``--seed``.  Every report is
checked; a command that exits non-zero or fails a check counts as failed.

``--trace 0`` cycles through the workload's commands for ``--seconds``,
timing a fresh ``import promisecc`` before each one, and prints the
end-to-end metrics: medians per command, summed, and the median set-up.
``--trace 1`` makes one untraced and one traced pass (whatever
``--seconds`` says) and prints the per-layer metrics; the traced pass runs
each command under ``perfbench/tracer.py``.  Workload ``sampled-sweeps``
also runs its known-defect probes in a traced run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable table goes to
standard error.  See ``perfbench/README.md`` for why each workload and
metric was chosen.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 150.0
#: Children run single-threaded and with a fixed hash seed, so that no
#: timing depends on thread scheduling or on the order of string hashes.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Command:
    """One CLI config and what its report must hold."""

    cmd: str
    n: int
    records: int
    fmt: str = "json"
    samples: int = 0  # 0 means exhaustive mode
    k: int | None = None  # repetition/sample count override
    min_cc: int | None = None  # reduction: required exact lower bound

    @property
    def label(self) -> str:
        mode = f" sample={self.samples}" if self.samples else ""
        k = f" k={self.k}" if self.k is not None else ""
        return f"{self.cmd} n={self.n}{mode}{k} {self.fmt}"

    @property
    def metric(self) -> str:
        return self.cmd.replace("-", "_") + "_s"

    def cli_args(self, seed: int, out: Path) -> list[str]:
        args = ["--cmd", self.cmd, "--n", str(self.n), "--seed", str(seed),
                "--format", self.fmt, "--out", str(out)]
        if self.samples:
            args += ["--mode", "sample", "--samples", str(self.samples)]
        if self.k is not None:
            args += ["--k", str(self.k)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    probes: tuple[Command, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        "exhaustive-sweeps",
        "every n=8 pair on the per-pair path: classify, one rng per pair, a "
        "dense round or one-way run, a record dict, JSON rendering",
        (
            Command("quantum-sweep", 8, records=48016),
            Command("classical-sweep", 8, records=48016),
        ),
    ),
    Workload(
        "sampled-sweeps",
        "large n: bigger matrices, rejection sampling, Monte Carlo trials, "
        "automaton word runs and the CSV renderer",
        (
            Command("qcfa-sweep", 6, records=3965, fmt="csv"),
            Command("qcfa-sweep", 32, records=2 * 1500 + 2, fmt="csv", samples=1500),
            Command("quantum-sweep", 48, records=8000 + 1, fmt="csv", samples=8000),
            # k=1: see the last probe
            Command("classical-sweep", 32, records=3000 + 1, fmt="csv",
                    samples=3000, k=1),
        ),
        # known defects, kept out of the timed commands and recorded by the
        # traced run: sample mode overflows int64 at n=64, and at the
        # default k=4 the 5-sigma Monte Carlo check fails by chance on
        # about one pair in 28,000 (it uses a normal approximation where
        # the detection probability is near 1), a quarter of 8,000-pair runs
        probes=(
            Command("quantum-sweep", 64, records=20 + 1, fmt="csv", samples=20),
            Command("classical-sweep", 64, records=20 + 1, fmt="csv", samples=20),
            Command("classical-sweep", 32, records=8000 + 1, fmt="csv", samples=8000),
        ),
    ),
    Workload(
        "exact-search",
        "exact searches: protocol-tree and partition search in bounds, "
        "the n=6 refusal path and the DFA build and check; tiny reports",
        (
            Command("bounds", 4, records=5),
            Command("bounds", 6, records=4),
            Command("reduction", 4, records=2, min_cc=5),
            Command("reduction", 6, records=2),
        ),
    ),
)}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "report_mb": "MB",
}

#: Inclusive time of each group of span names (see tracer.summarize).
GROUPS = {
    "bits.classify_s": ("bits.classify_disj_promise",),
    "qsim.op_build_s": ("qsim.swap_op", "qsim.phase_op"),
    "qsim.apply_s": ("qsim.apply", "qsim.apply_swap_fast", "qsim.apply_phase_fast"),
    "qsim.measure_s": ("qsim.outcome_probability",),
    "quantum_protocol.round_dense_s": ("quantum_protocol.round_accept_probability",),
    "quantum_protocol.round_fast_s": ("quantum_protocol.round_accept_probability_fast",),
    "randomized_protocol.run_one_way_s": ("randomized_protocol.run_one_way",),
    "randomized_protocol.exact_s": ("randomized_protocol.exact_detection_probability",),
    "randomized_protocol.mc_s": ("randomized_protocol.detection_frequency",),
    "automata.build_s": (
        "automata.equality_automaton", "automata.disjointness_automaton",
        "automata.equality_word_problem", "automata.disjointness_word_problem",
    ),
    "automata.accept_s": ("automata.accept_probability",),
    "automata.classify_word_s": ("automata.WordProblem.classify",),
    "automata.dfa_s": (
        "automata.bruteforce_disjointness_dfa", "automata.verify_promise_dfa",
        "automata.protocol_from_dfa", "automata.DfaProtocol.decide",
    ),
    "bounds.tree_search_s": ("bounds.exact_deterministic_cc",),
    "bounds.partition_search_s": ("bounds.min_monochromatic_partition",),
    "cli.rng_s": (tracer.RNG_SPAN,),
    "cli.render_s": ("cli.render_report",),
}
LAYERS = ("bits", "qsim", "quantum_protocol", "randomized_protocol",
          "automata", "bounds", "cli")
COMMAND_METRICS = ("quantum_sweep_s", "classical_sweep_s", "qcfa_sweep_s",
                   "bounds_s", "reduction_s")
SEARCHES = ("bounds.exact_deterministic_cc", "bounds.min_monochromatic_partition")
STREAM_CLASSIFY = ("bits.classify_disj_promise", "automata.WordProblem.classify")


def _per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in GROUPS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "s" for name in COMMAND_METRICS})
    units.update({
        "bits.classify_calls": "count",
        "quantum_protocol.rounds": "count",
        "quantum_protocol.round_dense_us": "us",
        "randomized_protocol.runs": "count",
        "randomized_protocol.mc_trials": "count",
        "automata.words": "count",
        "automata.accept_us": "us",
        "bounds.searches": "count",
        "bounds.searches_refused": "count",
        "bounds.decided_ratio": "ratio",
        "cli.pairs": "count",
        "cli.pairs_yes": "count",
        "cli.sample_pairs_yes": "count",
        "cli.sample_accept_ratio": "ratio",
        "cli.rng_calls": "count",
        "cli.sweep_self_s": "s",
        "cli.report_bytes": "bytes",
        "probe.attempted": "count",
        "probe.failed": "count",
        "trace.overhead_ratio": "ratio",
        "trace.self_sum_ratio": "ratio",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv: list[str], log: Path, stdout: bool = False) -> ChildRun:
    """Run one child to completion; wall time and its own peak RSS.

    The child's standard error (and, with ``stdout``, its output) goes to
    ``log`` and comes back as ``ChildRun.stderr``.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=err if stdout else subprocess.DEVNULL,
                                stderr=err, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, code,
                    log.read_text(errors="replace"))


#: ``setup_s``: what every command pays before its own work starts.
SETUP_ARGV = [sys.executable, "-c", "import promisecc"]
FACTS_ARGV = [sys.executable, "-c", "import os, sys, numpy, promisecc; "
              "print(f'nproc={os.cpu_count()} python={sys.version.split()[0]} "
              "numpy={numpy.__version__}')"]


def warm_up(work: Path) -> None:
    """One untimed import, which also writes the bytecode cache, printing
    the machine facts."""
    run = spawn(FACTS_ARGV, work / "facts.log", stdout=True)
    if run.code != 0:
        raise RuntimeError(f"import promisecc failed:\n{run.stderr}")
    print(run.stderr.strip(), file=sys.stderr)


def time_setup(work: Path) -> float:
    run = spawn(SETUP_ARGV, work / "setup.log")
    if run.code != 0:
        raise RuntimeError(f"import promisecc failed:\n{run.stderr}")
    return run.wall_s


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_records(lines, fmt: str):
    """Records of a report given as an iterable of text lines."""
    if fmt == "json":
        return (json.loads(line) for line in lines if line.strip())
    return ({k: _csv_value(v) for k, v in row.items()}
            for row in csv.DictReader(lines))


def check_report(command: Command, lines) -> list[str]:
    """Problems with one report; empty when it passes every check.

    Records are streamed: the benchmark process stays small, because a
    child's peak RSS as ``wait4`` reports it starts from the parent's.
    """
    count = 0
    summaries, inputs = [], []
    keep_inputs = command.cmd in ("bounds", "reduction")
    try:
        for rec in read_records(lines, command.fmt):
            count += 1
            if rec.get("record") == "summary":
                summaries.append(rec)
            elif rec.get("record") == "input" and keep_inputs:
                inputs.append(rec)
    except (ValueError, csv.Error) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if count != command.records:
        problems.append(f"{count} records, expected {command.records}")
    if not summaries:
        problems.append("no summary record")
    for rec in summaries:
        flag = "all_bounds_ok" if command.cmd == "bounds" else "invariant_ok"
        if rec.get(flag) is not True:
            problems.append(f"summary {flag} is {rec.get(flag)!r}")
    if command.cmd == "bounds":
        depths = {r.get("problem"): r.get("D") for r in inputs}
        for problem in ("eq", "disj"):
            if depths.get(problem) != command.n + 1:
                problems.append(
                    f"D({problem}) is {depths.get(problem)!r}, expected {command.n + 1}"
                )
    if command.cmd == "reduction":
        for rec in inputs:
            if rec.get("agreement") is not True:
                problems.append("reduction protocol disagrees with the promise")
            if command.min_cc is not None:
                if rec.get("min_cc") != command.min_cc:
                    problems.append(f"min_cc is {rec.get('min_cc')!r}, expected {command.min_cc}")
                elif not (isinstance(rec.get("cost"), int) and rec["cost"] >= rec["min_cc"]):
                    problems.append(f"cost {rec.get('cost')!r} below min_cc")
    return problems


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Outcome:
    run: ChildRun
    digest: str
    nbytes: int
    problems: list[str]


def run_command(command: Command, seed: int, work: Path, *, check: bool,
                spans: Path | None = None) -> Outcome:
    """Run one command (traced when ``spans`` is given) and check it.

    With ``check`` the report is parsed and checked; otherwise only its
    digest is taken, for the caller to compare across repeats.
    """
    report = work / f"report.{command.fmt}"
    report.unlink(missing_ok=True)
    args = command.cli_args(seed, report)
    if spans is None:
        argv = [sys.executable, "-m", "promisecc", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args]
    run = spawn(argv, work / "child.log")
    problems = []
    if run.code != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {run.code}: {tail[0]}")
    if not report.is_file():
        problems.append("no report written")
        return Outcome(run, "", 0, problems)
    if check and not problems:
        with open(report, newline="") as fh:
            problems += check_report(command, fh)
    outcome = Outcome(run, _sha256(report), report.stat().st_size, problems)
    report.unlink()
    return outcome


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def record(self, command: Command, outcome: Outcome) -> None:
        """Count one run; a report that differs from an earlier run of the
        same command and seed is a failure too."""
        self.attempted += 1
        problems = list(outcome.problems)
        first = self.digests.setdefault(command, outcome.digest)
        if outcome.digest and first and outcome.digest != first:
            problems.append("report differs from an earlier run of the same seed")
        if problems:
            self.failed += 1
            print(f"FAILED {command.label}: {'; '.join(problems)}", file=sys.stderr)


def run_end_to_end(workload: Workload, seed: int, seconds: float, work: Path):
    tally = Tally()
    warm_up(work)
    setups, walls = [], defaultdict(list)
    peak_rss = 0.0
    report_bytes = 0
    start = time.perf_counter()
    # cycle through the commands; after the first cycle, stop before a
    # command whose last run would no longer fit in ``seconds``
    for i, command in enumerate(itertools.cycle(workload.commands)):
        first = i < len(workload.commands)
        if not first and (time.perf_counter() - start + setups[-1]
                          + walls[command][-1] > seconds):
            break
        # set-up is timed next to every command, so that it samples the
        # same stretch of the run as the commands do
        setups.append(time_setup(work))
        outcome = run_command(command, seed, work, check=first)
        tally.record(command, outcome)
        walls[command].append(outcome.run.wall_s)
        peak_rss = max(peak_rss, outcome.run.rss_mb)
        if first:
            report_bytes += outcome.nbytes
    elapsed = time.perf_counter() - start
    print(f"{workload.name}: {tally.attempted} runs in {elapsed:.1f} s", file=sys.stderr)
    for command, w in walls.items():
        runs = " ".join(f"{x:.3f}" for x in w)
        print(f"  {command.label:40} median {statistics.median(w):.3f} s of {runs}",
              file=sys.stderr)
    metrics = {
        "wall_s": sum(statistics.median(w) for w in walls.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "report_mb": report_bytes / 1e6,
    }
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[tuple[Command, dict]]) -> dict[str, float]:
    """Per-layer metrics from the traced runs of one workload."""
    calls, failed, group_s, self_s, counts = (Counter() for _ in range(5))
    sample_pairs = sample_yes = sample_classify = 0
    for command, summary in summaries:
        calls.update(summary["calls"])
        failed.update(summary["failed"])
        group_s.update(summary["group_s"])
        self_s.update(summary["self_s"])
        counts.update(summary["counts"])
        if command.samples:
            sample_pairs += summary["counts"].get("pairs", 0)
            sample_yes += summary["counts"].get("pairs_yes", 0)
            sample_classify += sum(
                summary["calls_under"].get((name, tracer.STREAM_SPAN), 0)
                for name in STREAM_CLASSIFY
            )
    dense = calls["quantum_protocol.round_accept_probability"]
    fast = calls["quantum_protocol.round_accept_probability_fast"]
    words = calls["automata.accept_probability"]
    searches = sum(calls[name] for name in SEARCHES)
    refused = sum(failed[name] for name in SEARCHES)
    metrics = {name: group_s[name] for name in GROUPS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v for name, v in self_s.items() if name.split(".", 1)[0] == layer
        )
    metrics.update({
        "bits.classify_calls": calls["bits.classify_disj_promise"],
        "quantum_protocol.rounds": dense + fast,
        "quantum_protocol.round_dense_us": _ratio(group_s["quantum_protocol.round_dense_s"], dense) * 1e6,
        "randomized_protocol.runs": calls["randomized_protocol.run_one_way"],
        "randomized_protocol.mc_trials": counts["mc_trials"],
        "automata.words": words,
        "automata.accept_us": _ratio(group_s["automata.accept_s"], words) * 1e6,
        "bounds.searches": searches,
        "bounds.searches_refused": refused,
        "bounds.decided_ratio": _ratio(searches - refused, searches),
        "cli.pairs": counts["pairs"],
        "cli.pairs_yes": counts["pairs_yes"],
        "cli.sample_pairs_yes": sample_yes,
        "cli.sample_accept_ratio": _ratio(sample_pairs, sample_classify),
        "cli.rng_calls": calls[tracer.RNG_SPAN],
        "cli.sweep_self_s": self_s[tracer.ROOT_SPAN] + self_s[tracer.STREAM_SPAN],
        "trace.spans": sum(calls.values()),
    })
    return metrics


def run_traced(workload: Workload, seed: int, work: Path):
    tally = Tally()
    warm_up(work)
    setups, plain, traced, summaries = [], {}, {}, []
    report_bytes = 0
    for command in workload.commands:
        setups.append(time_setup(work))
        outcome = run_command(command, seed, work, check=True)
        tally.record(command, outcome)
        plain[command] = outcome.run.wall_s
    setup = statistics.median(setups)
    spans = work / "spans.bin"
    for command in workload.commands:
        outcome = run_command(command, seed, work, check=True, spans=spans)
        tally.record(command, outcome)
        traced[command] = outcome.run.wall_s
        report_bytes += outcome.nbytes
        if spans.is_file():
            summaries.append((command, tracer.summarize(str(spans), GROUPS)))
            spans.unlink()
    probes_failed = 0
    for probe in workload.probes:
        outcome = run_command(probe, seed, work, check=True)
        if outcome.problems:
            probes_failed += 1
            print(f"probe {probe.label} failed: {'; '.join(outcome.problems)}",
                  file=sys.stderr)
    metrics = layer_metrics(summaries)
    for name in COMMAND_METRICS:
        metrics[name] = sum(w for c, w in plain.items() if c.metric == name)
    # set-up (interpreter start and import) is never traced, so both
    # ratios compare the work after it
    plain_work = sum(w - setup for w in plain.values())
    traced_work = sum(w - setup for w in traced.values())
    metrics.update({
        "cli.report_bytes": report_bytes,
        "probe.attempted": len(workload.probes),
        "probe.failed": probes_failed,
        "trace.overhead_ratio": _ratio(traced_work, plain_work),
        "trace.self_sum_ratio": _ratio(sum(s["root_s"] for _, s in summaries), plain_work),
    })
    return tally, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            tally, metrics = run_traced(workload, seed, work)
        else:
            tally, metrics = run_end_to_end(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"  {workload.name:18} {name:36} {value:14.6f} {unit}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "promisecc" / "__init__.py").is_file():
        print(f"promisecc sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
