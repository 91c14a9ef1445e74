"""Outside-in span tracing of one promisecc CLI run.

Run as::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_FILE -- CLI_ARGS...

It imports the package, replaces the public entry points of every module
with timing wrappers (module attributes only: nothing under ``src/``
changes), runs ``promisecc.cli.main(CLI_ARGS)`` inside a root span and, at
exit, writes every span to SPANS_FILE.  A span is a name, a start, an end,
the span that was open when it began, and whether it raised.  Spans are
kept in flat arrays, so that a sweep with a million calls stays small.

``summarize`` reads such a file back and reduces it to call counts,
inclusive times per group of names and self time per span name.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "cli.main"
STREAM_SPAN = "cli.pair_stream"
RNG_SPAN = "cli.default_rng"

#: Entry points wrapped where their callers look them up: (module whose
#: attribute is replaced, attribute path).  The span is named after the
#: module that defines the function, so ``classify_disj_promise`` looked up
#: in ``cli`` is still a ``bits`` span.  Every public ``qsim`` function but
#: QSIM_UNWRAPPED is wrapped as well (see ``_entry_points``).
ENTRY_POINTS = (
    ("cli", "classify_disj_promise"),
    ("quantum_protocol", "classify_disj_promise"),
    ("bounds", "classify_disj_promise"),
    ("quantum_protocol", "run_protocol"),
    ("quantum_protocol", "round_accept_probability"),
    ("quantum_protocol", "round_accept_probability_fast"),
    ("randomized_protocol", "run_one_way"),
    ("randomized_protocol", "exact_detection_probability"),
    ("randomized_protocol", "detection_frequency"),
    ("automata", "equality_automaton"),
    ("automata", "disjointness_automaton"),
    ("automata", "equality_word_problem"),
    ("automata", "disjointness_word_problem"),
    ("automata", "accept_probability"),
    ("automata", "WordProblem.classify"),
    ("automata", "bruteforce_disjointness_dfa"),
    ("automata", "verify_promise_dfa"),
    ("automata", "protocol_from_dfa"),
    ("automata", "DfaProtocol.decide"),
    ("bounds", "problem_matrix"),
    ("bounds", "check_rectangle_bound"),
    ("bounds", "exact_deterministic_cc"),
    ("bounds", "min_monochromatic_partition"),
    ("bounds", "verify_partition"),
    ("cli", "render_report"),
)

#: ``pair_index`` is an index helper that every operator build calls once per
#: bit; a span around it costs more than its body and would inflate the
#: operator-build time it sits in.
QSIM_UNWRAPPED = ("pair_index",)

#: Generators in ``cli`` that yield (x, y, label) pairs; each ``next`` is
#: one STREAM_SPAN, so classification calls made while drawing a pair are
#: its children.
PAIR_STREAMS = ("_pair_stream", "_word_pair_stream")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.failed = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        names, parents, failed = self.name, self.parent, self.failed
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_stream(self, gen_fn, yes_label):
        """Wrap a pair generator: one span per ``next`` and pair counts."""
        step = self.wrap(STREAM_SPAN, next)
        counts = self.counts

        def stream(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts["pairs"] += 1
                if item[2] is yes_label:
                    counts["pairs_yes"] += 1
                yield item

        return stream

    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "spans": len(self.start),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.failed, self.start, self.end):
                arr.tofile(fh)


class _Namespace:
    """Attribute view of ``base`` with a few attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._base, attr)


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _entry_points(modules):
    """(owner object, attribute) pairs to wrap, ENTRY_POINTS plus qsim.*."""
    qsim = modules["qsim"]
    points = [(qsim, attr) for attr, fn in vars(qsim).items()
              if inspect.isfunction(fn) and fn.__module__ == qsim.__name__
              and not attr.startswith("_") and attr not in QSIM_UNWRAPPED]
    for mod_name, path in ENTRY_POINTS:
        owner = modules[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        points.append((owner, attr))
    return points


def install(tracer: Tracer):
    """Wrap the package's entry points; return the wrapped ``cli.main``."""
    import numpy as np
    from promisecc import (automata, bits, bounds, cli, qsim,
                           quantum_protocol, randomized_protocol)

    modules = {
        "automata": automata, "bounds": bounds, "cli": cli, "qsim": qsim,
        "quantum_protocol": quantum_protocol,
        "randomized_protocol": randomized_protocol,
    }
    for owner, attr in _entry_points(modules):
        fn = getattr(owner, attr)
        if attr == "detection_frequency":
            fn = _count_trials(tracer, fn)
        setattr(owner, attr, tracer.wrap(f"{_layer(fn)}.{fn.__qualname__}", fn))
    for attr in PAIR_STREAMS:
        setattr(cli, attr, tracer.wrap_stream(getattr(cli, attr), bits.PromiseLabel.YES))
    rng = tracer.wrap(RNG_SPAN, np.random.default_rng)
    cli.np = _Namespace(np, random=_Namespace(np.random, default_rng=rng))
    return tracer.wrap(ROOT_SPAN, cli.main)


def _count_trials(tracer: Tracer, fn):
    def detection_frequency(x, y, k, trials, rng):
        tracer.counts["mc_trials"] += trials
        return fn(x, y, k, trials, rng)

    detection_frequency.__module__ = fn.__module__
    detection_frequency.__qualname__ = fn.__qualname__
    return detection_frequency


# ---------------------------------------------------------------------------
# reading spans back
# ---------------------------------------------------------------------------

def load(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        size = header["spans"]
        arrays = []
        for code in ("i", "i", "b", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, size)
            arrays.append(arr)
    return header, arrays


def summarize(path: str, groups: dict[str, tuple[str, ...]]) -> dict:
    """Reduce one span file.

    Returns ``calls`` and ``failed`` per span name, ``group_s`` (the time
    covered by spans of each group of names, counting a span nested in
    another span of the same group once), ``self_s`` per span name (span
    duration minus its children's), ``root_s``, the child's ``counts`` and
    ``calls_under``, calls per (name, parent name).
    """
    header, (name, parent, failed, start, end) = load(path)
    names = header["names"]
    group_list = list(groups)
    mask_of = [0] * len(names)
    for bit, group in enumerate(group_list):
        for member in groups[group]:
            if member in names:
                mask_of[names.index(member)] |= 1 << bit
    size = len(name)
    dur = [end[i] - start[i] for i in range(size)]
    child_s = [0.0] * size
    anc_mask = [0] * size
    calls, fails = Counter(), Counter()
    calls_under = Counter()
    group_s = defaultdict(float)
    for i in range(size):
        nid, p = name[i], parent[i]
        calls[nid] += 1
        fails[nid] += failed[i]
        if p >= 0:
            child_s[p] += dur[i]
            anc_mask[i] = anc_mask[p] | mask_of[name[p]]
            calls_under[names[nid], names[name[p]]] += 1
        fresh = mask_of[nid] & ~anc_mask[i]
        while fresh:
            low = fresh & -fresh
            group_s[group_list[low.bit_length() - 1]] += dur[i]
            fresh ^= low
    self_s = defaultdict(float)
    root_s = 0.0
    for i in range(size):
        self_s[names[name[i]]] += dur[i] - child_s[i]
        if parent[i] < 0:
            root_s += dur[i]
    return {
        "calls": {names[k]: v for k, v in calls.items()},
        "failed": {names[k]: v for k, v in fails.items()},
        "group_s": {g: group_s.get(g, 0.0) for g in group_list},
        "self_s": dict(self_s),
        "root_s": root_s,
        "counts": header["counts"],
        "calls_under": dict(calls_under),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- CLI_ARGS...", file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
