"""End-to-end checks of every headline guarantee, one printed verdict each.

Each test sweeps a full input class (or a pinned random sample where the
guarantee is statistical), compares against formulas computed inline rather
than against library helpers, and prints a single PASS/FAIL line so the
whole contract is auditable from the test log.
"""

import math
import time
from fractions import Fraction

import numpy as np

from promisecc import (
    BitString,
    Margin,
    PromiseLabel,
    accept_probabilities,
    bruteforce_disjointness_dfa,
    check_rectangle_bound,
    classify_disj_promise,
    detection_frequency,
    disjointness_automaton,
    disjointness_word,
    equality_automaton,
    equality_word,
    exact_detection_probability,
    exact_deterministic_cc,
    problem_matrix,
    protocol_from_dfa,
    qubit_cost,
    repetition_count,
    round_accept_probabilities,
    round_accept_probability,
    round_accept_probability_fast,
    run_one_way,
    verify_promise_dfa,
)
from promisecc.cli import EXIT_OK, ExperimentConfig, run_experiment

PROB_TOL = 1e-9


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _popcount(v: int) -> int:
    return bin(v).count("1")


def test_single_round_sweep_matches_interference_form(capsys):
    # Simulated acceptance must equal |(1/n) sum_i (-1)^(x_i and y_i)|^2 on
    # every pair, certainty on disjoint pairs, at most 1/4 on the No band.
    n = 4
    start = time.perf_counter()
    worst_dev = yes_dev = no_max = 0.0
    for xv in range(1 << n):
        x = BitString(xv, n)
        for yv in range(1 << n):
            p = round_accept_probability(x, BitString(yv, n))
            signed = sum(
                -1 if (xv >> i) & (yv >> i) & 1 else 1 for i in range(n)
            ) / n
            worst_dev = max(worst_dev, abs(p - signed * signed))
            m = _popcount(xv & yv)
            if m == 0:
                yes_dev = max(yes_dev, abs(p - 1.0))
            elif 1 <= m <= 3:
                no_max = max(no_max, p)
    elapsed = time.perf_counter() - start
    ok = (
        worst_dev <= PROB_TOL
        and yes_dev <= PROB_TOL
        and no_max <= 0.25 + PROB_TOL
        and elapsed < 1.0
    )
    _verdict(
        capsys,
        "quantum single-round sweep (n=4, all 256 pairs)",
        ok,
        f"form_dev={worst_dev:.1e} yes_dev={yes_dev:.1e} "
        f"no_max={no_max:.4f} {elapsed:.2f}s",
    )


def test_repetition_count_caps_no_acceptance_at_one_third(capsys):
    n = 8
    start = time.perf_counter()
    # one batched dense round over all pairs, x-major
    xs, ys = np.divmod(np.arange(1 << (2 * n)), 1 << n)
    singles = np.array(
        round_accept_probabilities(xs.tolist(), ys.tolist(), n)
    ).reshape(1 << n, 1 << n)
    meets = np.array(
        [[_popcount(xv & yv) for yv in range(1 << n)] for xv in range(1 << n)]
    )
    parts, ok = [], True
    for margin in (Fraction(1, 4), Fraction(1, 8)):
        k = repetition_count(margin, Fraction(1, 3))
        k_cap = math.ceil(math.log(3) / (3 * float(margin)))
        band = (meets >= margin * n) & (meets <= (1 - margin) * n)
        worst = float((singles[band] ** k).max())
        good = worst <= 1 / 3 + PROB_TOL and k <= k_cap
        ok = ok and good
        parts.append(f"lam={margin}: k={k}<={k_cap} worst={worst:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(
        capsys,
        "amplified quantum error (n=8, all 65536 pairs)",
        ok,
        "; ".join(parts) + f" {elapsed:.1f}s",
    )


def test_qubit_cost_is_three_plus_two_log(capsys):
    expected = {4: 7, 16: 11, 1024: 23}
    results = {n: qubit_cost(n, 1) for n in expected}
    ok = all(
        results[n] == expected[n] == 3 + 2 * round(math.log2(n))
        for n in expected
    )
    _verdict(
        capsys,
        "single-round qubit budget",
        ok,
        ", ".join(f"n={n}: {results[n]}" for n in sorted(results)),
    )


def test_one_way_sampling_error_profile(capsys):
    # Disjoint pairs never err (checked over a thousand trials each when the
    # run is randomized, structurally when the literal branch fires), every
    # No pair with enough sampled positions errs at most (3/4)^5, and Monte
    # Carlo frequencies sit within three sigma of the exact values.
    n, k = 8, 5
    start = time.perf_counter()
    trials_per_yes = 1000
    yes_detect_max = 0.0
    literal_bad = sampled_yes = literal_yes = 0
    for xv in range(1 << n):
        x = BitString(xv, n)
        for yv in range(1 << n):
            if xv & yv:
                continue
            y = BitString(yv, n)
            if _popcount(xv) >= k:
                rng = np.random.default_rng((401, xv, yv))
                freq = detection_frequency(x, y, k, trials_per_yes, rng)
                yes_detect_max = max(yes_detect_max, freq)
                sampled_yes += 1
            else:
                report = run_one_way(x, y, k, np.random.default_rng(0))
                if (
                    not report.literal_branch
                    or report.decision != 1
                    or report.exact_error_probability != 0.0
                ):
                    literal_bad += 1
                literal_yes += 1

    err_cap = 0.75**k
    err_worst = 0.0
    heavy_no = []
    for xv in range(1 << n):
        if _popcount(xv) < k:
            continue
        x = BitString(xv, n)
        for yv in range(1 << n):
            m = _popcount(xv & yv)
            if not 2 <= m <= 6:
                continue
            y = BitString(yv, n)
            err = 1.0 - exact_detection_probability(x, y, k)
            err_worst = max(err_worst, err)
            heavy_no.append((x, y))

    rng = np.random.default_rng(404)
    picks = rng.choice(len(heavy_no), size=20, replace=False)
    mc_trials = 100_000
    sigma_worst = 0.0
    for i, pick in enumerate(picks):
        x, y = heavy_no[pick]
        p = exact_detection_probability(x, y, k)
        freq = detection_frequency(
            x, y, k, mc_trials, np.random.default_rng((404, i))
        )
        sigma = abs(freq - p) / math.sqrt(p * (1.0 - p) / mc_trials)
        sigma_worst = max(sigma_worst, sigma)
    elapsed = time.perf_counter() - start

    ok = (
        yes_detect_max == 0.0
        and literal_bad == 0
        and err_worst <= err_cap + 1e-12
        and sigma_worst <= 3.0
    )
    _verdict(
        capsys,
        "randomized one-way error profile (n=8, k=5)",
        ok,
        f"yes: {sampled_yes}x{trials_per_yes} trials detect=0, "
        f"{literal_yes} literal ok; no: worst_err={err_worst:.4f}"
        f"<={err_cap:.4f} over {len(heavy_no)} pairs; "
        f"mc: {sigma_worst:.2f} sigma max; {elapsed:.1f}s",
    )


def test_equality_machine_is_exact_on_promise_words(capsys):
    parts, ok = [], True
    for n in (2, 4, 8):
        machine = equality_automaton(n)
        shape_ok = (
            len(machine.quantum_labels) == n
            and len(machine.classical_states) == n + 2
        )
        words, targets = [], []
        for xv in range(1 << n):
            x = BitString(xv, n)
            for yv in range(1 << n):
                d = _popcount(xv ^ yv)
                if d == 0:
                    targets.append(1.0)
                elif d == n // 2:
                    targets.append(0.0)
                else:
                    continue
                words.append(equality_word(x, BitString(yv, n)))
        # every word of this n in one batched run
        probabilities = accept_probabilities(machine, words)
        worst = max(abs(p - t) for p, t in zip(probabilities, targets))
        checked = len(words)
        good = shape_ok and worst <= PROB_TOL
        ok = ok and good
        parts.append(f"n={n}: {checked} words dev={worst:.1e}")
    _verdict(capsys, "equality machine exactness (n=2,4,8)", ok, "; ".join(parts))


def test_disjointness_machine_tracks_protocol(capsys):
    parts, ok = [], True

    def check(n, pair_iter, count_hint):
        machine = disjointness_automaton(n)
        shape_ok = (
            len(machine.quantum_labels) == 2 * n
            and len(machine.classical_states) == 2 * n + 2
        )
        dev = yes_dev = no_max = 0.0
        checked = 0
        pairs = list(pair_iter)
        # every word in one batched run, each fast round alone
        probabilities = accept_probabilities(
            machine, [disjointness_word(x, y) for x, y, _ in pairs]
        )
        for (x, y, m), p in zip(pairs, probabilities):
            dev = max(dev, abs(p - round_accept_probability_fast(x, y)))
            if m == 0:
                yes_dev = max(yes_dev, abs(p - 1.0))
            else:
                no_max = max(no_max, p)
            checked += 1
        good = (
            shape_ok
            and dev <= PROB_TOL
            and yes_dev <= PROB_TOL
            and no_max <= 0.25 + PROB_TOL
        )
        return good, f"n={n}: {checked}/{count_hint} words dev={dev:.1e} no_max={no_max:.4f}"

    def full_n4():
        for xv in range(16):
            for yv in range(16):
                m = _popcount(xv & yv)
                if m == 0 or 1 <= m <= 3:
                    yield BitString(xv, 4), BitString(yv, 4), m

    def sampled_n8():
        rng = np.random.default_rng(606)
        seen = 0
        while seen < 10_000:
            xv, yv = (int(v) for v in rng.integers(0, 256, size=2))
            m = _popcount(xv & yv)
            if m == 0 or 2 <= m <= 6:
                seen += 1
                yield BitString(xv, 8), BitString(yv, 8), m

    for n, pairs, hint in ((4, full_n4(), "all promise"), (8, sampled_n8(), "sampled")):
        good, msg = check(n, pairs, hint)
        ok = ok and good
        parts.append(msg)
    _verdict(capsys, "disjointness machine vs protocol", ok, "; ".join(parts))


def test_exact_deterministic_cost_is_n_plus_one(capsys):
    start = time.perf_counter()
    parts, ok = [], True
    for n in (1, 2):
        for kind in ("eq", "disj"):
            matrix = problem_matrix(kind, n)
            depth = exact_deterministic_cc(matrix)
            report = check_rectangle_bound(matrix)
            good = depth == n + 1 and report.holds is True
            ok = ok and good
            parts.append(f"{kind} n={n}: D={depth} bound_ok={report.holds}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(
        capsys,
        "exact deterministic cost (n=1,2)",
        ok,
        "; ".join(parts) + f" {elapsed:.1f}s",
    )


def test_bruteforce_dfa_reduction_respects_lower_bound(capsys):
    n = 4
    start = time.perf_counter()
    dfa = bruteforce_disjointness_dfa(n)
    promise_ok = verify_promise_dfa(dfa, n)
    protocol = protocol_from_dfa(dfa, n)
    wrong = 0
    for xv in range(1 << n):
        x = BitString(xv, n)
        for yv in range(1 << n):
            m = _popcount(xv & yv)
            if m == 0:
                want = 1
            elif 1 <= m <= 3:
                want = 0
            else:
                continue
            if protocol.decide(x, BitString(yv, n)) != want:
                wrong += 1
    cost_law = protocol.cost == 1 + 2 * math.ceil(math.log2(dfa.size))
    min_cc = exact_deterministic_cc(
        problem_matrix("promise_disj", n, Margin(Fraction(1, 4), n))
    )
    elapsed = time.perf_counter() - start
    ok = promise_ok and wrong == 0 and cost_law and protocol.cost >= min_cc
    _verdict(
        capsys,
        "brute-force automaton reduction (n=4)",
        ok,
        f"states={dfa.size} cost={protocol.cost}>=D={min_cc} "
        f"wrong={wrong} {elapsed:.1f}s",
    )


def test_complement_band_forms_large_yes_family(capsys):
    parts, ok = [], True
    bands = {}
    for n, want_size in ((4, 14), (8, 238)):
        margin = Margin(Fraction(1, 4), n)
        band = [
            BitString(v, n) for v in range(1 << n)
            if n // 4 <= v.bit_count() <= n - n // 4
        ]
        bands[n] = band
        size_ok = len(band) == want_size and len(band) >= (1 << n) // 2
        all_yes = all(
            classify_disj_promise(x, ~x, margin) is PromiseLabel.YES for x in band
        )
        ok = ok and size_ok and all_yes
        parts.append(f"n={n}: |F|={len(band)}>={(1 << n) // 2} all_yes={all_yes}")
    margin4 = Margin(Fraction(1, 4), 4)
    witness = next(
        (
            (x, z) for x in bands[4] for z in bands[4]
            if z != x and classify_disj_promise(z, ~x, margin4) is PromiseLabel.NO
        ),
        None,
    )
    wit_ok = False
    if witness is not None:
        x, z = witness
        overlap = (z.value & ~x.value).bit_count()  # |z & ~x|, counted inline
        wit_ok = 1 <= overlap <= 3
        parts.append(f"cross ({z},{~x}) overlaps in {overlap}: No")
    ok = ok and wit_ok
    _verdict(capsys, "complement-pair yes family", ok, "; ".join(parts))


def test_reports_are_byte_reproducible(capsys, tmp_path):
    configs = [
        dict(command="quantum-sweep", n=4),
        dict(
            command="classical-sweep", n=6, margin_text="1/6",
            mode="sample", samples=30, seed=9,
        ),
        dict(command="qcfa-sweep", n=2),
        dict(command="bounds", n=2),
        dict(command="reduction", n=2),
    ]
    parts, ok = [], True
    for base in configs:
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{base['command']}-{tag}"
            cfg = ExperimentConfig(**base, out=str(out))
            good = run_experiment(cfg) == EXIT_OK
            ok = ok and good
            blobs.append(out.read_bytes())
        same = blobs[0] == blobs[1]
        ok = ok and same
        parts.append(f"{base['command']}={'same' if same else 'DIFFERS'}")
    _verdict(capsys, "report byte reproducibility", ok, "; ".join(parts))
