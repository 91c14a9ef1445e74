"""Seeded experiment sweeps that write reproducible report files.

The same runner backs the `promisecc` console script and the library
call: pick a command, a size, and a seed, and get a report whose bytes
depend only on those choices. This script runs two sweeps to a scratch
directory, reruns one to show byte equality, and renders a CSV variant.
"""

import tempfile
from pathlib import Path

from promisecc import ExperimentConfig, run_experiment

with tempfile.TemporaryDirectory(prefix="promisecc-demo-") as tmp:
    scratch = Path(tmp)
    print(f"writing reports under {scratch}")

    # -------------------------------------------------------------------------
    # An exhaustive quantum sweep at n=4: every promise pair simulated, a
    # summary record at the end. Records are JSON lines with sorted keys.
    # -------------------------------------------------------------------------
    quantum_out = scratch / "quantum.json"
    cfg = ExperimentConfig(command="quantum-sweep", n=4, out=str(quantum_out))
    code = run_experiment(cfg)
    lines = quantum_out.read_text().splitlines()
    print(f"\nquantum-sweep exit={code}, {len(lines)} records")
    print(f"first record: {lines[0][:76]}...")
    print(f"summary:      {lines[-1][:76]}...")

    # -------------------------------------------------------------------------
    # A sampled classical sweep is driven entirely by the seed: rerunning
    # with the same seed reproduces the file byte for byte.
    # -------------------------------------------------------------------------
    blobs = []
    for tag in ("first", "second"):
        out = scratch / f"classical-{tag}.json"
        cfg = ExperimentConfig(
            command="classical-sweep", n=8, mode="sample", samples=50, seed=19,
            out=str(out),
        )
        run_experiment(cfg)
        blobs.append(out.read_bytes())
    print(f"\nclassical-sweep twice with seed 19: "
          f"{'byte-identical' if blobs[0] == blobs[1] else 'DIFFER'} "
          f"({len(blobs[0])} bytes)")

    # -------------------------------------------------------------------------
    # The same run renders as CSV with a fixed column set per command.
    # -------------------------------------------------------------------------
    csv_out = scratch / "classical.csv"
    cfg = ExperimentConfig(
        command="classical-sweep", n=8, mode="sample", samples=50, seed=19,
        fmt="csv", out=str(csv_out),
    )
    run_experiment(cfg)
    head = csv_out.read_text().splitlines()
    print(f"\nCSV header: {head[0]}")
    print(f"row sample: {head[1][:76]}...")

# ---------------------------------------------------------------------------
# The console script exposes the identical runs, for example:
#   promisecc --cmd bounds --n 3 --out bounds.json
#   promisecc --cmd quantum-sweep --n 6 --lambda 1/6 --mode sample \
#       --samples 200 --seed 7 --format csv
# Unset --out and the file lands in PROMISECC_OUT_DIR (default the
# working directory) under <cmd>-n<n>-seed<seed>.<ext>. Exit codes:
# 0 success, 1 bad configuration, 2 a sweep invariant failed.
# ---------------------------------------------------------------------------
print("\nsee `promisecc --help` for the command-line form of these runs")
