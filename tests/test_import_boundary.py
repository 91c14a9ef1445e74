"""The package loads numpy on first use: commands that build no array never
import it, and no command loads ``numpy.ma``.

``bounds`` and ``reduction`` search tuples and int bitmasks, so neither
the import of the package nor those commands may load numpy.  The sweeps
load numpy but not ``numpy.ma``, which some numpy calls import on their
first use (``np.unique`` without ``return_inverse``, in numpy 2.4) and
which adds about 1 MB to a sweep's peak RSS.  Each case runs in a fresh
interpreter, which reports at exit whether the module is in
``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: ``python -m promisecc`` with the arguments that follow.
_CLI = "import runpy; runpy.run_module('promisecc', run_name='__main__')"


def _loaded(module: str, code: str, args: list, cwd) -> str:
    """Run ``code`` with ``args``; whether ``module`` was ever imported."""
    at_exit = f"import atexit, sys; atexit.register(lambda: print({module!r} in sys.modules)); "
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", at_exit + code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_import_does_not_load_numpy(tmp_path):
    assert _loaded("numpy", "import promisecc", [], tmp_path) == "False"


@pytest.mark.parametrize("command", ["bounds", "reduction"])
def test_exact_commands_do_not_load_numpy(command, tmp_path):
    args = ["--cmd", command, "--n", "4", "--out", str(tmp_path / "r.json")]
    assert _loaded("numpy", _CLI, args, tmp_path) == "False"
    assert (tmp_path / "r.json").exists()


def test_a_sweep_loads_numpy(tmp_path):
    # the probe itself sees numpy when a command does use it
    args = ["--cmd", "quantum-sweep", "--n", "4", "--out", str(tmp_path / "r.json")]
    assert _loaded("numpy", _CLI, args, tmp_path) == "True"


#: Each sweep at an n the benchmark runs, exhaustive and sampled.
_SWEEPS = {
    "quantum-n8": ["--cmd", "quantum-sweep", "--n", "8"],
    "classical-n8": ["--cmd", "classical-sweep", "--n", "8"],
    "qcfa-n6": ["--cmd", "qcfa-sweep", "--n", "6"],
    "quantum-n48-sample": ["--cmd", "quantum-sweep", "--n", "48", "--mode", "sample",
                           "--samples", "300", "--seed", "1"],
    "classical-n32-sample": ["--cmd", "classical-sweep", "--n", "32", "--mode", "sample",
                             "--samples", "3000", "--k", "1", "--seed", "1"],
    "qcfa-n32-sample": ["--cmd", "qcfa-sweep", "--n", "32", "--mode", "sample",
                        "--samples", "300", "--seed", "1"],
}


@pytest.mark.parametrize("sweep", _SWEEPS)
def test_sweeps_do_not_load_numpy_ma(sweep, tmp_path):
    args = [*_SWEEPS[sweep], "--out", str(tmp_path / "r.json")]
    assert _loaded("numpy.ma", _CLI, args, tmp_path) == "False"
