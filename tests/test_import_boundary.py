"""The package loads numpy on first use: commands that build no array never
import it.

``bounds`` and ``reduction`` search tuples and int bitmasks, so neither
the import of the package nor those commands may load numpy.  Each case
runs in a fresh interpreter, which reports at exit whether numpy is in
``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Prints, at interpreter exit, whether numpy was ever imported.
_AT_EXIT = "import atexit, sys; atexit.register(lambda: print('numpy' in sys.modules)); "
#: ``python -m promisecc`` with the arguments that follow.
_CLI = "import runpy; runpy.run_module('promisecc', run_name='__main__')"


def _numpy_loaded(code: str, args: list, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _AT_EXIT + code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_import_does_not_load_numpy(tmp_path):
    assert _numpy_loaded("import promisecc", [], tmp_path) == "False"


@pytest.mark.parametrize("command", ["bounds", "reduction"])
def test_exact_commands_do_not_load_numpy(command, tmp_path):
    args = ["--cmd", command, "--n", "4", "--out", str(tmp_path / "r.json")]
    assert _numpy_loaded(_CLI, args, tmp_path) == "False"
    assert (tmp_path / "r.json").exists()


def test_a_sweep_loads_numpy(tmp_path):
    # the probe itself sees numpy when a command does use it
    args = ["--cmd", "quantum-sweep", "--n", "4", "--out", str(tmp_path / "r.json")]
    assert _numpy_loaded(_CLI, args, tmp_path) == "True"
