"""Each command loads only what it runs.

The package imports its modules on first use, and each sweep imports the
model modules it runs, so:

* ``import promisecc`` loads no module of the package, no numpy and no
  ``dataclasses`` (whose import brings ``inspect``, ``ast`` and ``dis``);
* ``bounds`` and ``reduction`` search tuples and int bitmasks, so neither
  loads numpy, and ``bounds`` loads no automaton or protocol module;
* no sweep loads ``bounds``, and no command loads ``dataclasses``;
* the sweeps load numpy but not ``numpy.ma``, which some numpy calls
  import on their first use (``np.unique`` without ``return_inverse``, in
  numpy 2.4) and which adds about 1 MB to a sweep's peak RSS.

Each case runs in a fresh interpreter, which reports at exit which of the
modules in question it ever imported.
"""

import importlib
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

import promisecc

ROOT = Path(__file__).resolve().parent.parent

#: ``python -m promisecc`` with the arguments that follow.
_CLI = "import runpy; runpy.run_module('promisecc', run_name='__main__')"

_MODELS = {"promisecc.automata", "promisecc.qsim", "promisecc.quantum_protocol",
           "promisecc.randomized_protocol"}


@lru_cache(maxsize=None)
def _loaded(code: str, args: tuple = ()) -> frozenset:
    """Run ``code`` with ``args`` in a fresh interpreter, in a scratch
    directory that takes its report; the modules it ever imported."""
    at_exit = ("import atexit, sys; "
               "atexit.register(lambda: print(' '.join(sys.modules))); ")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", at_exit + code, *args]
    with tempfile.TemporaryDirectory() as work:
        run = subprocess.run(argv + (["--out", "r.json"] if args else []), cwd=work,
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert not args or (Path(work) / "r.json").exists()
    return frozenset(run.stdout.splitlines()[-1].split())


def _command(*args) -> frozenset:
    return _loaded(_CLI, args)


def test_import_does_not_load_numpy():
    assert "numpy" not in _loaded("import promisecc")


def test_import_loads_no_module_of_the_package_and_no_dataclasses():
    loaded = _loaded("import promisecc")
    assert not {m for m in loaded if m.startswith("promisecc.")}
    assert "dataclasses" not in loaded


def test_exports_resolve_on_first_use():
    code = (
        "import sys, promisecc\n"
        "from promisecc import automata, BitString\n"
        "assert automata.__name__ == 'promisecc.automata'\n"
        "assert promisecc.BitString is BitString is sys.modules['promisecc.bits'].BitString\n"
        "assert 'promisecc.bounds' not in sys.modules\n"
        "try:\n"
        "    promisecc.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "from promisecc import *\n"
        "assert check_rectangle_bound.__module__ == 'promisecc.bounds'\n"
    )
    assert "promisecc.automata" in _loaded(code)


def test_every_export_is_its_module_attribute():
    for module, names in promisecc._EXPORTS.items():
        owner = importlib.import_module(f"promisecc.{module}")
        for name in names:
            assert getattr(promisecc, name) is getattr(owner, name)


@pytest.mark.parametrize("command", ["bounds", "reduction"])
def test_exact_commands_do_not_load_numpy(command):
    assert "numpy" not in _command("--cmd", command, "--n", "4")


def test_bounds_loads_no_automaton_or_protocol_module():
    loaded = _command("--cmd", "bounds", "--n", "4")
    assert "promisecc.bounds" in loaded
    assert not loaded & _MODELS


def test_a_sweep_loads_numpy():
    # the probe itself sees numpy when a command does use it
    assert "numpy" in _command("--cmd", "quantum-sweep", "--n", "4")


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
def test_sweeps_do_not_load_numpy_ma(sweep):
    assert "numpy.ma" not in _command(*_SWEEPS[sweep])


@pytest.mark.parametrize("sweep", _SWEEPS)
def test_sweeps_do_not_load_bounds(sweep):
    assert "promisecc.bounds" not in _command(*_SWEEPS[sweep])


@pytest.mark.parametrize("args", [
    *_SWEEPS.values(),
    ["--cmd", "bounds", "--n", "4"],
    ["--cmd", "reduction", "--n", "4"],
], ids=[*_SWEEPS, "bounds", "reduction"])
def test_no_command_loads_dataclasses(args):
    assert "dataclasses" not in _command(*args)
