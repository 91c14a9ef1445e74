"""The benchmark tracer wraps package attributes by name; every name must resolve.

``perfbench/tracer.py`` replaces module attributes listed in ENTRY_POINTS
and PAIR_STREAMS through ``getattr``, so a renamed or deleted entry point
would break ``perfbench/run.py --trace 1``.  The tracer is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(owner, path: str) -> bool:
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_entry_points_resolve():
    missing = [
        f"{module}.{path}"
        for module, path in _tracer().ENTRY_POINTS
        if not _resolves(importlib.import_module(f"promisecc.{module}"), path)
    ]
    assert not missing


def test_pair_streams_resolve():
    cli = importlib.import_module("promisecc.cli")
    missing = [name for name in _tracer().PAIR_STREAMS if not _resolves(cli, name)]
    assert not missing
