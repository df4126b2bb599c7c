"""The benchmark's per-layer span targets must name live pmdkit objects.

`perfbench/tracing.py` wraps every name in its TARGETS list; a refactor
that drops or renames one would make a traced benchmark pass raise at
install time.  This catches it in the unit tests instead.
"""

import importlib.util
from pathlib import Path

import pmdkit.cli  # noqa: F401  (binds every module the targets live in)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_install_and_restore_cleanly():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
