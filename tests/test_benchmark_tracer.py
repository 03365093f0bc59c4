"""The benchmark's tracer rebinds liecodes names; each must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_patches_bound_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.PATCHES if not hasattr(owner, attr)]
    assert not missing, f"perfbench/tracing.py patches names that are gone: {missing}"
