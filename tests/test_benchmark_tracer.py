"""The benchmark calls liecodes by name, keyword and position; each call
must still work, plain and under the tracer that rebinds those names."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_bound_names():
    tracing = _load("tracing")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.PATCHES if not hasattr(owner, attr)]
    assert not missing, f"perfbench/tracing.py patches names that are gone: {missing}"


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_workloads_pass_their_checks_and_digests(traced):
    workloads, tracing = _load("workloads"), _load("tracing")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workloads.warm_up()
    for name, workload_class in workloads.WORKLOADS.items():
        workload, checks = workload_class(1), workloads.Checks()
        if traced:
            with tracing.Tracer():
                out = workload.run()
        else:
            out = workload.run()
        workload.check(out, checks)
        assert checks.failed == 0, f"{name}: {checks.failures}"
        assert workload.digests(out) == reference[name], name
