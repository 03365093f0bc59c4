"""Spans around the public functions of each liecodes layer.

The tracer rebinds module attributes in the benchmark's own process; the
package source is not touched.  A name is patched where it is looked up:
`verify` and `cli` bind `analyze`, `build_weight_matrix` and friends at
import, so those bindings are replaced.  Spans then nest as they run: under
run_case come build, mod, rref and analyze, and under analyze comes
weight_distribution.

Spans stay in memory while a pass runs.  Self time (a span's duration minus
the part its child spans cover) is computed after the pass; every `.s` and
`.self_s` metric below is a self time, so the layer times of one pass plus
`trace.unattributed_s` add up to the pass's wall time (all scaled by the
pass's speed factor, see speed.py).
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from liecodes import cli, fieldcodes, repweights, verify


def _count_enum(counts: Counter, args, result) -> None:
    code = args[0]
    words = code.p ** code.k
    planes = 1 if code.p == 2 else 2
    counts["fieldcodes.enum.codewords"] += words
    counts["fieldcodes.enum.words64"] += words * planes * -(-code.n // 64)


def _count_rref(counts: Counter, args, result) -> None:
    counts["fieldcodes.rref.cells"] += args[0].rows * args[0].cols


def _count_build(counts: Counter, args, result) -> None:
    counts["repweights.build.cols"] += result.cols


# (owner, attribute, span name, extra counter); every span also counts calls
PATCHES = (
    (fieldcodes, "weight_distribution", "fieldcodes.enum", _count_enum),
    (verify, "analyze", "fieldcodes.flags", None),
    (cli, "analyze", "fieldcodes.flags", None),
    (fieldcodes, "rref", "fieldcodes.rref", _count_rref),
    (verify, "combination_weight", "fieldcodes.combination", None),
    (cli, "format_matrix_text", "fieldcodes.text", None),
    (fieldcodes, "parse_matrix_text", "fieldcodes.text", None),
    (repweights, "build_weight_matrix", "repweights.build", _count_build),
    (verify, "build_weight_matrix", "repweights.build", _count_build),
    (cli, "build_weight_matrix", "repweights.build", _count_build),
    (verify, "ext_weight_matrix_A", "repweights.build", _count_build),
    (verify, "adjoint_weight_matrix_A", "repweights.build", _count_build),
    (verify, "d_lambda2_matrix", "repweights.build", _count_build),
    (verify, "d_spin_matrix", "repweights.build", _count_build),
    (repweights.WeightMatrix, "mod", "repweights.mod", None),
    (repweights, "positive_roots", "rootsys.roots", None),
    (repweights, "weyl_orbit", "rootsys.roots", None),
    (verify, "reflect_coroot_coeffs", "rootsys.reflect", None),
    (verify, "run_case", "verify.run_case", None),
    (cli, "reproduce_table", "verify.tables", None),
    (verify, "branch_equivalences", "verify.branch", None),
    (verify, "weyl_invariance_violations", "verify.fuzz", None),
    (cli, "run", "cli.run", None),
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "fieldcodes.enum.s": "fieldcodes.enum",
    "fieldcodes.flags.s": "fieldcodes.flags",
    "fieldcodes.rref.s": "fieldcodes.rref",
    "fieldcodes.combination.s": "fieldcodes.combination",
    "fieldcodes.text.s": "fieldcodes.text",
    "repweights.build.s": "repweights.build",
    "repweights.mod.s": "repweights.mod",
    "rootsys.reflect.s": "rootsys.reflect",
    "rootsys.roots.s": "rootsys.roots",
    "verify.run_case.self_s": "verify.run_case",
    "verify.tables.s": "verify.tables",
    "verify.branch.s": "verify.branch",
    "verify.fuzz.s": "verify.fuzz",
    "cli.run.self_s": "cli.run",
}

# per-layer metric -> span whose calls it counts
CALLS = {
    "fieldcodes.rref.calls": "fieldcodes.rref",
    "fieldcodes.combination.calls": "fieldcodes.combination",
    "repweights.build.calls": "repweights.build",
    "rootsys.reflect.calls": "rootsys.reflect",
    "verify.run_case.calls": "verify.run_case",
    "cli.run.calls": "cli.run",
}

COUNTS = (
    "fieldcodes.enum.codewords",
    "fieldcodes.enum.words64",
    "fieldcodes.rref.cells",
    "repweights.build.cols",
)


class Tracer:
    """Installs the span wrappers and keeps the spans of the current pass.

    A span is [name, start, end, parent index]; the parent index is -1 for a
    span opened outside any other.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count in PATCHES:
            self._wrap(owner, attr, name, count)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def begin_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def pass_metrics(self, wall_s: float, scale: float) -> dict[str, float]:
        """Per-layer metrics of the pass just run, which took `wall_s`;
        times are multiplied by the pass's speed factor `scale`."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - covered[i]
            if parent < 0:
                roots += end - start
        out = {metric: self_s[span] * scale for metric, span in SELF_TIMES.items()}
        out.update({metric: self.counts[span + ".calls"] for metric, span in CALLS.items()})
        out.update({name: self.counts[name] for name in COUNTS})
        enum_s = out["fieldcodes.enum.s"]
        out["fieldcodes.enum.codewords_per_s"] = out["fieldcodes.enum.codewords"] / enum_s if enum_s else 0.0
        out["trace.unattributed_s"] = (wall_s - roots) * scale
        return out
