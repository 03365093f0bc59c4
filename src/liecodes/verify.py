"""Registry of the published code-parameter claims and the machinery that
checks every one of them by exact computation: Weyl-orbit counting over the
column templates of the sl(n) and o(2m) codes, exhaustive enumeration for
the exceptional ones.

Each registered case records the claimed (n, k, d) and flags; where the
stated value disagrees with exhaustive enumeration the case carries an
annotation holding the stated value, the expectation is the computed one,
and the suite reports the discrepancy instead of hiding it.  The same
convention covers the numeric weight tables: orbit weights counted from
the same templates, which the tests check by matrix products.
"""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .fieldcodes import CodeReport, LinearCode, analyze, distribution_report, row_space_code
from .repweights import (
    ModuleSpec,
    WeightMatrix,
    build_weight_matrix,
    module_templates,
    orbit_weight,
    template_columns,
    to_cartan_h,
)
from .rootsys import EXCEPTIONAL_RANKS, cartan_matrix, reflect_coroot_coeffs

# unused here: the benchmark's tracer rebinds these names in this module, so
# they stay bound until it wraps public entry points instead (ROADMAP item 1)
from .fieldcodes import combination_weight  # noqa: F401
from .repweights import adjoint_weight_matrix_A, d_lambda2_matrix, d_spin_matrix, ext_weight_matrix_A  # noqa: F401

__all__ = [
    "Annotation",
    "TheoremCase",
    "CaseResult",
    "SuiteReport",
    "VerifyLimits",
    "module_code",
    "registered_cases",
    "run_case",
    "run_suite",
    "to_json",
    "reproduce_table",
    "TABLE_IDS",
    "TableRow",
    "branch_equivalences",
    "BranchCheck",
    "weyl_invariance_violations",
]


@dataclass(frozen=True)
class Annotation:
    """A stated value superseded by computation, kept for the record."""

    stated: dict
    note: str


@dataclass(frozen=True)
class TheoremCase:
    """One claim: a module, the expected report, and its provenance note."""

    case_id: str
    spec: ModuleSpec
    expected_n: int
    expected_k: int
    expected_d: int
    self_orthogonal: bool | None  # None means: no claim either way
    doubly_even: bool | None
    citation: str
    annotation: Annotation | None = None
    optional: bool = False

    def expected_dict(self) -> dict:
        flags: dict = {}
        if self.self_orthogonal is not None:
            flags["self_orthogonal"] = self.self_orthogonal
        if self.doubly_even is not None:
            flags["doubly_even"] = self.doubly_even
        return {"n": self.expected_n, "k": self.expected_k, "d": self.expected_d, "flags": flags}


@dataclass(frozen=True)
class CaseResult:
    case: TheoremCase
    passed: bool
    skipped: bool
    mismatches: tuple[str, ...]
    report: CodeReport | None
    millis: float

    @property
    def case_id(self) -> str:
        return self.case.case_id


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CaseResult, ...]
    totals: dict
    discrepancies: tuple[dict, ...]


@dataclass(frozen=True)
class VerifyLimits:
    """Bounds on which registered cases run; beyond them cases are skipped."""

    max_n: int = 15  # sl(n) families
    max_m: int = 11  # o(2m) families
    # n * p^k budget of brute-force enumeration, k the computed rank; codes
    # counted by orbits (families A and D) are not enumerated and skip it
    max_work: int = 600_000_000


def _case(
    case_id: str,
    spec: ModuleSpec,
    n: int,
    k: int,
    d: int,
    *,
    orth: bool | None = None,
    deven: bool | None = None,
    citation: str,
    annotation: Annotation | None = None,
    optional: bool = False,
) -> TheoremCase:
    return TheoremCase(case_id, spec, n, k, d, orth, deven, citation, annotation, optional)


def registered_cases() -> tuple[TheoremCase, ...]:
    """Every claim the suite checks, in a fixed deterministic order."""
    cases: list[TheoremCase] = []

    # Binary code of the degree-2 exterior power of sl(2m).
    for m in range(2, 8):
        cases.append(
            _case(
                f"thm2.1/m={m}",
                ModuleSpec("A", 2 * m, "ext2", 2),
                m * (2 * m - 1),
                2 * (m - 1),
                4 * (m - 1),
                orth=True,
                deven=True,
                citation=f"binary weight code of sl({2 * m}) on its square exterior power",
            )
        )

    # Binary code of the cube exterior power of sl(n).
    cube_d = {6: 8, 7: 16}
    for n in (6, 7, 10, 11, 14, 15):
        cases.append(
            _case(
                f"thm2.2/n={n}",
                ModuleSpec("A", n, "ext3", 2),
                comb(n, 3),
                n - 1,
                cube_d.get(n, (n - 2) * (n - 3)),
                orth=True,
                deven=True,
                citation=f"binary weight code of sl({n}) on its cube exterior power",
            )
        )

    # Ternary square exterior codes of sl(3m+2).
    for n in (5, 8, 11):
        cases.append(
            _case(
                f"thm2.3/ext2/n={n}",
                ModuleSpec("A", n, "ext2", 3),
                comb(n, 2),
                n - 1,
                2 * (n - 2),
                orth=True,
                citation=f"ternary weight code of sl({n}) on its square exterior power",
            )
        )

    # Ternary cube exterior codes of sl(n), n = 0 or 2 mod 3.
    for n in (5, 6, 8, 9, 11, 12):
        if n % 3 == 0:
            k, d = n - 2, (n - 2) * (n - 3)
        else:
            k, d = n - 1, (n - 1) * (n - 2) // 2
        annotation = None
        if n == 6:
            annotation = Annotation(
                stated={"n": 15},
                note="stated length 15 contradicts the column count C(6,3) = 20",
            )
        cases.append(
            _case(
                f"thm2.3/ext3/n={n}",
                ModuleSpec("A", n, "ext3", 3),
                comb(n, 3),
                k,
                d,
                orth=True,
                citation=f"ternary weight code of sl({n}) on its cube exterior power",
                annotation=annotation,
            )
        )

    # Ternary code generated by the full matrix-unit rows on the cube power.
    for n in (5, 7):
        cases.append(
            _case(
                f"thm2.3/rowsE/n={n}",
                ModuleSpec("A", n, "ext3", 3, basis="matrix_unit_E"),
                comb(n, 3),
                n - 1,
                comb(n - 1, 2),
                citation=f"ternary code of the matrix-unit rows on the cube power of sl({n})",
            )
        )

    # Adjoint sl(n): matrix-unit rows, then the weight code for n = 3m.
    for n in range(4, 9):
        cases.append(
            _case(
                f"thm2.4/L/n={n}",
                ModuleSpec("A", n, "adjoint", 3, basis="matrix_unit_E"),
                comb(n, 2),
                n - 1,
                n - 1,
                citation=f"ternary code of the matrix-unit rows on the adjoint of sl({n})",
            )
        )
    for m in (2, 3):
        n = 3 * m
        cases.append(
            _case(
                f"thm2.4/K/m={m}",
                ModuleSpec("A", n, "adjoint", 3),
                comb(n, 2),
                n - 2,
                3 * (2 * m - 1),
                orth=True,
                citation=f"ternary weight code of sl({n}) on its adjoint module",
                annotation=Annotation(
                    stated={"d": 3 * (m - 1)},
                    note="stated distance 3(m-1) contradicts enumeration; all nonzero weights are 3(2m-1) or larger",
                ),
            )
        )

    # o(2m) square exterior codes, m = 1 mod 3.
    for m in (4, 7, 10):
        cases.append(
            _case(
                f"thm3.1/m={m}",
                ModuleSpec("D", m, "ext2", 3),
                m * (m - 1),
                m,
                2 * (m - 1),
                orth=True,
                citation=f"ternary weight code of o({2 * m}) on its square exterior power",
            )
        )

    # o(2m) cube exterior codes; orthogonal exactly when m != -1 mod 3.
    for m in (3, 4, 5, 6, 7, 8):
        cases.append(
            _case(
                f"thm3.2/m={m}",
                ModuleSpec("D", m, "ext3", 3),
                m * (m - 1) * (2 * m - 1) // 3,
                m,
                (m - 1) * (2 * m - 3),
                orth=(m % 3 != 2),
                citation=f"ternary weight code of o({2 * m}) on its cube exterior power",
            )
        )

    # Spin codes of o(2m).
    spin_expect = {4: 2, 5: 8, 6: 12, 7: 32, 8: 58}
    for m in (4, 5, 6, 7, 8):
        annotation = None
        if m in (4, 8):
            annotation = Annotation(
                stated={"d": 2 ** (m - 2)},
                note="the sum of all rows has weight below 2^(m-2) when m = 0 mod 4; enumeration decides",
            )
        cases.append(
            _case(
                f"thm3.3/m={m}",
                ModuleSpec("D", m, "spin", 3),
                2 ** (m - 1),
                m,
                spin_expect[m],
                citation=f"ternary spin code of o({2 * m})",
                annotation=annotation,
            )
        )

    # Combined adjoint-plus-spin codes of o(2m): (m, mode, n, d, stated k);
    # the computed rank is m, and a stated dimension other than m is recorded
    for m, mode, n, d, stated_k in (
        (8, "weight_code", 120, 57, 8),
        (9, "weight_code", 400, 186, 8),
        (5, "direct_sum", 36, 21, 5),
        (6, "direct_sum", 62, 27, 6),
        (11, "direct_sum", 1134, 549, 8),
    ):
        annotation = None
        if stated_k != m:
            annotation = Annotation(
                stated={"k": stated_k},
                note=f"stated dimension {stated_k} contradicts the computed rank (the construction has m = {m} rows)",
            )
        cases.append(
            _case(
                f"cor3.4/m={m}",
                ModuleSpec("D", m, "adjoint_plus_spin", 3, mode=mode),
                n,
                m,
                d,
                orth=True,
                citation=(
                    f"ternary weight code of o({2 * m}) on adjoint plus spin"
                    if mode == "weight_code"
                    else f"ternary direct-sum code of o({2 * m}): square exterior plus spin"
                ),
                annotation=annotation,
                optional=m == 11,
            )
        )

    # Exceptional families.
    exceptional = (
        ("thm4.1", "F4", "minimal", 12, 4, 6),
        ("thm4.2", "F4", "adjoint", 24, 4, 15),
        ("thm5.1", "E6", "minimal", 27, 6, 12),
        ("thm5.2", "E6", "adjoint", 36, 5, 21),
        ("thm6.1", "E7", "minimal", 28, 7, 12),
        ("thm6.2", "E7", "adjoint", 63, 7, 27),
        ("thm6.3", "E8", "adjoint", 120, 8, 57),
    )
    for cid, fam, module, n, k, d in exceptional:
        cases.append(
            _case(
                cid,
                ModuleSpec(fam, EXCEPTIONAL_RANKS[fam], module, 3),
                n,
                k,
                d,
                orth=True,
                citation=f"ternary weight code of {fam} on its {module} module",
            )
        )

    return tuple(cases)


def module_code(spec: ModuleSpec) -> CodeReport | LinearCode:
    """The report of an sl(n) or o(2m) module, counted from its column
    templates; for an exceptional module, its code (k <= 8), which `analyze`
    enumerates.

    Permuting the coordinate rows X_1..X_r, which the Weyl group does, only
    permutes the template columns up to sign, so the weight of c . X depends
    only on how many coefficients of c are 0, 1 and 2: the distribution is a
    sum over those O(r^2) compositions, each counted with its multinomial
    orbit size.  No weight matrix is built.  Each orbit costs a few integer
    products per template and O(r) work per spin template, so a code takes
    O(r^2) orbits and O(r^3) work with spin columns.
    """
    templates = module_templates(spec)
    if templates is None:
        return row_space_code(build_weight_matrix(spec).mod(spec.p))
    p, r = spec.p, spec.rank
    # the Cartan-basis sl(n) code (the basis `build_weight_matrix` gives) is
    # spanned by the X_i - X_(i+1): its words are the c . X with c_1 + ... + c_r = 0
    sum_zero = spec.family == "A" and spec.basis != "matrix_unit_E"
    n = template_columns(r, templates)
    counts = [0] * (n + 1)
    for n1 in range(r + 1):
        for n2 in range(r - n1 + 1 if p == 3 else 1):
            if not sum_zero or (n1 + 2 * n2) % p == 0:
                counts[orbit_weight(templates, p, (r - n1 - n2, n1, n2))] += comb(r, n1) * comb(r - n1, n2)
    # every codeword is the image of p^(dim - k) coefficient vectors, as many
    # as give the zero word
    dim = r - 1 if sum_zero else r
    k = dim - next(e for e in range(dim + 1) if p**e == counts[0])
    dist = [count // counts[0] for count in counts]
    if p == 3:
        # c . c = wt(c) over F3, and polarization gives every product
        orthogonal = all(w % 3 == 0 for w, a in enumerate(dist) if a)
    else:
        # X_i . X_i = w1 and X_i . X_j = (2 w1 - w2) / 2 (mod 2), w1 = wt(X_i)
        # and w2 = wt(X_i + X_j); so the differences X_i + X_(i+1) have even
        # weight w2 and products w2 / 2 (mod 2) with their neighbours
        w1, w2 = (orbit_weight(templates, 2, (r - j, j, 0)) for j in (1, 2))
        orthogonal = w2 % 4 == 0 if sum_zero else w1 % 2 == 0 and (w1 - w2 // 2) % 2 == 0
    return distribution_report(p, n, k, dist, orthogonal)


def run_case(case: TheoremCase, limits: VerifyLimits | None = None) -> CaseResult:
    """Count or enumerate the code of one case and compare its report.

    A case beyond the resource limits is reported as skipped, never failed.
    The enumeration budget is checked on the computed rank, so a wrongly
    registered dimension cannot start an enumeration beyond it; codes
    counted by orbits are not enumerated and need no budget.
    """
    limits = limits or VerifyLimits()
    skipped = CaseResult(case, False, True, (), None, 0.0)
    if case.spec.rank > {"A": limits.max_n, "D": limits.max_m}.get(case.spec.family, case.spec.rank):
        return skipped
    t0 = time.perf_counter()
    report = module_code(case.spec)
    if isinstance(report, LinearCode):
        if report.n * report.p**report.k > limits.max_work:
            return skipped
        report = analyze(report)
    mismatches = [
        f"{name}: expected {want}, computed {got}"
        for name, want, got in (
            ("n", case.expected_n, report.n),
            ("k", case.expected_k, report.k),
            ("d", case.expected_d, report.d),
            ("self_orthogonal", case.self_orthogonal, report.self_orthogonal),
            ("doubly_even", case.doubly_even, report.doubly_even),
        )
        if want is not None and want != got
    ]
    millis = (time.perf_counter() - t0) * 1000.0
    return CaseResult(case, not mismatches, False, tuple(mismatches), report, millis)


def _matches(case_id: str, pattern: str | None) -> bool:
    if not pattern:
        return True
    return fnmatch.fnmatch(case_id, pattern) or fnmatch.fnmatch(case_id, pattern + "*")


def run_suite(filter: str | None = None, include_optional: bool = False) -> SuiteReport:
    """Run every registered case matching the filter, in registry order, at
    the default `VerifyLimits`, which every registered case is within."""
    selected = [
        c
        for c in registered_cases()
        if _matches(c.case_id, filter) and (include_optional or not c.optional)
    ]
    results = [run_case(c) for c in selected]
    discrepancies: list[dict] = []
    for res in results:
        case = res.case
        if res.skipped:
            continue
        if case.annotation is not None:
            computed = {key: getattr(res.report, key) for key in case.annotation.stated}
            discrepancies.append(
                {
                    "case_id": res.case_id,
                    "stated": case.annotation.stated,
                    "computed": computed,
                    "note": case.annotation.note,
                }
            )
        if not res.passed:
            discrepancies.append({"case_id": res.case_id, "failures": list(res.mismatches)})
    totals = {
        "cases": len(results),
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed and not r.skipped),
        "skipped": sum(1 for r in results if r.skipped),
    }
    return SuiteReport(tuple(results), totals, tuple(discrepancies))


def to_json(report: SuiteReport, stable: bool = False) -> str:
    """Deterministic JSON rendering of a suite report; `stable` zeroes the
    timing field."""
    out_cases = []
    for res in report.results:
        case = res.case
        entry = {
            "case_id": res.case_id,
            "citation": case.citation,
            "expected": case.expected_dict(),
            "computed": res.report.to_dict() if res.report else None,
            "pass": res.passed,
            "skipped": res.skipped,
            "millis": 0.0 if stable else round(res.millis, 3),
        }
        if case.annotation is not None:
            entry["annotation"] = {"stated": case.annotation.stated, "note": case.annotation.note}
        out_cases.append(entry)
    payload = {"cases": out_cases, "totals": report.totals, "discrepancies": list(report.discrepancies)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# numeric weight tables

@dataclass(frozen=True)
class TableRow:
    label: str
    stated: int
    computed: int
    match: bool  # computed equals the authoritative expectation
    annotated: bool  # stated value superseded by computation


# the orbits of tables 6.2 and 6.3: s coefficients 1 and t of -1 on sl(8)
_ST_PAIRS = ((1, 1), (2, 2), (3, 3), (4, 4), (3, 0), (6, 0), (4, 1), (5, 2))

# table id -> (the module of its rows, for 3.1 that of its first row, o(8);
# stated values; {entry index: the value computation gives where it
# supersedes the stated one}), in the order of the paper
_TABLES = {
    "2.1": (ModuleSpec("A", 10, "ext3", 2, basis="matrix_unit_E"), (56, 64, 56, 64, 120), {}),
    "2.2": (ModuleSpec("A", 11, "ext3", 2, basis="matrix_unit_E"), (72, 88, 80, 80, 120), {}),
    "2.3": (ModuleSpec("A", 14, "ext3", 2, basis="matrix_unit_E"), (132, 184, 188, 176, 180, 232, 364), {}),
    "2.4": (ModuleSpec("A", 15, "ext3", 2, basis="matrix_unit_E"), (156, 224, 216, 224, 220, 256, 364), {2: 236}),
    "2.5": (ModuleSpec("A", 6, "ext3", 2, basis="matrix_unit_E"), (12, 8, 20), {}),
    "2.6": (ModuleSpec("A", 7, "ext3", 2, basis="matrix_unit_E"), (20, 16, 20), {}),
    "3.1": (ModuleSpec("D", 4, "spin", 3), (8, 11, 12, 43, 112, 171, 260), {}),
    "3.2": (ModuleSpec("D", 5, "ext2", 3), (8, 13, 15, 14, 10), {}),
    "3.3": (ModuleSpec("D", 5, "spin", 3), (16, 8, 12, 10, 11), {}),
    "3.4": (ModuleSpec("D", 6, "ext2", 3), (10, 17, 21, 22, 20, 15), {}),
    "3.5": (ModuleSpec("D", 6, "spin", 3), (32, 16, 24, 20, 22, 21), {5: 30}),
    "6.2": (ModuleSpec("A", 8, "ext4", 3, basis="matrix_unit_E"), (40, 44, 48, 34, 60, 30, 46, 50), {}),
    "6.3": (ModuleSpec("A", 8, "adjoint", 3, basis="matrix_unit_E"), (26, 40, 42, 32, 30, 24, 38, 34), {}),
}

TABLE_IDS = tuple(_TABLES)


def reproduce_table(table_id: str) -> tuple[TableRow, ...]:
    """Recompute one published weight table entry for entry: each is the
    weight of an orbit of partial row sums, counted from the templates."""
    if table_id not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}; known: {', '.join(TABLE_IDS)}")
    spec, stated, fixes = _TABLES[table_id]
    r = spec.rank
    if table_id == "3.1":
        # o(2m), m = 4..10: the first m - 1 rows minus the last
        orbits = [(f"m={m}", replace(spec, rank=m), (0, m - 1, 1)) for m in range(r, r + len(stated))]
    elif spec.p == 2:
        orbits = [(f"t={t}", spec, (r - 2 * t, 2 * t, 0)) for t in range(1, r // 2 + 1)]
    elif spec.family == "D":
        orbits = [(f"t={t}", spec, (r - t, t, 0)) for t in range(1, r + 1)]
    else:
        # the (4,4) orbit of 6.2 needs all eight matrix-unit rows; the first
        # seven are the printed generator
        orbits = [(f"(s,t)=({s},{t})", spec, (r - s - t, s, t)) for s, t in _ST_PAIRS]
    scale = 2 if spec.module == "adjoint" else 1  # 6.3 states doubled weights
    rows = []
    for i, ((label, ms, counts), want) in enumerate(zip(orbits, stated, strict=True)):
        got = scale * orbit_weight(module_templates(ms), ms.p, counts)
        rows.append(TableRow(label, want, got, got == fixes.get(i, want), i in fixes))
    return tuple(rows)


# ---------------------------------------------------------------------------
# cross-checks

@dataclass(frozen=True)
class BranchCheck:
    check_id: str
    left: CodeReport
    right: CodeReport
    identical: bool


def branch_equivalences() -> tuple[BranchCheck, ...]:
    """Pairs of constructions that must generate reports with identical
    parameters and weight distributions; the exceptional left sides are
    enumerated, the o(2m) and sl(n) right sides counted over Weyl orbits."""
    pairs = (
        (
            "E6-adjoint=o(10)-direct-sum",
            ModuleSpec("E6", 6, "adjoint", 3),
            ModuleSpec("D", 5, "adjoint_plus_spin", 3, mode="direct_sum"),
        ),
        (
            "E8-adjoint=o(16)-combined",
            ModuleSpec("E8", 8, "adjoint", 3),
            ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="weight_code"),
        ),
        (
            "E7-minimal=sl(8)-pairs",
            ModuleSpec("E7", 7, "minimal", 3),
            ModuleSpec("A", 8, "ext2", 3),
        ),
    )
    checks = []
    for check_id, left_spec, right_spec in pairs:
        left = analyze(module_code(left_spec))
        right = module_code(right_spec)
        identical = (
            left.params() == right.params()
            and left.weight_distribution == right.weight_distribution
        )
        checks.append(BranchCheck(check_id, left, right, identical))
    return tuple(checks)


def weyl_invariance_violations(wm: WeightMatrix, p: int, trials: int, seed: int = 0) -> int:
    """Count combination weights changed by random reflection words.

    The matrix is moved to the Cartan-generator basis first.  A simple
    reflection is a linear map on coefficient vectors, so it is built once
    as an integer matrix whose rows are its images of the unit vectors, and
    a word of reflections acts as a product of these.  Each trial draws a
    coefficient vector in -2..2 and a word of 1 to 10 reflections; all
    trials move together, position by position, a trial whose word is over
    keeping its vector.  One product with the matrix then gives the weights
    of every vector before and after its word, which must agree.
    """
    hm = to_cartan_h(wm)
    cartan_rank = hm.rank - 1 if hm.family == "A" else hm.rank
    cm = cartan_matrix(hm.family, cartan_rank)
    matrix = hm.mod(p)
    unit = np.eye(cartan_rank, dtype=np.int64)
    reflections = np.array([[reflect_coroot_coeffs(cm, i, e) for e in unit] for i in range(cartan_rank)])
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-2, 3, size=(trials, cartan_rank))
    lengths = rng.integers(1, 11, size=trials)
    nodes = rng.integers(0, cartan_rank, size=(10, trials))
    moved = coeffs
    for step, node in enumerate(nodes):
        reflected = np.einsum("tj,tjk->tk", moved, reflections[node])
        moved = np.where((lengths > step)[:, None], reflected, moved)
    words = np.vstack([coeffs, moved]) @ matrix.entries
    words %= p  # in place: the product is the largest array here
    weights = np.count_nonzero(words, axis=1)
    return int(np.count_nonzero(weights[:trials] != weights[trials:]))
