"""Registry of the published code-parameter claims and the machinery that
checks every one of them by exact computation: Weyl-orbit counting over the
column templates of the sl(n) and o(2m) codes, exhaustive enumeration for
the exceptional ones.

The registry is one row of data per parametric family, its claimed n, k,
d and flags as closed forms in the rank on each residue class, with the d
the paper states where they do not hold, evaluated at the family's
registered sizes; plus row tables of the single claims and one annotation
map: where a stated value disagrees with exhaustive enumeration, the case
carries an annotation holding the stated value, the expectation is the
computed one, and the suite reports the discrepancy instead of hiding it.
The same convention covers the numeric weight tables: orbit weights
counted from the same templates, which the tests check by matrix products.
"""

from __future__ import annotations

import fnmatch
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache
from fractions import Fraction
from itertools import compress, pairwise, repeat, zip_longest
from json.encoder import encode_basestring_ascii
from math import comb, isfinite, prod

import numpy as np

from .fieldcodes import CodeReport, LinearCode, analyze, row_space_code
from .repweights import (
    ModuleSpec,
    WeightMatrix,
    build_weight_matrix,
    module_table,
    orbit_weights,
    to_cartan_h,
)
from .rootsys import EXCEPTIONAL_RANKS, cartan_matrix

# unused here: the benchmark's tracer rebinds these names in this module, so
# they stay bound until it wraps public entry points instead (ROADMAP item 1)
from .fieldcodes import combination_weight  # noqa: F401
from .repweights import adjoint_weight_matrix_A, d_lambda2_matrix, d_spin_matrix, ext_weight_matrix_A  # noqa: F401
from .rootsys import reflect_coroot_coeffs  # noqa: F401

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
    "json_text",
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
    mismatches: tuple[str, ...]
    report: CodeReport | None
    millis: float

    @property
    def case_id(self) -> str:
        return self.case.case_id

    @property
    def passed(self) -> bool:
        return self.report is not None and not self.mismatches

    @property
    def skipped(self) -> bool:
        return self.report is None


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CaseResult, ...]

    @property
    def totals(self) -> dict:
        cases = len(self.results)
        passed, skipped = sum(r.passed for r in self.results), sum(r.skipped for r in self.results)
        return {"cases": cases, "passed": passed, "failed": cases - passed - skipped, "skipped": skipped}

    @property
    def discrepancies(self) -> tuple[dict, ...]:
        found: list[dict] = []
        for res in (r for r in self.results if not r.skipped):
            annotation = res.case.annotation
            if annotation is not None:
                found.append(
                    {
                        "case_id": res.case_id,
                        "stated": annotation.stated,
                        "computed": {key: getattr(res.report, key) for key in annotation.stated},
                        "note": annotation.note,
                    }
                )
            if not res.passed:
                found.append({"case_id": res.case_id, "failures": list(res.mismatches)})
        return tuple(found)


@dataclass(frozen=True)
class VerifyLimits:
    """Bounds on which registered cases run; beyond them cases are skipped."""

    max_n: int = 15  # sl(n) families
    max_m: int = 11  # o(2m) families
    # n * p^k budget of brute-force enumeration, k the computed rank; codes
    # counted by orbits (families A and D) are not enumerated and skip it
    max_work: int = 600_000_000


_DEFAULT_LIMITS = VerifyLimits()


@dataclass(frozen=True)
class Poly:
    """The polynomial sum(coeffs[i] N^i) / den in the rank N, integer
    coefficients lowest degree first.  It is written from `N` with +, - and
    * and division by a positive integer, so a closed form held as one
    cannot hide a case split the way a rule function can."""

    coeffs: tuple[int, ...]
    den: int = 1

    def __call__(self, x: int) -> int | Fraction:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value // self.den if value % self.den == 0 else Fraction(value, self.den)

    def __add__(self, other: Poly | int) -> Poly:
        other = other if isinstance(other, Poly) else Poly((other,))
        terms = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Poly(tuple(a * other.den + b * self.den for a, b in terms), self.den * other.den)

    def __sub__(self, other: Poly | int) -> Poly:
        return self + -1 * other

    def __mul__(self, other: Poly | int) -> Poly:
        other = other if isinstance(other, Poly) else Poly((other,))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, divisor: int) -> Poly:
        return Poly(self.coeffs, self.den * divisor)


N = Poly((0, 1))  # the rank: n of sl(n), m of o(2m)


@dataclass(frozen=True)
class Pow2:
    """2^(N + shift): the length and distance of the spin codes, which are
    not polynomials in the rank."""

    shift: int

    def __call__(self, x: int) -> int:
        return 1 << (x + self.shift)


@dataclass(frozen=True)
class Forms:
    """The claimed n, k and d of a family on one residue class of the rank,
    as closed forms in it, and its flags (None: no claim either way)."""

    n: Poly | Pow2
    k: Poly
    d: Poly | Pow2
    self_orthogonal: bool | None
    doubly_even: bool | None


@dataclass(frozen=True)
class FamilyClaims:
    """One parametric family of the paper, stated once, as data.

    Index i of `pattern` is the rank `scale` * i.  The claim is stated at
    every rank from `spec.rank` whose residue mod `modulus` is a key of
    `classes`; the registry holds it at the indices `sizes`.  The closed
    forms of a rank's class give its n, k, d and flags, but for the ranks
    of `exceptions`, where the paper states another d.  From `n0` on the
    tests prove the forms for every rank; `n0` is None for a family they
    leave to computation.  `citation` names the algebra as `sl({n})` or
    `o({2m})`.
    """

    pattern: str
    spec: ModuleSpec  # the module at the smallest rank the claim is stated at
    scale: int
    modulus: int
    n0: int | None
    classes: dict  # residue of the rank mod `modulus` -> Forms
    sizes: range | tuple[int, ...]
    citation: str
    exceptions: dict = field(default_factory=dict)  # rank -> the stated d, below n0

    def at(self, rank: int) -> ModuleSpec:
        return replace(self.spec, rank=rank)

    def case(self, i: int) -> TheoremCase:
        """The claim at index i, annotated where computation supersedes it."""
        rank, case_id = self.scale * i, self.pattern.format(i)
        forms, citation = self.classes[rank % self.modulus], self.citation.format(**{"n": rank, "2m": 2 * rank})
        d = self.exceptions.get(rank, forms.d(rank))
        return TheoremCase(case_id, self.at(rank), forms.n(rank), forms.k(rank), d, forms.self_orthogonal,
                           forms.doubly_even, citation, _ANNOTATIONS.get(case_id))


_C2, _C3 = N * (N - 1) / 2, N * (N - 1) * (N - 2) / 6

# Every parametric family, in registry order.
CLAIMS = (
    FamilyClaims(
        "thm2.1/m={}", ModuleSpec("A", 4, "ext2", 2), scale=2, modulus=2, n0=4,
        classes={0: Forms(_C2, N - 2, 2 * (N - 2), True, True)},
        sizes=range(2, 8), citation="binary weight code of sl({n}) on its square exterior power",
    ),
    FamilyClaims(
        "thm2.2/n={}", ModuleSpec("A", 6, "ext3", 2), scale=1, modulus=4, n0=10,
        classes={r: Forms(_C3, N - 1, (N - 2) * (N - 3), True, True) for r in (2, 3)},
        sizes=(6, 7, 10, 11, 14, 15), citation="binary weight code of sl({n}) on its cube exterior power",
        exceptions={6: 8, 7: 16},
    ),
    FamilyClaims(
        "thm2.3/ext2/n={}", ModuleSpec("A", 5, "ext2", 3), scale=1, modulus=3, n0=5,
        classes={2: Forms(_C2, N - 1, 2 * (N - 2), True, None)},
        sizes=(5, 8, 11), citation="ternary weight code of sl({n}) on its square exterior power",
    ),
    FamilyClaims(
        "thm2.3/ext3/n={}", ModuleSpec("A", 5, "ext3", 3), scale=1, modulus=3, n0=5,
        classes={
            0: Forms(_C3, N - 2, (N - 2) * (N - 3), True, None),
            2: Forms(_C3, N - 1, (N - 1) * (N - 2) / 2, True, None),
        },
        sizes=(5, 6, 8, 9, 11, 12), citation="ternary weight code of sl({n}) on its cube exterior power",
    ),
    # the full matrix-unit rows on the cube power
    FamilyClaims(
        "thm2.3/rowsE/n={}", ModuleSpec("A", 5, "ext3", 3, basis="matrix_unit_E"), scale=1, modulus=1, n0=5,
        classes={0: Forms(_C3, N - 1, (N - 1) * (N - 2) / 2, None, None)},
        sizes=(5, 7), citation="ternary code of the matrix-unit rows on the cube power of sl({n})",
    ),
    # adjoint sl(n): the matrix-unit rows, then the weight code for n = 3m
    FamilyClaims(
        "thm2.4/L/n={}", ModuleSpec("A", 4, "adjoint", 3, basis="matrix_unit_E"), scale=1, modulus=1, n0=4,
        classes={0: Forms(_C2, N - 1, N - 1, None, None)},
        sizes=range(4, 9), citation="ternary code of the matrix-unit rows on the adjoint of sl({n})",
    ),
    FamilyClaims(
        "thm2.4/K/m={}", ModuleSpec("A", 6, "adjoint", 3), scale=3, modulus=3, n0=6,
        classes={0: Forms(_C2, N - 2, 2 * N - 3, True, None)},
        sizes=(2, 3), citation="ternary weight code of sl({n}) on its adjoint module",
    ),
    FamilyClaims(
        "thm3.1/m={}", ModuleSpec("D", 4, "ext2", 3), scale=1, modulus=3, n0=4,
        classes={1: Forms(N * (N - 1), N, 2 * (N - 1), True, None)},
        sizes=(4, 7, 10), citation="ternary weight code of o({2m}) on its square exterior power",
    ),
    FamilyClaims(
        "thm3.2/m={}", ModuleSpec("D", 3, "ext3", 3), scale=1, modulus=3, n0=3,
        # self-orthogonal exactly when m != 2 (mod 3)
        classes={r: Forms(N * (N - 1) * (2 * N - 1) / 3, N, (N - 1) * (2 * N - 3), r != 2, None) for r in range(3)},
        sizes=range(3, 9), citation="ternary weight code of o({2m}) on its cube exterior power",
    ),
    # the spin weights are sums of binomials over j, not polynomials in the
    # counts, so no N0; the tests compute d = 2^(m-2) to m = 18
    FamilyClaims(
        "thm3.3/m={}", ModuleSpec("D", 4, "spin", 3), scale=1, modulus=1, n0=None,
        classes={0: Forms(Pow2(-1), N, Pow2(-2), None, None)},
        sizes=range(4, 9), citation="ternary spin code of o({2m})",
        exceptions={4: 2, 6: 12, 8: 58},
    ),
)

# Combined adjoint-plus-spin codes of o(2m): (m, mode, n, d); the computed
# rank is m.  The [1134, 11, 549] claim (m = 11) is optional.
_COMBINED = (
    (8, "weight_code", 120, 57),
    (9, "weight_code", 400, 186),
    (5, "direct_sum", 36, 21),
    (6, "direct_sum", 62, 27),
    (11, "direct_sum", 1134, 549),
)

# Exceptional families: (case id, family, module, n, k, d).
_EXCEPTIONAL = (
    ("thm4.1", "F4", "minimal", 12, 4, 6),
    ("thm4.2", "F4", "adjoint", 24, 4, 15),
    ("thm5.1", "E6", "minimal", 27, 6, 12),
    ("thm5.2", "E6", "adjoint", 36, 5, 21),
    ("thm6.1", "E7", "minimal", 28, 7, 12),
    ("thm6.2", "E7", "adjoint", 63, 7, 27),
    ("thm6.3", "E8", "adjoint", 120, 8, 57),
)

# Every stated value that computation supersedes, by case id.
_SPIN_NOTE = "the sum of all rows has weight below 2^(m-2) when m = 0 mod 4; enumeration decides"
_ADJOINT_NOTE = "stated distance 3(m-1) contradicts enumeration; all nonzero weights are 3(2m-1) or larger"
_RANK_NOTE = "stated dimension 8 contradicts the computed rank (the construction has m = {} rows)"
_ANNOTATIONS = {
    "thm2.3/ext3/n=6": Annotation({"n": 15}, "stated length 15 contradicts the column count C(6,3) = 20"),
    "thm2.4/K/m=2": Annotation({"d": 3}, _ADJOINT_NOTE),
    "thm2.4/K/m=3": Annotation({"d": 6}, _ADJOINT_NOTE),
    "thm3.3/m=4": Annotation({"d": 4}, _SPIN_NOTE),
    "thm3.3/m=8": Annotation({"d": 64}, _SPIN_NOTE),
    "cor3.4/m=9": Annotation({"k": 8}, _RANK_NOTE.format(9)),
    "cor3.4/m=11": Annotation({"k": 8}, _RANK_NOTE.format(11)),
}


@cache
def registered_cases() -> tuple[TheoremCase, ...]:
    """Every claim the suite checks, in a fixed deterministic order: each
    family row at its registered sizes, then the single claims.  Built once
    per process: the tuple and its cases are immutable."""
    cases = [claims.case(i) for claims in CLAIMS for i in claims.sizes]
    for m, mode, n, d in _COMBINED:
        case_id = f"cor3.4/m={m}"
        citation = (
            f"ternary weight code of o({2 * m}) on adjoint plus spin"
            if mode == "weight_code"
            else f"ternary direct-sum code of o({2 * m}): square exterior plus spin"
        )
        spec = ModuleSpec("D", m, "adjoint_plus_spin", 3, mode=mode)
        cases.append(TheoremCase(case_id, spec, n, m, d, True, None, citation, _ANNOTATIONS.get(case_id), m == 11))
    for case_id, fam, module, n, k, d in _EXCEPTIONAL:
        spec = ModuleSpec(fam, EXCEPTIONAL_RANKS[fam], module, 3)
        citation = f"ternary weight code of {fam} on its {module} module"
        cases.append(TheoremCase(case_id, spec, n, k, d, True, None, citation))
    return tuple(cases)


def module_code(spec: ModuleSpec) -> CodeReport | LinearCode:
    """The report of an sl(n) or o(2m) module, counted from its column
    templates; for an exceptional module, its code (k <= 8), which `analyze`
    enumerates.

    Permuting the coordinate rows X_1..X_r, which the Weyl group does, only
    permutes the template columns up to sign, so the weight of c . X depends
    only on how many coefficients of c are 0, 1 and 2: the distribution is a
    sum over those O(r^2) compositions, each counted with its multinomial
    orbit size, walked along each row of fixed n1 from one binomial.  Over
    F3 a composition and its mirror, the orbit of -c, are weighed once.
    When the all-ones vector also gives the zero word (over F3, for the
    matrix-unit ext3 and adjoint codes, and the sum-zero ones with 3 | r),
    adding it to c turns (n0, n1, n2) into (n2, n0, n1), so the weight is
    the same under every permutation of the composition: one orbit with
    n0 >= n1 >= n2 is weighed per class and counted 1, 3 or 6 times.

    An o(2m) code has the whole of W(D_m) = S_m x| (Z/2)^(m-1): it also
    changes the signs of any two rows X_i.  Every o(2m) module's weights
    are W-stable, and W maps each kept column to a kept column up to sign,
    so the weight of c . X is W-invariant; a sign change turns c_i into
    -c_i, a one into a two.  Paired with a zero coefficient it is a single
    change, so for each n0 = 1..m there is one class (n0, m - n0, 0) of
    C(m, n0) 2^(m - n0) vectors.  With no zero the sign changes keep the
    parity of n2: for even m the classes (0, m, 0) and (0, m - 1, 1) of
    2^(m - 1) vectors each, for odd m one class (0, m, 0) of 2^m, since -c
    swaps the parities.  That is m + 1 or m + 2 orbits in place of about
    (m + 2)^2/4 mirror pairs.

    No weight matrix is built, and no Python step is taken per coordinate:
    one `orbit_weights` call weighs every orbit, after looking up the
    templates' placements and the falling factorials of r once; each orbit
    then costs a few integer products per template and a spin template one
    closed form (a sum over j only for the at most two orbits with no
    coefficient 0).  The orbit sizes are then added up by weight, so the
    kernel division, the orthogonality test and the `CodeReport` see only
    the weights that occur.
    """
    table = module_table(spec)
    if table is None:
        return row_space_code(build_weight_matrix(spec).mod(spec.p))
    templates, n = table
    p, r, sum_zero = spec.p, spec.rank, spec.sum_zero
    if spec.family == "D":
        # the classes of W(D_m): n0 >= 1 zeros in C(r, n0) places and any signs
        # on the rest; with none, an even or odd count of twos, which -c swaps
        # for odd r
        orbits = [(n0, r - n0, 0) for n0 in range(1, r + 1)]
        sizes = [comb(r, n0) << (r - n0) for n0 in range(1, r + 1)]
        if r % 2:
            orbits.append((0, r, 0))
            sizes.append(1 << r)
        else:
            orbits += [(0, r, 0), (0, r - 1, 1)]
            sizes += [1 << (r - 1)] * 2
    else:
        # over F3, c and -c = 2c (n1 and n2 swapped) have one weight, the same
        # orbit size and both or neither c_1 + ... + c_r = 0: a pair is weighed
        # once, from the composition with n2 < n1, and counted twice.  The
        # all-ones vector u puts sum(coeffs) on each column of a template; when
        # its word is zero (and its sum, for a sum-zero code), the S3 classes apply
        ones_zero = all(sum(coeffs) % p == 0 for coeffs, _ in templates)
        s3 = p == 3 and ones_zero and (not sum_zero or r % 3 == 0)
        orbits, sizes = [], []
        for n1 in range(r // 2 + 1 if s3 else r + 1):
            size = comb(r, n1)  # r! / (n0! n1! n2!) at n2 = 0
            top = 0 if p == 2 else min(n1, r - 2 * n1 if s3 else r - n1)
            for n2 in range(top + 1):
                n0 = r - n1 - n2
                if not sum_zero or (n1 + 2 * n2) % p == 0:
                    if s3:
                        copies = 1 if n0 == n2 else 3 if n0 == n1 or n1 == n2 else 6
                    else:
                        copies = 2 if p == 3 and n2 < n1 else 1
                    orbits.append((n0, n1, n2))
                    sizes.append(copies * size)
                size = size * n0 // (n2 + 1)
    weights = orbit_weights(templates, p, r, orbits)
    counts = defaultdict(int)  # orbit sizes by weight
    for w, size in zip(weights, sizes):
        counts[w] += size
    # every codeword is the image of p^(dim - k) coefficient vectors, as many
    # as give the zero word
    dim = r - 1 if sum_zero else r
    kernel = counts[0]
    exponent = next((e for e in range(dim + 1) if p**e == kernel), None)
    if exponent is None:
        # raised as a StopIteration, this would end `run_suite`'s map early
        raise ValueError(f"{kernel} coefficient vectors give the zero word, not a power of {p} up to {p}^{dim}")
    k = dim - exponent
    if p == 3:
        # c . c = wt(c) over F3, and polarization gives every product
        orthogonal = all(w % 3 == 0 for w in counts)
    else:
        # X_i . X_i = w1 and X_i . X_j = (2 w1 - w2) / 2 (mod 2), w1 = wt(X_i)
        # and w2 = wt(X_i + X_j); so the differences X_i + X_(i+1) have even
        # weight w2 and products w2 / 2 (mod 2) with their neighbours; the
        # orbits list (r - 2, 2, 0), and (r - 1, 1, 0) unless the code is sum-zero
        weight = dict(zip(orbits, weights))
        w1, w2 = weight.get((r - 1, 1, 0)), weight[r - 2, 2, 0]
        orthogonal = w2 % 4 == 0 if sum_zero else w1 % 2 == 0 and (w1 - w2 // 2) % 2 == 0
    return CodeReport(p, n, k, {w: count // kernel for w, count in counts.items()}, orthogonal)


def _griesmer_length(p: int, k: int, d: int) -> int:
    """The Griesmer bound: every linear [n, k, d]_p code has n at least
    sum over i < k of ceil(d / p^i).  Once p^i >= d each later term is 1,
    so only the first O(log_p d) terms are summed."""
    total, i, power = 0, 0, 1
    while i < k and power < d:
        total += -(-d // power)
        i, power = i + 1, power * p
    return total + k - i


def run_case(case: TheoremCase, limits: VerifyLimits | None = None) -> CaseResult:
    """Count or enumerate the code of one case and compare its report.

    A case beyond the resource limits is reported as skipped, never failed.
    The enumeration budget is checked on the computed rank, so a wrongly
    registered dimension cannot start an enumeration beyond it; codes
    counted by orbits are not enumerated and need no budget.  A computed
    report that breaks the Griesmer bound fails the case whatever the
    expectation says: no linear code has such n, k and d.
    """
    limits = limits or _DEFAULT_LIMITS
    if case.spec.rank > {"A": limits.max_n, "D": limits.max_m}.get(case.spec.family, case.spec.rank):
        return CaseResult(case, (), None, 0.0)
    t0 = time.perf_counter()
    report = module_code(case.spec)
    if isinstance(report, LinearCode):
        if report.n * report.p**report.k > limits.max_work:
            return CaseResult(case, (), None, 0.0)
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
    if report.d is not None and report.n < (bound := _griesmer_length(report.p, report.k, report.d)):
        mismatches.append(f"griesmer: n = {report.n} is below the bound {bound} for k = {report.k}, d = {report.d}")
    millis = (time.perf_counter() - t0) * 1000.0
    return CaseResult(case, tuple(mismatches), report, millis)


def _matches(case_id: str, pattern: str | None) -> bool:
    return not pattern or fnmatch.fnmatch(case_id, pattern + "*")


def run_suite(filter: str | None = None, include_optional: bool = False) -> SuiteReport:
    """Run every registered case matching the filter, in registry order, at
    the default `VerifyLimits`, which every registered case is within."""
    cases = (c for c in registered_cases() if _matches(c.case_id, filter) and (include_optional or not c.optional))
    return SuiteReport(tuple(map(run_case, cases)))


# scalars of these exact types are written without a call of `write`, which sends the rest to json's encoder
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): {None: "null"}.__getitem__,
            bool: {True: "true", False: "false"}.__getitem__,
            float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x)}


def json_text(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` plus a newline, for
    values of dicts, lists, tuples, str, int, float, bool and None.  With an
    indent json encodes in Python; here a container holding no container is
    one call of json's C encoder, and a list of ints writes each run of
    zeros as one repeated string.  A dict key that is not a str raises
    TypeError, where json would write it as a string."""
    flat = cache(lambda sep: json.JSONEncoder(separators=(sep, ": "), sort_keys=True).encode)

    def write(value, indent: str) -> str:  # indent: a newline and the indentation of `value`
        inner = indent + "  "
        sep = "," + inner
        if isinstance(value, dict):
            if set(map(type, value.values())).issubset(_SCALARS) and all(map(isinstance, value, repeat(str))):
                body = flat(sep)(value)[1:-1]
            else:  # a key that is not a str makes encode_basestring_ascii raise TypeError
                body = sep.join(
                    f"{encode_basestring_ascii(k)}: {t(v) if (t := _SCALARS.get(type(v))) else write(v, inner)}"
                    for k, v in sorted(value.items())
                )
            return f"{{{inner}{body}{indent}}}" if value else "{}"
        if not isinstance(value, (list, tuple)):
            return flat(sep)(value)
        types = set(map(type, value))
        if types == {int}:
            zero, at = "0" + sep, [-1, *compress(range(len(value)), value)]
            runs = (f"{zero * (i - last - 1)}{int.__repr__(value[i])}{sep}" for last, i in pairwise(at))
            body = ("".join(runs) + zero * (len(value) - at[-1] - 1))[: -len(sep)]
        elif types.issubset(_SCALARS):
            body = flat(sep)(value)[1:-1]
        else:
            body = sep.join(t(v) if (t := _SCALARS.get(type(v))) else write(v, inner) for v in value)
        return f"[{inner}{body}{indent}]" if value else "[]"

    return write(value, "\n") + "\n"


def to_json(report: SuiteReport, stable: bool = False) -> str:
    """Deterministic JSON rendering of a suite report, through `json_text`;
    `stable` zeroes the timing field."""
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
    return json_text(payload)


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
    weight of an orbit of partial row sums, counted from the templates in
    one `orbit_weights` call per table (per row for 3.1)."""
    if table_id not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}; known: {', '.join(TABLE_IDS)}")
    spec, stated, fixes = _TABLES[table_id]
    r = spec.rank
    if table_id == "3.1":
        # o(2m), m = 4..10: the first m - 1 rows minus the last; each row has
        # its own rank, so its own call
        labels, weights = [], []
        for m in range(r, r + len(stated)):
            labels.append(f"m={m}")
            weights += orbit_weights(module_table(replace(spec, rank=m))[0], spec.p, m, [(0, m - 1, 1)])
    else:
        if spec.p == 2:
            orbits = {f"t={t}": (r - 2 * t, 2 * t, 0) for t in range(1, r // 2 + 1)}
        elif spec.family == "D":
            orbits = {f"t={t}": (r - t, t, 0) for t in range(1, r + 1)}
        else:
            # the (4,4) orbit of 6.2 needs all eight matrix-unit rows; the first
            # seven are the printed generator
            orbits = {f"(s,t)=({s},{t})": (r - s - t, s, t) for s, t in _ST_PAIRS}
        labels = list(orbits)
        weights = orbit_weights(module_table(spec)[0], spec.p, r, list(orbits.values()))
    scale = 2 if spec.module == "adjoint" else 1  # 6.3 states doubled weights
    rows = []
    for i, (label, weight, want) in enumerate(zip(labels, weights, stated, strict=True)):
        got = scale * weight
        rows.append(TableRow(label, want, got, got == fixes.get(i, want), i in fixes))
    return tuple(rows)


# ---------------------------------------------------------------------------
# cross-checks

@dataclass(frozen=True)
class BranchCheck:
    check_id: str
    left: CodeReport
    right: CodeReport

    @property
    def identical(self) -> bool:
        return self.left == self.right


def branch_equivalences() -> tuple[BranchCheck, ...]:
    """Pairs of constructions that must generate identical reports, flags
    and weight distributions included; the exceptional left sides are
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
    return tuple(
        BranchCheck(check_id, analyze(module_code(left_spec)), module_code(right_spec))
        for check_id, left_spec, right_spec in pairs
    )


def _fuzz_draws(seed: int, trials: int, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fuzz's coefficients (trials x rank) in -2..2, word lengths
    (trials) in 1..10 and nodes (10 x trials) in 0..rank-1, each one
    `randbytes` call read as little-endian 16-bit words and reduced mod
    q = 5, 10 and rank, so every residue's probability is within a factor
    1 +- q/2^16 of 1/q.  `random.Random` seeds with abs(seed), so a negative
    seed raises rather than repeat the words of -seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)

    def draw(shape: tuple[int, ...], q: int) -> np.ndarray:
        words = np.frombuffer(rng.randbytes(2 * prod(shape)), dtype="<u2")
        return (words % q).reshape(shape).astype(np.intp)

    return draw((trials, rank), 5) - 2, draw((trials,), 10) + 1, draw((10, trials), rank)


def weyl_invariance_violations(wm: WeightMatrix, p: int, trials: int, seed: int = 0) -> int:
    """Count combination weights changed by random reflection words.

    The matrix is moved to the Cartan-generator basis first.  Each trial
    draws a coefficient vector in -2..2 and a word of 1 to 10 simple
    reflections from the standard library's generator, no numpy.random
    (`_fuzz_draws`: 16-bit words reduced mod q, so a draw is biased by less
    than q/2^16; the seed must be non-negative).  A simple reflection moves
    one coordinate only: the node's coefficient picks up minus the pairing
    of the vector with the node's row of the Cartan matrix, as in
    `reflect_coroot_coeffs`.  All trials move together, one coordinate each
    per position, a trial whose word is over keeping its vector.  Both
    blocks of vectors are then reduced mod p, so every entry of their
    product with the matrix is at most rank * (p - 1)^2; the product is
    taken exactly in the narrowest unsigned type that holds that, and gives
    the weights of every vector before and after its word, which must agree.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    hm = to_cartan_h(wm)
    cartan_rank = hm.rank - 1 if hm.family == "A" else hm.rank
    cartan = np.array(cartan_matrix(hm.family, cartan_rank).entries, dtype=np.int64)
    coeffs, lengths, nodes = _fuzz_draws(seed, trials, cartan_rank)
    moved = coeffs.copy()
    every = np.arange(trials)
    for step, node in enumerate(nodes):
        moved[every, node] -= np.einsum("tj,tj->t", moved, cartan[node]) * (lengths > step)
    narrow = np.min_scalar_type(cartan_rank * (p - 1) ** 2)
    residues = (np.vstack([coeffs, moved]) % p).astype(narrow)
    words = np.einsum("tj,jn->tn", residues, hm.mod(p).entries.astype(narrow))
    words %= p  # in place: the product is the largest array here
    weights = np.count_nonzero(words, axis=1)
    return int(np.count_nonzero(weights[:trials] != weights[trials:]))
