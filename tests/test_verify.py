"""Tests for the claim registry, closed forms, tables and cross-checks."""

import hashlib
import json
import re
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecodes import cli, fieldcodes, repweights, verify
from liecodes.fieldcodes import CodeReport, FpMatrix, LinearCode, Record, analyze, combination_weight, row_space_code
from liecodes.repweights import (
    ModuleSpec,
    adjoint_weight_matrix_A,
    build_weight_matrix,
    d_lambda2_matrix,
    d_lambda3_matrix,
    ext_weight_matrix_A,
)
from liecodes.rootsys import cartan_matrix
from liecodes.verify import (
    CLAIMS,
    TABLE_IDS,
    Annotation,
    BranchCheck,
    CaseResult,
    FamilyClaims,
    Forms,
    Poly,
    Pow2,
    TableRow,
    TheoremCase,
    SuiteReport,
    VerifyLimits,
    ZeroFilled,
    branch_equivalences,
    json_text,
    module_code,
    registered_cases,
    reproduce_table,
    run_case,
    run_suite,
    to_json,
    weyl_invariance_violations,
)

from _oracles import (
    admissible_sizes,
    assert_same_text,
    closed_form_weight,
    suite_json_by_dumps,
    table_by_matrix,
    weight_distribution_unpaired,
    weyl_violations_by_columns,
    weyl_violations_by_enumeration,
    within_matrix_cap,
)

ANNOTATED_CASE_IDS = {
    "thm2.3/ext3/n=6",
    "thm2.4/K/m=2",
    "thm2.4/K/m=3",
    "thm3.3/m=4",
    "thm3.3/m=8",
    "cor3.4/m=9",
    "cor3.4/m=11",
}


def case_by_id(case_id):
    for case in registered_cases():
        if case.case_id == case_id:
            return case
    raise KeyError(case_id)


# ---------------------------------------------------------------------------
# closed forms

def test_closed_form_examples():
    assert closed_form_weight("A2_st", n=5, s=1, t=0) == 4
    assert closed_form_weight("D2_t", m=5, t=1) == 8
    assert closed_form_weight("A_adjoint_st", n=9, s=0, t=0) == 0


def pm_coeffs(total, s, t):
    return [1] * s + [-1] * t + [0] * (total - s - t)


def test_closed_forms_match_enumeration_small():
    for n in (5, 8):
        b2 = ext_weight_matrix_A(n, 2).mod(3)
        b3 = ext_weight_matrix_A(n, 3).mod(3)
        ell = adjoint_weight_matrix_A(n).mod(3)
        for s in range(n + 1):
            for t in range(n - s + 1):
                coeffs = pm_coeffs(n, s, t)
                assert closed_form_weight("A2_st", n=n, s=s, t=t) == combination_weight(b2, coeffs)
                assert closed_form_weight("A3_st", n=n, s=s, t=t) == combination_weight(b3, coeffs)
                assert closed_form_weight("A_adjoint_st", n=n, s=s, t=t) == combination_weight(ell, coeffs)
    for m in (4, 7):
        c2 = d_lambda2_matrix(m).mod(3)
        c3 = d_lambda3_matrix(m).mod(3)
        for t in range(m + 1):
            coeffs = [1] * t + [0] * (m - t)
            assert closed_form_weight("D2_t", m=m, t=t) == combination_weight(c2, coeffs)
            assert closed_form_weight("D3_t", m=m, t=t) == combination_weight(c3, coeffs)


# ---------------------------------------------------------------------------
# cases and the suite

def test_run_case_f4_minimal():
    res = run_case(case_by_id("thm4.1"))
    assert res.passed and not res.skipped
    assert res.report.params() == (12, 4, 6)
    assert res.report.self_orthogonal


def test_run_case_small_binary():
    res = run_case(case_by_id("thm2.1/m=2"))
    assert res.passed
    assert res.report.params() == (6, 2, 4)
    assert res.report.doubly_even


def test_run_case_e7_adjoint():
    res = run_case(case_by_id("thm6.2"))
    assert res.passed
    assert res.report.params() == (63, 7, 27)


def test_run_case_respects_limits():
    res = run_case(case_by_id("thm6.3"), VerifyLimits(max_work=10))
    assert res.skipped and not res.passed
    res = run_case(case_by_id("thm2.2/n=14"), VerifyLimits(max_n=12))
    assert res.skipped


def test_work_budget_uses_computed_rank(monkeypatch):
    # registered with k = 2 but of rank 7: n p^k = 567 fits a budget of
    # 10^4, n p^7 = 137781 does not, so the case is skipped unenumerated
    true_case = case_by_id("thm6.2")
    wrong = true_case.replace(case_id="thm6.2/wrong-k", expected_k=2)
    monkeypatch.setattr(verify, "analyze", lambda code: pytest.fail("enumeration started"))
    res = run_case(wrong, VerifyLimits(max_work=10_000))
    assert res.skipped and not res.passed and res.report is None


# The sizes at which each family's claim is stated, by case id pattern,
# read off the size conditions of `verify.CLAIMS`: every such size to
# n = 40 and m = 20, the spin codes to m = 18, the last size under the
# 2^22-entry cap.
ADMISSIBLE = {claims.pattern: admissible_sizes(claims) for claims in CLAIMS}

# Each family row at every admissible size, up to 10^18 codewords; only the
# orbit count reaches the largest.  The binary cube codes are
# doubly even for n = 2, 3 (mod 4) only, so n = 40 carries no flag claim.
EXTENDED_RANGE = (
    TheoremCase("thm2.2/n=40", ModuleSpec("A", 40, "ext3", 2), comb(40, 3), 39, 38 * 37, None, None, "binary ext3"),
    *(claims.case(i) for claims in CLAIMS for i in ADMISSIBLE[claims.pattern]),
)


def test_registered_sizes_are_admissible():
    for claims in CLAIMS:
        assert set(claims.sizes) <= set(ADMISSIBLE[claims.pattern]), claims.pattern


def test_stated_exceptions_lie_below_n0_and_off_the_forms():
    # a d the paper states in place of the form's value: below N0, or for a
    # row with no N0 below the sizes past the registry that the sweep above
    # computes by the forms; an exception equal to its form's value is stale
    for claims in CLAIMS:
        top = claims.n0 or claims.scale * max(claims.sizes) + 1
        for rank, d in claims.exceptions.items():
            assert rank < top and d != claims.classes[rank % claims.modulus].d(rank), (claims.pattern, rank, d)


@pytest.mark.parametrize("case", EXTENDED_RANGE, ids=lambda c: c.case_id)
def test_extended_range_cases_pass(case):
    res = run_case(case, VerifyLimits(max_n=40, max_m=20))
    assert res.passed and not res.skipped, res.mismatches


@pytest.mark.parametrize("claims", CLAIMS, ids=lambda claims: claims.pattern)
def test_module_code_equals_the_unpaired_count(claims):
    # `module_code` weighs all orbits in one batch, over F3 the orbits of c
    # and -c once, and for o(2m) one orbit per class of W(D_m); weighed one
    # by one, every composition gives the same distribution
    for r in ADMISSIBLE[claims.pattern]:
        spec = claims.at(claims.scale * r)
        assert module_code(spec).weight_distribution == weight_distribution_unpaired(spec), claims.pattern.format(r)


# each o(2m) module request, both modes of adjoint-plus-spin among them
D_MODULES = {
    "ext2": ("ext2", None),
    "ext3": ("ext3", None),
    "spin": ("spin", None),
    "adjoint_plus_spin-weight_code": ("adjoint_plus_spin", "weight_code"),
    "adjoint_plus_spin-direct_sum": ("adjoint_plus_spin", "direct_sum"),
}


@pytest.mark.parametrize("module, mode", D_MODULES.values(), ids=D_MODULES)
def test_o2m_module_code_equals_the_unpaired_count_at_every_rank(module, mode):
    # ADMISSIBLE holds the stated sizes of the family rows, and cor3.4 is
    # none: here every m from the module's smallest to 60 or the last one
    # whose matrix `build_weight_matrix` can build
    checked = []
    for m in range(3, 61):
        spec = ModuleSpec("D", m, module, 3, mode=mode)
        if not within_matrix_cap(spec):
            if checked:
                break
            continue  # below the module's smallest rank
        assert module_code(spec).weight_distribution == weight_distribution_unpaired(spec), m
        checked.append(m)
    last = {"ext2": 60, "ext3": 50}.get(module, 18)  # 152 codes in all
    assert checked == list(range(checked[0], last + 1))


def _admissible_compositions(spec):
    # every (n0, n1, n2) of the rank, and for a Cartan-basis sl(n) code only
    # those of coefficient sum 0 (mod 3)
    r = spec.rank
    sum_zero = spec.family == "A" and spec.basis is None
    return [
        (r - n1 - n2, n1, n2)
        for n1 in range(r + 1)
        for n2 in range(r + 1 - n1)
        if not sum_zero or (n1 + 2 * n2) % 3 == 0
    ]


# the compositions `module_code` weighs, one for each class of its symmetry
_ONE_PER_CLASS = {
    "sorted": lambda n0, n1, n2: n0 >= n1 >= n2,
    "mirror": lambda n0, n1, n2: n1 >= n2,
    # W(D_m): (n0, m - n0, 0) for every n0, and for even m also (0, m - 1, 1)
    "weyl": lambda n0, n1, n2: n2 == 0 or (n0, n2) == (0, 1) and (n1 + n2) % 2 == 0,
}


_D_SPECS = {
    f"o{2 * m}-{name}": ModuleSpec("D", m, module, 3, mode=mode)
    for m in (11, 12)
    for name, (module, mode) in D_MODULES.items()
}


@pytest.mark.parametrize(
    "spec, kept",
    [
        # the all-ones vector gives the zero word: one orbit per S3 class
        (ModuleSpec("A", 12, "ext3", 3, basis="matrix_unit_E"), "sorted"),
        (ModuleSpec("A", 12, "adjoint", 3, basis="matrix_unit_E"), "sorted"),
        (ModuleSpec("A", 12, "ext3", 3), "sorted"),
        # it does not, or its sum 11 is not 0 (mod 3): one orbit per mirror pair
        (ModuleSpec("A", 11, "ext3", 3), "mirror"),
        (ModuleSpec("A", 11, "ext2", 3), "mirror"),
        (ModuleSpec("A", 12, "ext2", 3), "mirror"),
        # o(2m): one orbit per class of W(D_m), at odd and even m
        *((spec, "weyl") for spec in _D_SPECS.values()),
    ],
    ids=["sl12-ext3-E", "sl12-adjoint-E", "sl12-ext3", "sl11-ext3", "sl11-ext2", "sl12-ext2", *_D_SPECS],
)
def test_module_code_weighs_one_orbit_per_class(monkeypatch, spec, kept):
    real, calls = verify.orbit_weights, []

    def recording(templates, p, rank, orbits):
        calls.append(list(orbits))
        return real(templates, p, rank, orbits)

    monkeypatch.setattr(verify, "orbit_weights", recording)
    report = module_code(spec)
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(c for c in _admissible_compositions(spec) if _ONE_PER_CLASS[kept](*c))
    assert report.weight_distribution == weight_distribution_unpaired(spec)


# SHA-256 of repr(registered_cases()) as recorded before the registry was
# generated from the family rules
REGISTRY_SHA256 = "7bfe9a7b036a17df57b62d63be25985068b7c8e6248c1ab34f802d01be9f1f1b"


def test_registry_is_pinned():
    assert hashlib.sha256(repr(registered_cases()).encode()).hexdigest() == REGISTRY_SHA256


def test_every_annotation_names_a_registered_case():
    # a mistyped key would silently drop a documented discrepancy
    annotated = {c.case_id for c in registered_cases() if c.annotation is not None}
    assert annotated == set(verify._ANNOTATIONS) == ANNOTATED_CASE_IDS


def test_run_suite_filter_and_determinism():
    suite = run_suite(filter="thm3.*")
    assert suite.totals["cases"] > 0
    assert suite.totals["failed"] == 0
    empty = run_suite(filter="doesnotexist")
    assert empty.totals == {"cases": 0, "passed": 0, "failed": 0, "skipped": 0}
    again = to_json(run_suite(filter="thm3.*"), stable=True)
    assert to_json(suite, stable=True) == again


def test_run_suite_prefix_filter_matches_subcases():
    suite = run_suite(filter="thm2.2")
    assert suite.totals["cases"] == 6


def test_full_suite_passes_with_documented_discrepancies():
    suite = run_suite()
    assert suite.totals["failed"] == 0
    assert suite.totals["skipped"] == 0
    flagged = {d["case_id"] for d in suite.discrepancies}
    assert flagged == ANNOTATED_CASE_IDS - {"cor3.4/m=11"}  # optional case not run by default
    # the suite runs at the default limits, which no registered case exceeds
    full = run_suite(include_optional=True)
    assert (full.totals["cases"], full.totals["passed"], full.totals["skipped"]) == (56, 56, 0)


def test_optional_case_needs_flag():
    default_ids = {r.case_id for r in run_suite(filter="cor3.4*").results}
    assert "cor3.4/m=11" not in default_ids
    with_opt = {r.case_id for r in run_suite(filter="cor3.4/m=11", include_optional=True).results}
    assert with_opt == {"cor3.4/m=11"}


def test_suite_json_schema():
    suite = run_suite(filter="thm4.*")
    payload = json.loads(to_json(suite, stable=True))
    assert set(payload) == {"cases", "totals", "discrepancies"}
    for entry in payload["cases"]:
        assert {"case_id", "citation", "expected", "computed", "pass", "skipped", "millis"} <= set(entry)
        assert entry["millis"] == 0.0
        assert {"n", "k", "d", "flags"} == set(entry["expected"])


def _suite_of(monkeypatch, *cases):
    monkeypatch.setattr(verify, "registered_cases", lambda: cases)
    return run_suite()


def _suite_with_a_skipped_case(monkeypatch):
    suite = run_suite(filter="thm2.1")
    skipped = run_case(case_by_id("thm2.1/m=2"), VerifyLimits(max_n=3))  # sl(4) is past max_n
    assert skipped.skipped
    return SuiteReport((suite.results[0], skipped, *suite.results[1:]))


def test_claim_rows_are_read_only():
    # a row's maps are held read-only, so no caller can edit the closed forms
    # or the stated exceptions that every registry build reads
    thm21, thm22 = CLAIMS[0], CLAIMS[1]
    with pytest.raises(TypeError):
        thm21.classes[0] = thm21.classes[0]
    with pytest.raises(TypeError):
        thm22.exceptions[6] = 9
    with pytest.raises(TypeError):
        thm21.exceptions[4] = 9  # the empty default too
    assert dict(thm22.exceptions) == {6: 8, 7: 16}
    # a changed row is read-only too, and copies the map it is given
    classes = dict(thm21.classes)
    changed = thm21.replace(classes=classes)
    classes.clear()
    assert dict(changed.classes) == dict(thm21.classes)
    with pytest.raises(TypeError):
        changed.classes[1] = thm21.classes[0]


def _record_samples():
    """(record, a field, a new value for it, a name that is no field, whether
    it hashes) for each of the sixteen record classes."""
    code = row_space_code(FpMatrix(3, np.eye(2, dtype=np.int8)))
    report = analyze(code)
    case = case_by_id("thm4.1")
    spec = case.spec
    annotation = case_by_id("thm2.4/K/m=2").annotation
    forms = CLAIMS[0].classes[0]
    return [
        (code.basis, "p", 2, "rows", False),  # its own __eq__ on the entries, so no hash
        (code, "basis", FpMatrix(3, np.ones((1, 2), dtype=np.int8)), "k", False),  # holds an FpMatrix
        (report, "self_orthogonal", not report.self_orthogonal, "d", True),  # d is read off the counts
        (build_weight_matrix(spec), "module", "other", "rows", True),  # equal only to itself
        (spec, "rank", 5, "sum_zero", True),
        (annotation, "note", "another note", "computed", False),  # holds a read-only map
        (case, "expected_d", 7, "passed", True),
        (run_case(case), "millis", 1.5, "passed", True),
        (run_suite(filter="thm4.1"), "results", (), "totals", True),
        (VerifyLimits(), "max_n", 9, "max_k", True),
        (verify.N, "den", 2, "degree", True),
        (Pow2(-1), "shift", 3, "rank", True),
        (forms, "k", verify.N, "rank", True),
        (CLAIMS[0], "n0", 6, "rank", False),  # holds read-only maps
        (reproduce_table("2.1")[0], "stated", 1, "note", True),
        (BranchCheck("check", report, report), "check_id", "other", "identical", True),
    ]


RECORD_CLASSES = (
    FpMatrix, LinearCode, CodeReport, repweights.WeightMatrix, ModuleSpec, Annotation, TheoremCase, CaseResult,
    SuiteReport, VerifyLimits, Poly, Pow2, Forms, FamilyClaims, TableRow, BranchCheck,
)


def test_every_value_class_is_a_record():
    records = [cls for module in (fieldcodes, repweights, verify) for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record]
    assert set(records) == set(RECORD_CLASSES)
    assert [type(sample[0]) for sample in _record_samples()] == list(RECORD_CLASSES)


@pytest.mark.parametrize("index", range(len(RECORD_CLASSES)), ids=[cls.__name__ for cls in RECORD_CLASSES])
def test_record_contract(index):
    record, name, value, unknown, hashable = _record_samples()[index]
    cls = type(record)
    fields = cls._fields
    assert name in fields and unknown not in fields
    # no field can be assigned or deleted
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    # replace changes the one field, keeps the others and refuses a name that is no field
    changed = record.replace(**{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert all(repr(getattr(changed, f)) == repr(getattr(record, f)) for f in fields if f != name)
    with pytest.raises(TypeError, match=f"got an unexpected keyword argument '{unknown}'"):
        record.replace(**{unknown: value})
    # equal records hash equally; a weight matrix is equal only to itself
    again = record.replace()
    assert again is not record
    if cls is repweights.WeightMatrix:
        assert again != record and record == record and hash(record) == object.__hash__(record)
    else:
        assert again == record and not again != record and changed != record
        if hashable:
            assert hash(again) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)
    # the repr names the class and each field, in order, as Name(field=value, ...)
    text = repr(record)
    assert text.startswith(f"{cls.__name__}({fields[0]}=") and text.endswith(")")
    found = [re.search(rf"[(]{f}=|, {f}=", text) for f in fields]
    assert None not in found and [m.start() for m in found] == sorted(m.start() for m in found), text


def test_record_binds_its_arguments_as_a_call_would():
    assert ModuleSpec("A", 4, "ext2", 2) == ModuleSpec(p=2, module="ext2", rank=4, family="A", basis=None)
    assert list(vars(ModuleSpec(p=2, module="ext2", rank=4, family="A"))) == list(ModuleSpec._fields)
    # keywords after the positional arguments, the rest from the defaults
    assert vars(ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="direct_sum")) == vars(
        ModuleSpec("D", 8, "adjoint_plus_spin", 3, "direct_sum", None)
    )
    assert repr(ModuleSpec("D", 5, "spin", 3)) == "ModuleSpec(family='D', rank=5, module='spin', p=3, mode=None, basis=None)"
    assert repr(CodeReport(3, 4, 1, {3: 2, 0: 1}, True)) == (
        "CodeReport(p=3, n=4, k=1, counts=((0, 1), (3, 2)), self_orthogonal=True, d=3, even=None, doubly_even=None)"
    )
    for args, kwargs, message in (
        (("A", 4), {}, "ModuleSpec() missing required arguments: 'module', 'p'"),
        (("A", 4), {"p": 2, "mode": None}, "ModuleSpec() missing required arguments: 'module'"),
        (("A", 4, "ext2", 2, None, None, 1), {}, "ModuleSpec() takes 6 arguments but 7 were given"),
        (("A", 4, "ext2"), {"rank": 4, "p": 2}, "ModuleSpec() got multiple values for argument 'rank'"),
        (("A", 4, "ext2", 2), {"field": 2}, "ModuleSpec() got an unexpected keyword argument 'field'"),
    ):
        with pytest.raises(TypeError, match=re.escape(message)):
            ModuleSpec(*args, **kwargs)
    # positional arguments fill the fields in order, so defaults come last
    with pytest.raises(TypeError, match="Mixed: a field without a default follows one with a default"):
        type("Mixed", (Record,), {"__annotations__": {"a": "int", "b": "int"}, "a": 0})


def test_suite_output_cannot_edit_the_registry():
    # the registry is built once per process: its stated values are
    # read-only, and a suite hands out copies of them
    suite = run_suite(filter="thm2.4/K/m=2")
    suite.discrepancies[0]["stated"]["d"] = 99
    case = case_by_id("thm2.4/K/m=2")
    assert dict(case.annotation.stated) == {"d": 3}
    with pytest.raises(TypeError):
        case.annotation.stated["d"] = 99
    payload = json.loads(to_json(suite, stable=True))
    assert payload["cases"][0]["annotation"]["stated"] == payload["discrepancies"][0]["stated"] == {"d": 3}


def test_suite_totals_and_discrepancies_with_skipped_cases(monkeypatch):
    # o(24) is past the default max_m = 11, so the last two cases are
    # skipped: neither fails the suite, and neither adds a discrepancy,
    # though the last carries an annotation
    past = ModuleSpec("D", 12, "ext2", 3)
    suite = _suite_of(
        monkeypatch,
        case_by_id("thm2.1/m=2"),
        case_by_id("thm2.4/K/m=2"),
        case_by_id("thm4.1").replace(expected_d=7),
        case_by_id("thm3.1/m=10").replace(case_id="o24", spec=past),
        case_by_id("thm3.3/m=8").replace(case_id="o24/annotated", spec=past),
    )
    assert [(r.passed, r.skipped) for r in suite.results] == [
        (True, False),
        (True, False),
        (False, False),
        (False, True),
        (False, True),
    ]
    assert suite.totals == {"cases": 5, "passed": 2, "failed": 1, "skipped": 2}
    assert suite.discrepancies == (
        {
            "case_id": "thm2.4/K/m=2",
            "stated": {"d": 3},
            "computed": {"d": 9},
            "note": "stated distance 3(m-1) contradicts enumeration; all nonzero weights are 3(2m-1) or larger",
        },
        {"case_id": "thm4.1", "failures": ["d: expected 7, computed 6"]},
    )


# a note holding the text of a weight_distribution entry, which JSON writes with its quotes escaped
TRAP_NOTE = 'a stated "weight_distribution": 7 in the note'

SUITES = {
    "full": lambda _: run_suite(include_optional=True),
    "filtered": lambda _: run_suite(filter="thm3.*"),
    "failing": lambda mp: _suite_of(
        mp, case_by_id("thm2.1/m=2"), case_by_id("thm4.1").replace(expected_d=7), case_by_id("thm4.2")
    ),
    "skipped": _suite_with_a_skipped_case,
    "note": lambda mp: _suite_of(
        mp, case_by_id("thm3.3/m=5").replace(annotation=Annotation({"d": 7}, TRAP_NOTE))
    ),
}


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "timed"])
@pytest.mark.parametrize("name", SUITES)
def test_to_json_equals_json_dumps(monkeypatch, name, stable):
    report = SUITES[name](monkeypatch)
    assert_same_text(to_json(report, stable), suite_json_by_dumps(report, stable))


# keys with non-ASCII text, quotes, backslashes and control characters
JSON_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", "\U0001f600", "\ud800", ""])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()  # nan and both infinities among them
    | st.just(-0.0)
    | st.text(max_size=6)
)
# int lists dense with zeros, some holding bools, which json's encoder writes as a whole
ZERO_RUNS = st.lists(st.just(0) | st.integers(), max_size=40) | st.lists(
    st.just(0) | st.integers() | st.booleans(), max_size=20
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | ZERO_RUNS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_KEYS, inner, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@st.composite
def zero_filled(draw):
    """A `ZeroFilled` and the list it stands for, each wrapped alike in up to
    three containers: a list beside a scalar, or a dict under a drawn key."""
    length = draw(st.integers(0, 300))
    nonzero = draw(st.sets(st.integers(0, length - 1), max_size=12)) if length else ()
    pairs = tuple((w, draw(st.integers(1, 10**30) | st.integers(-(2**70), 2**70))) for w in sorted(nonzero))
    view, dense = ZeroFilled(pairs, length), [0] * length
    for w, a in pairs:
        dense[w] = a
    for key in draw(st.lists(st.none() | JSON_KEYS, max_size=3)):
        view, dense = ([view, 1], [dense, 1]) if key is None else ({key: view}, {key: dense})
    return view, dense


# A_0 only; leading, trailing and no zero runs; all zeros; the empty list
@example((ZeroFilled(((0, 1),), 1), [1]))
@example((ZeroFilled(((0, 1), (3, 8)), 6), [1, 0, 0, 8, 0, 0]))
@example((ZeroFilled(((2, 5), (299, 7)), 300), [0, 0, 5, *[0] * 296, 7]))
@example((ZeroFilled(((0, 2), (1, 3), (2, 4)), 3), [2, 3, 4]))
@example((ZeroFilled((), 4), [0, 0, 0, 0]))
@example((ZeroFilled((), 0), []))
@settings(max_examples=300, deadline=None)
@given(zero_filled())
def test_json_text_writes_zero_filled_as_its_list(value):
    view, dense = value
    assert json_text(view) == json.dumps(dense, indent=2, sort_keys=True) + "\n"


def test_json_text_without_json_c_encoder(monkeypatch):
    # where json has no C accelerator, its Python encoder writes the flat containers
    value = {"a": [1, 0.5, None, True, "\u00e9"], "b": {"c": float("nan"), "d": ZeroFilled(((1, 2),), 3)}}
    monkeypatch.setattr(verify, "c_make_encoder", None)
    verify._flat.cache_clear()
    try:
        text = json_text(value)
    finally:
        verify._flat.cache_clear()
    value["b"]["d"] = [0, 2, 0]
    assert text == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("key", [1, None])
@pytest.mark.parametrize("entry", [0, [0]], ids=["flat", "nested"])
def test_json_text_refuses_keys_that_are_not_str(key, entry):
    # json would write such a key as a string
    for value in ({key: entry}, [{"a": {key: entry}, "b": [1]}]):
        with pytest.raises(TypeError):
            json_text(value)


def test_annotations_record_stated_and_computed():
    suite = run_suite(filter="thm2.4/K*")
    notes = {d["case_id"]: d for d in suite.discrepancies}
    assert notes["thm2.4/K/m=2"]["stated"] == {"d": 3}
    assert notes["thm2.4/K/m=2"]["computed"] == {"d": 9}


@pytest.mark.parametrize(
    "case_id, field, wrong, mismatch",
    [
        ("thm2.1/m=2", "expected_n", 7, "n: expected 7, computed 6"),
        ("thm6.1", "expected_k", 6, "k: expected 6, computed 7"),
        ("thm4.1", "expected_d", 7, "d: expected 7, computed 6"),
        ("thm2.1/m=2", "doubly_even", False, "doubly_even: expected False, computed True"),
        ("thm3.2/m=5", "self_orthogonal", True, "self_orthogonal: expected True, computed False"),
    ],
)
def test_run_case_reports_mismatches(case_id, field, wrong, mismatch):
    # each gate fires: a wrong claim fails the case and names itself
    result = run_case(case_by_id(case_id).replace(**{field: wrong}))
    assert not result.passed and not result.skipped
    assert result.mismatches == (mismatch,)


def test_run_case_fails_a_report_past_the_griesmer_bound(monkeypatch):
    # [15, 4, 8]_2 meets the bound with equality: no linear [15, 4, 9]_2
    # code exists, so d = 9 fails even where the expectation claims it.  A
    # forged report's d comes from its counts, 15 words of weight 9, which
    # are not doubly even, so the case drops that expectation
    report = run_case(case_by_id("thm2.1/m=3")).report
    assert report.params() == (15, 4, 8)
    case = case_by_id("thm2.1/m=3").replace(expected_d=9, doubly_even=None)
    monkeypatch.setattr(verify, "module_code", lambda spec: report.replace(counts={0: 1, 9: 15}))
    result = run_case(case)
    assert not result.passed and not result.skipped
    assert result.mismatches == ("griesmer: n = 15 is below the bound 19 for k = 4, d = 9",)


def test_griesmer_bound_over_the_registry():
    # n = sum_{i<k} ceil(d / p^i) only for five short codes: no linear code
    # of their length and dimension has a larger d
    reports = {r.case_id: r.report for r in run_suite(include_optional=True).results}
    meets = {
        case_id: (r.n, r.k, r.d, r.p)
        for case_id, r in reports.items()
        if r.n == verify._griesmer_length(r.p, r.k, r.d)
    }
    assert meets == {
        "thm2.1/m=2": (6, 2, 4, 2),
        "thm2.1/m=3": (15, 4, 8, 2),
        "thm2.3/ext2/n=5": (10, 4, 6, 3),
        "thm2.3/ext3/n=5": (10, 4, 6, 3),
        "thm2.3/rowsE/n=5": (10, 4, 6, 3),
    }
    # a d one larger breaks the bound in 11 cases; no linear [24,4,16]_3
    # code exists, so the F4 adjoint code of thm4.2 has the largest d possible
    past = {case_id for case_id, r in reports.items() if r.n < verify._griesmer_length(r.p, r.k, r.d + 1)}
    assert past == {
        *meets,
        "thm2.2/n=7",
        "thm2.3/ext3/n=6",
        "thm2.4/L/n=4",
        "thm2.4/K/m=2",
        "thm3.2/m=3",
        "thm4.2",
    }
    assert reports["thm4.2"].params() == (24, 4, 15)


def test_verify_exits_one_on_a_failing_case(monkeypatch, capsys):
    wrong = case_by_id("thm4.1").replace(expected_d=7)
    monkeypatch.setattr(verify, "registered_cases", lambda: (case_by_id("thm2.1/m=2"), wrong))
    assert cli.run(["verify"]) == 1
    assert "FAIL  thm4.1 " in capsys.readouterr().out
    assert cli.run(["verify", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["totals"] == {"cases": 2, "passed": 1, "failed": 1, "skipped": 0}


# ---------------------------------------------------------------------------
# tables

def test_all_tables_reproduce():
    for tid in TABLE_IDS:
        rows = reproduce_table(tid)
        assert rows, tid
        assert all(r.match for r in rows), tid


@pytest.mark.parametrize("tid", TABLE_IDS)
def test_tables_agree_with_the_matrix_product(tid):
    # the second engine: each entry as a coefficient vector times the built matrix
    assert [r.computed for r in reproduce_table(tid)] == table_by_matrix(tid)


def test_tables_build_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table built a weight matrix")

    names = ("ext_weight_matrix_A", "adjoint_weight_matrix_A", "d_lambda2_matrix", "d_spin_matrix")
    for name in (*names, "build_weight_matrix", "combination_weight"):
        monkeypatch.setattr(verify, name, refuse)
    # and any builder reached some other way
    monkeypatch.setattr(repweights.WeightMatrix, "__post_init__", refuse)
    for tid in TABLE_IDS:
        assert all(r.match for r in reproduce_table(tid)), tid


def test_table_gate_fires(monkeypatch, capsys):
    # an engine off by one: every row mismatches, the command fails and says so
    real = verify.orbit_weights
    monkeypatch.setattr(verify, "orbit_weights", lambda *args: [w + 1 for w in real(*args)])
    for tid in TABLE_IDS:
        assert not any(r.match for r in reproduce_table(tid)), tid
    assert cli.run(["table", "2.1"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 5


def test_a_zero_word_count_off_the_powers_of_p_raises(monkeypatch):
    # an engine off by one leaves no coefficient vector on the zero word: the
    # suite must fail loudly, not stop early and report the cases before
    real = verify.orbit_weights
    monkeypatch.setattr(verify, "orbit_weights", lambda *args: [w + 1 for w in real(*args)])
    with pytest.raises(ValueError, match="0 coefficient vectors give the zero word, not a power of 2"):
        verify.run_suite()
    assert cli.run(["verify"]) == 2


def test_table_21_values():
    assert tuple(r.computed for r in reproduce_table("2.1")) == (56, 64, 56, 64, 120)


def test_table_35_annotated_entry():
    rows = reproduce_table("3.5")
    assert tuple(r.computed for r in rows) == (32, 16, 24, 20, 22, 30)
    last = rows[-1]
    assert last.annotated and last.stated == 21 and last.computed == 30


def test_table_24_annotated_entry():
    rows = reproduce_table("2.4")
    annotated = [r for r in rows if r.annotated]
    assert len(annotated) == 1
    assert annotated[0].stated == 216 and annotated[0].computed == 236


def test_table_63_values():
    assert tuple(r.computed for r in reproduce_table("6.3")) == (26, 40, 42, 32, 30, 24, 38, 34)


def test_unknown_table_rejected():
    # the error lists the tables in TABLE_IDS order, the order of the paper
    known = "2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 3.1, 3.2, 3.3, 3.4, 3.5, 6.2, 6.3"
    assert ", ".join(TABLE_IDS) == known
    with pytest.raises(ValueError, match=f"known: {re.escape(known)}$"):
        reproduce_table("9.9")


# ---------------------------------------------------------------------------
# cross-checks

def test_branch_equivalences_identical():
    for check in branch_equivalences():
        assert check.identical, check.check_id
        assert check.left.weight_distribution == check.right.weight_distribution


def test_branch_gate_fires(monkeypatch):
    # one codeword of sl(8) ext2 moved from weight d to the next weight that
    # occurs: n, k and d hold, so only the distributions can tell that pair
    # apart
    real = verify.module_code
    shifted_spec = ModuleSpec("A", 8, "ext2", 3)

    def shifted(spec):
        report = real(spec)
        if spec != shifted_spec:
            return report
        counts = dict(report.counts)
        low, high = list(counts)[1:3]  # d and the next weight that occurs
        counts[low] -= 1
        counts[high] += 1
        return report.replace(counts=counts)

    monkeypatch.setattr(verify, "module_code", shifted)
    checks = {c.check_id: c for c in branch_equivalences()}
    assert {check_id: c.identical for check_id, c in checks.items()} == {
        "E6-adjoint=o(10)-direct-sum": True,
        "E8-adjoint=o(16)-combined": True,
        "E7-minimal=sl(8)-pairs": False,
    }
    assert checks["E7-minimal=sl(8)-pairs"].right.params() == (28, 7, 12)


def test_weyl_invariance_spot_checks():
    # every module the suite registers, and the four published fixtures
    specs = dict.fromkeys(case.spec for case in registered_cases())
    assert len(specs) == 56
    for spec in specs:
        assert weyl_invariance_violations(build_weight_matrix(spec), spec.p, 200, seed=99) == 0, spec
    for name in ("F4_minimal", "F4_adjoint", "E6_minimal", "E7_minimal"):
        assert weyl_invariance_violations(repweights.fixture_matrix(name), 3, 200, seed=99) == 0, name


# Cartan rank at most 5, and E6: the oracle weighs every vector of F_p^rank
SMALL_ALGEBRAS = [("A", n) for n in range(2, 7)] + [("D", m) for m in (3, 4, 5)] + [("F4", 4), ("E6", 6)]


def _reflection_orbit(column, cartan, p):
    """The orbit of a column mod p under every w -> w - w_i C[i]."""
    orbit = {column}
    while True:
        moved = {tuple((x - w[i] * c) % p for x, c in zip(w, row)) for w in orbit for i, row in enumerate(cartan)}
        if moved <= orbit:
            return sorted(orbit)
        orbit |= moved


@st.composite
def small_weight_matrices(draw):
    """A random matrix on the Cartan generators of a small algebra; half of
    them closed under the reflections, so W keeps their weights, and half of
    those then short of one column."""
    family, rank = draw(st.sampled_from(SMALL_ALGEBRAS))
    p = draw(st.sampled_from((2, 3)))
    cartan = cartan_matrix(family, rank - 1 if family == "A" else rank)
    column = st.tuples(*[st.integers(-2, 2)] * len(cartan))
    columns = draw(st.lists(column, min_size=1, max_size=6))
    if draw(st.booleans()):
        columns = [w for start in columns for w in _reflection_orbit(tuple(x % p for x in start), cartan, p)]
        if len(columns) > 1 and draw(st.booleans()):
            columns.pop()
    return repweights.WeightMatrix(family, rank, "sample", "cartan_h", np.array(columns).T), p


@settings(max_examples=150, deadline=None)
@given(small_weight_matrices())
def test_weyl_invariance_equals_the_enumeration(sample):
    # the count equals the oracle's on every matrix, invariant or not
    wm, p = sample
    assert weyl_invariance_violations(wm, p, 200) == weyl_violations_by_enumeration(wm, p)


@pytest.mark.parametrize(
    "spec",
    [
        ModuleSpec("A", 8, "ext3", 3, basis="matrix_unit_E"),
        ModuleSpec("D", 6, "ext2", 3),
        ModuleSpec("E6", 6, "minimal", 3),
        ModuleSpec("A", 10, "ext3", 2),
        ModuleSpec("D", 8, "spin", 3),
        # Cartan rank 79: a column keyed as a base-3 int64 would overflow
        # past rank 39; the byte key is exact
        ModuleSpec("A", 80, "ext2", 3),
    ],
    ids=["A-ext3", "D-ext2", "E6-minimal", "A10-ext3-F2", "D8-spin", "A80-ext2"],
)
def test_weyl_invariance_fuzz_catches_a_wrong_entry(spec):
    # one entry off by one: the columns are no longer a union of Weyl
    # orbits up to scalars, so some simple reflection must change them
    wm = build_weight_matrix(spec)
    assert weyl_invariance_violations(wm, spec.p, 200, seed=99) == 0
    entries = wm.entries.copy()
    entries[0, 0] += 1
    broken = wm.replace(entries=entries)
    violations = weyl_invariance_violations(broken, spec.p, 200, seed=99)
    assert violations > 0
    assert violations == weyl_violations_by_columns(broken, spec.p)
    # the columns twice over, then one copy of column 1 replaced by column 0:
    # every column class is still there, only their multiset has changed
    doubled = np.hstack([wm.entries, wm.entries])
    assert weyl_invariance_violations(wm.replace(entries=doubled), spec.p, 200) == 0
    doubled[:, wm.cols + 1] = doubled[:, 0]
    duplicated = wm.replace(entries=doubled)
    violations = weyl_invariance_violations(duplicated, spec.p, 200)
    assert violations > 0
    assert violations == weyl_violations_by_columns(duplicated, spec.p)


def test_weyl_invariance_fuzz_is_exact_past_uint8():
    # 199 dense Cartan rows, each column 2 * (1, ..., 1): far past the rank
    # at which a column keyed as a base-3 int64 would overflow
    dense = repweights.WeightMatrix("A", 200, "dense", "cartan_h", np.full((199, 4), 2))
    violations = weyl_invariance_violations(dense, 3, 200, seed=99)
    assert violations == weyl_violations_by_columns(dense, 3)


@pytest.mark.parametrize("trials, seed", [(1, 0), (1000, 20240801), (200, -1)])
def test_weyl_invariance_does_not_depend_on_trials_or_seed(trials, seed):
    # the check samples nothing, so trials and seed change nothing, and
    # both may be left out
    wm = build_weight_matrix(ModuleSpec("D", 6, "ext2", 3))
    entries = wm.entries.copy()
    entries[0, 0] += 1
    broken = wm.replace(entries=entries)
    assert weyl_invariance_violations(wm, 3, trials, seed) == weyl_invariance_violations(wm, 3) == 0
    assert weyl_invariance_violations(broken, 3, trials, seed) == weyl_violations_by_columns(broken, 3) == 1
    assert weyl_invariance_violations(broken, 3) == 1


@pytest.mark.parametrize(
    "family, rank, module, rows, cartan_rank",
    [("A", 8, "ext2", 5, 7), ("A", 8, "ext2", 8, 7), ("D", 6, "ext2", 5, 6), ("E6", 6, "minimal", 5, 6)],
)
def test_weyl_invariance_refuses_a_matrix_off_its_cartan_rank(family, rank, module, rows, cartan_rank):
    # a Cartan-basis matrix has one row per Cartan generator: five rows of
    # the sl(8) matrix must not be checked as sl(6)
    spec = ModuleSpec(family, rank, module, 3)
    coords = build_weight_matrix(spec.replace(basis="matrix_unit_E") if family == "A" else spec).entries
    wm = repweights.WeightMatrix(family, rank, module, "cartan_h", coords[:rows])
    message = f"a Cartan-basis matrix of {family} at rank {rank} needs {cartan_rank} rows, got {rows}"
    for check in (repweights.to_cartan_h, lambda wm: weyl_invariance_violations(wm, 3, 10)):
        with pytest.raises(ValueError, match=re.escape(message)):
            check(wm)


def test_weyl_invariance_holds_on_every_registered_module_and_fixture():
    specs = dict.fromkeys(case.spec for case in registered_cases())
    assert len(specs) == 56
    for spec in specs:
        assert weyl_invariance_violations(build_weight_matrix(spec), spec.p, 1) == 0, spec
    for name in ("F4_minimal", "F4_adjoint", "E6_minimal", "E7_minimal"):
        fixture = repweights.fixture_matrix(name)
        assert repweights.to_cartan_h(fixture) is fixture
        assert weyl_invariance_violations(fixture, 3, 1) == 0, name


def test_every_binary_doubly_even_case_is_self_orthogonal():
    for res in run_suite(filter="thm2.1*").results + run_suite(filter="thm2.2*").results:
        assert res.report.doubly_even
        assert res.report.self_orthogonal
