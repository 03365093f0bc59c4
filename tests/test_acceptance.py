"""Acceptance suite: every headline claim at its stated tolerance.

One test per criterion; each prints a PASS line with its elapsed time.
Values are exact.  Where a stated value disagrees with exhaustive
enumeration, the computed value is asserted and the registered annotation
documenting the discrepancy is required to be present.
"""

import time
from math import comb

import numpy as np

from liecodes.fieldcodes import analyze, row_space_code
from liecodes.repweights import (
    ModuleSpec,
    build_weight_matrix,
    exceptional_adjoint_matrix,
    exceptional_minimal_matrix,
    fixture_matrix,
)
from liecodes.verify import (
    TABLE_IDS,
    branch_equivalences,
    registered_cases,
    reproduce_table,
    run_case,
    run_suite,
    weyl_invariance_violations,
)

from _oracles import closed_form_weight, naive_min_distance, naive_weight_distribution

CASES = {c.case_id: c for c in registered_cases()}


def _run(case_id):
    case = CASES[case_id]
    start = time.perf_counter()
    result = run_case(case)
    elapsed = time.perf_counter() - start
    assert not result.skipped, case_id
    assert result.passed, (case_id, result.mismatches)
    return case, result, elapsed


def _check(case_id, params, budget_s, self_orthogonal=None, doubly_even=None, stated=None):
    case, result, elapsed = _run(case_id)
    assert result.report.params() == params, (case_id, result.report.params())
    if self_orthogonal is not None:
        assert result.report.self_orthogonal == self_orthogonal, case_id
    if doubly_even is not None:
        assert result.report.doubly_even == doubly_even, case_id
    if stated is None:
        assert case.annotation is None, case_id
    else:
        assert case.annotation is not None, case_id
        assert case.annotation.stated == stated, case_id
    assert elapsed < budget_s, (case_id, elapsed)
    return elapsed


def _announce(number, detail, started):
    print(f"ACCEPTANCE {number}: PASS ({time.perf_counter() - started:.2f} s) {detail}")


def test_criterion_1_exceptional_codes():
    started = time.perf_counter()
    expected = {
        "thm4.1": (12, 4, 6),
        "thm4.2": (24, 4, 15),
        "thm5.1": (27, 6, 12),
        "thm5.2": (36, 5, 21),
        "thm6.1": (28, 7, 12),
        "thm6.2": (63, 7, 27),
        "thm6.3": (120, 8, 57),
    }
    for case_id, params in expected.items():
        _check(case_id, params, budget_s=1.0, self_orthogonal=True)
    _announce(1, "all seven exceptional weight codes exact and self-orthogonal", started)


def test_criterion_2_binary_square_power():
    started = time.perf_counter()
    for m in range(2, 8):
        params = (m * (2 * m - 1), 2 * (m - 1), 4 * (m - 1))
        _check(f"thm2.1/m={m}", params, budget_s=1.0, self_orthogonal=True, doubly_even=True)
    assert CASES["thm2.1/m=2"].expected_dict()["n"] == 6  # the [6,2,4] inline claim
    assert CASES["thm2.1/m=3"].expected_dict()["n"] == 15  # the [15,4,8] inline claim
    _announce(2, "binary square-power codes for m=2..7, doubly even and self-orthogonal", started)


def test_criterion_3_binary_cube_power():
    started = time.perf_counter()
    budgets = {6: 1.0, 7: 1.0, 10: 10.0, 11: 10.0, 14: 10.0, 15: 10.0}
    inline_d = {6: 8, 7: 16}
    for n in (6, 7, 10, 11, 14, 15):
        d = inline_d.get(n, (n - 2) * (n - 3))
        _check(f"thm2.2/n={n}", (comb(n, 3), n - 1, d), budgets[n], self_orthogonal=True, doubly_even=True)
    _announce(3, "binary cube-power codes incl. [455,14,156] within 10 s", started)


def test_criterion_4_ternary_exterior_codes():
    started = time.perf_counter()
    for n, params in [(5, (10, 4, 6)), (8, (28, 7, 12)), (11, (55, 10, 18))]:
        _check(f"thm2.3/ext2/n={n}", params, budget_s=30.0, self_orthogonal=True)
    expected = {
        5: (10, 4, 6),
        6: (20, 4, 12),  # stated length 15 is a documented misprint
        8: (56, 7, 21),
        9: (84, 7, 42),
        11: (165, 10, 45),
        12: (220, 10, 90),
    }
    for n, params in expected.items():
        stated = {"n": 15} if n == 6 else None
        _check(f"thm2.3/ext3/n={n}", params, budget_s=30.0, self_orthogonal=True, stated=stated)
    _announce(4, "ternary exterior-power codes incl. [220,10,90] within 30 s", started)


def test_criterion_5_adjoint_sl_codes():
    started = time.perf_counter()
    for n in range(4, 9):
        _check(f"thm2.4/L/n={n}", (comb(n, 2), n - 1, n - 1), budget_s=1.0)
    # stated distance 3(m-1) is a documented misprint; enumeration gives 3(2m-1)
    for m in (2, 3):
        _check(
            f"thm2.4/K/m={m}",
            (comb(3 * m, 2), 3 * m - 2, 3 * (2 * m - 1)),
            budget_s=1.0,
            self_orthogonal=True,
            stated={"d": 3 * (m - 1)},
        )
    _announce(5, "adjoint sl(n) codes; K-code distance discrepancy documented", started)


def test_criterion_6_orthogonal_family_codes():
    started = time.perf_counter()
    for m in (4, 7, 10):
        _check(f"thm3.1/m={m}", (m * (m - 1), m, 2 * (m - 1)), budget_s=5.0, self_orthogonal=True)
    for m in (3, 4, 6, 7):
        params = (m * (m - 1) * (2 * m - 1) // 3, m, (m - 1) * (2 * m - 3))
        _check(f"thm3.2/m={m}", params, budget_s=5.0, self_orthogonal=True)
    for m in (5, 8):  # self-orthogonality fails exactly when m = -1 mod 3
        params = (m * (m - 1) * (2 * m - 1) // 3, m, (m - 1) * (2 * m - 3))
        _check(f"thm3.2/m={m}", params, budget_s=5.0, self_orthogonal=False)
    spin_expected = {4: (8, 4, 2), 5: (16, 5, 8), 6: (32, 6, 12), 7: (64, 7, 32), 8: (128, 8, 58)}
    for m, params in spin_expected.items():
        stated = {"d": 2 ** (m - 2)} if m in (4, 8) else None
        _check(f"thm3.3/m={m}", params, budget_s=5.0, stated=stated)
    _announce(6, "o(2m) exterior and spin codes; spin m=4,8 discrepancies documented", started)


def test_criterion_7_combined_codes():
    started = time.perf_counter()
    _check("cor3.4/m=8", (120, 8, 57), budget_s=5.0, self_orthogonal=True)
    _check("cor3.4/m=9", (400, 9, 186), budget_s=5.0, self_orthogonal=True, stated={"k": 8})
    _check("cor3.4/m=5", (36, 5, 21), budget_s=5.0, self_orthogonal=True)
    _check("cor3.4/m=6", (62, 6, 27), budget_s=5.0, self_orthogonal=True)
    # the large case stays optional: absent by default, run when included
    assert CASES["cor3.4/m=11"].optional
    assert "cor3.4/m=11" not in {r.case_id for r in run_suite(filter="cor3.4*").results}
    elapsed = _check("cor3.4/m=11", (1134, 11, 549), budget_s=60.0, self_orthogonal=True, stated={"k": 8})
    _announce(7, f"combined codes incl. optional [1134,11,549] in {elapsed:.2f} s", started)


def test_criterion_8_tables_reproduced():
    started = time.perf_counter()
    annotated = {("2.4", "t=3"): (216, 236), ("3.5", "t=6"): (21, 30)}
    for tid in TABLE_IDS:
        for row in reproduce_table(tid):
            key = (tid, row.label)
            if key in annotated:
                stated, computed = annotated[key]
                assert row.annotated and (row.stated, row.computed) == (stated, computed), key
            else:
                assert not row.annotated, key
                assert row.computed == row.stated, (key, row.stated, row.computed)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(8, "all thirteen numeric tables entry-for-entry (two entries documented)", started)


def test_criterion_9_fixture_equivalence():
    started = time.perf_counter()

    def signed(cols):
        out = []
        for col in cols.T.tolist():
            lead = next((x for x in col if x), 0)
            out.append(tuple(col) if lead >= 0 else tuple(-x for x in col))
        return sorted(out)

    pairs = [
        (exceptional_minimal_matrix("F4"), fixture_matrix("F4_minimal")),
        (exceptional_adjoint_matrix("F4"), fixture_matrix("F4_adjoint")),
        (exceptional_minimal_matrix("E6"), fixture_matrix("E6_minimal")),
        (exceptional_minimal_matrix("E7"), fixture_matrix("E7_minimal")),
    ]
    for generated, fixture in pairs:
        assert signed(generated.entries) == signed(fixture.entries)
        left = analyze(row_space_code(generated.mod(3)))
        right = analyze(row_space_code(fixture.mod(3)))
        assert left.params() == right.params()
        assert left.weight_distribution == right.weight_distribution
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _announce(9, "generated matrices match the published fixtures up to column signs", started)


def test_criterion_10_property_suites():
    started = time.perf_counter()

    # (a) Weyl-invariance fuzz, 1000 trials per case family, zero violations
    families = [
        ModuleSpec("A", 8, "ext2", 3),
        ModuleSpec("A", 9, "ext3", 3),
        ModuleSpec("A", 7, "adjoint", 3),
        ModuleSpec("A", 10, "ext2", 2),
        ModuleSpec("A", 10, "ext3", 2),
        ModuleSpec("D", 6, "ext2", 3),
        ModuleSpec("D", 5, "ext3", 3),
        ModuleSpec("D", 6, "spin", 3),
        ModuleSpec("D", 5, "adjoint_plus_spin", 3, mode="direct_sum"),
        ModuleSpec("F4", 4, "minimal", 3),
        ModuleSpec("F4", 4, "adjoint", 3),
        ModuleSpec("E6", 6, "minimal", 3),
        ModuleSpec("E6", 6, "adjoint", 3),
        ModuleSpec("E7", 7, "minimal", 3),
        ModuleSpec("E7", 7, "adjoint", 3),
        ModuleSpec("E8", 8, "adjoint", 3),
    ]
    for spec in families:
        wm = build_weight_matrix(spec)
        assert weyl_invariance_violations(wm, spec.p, 1000, seed=20240801) == 0, spec

    # (b) packed enumeration against the naive oracle on 200 random codes
    from liecodes.fieldcodes import FpMatrix, weight_distribution

    rng = np.random.default_rng(987654321)
    for _ in range(200):
        p = int(rng.choice([2, 3]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 21))
        code = row_space_code(FpMatrix(p, rng.integers(0, p, size=(rows, cols))))
        basis = code.basis.entries.tolist()
        assert list(weight_distribution(code)) == naive_weight_distribution(p, basis, code.n)
        assert analyze(code).d == naive_min_distance(p, basis, code.n)

    # (c) closed forms equal enumerated weights over their full ranges
    from liecodes.fieldcodes import combination_weight
    from liecodes.repweights import (
        adjoint_weight_matrix_A,
        d_lambda2_matrix,
        d_lambda3_matrix,
        ext_weight_matrix_A,
    )

    for n in range(3, 13):
        b2 = ext_weight_matrix_A(n, 2).mod(3)
        ell = adjoint_weight_matrix_A(n).mod(3)
        b3 = ext_weight_matrix_A(n, 3).mod(3) if n >= 4 else None
        for s in range(n + 1):
            for t in range(n - s + 1):
                coeffs = [1] * s + [-1] * t + [0] * (n - s - t)
                assert closed_form_weight("A2_st", n=n, s=s, t=t) == combination_weight(b2, coeffs)
                assert closed_form_weight("A_adjoint_st", n=n, s=s, t=t) == combination_weight(ell, coeffs)
                if b3 is not None:
                    assert closed_form_weight("A3_st", n=n, s=s, t=t) == combination_weight(b3, coeffs)
    for m in range(3, 13):
        c2 = d_lambda2_matrix(m).mod(3)
        c3 = d_lambda3_matrix(m).mod(3)
        for t in range(m + 1):
            coeffs = [1] * t + [0] * (m - t)
            assert closed_form_weight("D2_t", m=m, t=t) == combination_weight(c2, coeffs)
            assert closed_form_weight("D3_t", m=m, t=t) == combination_weight(c3, coeffs)

    # (d) branch cross-checks give identical weight distributions
    for check in branch_equivalences():
        assert check.identical, check.check_id

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _announce(10, f"property suites (fuzz, oracle, closed forms, branch checks) in {elapsed:.1f} s", started)
