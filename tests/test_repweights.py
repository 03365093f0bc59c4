"""Tests for the weight-matrix constructors, their column templates and the
reference fixtures."""

import hashlib
import itertools
import re
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest

from liecodes import repweights
from liecodes.fieldcodes import FpMatrix, analyze, frozen, row_space_code
from liecodes.repweights import (
    ADJOINT_SPIN_MODES,
    ALLOWED_MODULES,
    ModuleSpec,
    WeightMatrix,
    adjoint_weight_matrix_A,
    build_weight_matrix,
    column_labels,
    d_adjoint_spin_matrix,
    d_lambda2_matrix,
    d_lambda3_matrix,
    d_spin_matrix,
    exceptional_adjoint_matrix,
    exceptional_minimal_matrix,
    ext_weight_matrix_A,
    fixture_matrix,
    module_table,
    to_cartan_h,
)
from liecodes.rootsys import EXCEPTIONAL_RANKS, cartan_matrix, positive_roots
from liecodes.verify import module_code

from _oracles import pairing_vector


def column_multiset(entries):
    return sorted(map(tuple, entries.T.tolist()))


def column_multiset_up_to_sign(entries):
    cols = []
    for col in entries.T.tolist():
        lead = next((x for x in col if x), 0)
        cols.append(tuple(col) if lead >= 0 else tuple(-x for x in col))
    return sorted(cols)


# ---------------------------------------------------------------------------
# sl(n) exterior powers

def test_ext_matrix_unit_rows():
    # the builder gives the n matrix-unit rows; a request picks the basis
    wm = ext_weight_matrix_A(4, 2)
    assert wm.basis == "matrix_unit_E"
    assert wm.entries.shape == (4, 6)
    assert wm.entries[0].tolist() == [1, 1, 1, 0, 0, 0]


def test_ext_cartan_rows_are_differences():
    for n, r in [(4, 2), (6, 3), (8, 4)]:
        e = ext_weight_matrix_A(n, r).entries
        h = build_weight_matrix(ModuleSpec("A", n, f"ext{r}", 3))
        assert h.basis == "cartan_h" and np.array_equal(h.entries, e[:-1] - e[1:])
    assert to_cartan_h(ext_weight_matrix_A(4, 2)).entries[0].tolist() == [0, 1, 1, -1, -1, 0]


@pytest.mark.parametrize("n,r", [(5, 2), (7, 3), (8, 4)])
def test_ext_column_count(n, r):
    assert ext_weight_matrix_A(n, r).cols == comb(n, r)


def test_ext_odd_row_relation_mod2():
    # over F2 the odd-indexed Cartan rows of the square power sum to zero
    for m in (3, 4, 5):
        h = to_cartan_h(ext_weight_matrix_A(2 * m, 2)).mod(2).entries
        assert not (h[0::2].sum(axis=0) % 2).any()


def test_ext_rejects_bad_degree():
    with pytest.raises(ValueError):
        ext_weight_matrix_A(3, 3)
    with pytest.raises(ValueError):
        ext_weight_matrix_A(2, 0)


# ---------------------------------------------------------------------------
# sl(n) adjoint

def test_adjoint_rows_sum_to_zero():
    for n in (3, 5, 8):
        rows = adjoint_weight_matrix_A(n).entries
        assert not rows.sum(axis=0).any()


def test_adjoint_cartan_column_for_first_simple_root():
    k = to_cartan_h(adjoint_weight_matrix_A(4))
    col = column_labels(ModuleSpec("A", 4, "adjoint", 3)).index("e1-e2")
    assert k.entries[:, col].tolist() == [2, -1, 0]


def test_adjoint_k_code_sl6():
    # enumeration gives [15,4,9]; the stated distance 3 is a documented typo
    rep = analyze(row_space_code(to_cartan_h(adjoint_weight_matrix_A(6)).mod(3)))
    assert rep.params() == (15, 4, 9)
    assert rep.self_orthogonal


# ---------------------------------------------------------------------------
# o(2m) constructions

def test_lambda2_shape_and_self_product():
    for m in (3, 4, 7):
        wm = d_lambda2_matrix(m)
        assert wm.cols == m * (m - 1)
        wide = wm.entries.astype(np.int64)  # an int8 Gram product wraps
        gram = wide @ wide.T
        assert all(gram[i, i] == 2 * (m - 1) for i in range(m))


def test_lambda2_codes():
    assert analyze(row_space_code(d_lambda2_matrix(4).mod(3))).params() == (12, 4, 6)
    assert analyze(row_space_code(d_lambda2_matrix(7).mod(3))).params() == (42, 7, 12)


def test_lambda3_shape_and_self_product():
    for m in (3, 5, 6):
        wm = d_lambda3_matrix(m)
        assert wm.cols == comb(m, 3) + m * comb(m, 2)
        wide = wm.entries.astype(np.int64)  # an int8 Gram product wraps
        gram = wide @ wide.T
        assert all(gram[i, i] == (m - 1) * (2 * m - 3) for i in range(m))


def test_lambda3_codes():
    assert analyze(row_space_code(d_lambda3_matrix(3).mod(3))).params() == (10, 3, 6)
    assert analyze(row_space_code(d_lambda3_matrix(4).mod(3))).params() == (28, 4, 15)


def spin_block_of_weight_code(m):
    """The spin columns of o(2m) on adjoint-plus-spin for even m: one per +-
    pair of weights, those of the subsets containing 1 (entry 2 in row 1)."""
    block = d_adjoint_spin_matrix(m, "weight_code").entries[:, m * (m - 1) :]
    assert (block[0] == 2).all()
    return block


def test_spin_shapes_and_weights():
    wm = d_spin_matrix(5)
    assert wm.cols == 16
    m5 = wm.mod(3)
    from liecodes.fieldcodes import combination_weight

    assert combination_weight(m5, [1, 0, 0, 0, 0]) == 16
    assert combination_weight(m5, [1, 1, 0, 0, 0]) == 8
    assert spin_block_of_weight_code(8).shape == (8, 64)


def test_spin_code_m6_exception():
    assert analyze(row_space_code(d_spin_matrix(6).mod(3))).params() == (32, 6, 12)


def test_spin_rejects_bad_requests():
    with pytest.raises(ValueError):
        d_spin_matrix(6).mod(2)


HALF_INTEGER_MATRICES = {
    "spin": lambda: d_spin_matrix(6),
    "weight_code": lambda: d_adjoint_spin_matrix(6, "weight_code"),
    "direct_sum": lambda: d_adjoint_spin_matrix(5, "direct_sum"),
}


@pytest.mark.parametrize("cartan", [False, True], ids=["matrix_unit_E", "cartan_h"])
@pytest.mark.parametrize("make", HALF_INTEGER_MATRICES.values(), ids=HALF_INTEGER_MATRICES)
def test_half_integer_modules_reduce_mod_3_only(make, cartan):
    # their entries are the residues of half-integers mod 3, which the
    # module name alone marks, in either basis
    wm = to_cartan_h(make()) if cartan else make()
    assert wm.mod(3).p == 3
    with pytest.raises(ValueError, match=f"^{wm.module} matrices are defined modulo 3 only$"):
        wm.mod(2)


# SHA-256 over the entries (as int64) and labels of the spin matrices of
# o(6)..o(24) and the adjoint-plus-spin matrices of o(8)..o(24), as built
# entry by entry before the membership array
SPIN_BUILDER_SHA256 = {
    "spin": "33b6a1fc61c1f9370226bf4c0fdff410199a097517dcb19085b0c709e5abb276",
    "weight_code": "a988fb558448300dd406f633993ec1708d0d335f6d78c229611f12ceb6ec3820",
    "direct_sum": "e2dd02eaf2b8864e4cb51d99b404c1e0a95075588886045d2a4d7be658fdec2b",
}


@pytest.mark.parametrize("kind", sorted(SPIN_BUILDER_SHA256))
def test_spin_builders_are_pinned(kind):
    if kind == "spin":
        specs = [ModuleSpec("D", m, "spin", 3) for m in range(3, 13)]
        matrices = [d_spin_matrix(m) for m in range(3, 13)]
    else:
        specs = [ModuleSpec("D", m, "adjoint_plus_spin", 3, mode=kind) for m in range(4, 13)]
        matrices = [d_adjoint_spin_matrix(m, kind) for m in range(4, 13)]
    digest = hashlib.sha256()
    for spec, wm in zip(specs, matrices):
        digest.update(wm.entries.astype(np.int64).tobytes())
        digest.update("\n".join(column_labels(spec)).encode())
    assert digest.hexdigest() == SPIN_BUILDER_SHA256[kind]


def test_adjoint_spin_blocks():
    even = d_adjoint_spin_matrix(8, "weight_code")
    assert even.cols == 8 * 7 + 2 ** 6
    odd = d_adjoint_spin_matrix(9, "weight_code")
    assert odd.cols == 2 * 9 * 8 + 2 ** 8
    ds = d_adjoint_spin_matrix(5, "direct_sum")
    assert ds.cols == 5 * 4 + 2 ** 4


def test_adjoint_spin_codes():
    assert analyze(row_space_code(d_adjoint_spin_matrix(8, "weight_code").mod(3))).params() == (120, 8, 57)
    assert analyze(row_space_code(d_adjoint_spin_matrix(5, "direct_sum").mod(3))).params() == (36, 5, 21)
    assert analyze(row_space_code(d_adjoint_spin_matrix(6, "direct_sum").mod(3))).params() == (62, 6, 27)


@pytest.mark.parametrize(
    "module, mode",
    [("ext2", None), ("ext3", None), ("spin", None), *(("adjoint_plus_spin", mode) for mode in ADJOINT_SPIN_MODES)],
)
def test_o2m_columns_are_kept_up_to_sign_by_two_sign_changes(module, mode):
    # W(D_m) changes the signs of any two rows; from the builders alone,
    # which share nothing with the templates, that keeps the columns up to
    # sign, so the weight of c . X is that of c with two coefficients
    # negated.  One sign change keeps the spin columns for odd m only, where
    # it is a change of the other m - 1 rows followed by c -> -c
    for m in range(3, 9):
        spec = ModuleSpec("D", m, module, 3, mode=mode)
        if m < 4 and module == "adjoint_plus_spin":
            continue
        # the residues mod 3 as -1, 0 and 1, so that negation over F3 is negation
        entries = (build_weight_matrix(spec).mod(3).entries + 1) % 3 - 1
        columns = column_multiset_up_to_sign(entries)
        for rows in itertools.combinations(range(m), 2):
            negated = entries.copy()
            negated[list(rows)] *= -1
            assert column_multiset_up_to_sign(negated) == columns, (m, rows)
        if module == "spin":
            negated = entries.copy()
            negated[0] *= -1
            assert (column_multiset_up_to_sign(negated) == columns) == (m % 2 == 1), m


# ---------------------------------------------------------------------------
# exceptional families and fixtures

@pytest.mark.parametrize(
    "family,fixture,cols",
    [("F4", "F4_minimal", 12), ("E6", "E6_minimal", 27), ("E7", "E7_minimal", 28)],
)
def test_minimal_matches_fixture_up_to_sign(family, fixture, cols):
    gen = exceptional_minimal_matrix(family)
    fix = fixture_matrix(fixture)
    assert gen.cols == cols
    assert column_multiset_up_to_sign(gen.entries) == column_multiset_up_to_sign(fix.entries)
    rep_gen = analyze(row_space_code(gen.mod(3)))
    rep_fix = analyze(row_space_code(fix.mod(3)))
    assert rep_gen.params() == rep_fix.params()
    assert rep_gen.weight_distribution == rep_fix.weight_distribution


def test_e6_minimal_matches_fixture_exactly():
    gen = exceptional_minimal_matrix("E6")
    fix = fixture_matrix("E6_minimal")
    assert column_multiset(gen.entries) == column_multiset(fix.entries)


def test_f4_adjoint_matches_fixture_up_to_permutation():
    gen = exceptional_adjoint_matrix("F4")
    fix = fixture_matrix("F4_adjoint")
    assert column_multiset(gen.entries) == column_multiset(fix.entries)
    rep_gen = analyze(row_space_code(gen.mod(3)))
    rep_fix = analyze(row_space_code(fix.mod(3)))
    assert rep_gen.weight_distribution == rep_fix.weight_distribution


def test_discarded_pair_members_are_negations():
    from liecodes.rootsys import cartan_matrix, weyl_orbit

    for family, rank, node in [("F4", 4, 3), ("E7", 7, 6)]:
        orbit = weyl_orbit(cartan_matrix(family, rank), tuple(1 if i == node else 0 for i in range(rank)))
        kept = [tuple(c) for c in exceptional_minimal_matrix(family).entries.T.tolist()]
        dropped = [tuple(-x for x in c) for c in kept]
        assert sorted(kept + dropped) == sorted(orbit)


def test_minimal_orbit_is_searched_once_per_process(monkeypatch):
    specs = {family: ModuleSpec(family, EXCEPTIONAL_RANKS[family], "minimal", 3) for family in ("F4", "E6", "E7")}
    first = {family: (exceptional_minimal_matrix(family), column_labels(spec)) for family, spec in specs.items()}
    calls = []
    monkeypatch.setattr(repweights, "weyl_orbit", lambda *args: calls.append(args))
    for family, (wm, labels) in first.items():
        again = exceptional_minimal_matrix(family)
        assert np.array_equal(again.entries, wm.entries) and column_labels(specs[family]) == labels
    assert calls == []


def test_opposite_representative_choice_same_report():
    for family in ("F4", "E7"):
        wm = exceptional_minimal_matrix(family)
        rep = analyze(row_space_code(wm.mod(3)))
        flipped = analyze(row_space_code(FpMatrix.reduce(3, -wm.entries)))
        assert flipped.params() == rep.params()
        assert flipped.weight_distribution == rep.weight_distribution
    half = spin_block_of_weight_code(8)
    rep = analyze(row_space_code(FpMatrix.reduce(3, half)))
    flipped = analyze(row_space_code(FpMatrix.reduce(3, -half)))
    assert flipped.weight_distribution == rep.weight_distribution


def test_e6_adjoint_rank_and_row_relation():
    wm = exceptional_adjoint_matrix("E6")
    rel = (wm.entries[0] - wm.entries[2] + wm.entries[4] - wm.entries[5]) % 3
    assert not rel.any()
    assert row_space_code(wm.mod(3)).k == 5


@pytest.mark.parametrize("family,cols", [("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)])
def test_adjoint_column_counts(family, cols):
    assert exceptional_adjoint_matrix(family).cols == cols


@pytest.mark.parametrize("family", ["F4", "E6", "E7", "E8"])
def test_adjoint_entries_are_root_pairings(family):
    # the integer entries, not only their residues mod 3, column by column
    cm = cartan_matrix(family, EXCEPTIONAL_RANKS[family])
    expected = [pairing_vector(cm, root) for root in positive_roots(cm)]
    assert list(map(tuple, exceptional_adjoint_matrix(family).entries.T.tolist())) == expected


def test_e8_adjoint_code():
    assert analyze(row_space_code(exceptional_adjoint_matrix("E8").mod(3))).params() == (120, 8, 57)


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixture_matrix("G2_minimal")


def test_fixture_row_weights_as_published():
    from liecodes.fieldcodes import combination_weight

    a = fixture_matrix("F4_minimal").mod(3)
    unit = lambda i, n: [1 if j == i else 0 for j in range(n)]
    assert combination_weight(a, unit(0, 4)) == 6
    assert all(combination_weight(a, unit(i, 4)) == 9 for i in (2, 3))
    assert combination_weight(a, [1, 0, 1, 0]) == 9

    b = fixture_matrix("F4_adjoint").mod(3)
    assert all(combination_weight(b, unit(i, 4)) == 15 for i in range(4))
    assert combination_weight(b, [1, 0, 1, 0]) == 18

    e6 = fixture_matrix("E6_minimal").mod(3)
    assert all(combination_weight(e6, unit(i, 6)) == 12 for i in range(6))
    assert combination_weight(e6, [1, 0, 1, 0, 0, 0]) == 12
    assert combination_weight(e6, [1, 0, 0, 1, 0, 0]) == 18
    assert combination_weight(e6, [1, 1, 0, 0, 0, 0]) == 18
    assert combination_weight(e6, [1, -1, -1, 0, 0, 0]) == 21

    # binary row weights of the sl(n) exterior matrices
    for n in (6, 10):
        h2 = to_cartan_h(ext_weight_matrix_A(n, 2)).mod(2)
        assert all(combination_weight(h2, unit(i, n - 1)) == 2 * (n - 2) for i in range(n - 1))
        h3 = to_cartan_h(ext_weight_matrix_A(n, 3)).mod(2)
        assert all(combination_weight(h3, unit(i, n - 1)) == (n - 2) * (n - 3) for i in range(n - 1))


# ---------------------------------------------------------------------------
# module specs and basis conversion

def test_build_weight_matrix_legality():
    good = ModuleSpec("E8", 8, "minimal", 3)
    assert build_weight_matrix(good).module == "adjoint"
    for bad in [
        ModuleSpec("A", 6, "spin", 3),
        ModuleSpec("A", 6, "ext2", 5),
        ModuleSpec("D", 6, "ext2", 2),
        ModuleSpec("D", 8, "spin_half", 3),
        ModuleSpec("A", 5, "adjoint_L", 3),
        ModuleSpec("D", 5, "ext2", 3, basis="cartan_h"),
        ModuleSpec("E6", 6, "minimal", 3, basis="matrix_unit_E"),
        ModuleSpec("A", 5, "ext2", 3, basis="weyl"),
        ModuleSpec("A", 6, "ext2", 3, basis="cartan_h"),  # a label of built matrices, not a request
        ModuleSpec("D", 6, "adjoint_plus_spin", 3),  # missing mode
        ModuleSpec("F4", 4, "spin", 3),
        ModuleSpec("F4", 5, "minimal", 3),
        ModuleSpec("A", 2, "ext2", 2),
        ModuleSpec("X9", 4, "minimal", 3),
        ModuleSpec("D", 5, "ext2", 3, mode="direct_sum"),  # a mode on a module without one
        ModuleSpec("E6", 6, "minimal", 3, mode="weight_code"),
        # past the rank a count takes, and so past the matrix size cap
        ModuleSpec("A", 1001, "ext2", 2),
        ModuleSpec("D", 1001, "spin", 3),
    ]:
        with pytest.raises(ValueError):
            build_weight_matrix(bad)
        with pytest.raises(ValueError):
            module_code(bad)
    # past the size cap of every sl(n) and o(2m) builder, but counted from
    # the templates, which build no matrix
    for big in [
        ModuleSpec("A", 300, "ext2", 3),
        ModuleSpec("A", 100, "ext4", 3, basis="matrix_unit_E"),
        ModuleSpec("A", 300, "adjoint", 3),
        ModuleSpec("D", 300, "ext2", 3),
        ModuleSpec("D", 100, "ext3", 3),
        ModuleSpec("D", 30, "spin", 3),
        ModuleSpec("D", 20, "adjoint_plus_spin", 3, mode="weight_code"),
    ]:
        with pytest.raises(ValueError, match="entries, over 4194304"):
            build_weight_matrix(big)
        assert module_code(big).n == module_table(big)[1]
    with pytest.raises(ValueError, match="needs a mode"):
        d_adjoint_spin_matrix(6, None)


# (a valid request, a refused one of the same family and module, its
# message): the valid one is counted first; the matrix cap refuses only the
# calls that write a matrix or its labels, the rank bound only the count
COUNTED_THEN_REFUSED = [
    (ModuleSpec("A", 6, "ext4", 3), ModuleSpec("A", 6, "ext4", 2), "over F3 only"),
    (ModuleSpec("D", 6, "ext2", 3), ModuleSpec("D", 6, "ext2", 2), "over F3 only"),
    (ModuleSpec("A", 6, "ext3", 3), ModuleSpec("A", 6, "ext3", 3, basis="weyl"), "unknown basis"),
    (ModuleSpec("D", 6, "ext3", 3), ModuleSpec("D", 6, "ext3", 3, basis="matrix_unit_E"), "family A only"),
    (ModuleSpec("D", 6, "spin", 3), ModuleSpec("D", 6, "spin", 3, mode="direct_sum"), "adjoint_plus_spin only"),
    (
        ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="weight_code"),
        ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="weight"),
        "needs a mode",
    ),
    (ModuleSpec("A", 40, "ext3", 3), ModuleSpec("A", 300, "ext3", 3), "entries, over 4194304"),
    (ModuleSpec("D", 18, "spin", 3), ModuleSpec("D", 19, "spin", 3), "entries, over 4194304"),
    (ModuleSpec("A", 1000, "ext2", 2), ModuleSpec("A", 1001, "ext2", 2), "rows to count, over 1000"),
    (ModuleSpec("D", 1000, "ext2", 3), ModuleSpec("D", 1001, "ext2", 3), "rows to count, over 1000"),
]


@pytest.mark.parametrize(
    "good, bad, message",
    COUNTED_THEN_REFUSED,
    ids=[
        "field-A", "field-D", "basis-A", "basis-D", "mode-spin", "mode-adjoint_plus_spin",
        "cap-A", "cap-D", "rank-A", "rank-D",
    ],
)
def test_refusal_holds_after_a_counted_request(good, bad, message):
    # a refused request is refused on every call, also right after a valid
    # request of its module was counted; the count is the one the size check read
    calls = {
        "entries, over 4194304": (build_weight_matrix, column_labels),
        "rows to count, over 1000": (module_table, module_code),
    }.get(message, (module_table, build_weight_matrix, column_labels, module_code))
    for _ in range(2):
        assert module_table(good)[1] == module_code(good).n
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call(bad)


def test_allowed_modules_order():
    # the command line offers its --family and --module choices in this order
    assert list(ALLOWED_MODULES.items()) == [
        ("A", ("ext2", "ext3", "ext4", "adjoint")),
        ("D", ("ext2", "ext3", "spin", "adjoint_plus_spin")),
        ("F4", ("minimal", "adjoint")),
        ("E6", ("minimal", "adjoint")),
        ("E7", ("minimal", "adjoint")),
        ("E8", ("minimal", "adjoint")),
    ]


# the fields and smallest ranks of each module, as the constructions define them
BINARY_MODULES = {("A", "ext2"), ("A", "ext3")}
MIN_RANK = {
    ("A", "ext2"): 3,
    ("A", "ext3"): 4,
    ("A", "ext4"): 5,
    ("A", "adjoint"): 3,
    ("D", "ext2"): 3,
    ("D", "ext3"): 3,
    ("D", "spin"): 3,
    ("D", "adjoint_plus_spin"): 4,
}


@pytest.mark.parametrize("family,module", [(f, m) for f, mods in ALLOWED_MODULES.items() for m in mods])
def test_module_fields_and_smallest_ranks(family, module):
    fields = (2, 3) if (family, module) in BINARY_MODULES else (3,)
    rank = MIN_RANK[family, module] if family in ("A", "D") else EXCEPTIONAL_RANKS[family]
    for mode in ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,):
        for p in (2, 3, 5):
            spec = ModuleSpec(family, rank, module, p, mode=mode)
            if p not in fields:
                for check in (build_weight_matrix, module_code):
                    with pytest.raises(ValueError):
                        check(spec)
                continue
            wm = build_weight_matrix(spec)
            assert (wm.family, wm.rank) == (family, rank)
            if family in ("A", "D"):
                assert module_code(spec).n == wm.cols
                for check in (build_weight_matrix, module_code):
                    with pytest.raises(ValueError):
                        check(ModuleSpec(family, rank - 1, module, p, mode=mode))


# the largest rank whose weight matrix the 2^22-entry size cap allows
LARGEST_RANK = {
    ("A", "ext2"): 203,
    ("A", "ext3"): 71,
    ("A", "ext4"): 41,
    ("A", "adjoint"): 203,
    ("D", "ext2"): 161,
    ("D", "ext3"): 50,
    ("D", "spin"): 18,
    ("D", "adjoint_plus_spin"): 18,
}


def expand_templates(templates, rank):
    """The columns the templates list on `rank` coordinate rows, and the
    multiplicity of each, times 24 to make it an integer."""
    blocks, weights = [], []
    for coeffs, share in templates:
        if coeffs is None:
            bits = (np.arange(2**rank)[None, :] >> np.arange(rank)[:, None]) & 1
            block = np.where(bits[:, bits.sum(axis=0) % 2 == rank % 2], 2, 1)
            blocks.append(block)
            weights += [24 * share] * block.shape[1]
            continue
        rows = np.array(list(itertools.combinations(range(rank), len(coeffs)))).T
        for arrangement, times in Counter(itertools.permutations(coeffs)).items():
            block = np.zeros((rank, rows.shape[1]), dtype=np.int64)
            block[rows, np.arange(rows.shape[1])] = np.array(arrangement)[:, None]
            blocks.append(block)
            weights += [24 * share * times] * rows.shape[1]
    assert all(w.denominator == 1 for w in weights)
    return np.hstack(blocks), np.array(weights, dtype=np.int64)


def columns_up_to_scalars(entries, p, weights):
    """Distinct columns mod p scaled to a leading 1, as bytes, and their
    weighted counts."""
    a = np.asarray(entries, dtype=np.int64) % p
    # 1 and 2 are their own inverses mod 2 and mod 3
    a = a * a[np.argmax(a != 0, axis=0), np.arange(a.shape[1])] % p
    keys = np.ascontiguousarray(a.T.astype(np.uint8)).view(f"V{a.shape[0]}").ravel()
    cols, inverse = np.unique(keys, return_inverse=True)
    return cols.tolist(), np.bincount(inverse, weights=weights).tolist()


# basis is the one the built matrix has, as `WeightMatrix.basis` labels it
# (None: the builder's coordinate rows); the default request gives cartan_h
TEMPLATE_MODULES = [
    (family, module, mode, basis)
    for family, modules in ALLOWED_MODULES.items()
    if family in ("A", "D")
    for module in modules
    for mode in (ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,))
    for basis in (("cartan_h", "matrix_unit_E") if family == "A" else (None,))
]


@pytest.mark.parametrize("largest", [False, True], ids=["smallest", "largest"])
@pytest.mark.parametrize("family,module,mode,basis", TEMPLATE_MODULES)
def test_templates_list_the_builders_columns(family, module, mode, basis, largest):
    rank = (LARGEST_RANK if largest else MIN_RANK)[family, module]
    spec = ModuleSpec(family, rank, module, 3, mode=mode, basis=None if basis == "cartan_h" else basis)
    cols, weights = expand_templates(module_table(spec)[0], rank)
    if basis == "cartan_h":
        cols = cols[:-1] - cols[1:]
    wm = build_weight_matrix(spec)
    assert basis in (None, wm.basis)
    built = wm.entries
    for p in (2, 3) if (family, module) in BINARY_MODULES else (3,):
        assert columns_up_to_scalars(cols, p, weights) == columns_up_to_scalars(built, p, [24] * built.shape[1])
    if largest:
        with pytest.raises(ValueError, match="entries, over"):
            build_weight_matrix(spec.replace(rank=rank + 1))


def test_to_cartan_h_families():
    e = ext_weight_matrix_A(5, 2)
    h = to_cartan_h(e)
    assert np.array_equal(h.entries, e.entries[:-1] - e.entries[1:])
    assert np.array_equal(h.entries, build_weight_matrix(ModuleSpec("A", 5, "ext2", 3)).entries)
    d = to_cartan_h(d_lambda2_matrix(4))
    assert d.rows == 4
    g = d_lambda2_matrix(4).entries
    assert np.array_equal(d.entries[-1], g[-2] + g[-1])
    full = ext_weight_matrix_A(8, 4)
    seven = WeightMatrix("A", 8, "ext4", "matrix_unit_E", full.entries[:7])
    with pytest.raises(ValueError):
        to_cartan_h(seven)  # the eighth matrix-unit row is missing
    o10 = d_lambda2_matrix(5)
    four = WeightMatrix("D", 5, "ext2", "matrix_unit_E", o10.entries[:4])
    with pytest.raises(ValueError, match="need all matrix-unit rows"):
        to_cartan_h(four)  # the fifth e_i row is missing


def test_builders_reject_a_family_they_do_not_know():
    e6 = exceptional_minimal_matrix("E6")
    for build, message in (
        (lambda: exceptional_minimal_matrix("E8"), "minimal-module matrix known for F4, E6, E7; got 'E8'"),
        (lambda: exceptional_adjoint_matrix("G2"), "adjoint matrix known for F4, E6, E7, E8; got 'G2'"),
        (lambda: to_cartan_h(e6.replace(basis="matrix_unit_E")), "no Cartan-basis transition for family 'E6'"),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def label_column(label, rows):
    """The column a label names on the coordinate rows: a subset {i,...} is
    the indicator of an exterior-power column, or the 2/1 entries of a spin
    column; e_i sums are o(2m) and sl(n) weights, and a leading - before a
    sum negates all of it."""
    if label.startswith("{"):
        return [int(i) for i in label[1:-1].split(",") if i]
    if label.startswith("-"):
        return [-x for x in label_column(label[1:], rows)]
    col = [0] * rows
    for sign, i in re.findall(r"([+-]?)e(\d+)", label):
        col[int(i) - 1] += -1 if sign == "-" else 1
    return col


@pytest.mark.parametrize("family,module", [(f, m) for f, mods in ALLOWED_MODULES.items() for m in mods])
def test_labels_name_their_columns(family, module):
    rank = MIN_RANK[family, module] + 2 if family in ("A", "D") else EXCEPTIONAL_RANKS[family]
    for mode in ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,):
        spec = ModuleSpec(family, rank, module, 3, mode=mode, basis="matrix_unit_E" if family == "A" else None)
        wm, labels = build_weight_matrix(spec), column_labels(spec)
        assert len(labels) == len(set(labels)) == wm.cols
        columns = wm.entries.T.tolist()
        if family in EXCEPTIONAL_RANKS:
            # a minimal column is its weight, an adjoint one the pairings of its root
            cm = np.array(cartan_matrix(family, rank))
            weights = [list(map(int, label[1:-1].split(","))) for label in labels]
            if module == "adjoint" or family == "E8":
                weights = (np.array(weights) @ cm).tolist()
            assert weights == columns
            continue
        for label, col in zip(labels, columns):
            named = label_column(label, rank)
            if label.startswith("{") and module in ("spin", "adjoint_plus_spin"):
                named = [2 if r + 1 in named else 1 for r in range(rank)]
            elif label.startswith("{"):
                named = [int(r + 1 in named) for r in range(rank)]
            assert named == col, (spec, label)
        # the Cartan-basis request keeps the columns and so their names
        assert column_labels(spec.replace(basis=None)) == labels


def test_column_labels_checks_the_request():
    with pytest.raises(ValueError, match="needs m >= 4"):
        column_labels(ModuleSpec("D", 3, "adjoint_plus_spin", 3, mode="direct_sum"))
    with pytest.raises(ValueError, match="entries, over"):
        column_labels(ModuleSpec("D", 19, "spin", 3))


def test_weight_matrix_holds_no_labels():
    # a matrix keeps its entries and scalars only: no per-column object
    assert list(WeightMatrix._fields) == [
        "family", "rank", "module", "basis", "entries"
    ]
    wm = build_weight_matrix(ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="weight_code"))
    assert [k for k, v in vars(wm).items() if not isinstance(v, (str, int, bool))] == ["entries"]


def test_weight_matrix_copies_what_it_does_not_own():
    a = np.ones((2, 3), dtype=np.int64)
    for entries in (a, a.tolist(), a[:, :]):
        wm = WeightMatrix("A", 3, "ext2", "matrix_unit_E", entries)
        a[0, 0] = 5
        assert wm.entries.tolist() == [[1, 1, 1], [1, 1, 1]]
        a[0, 0] = 1
        with pytest.raises(ValueError):
            wm.entries[0, 0] = 0
    # a frozen int8 array the caller made is kept: it can no longer be
    # written; a frozen int64 array is copied into int8
    b = frozen(np.ones((2, 3), dtype=np.int8))
    assert WeightMatrix("A", 3, "ext2", "matrix_unit_E", b).entries is b
    wide = frozen(np.ones((2, 3), dtype=np.int64))
    kept = WeightMatrix("A", 3, "ext2", "matrix_unit_E", wide).entries
    assert kept is not wide and kept.dtype == np.int8 and kept.tolist() == wide.tolist()


ONE_BYTE_MATRICES = {
    "ext_weight_matrix_A": lambda: ext_weight_matrix_A(7, 3),
    "adjoint_weight_matrix_A": lambda: adjoint_weight_matrix_A(6),
    "d_lambda2_matrix": lambda: d_lambda2_matrix(6),
    "d_lambda3_matrix": lambda: d_lambda3_matrix(6),
    "d_spin_matrix": lambda: d_spin_matrix(7),
    **{
        f"d_adjoint_spin_matrix-{mode}-m{m}": lambda m=m, mode=mode: d_adjoint_spin_matrix(m, mode)
        for mode in ADJOINT_SPIN_MODES
        for m in (6, 7)
    },
    **{f"exceptional_minimal_matrix-{f}": lambda f=f: exceptional_minimal_matrix(f) for f in ("F4", "E6", "E7")},
    **{f"exceptional_adjoint_matrix-{f}": lambda f=f: exceptional_adjoint_matrix(f) for f in EXCEPTIONAL_RANKS},
    "to_cartan_h-A": lambda: to_cartan_h(ext_weight_matrix_A(7, 3)),
    "to_cartan_h-D": lambda: to_cartan_h(d_adjoint_spin_matrix(7, "weight_code")),
    **{
        f"fixture_matrix-{name}": lambda name=name: fixture_matrix(name)
        for name in ("F4_minimal", "F4_adjoint", "E6_minimal", "E7_minimal")
    },
}


@pytest.mark.parametrize("make", ONE_BYTE_MATRICES.values(), ids=ONE_BYTE_MATRICES)
def test_every_weight_matrix_holds_one_byte_per_entry(make):
    wm = make()
    assert wm.entries.dtype == np.int8
    assert wm.entries.nbytes == wm.rows * wm.cols
    assert not wm.entries.flags.writeable


def test_spin_build_makes_no_wide_copy():
    # o(36) spin: 18 x 131072 entries, 2.4 MB at one byte each; an int64
    # shift table of the masks alone would take 18.9 MB
    tracemalloc.start()
    try:
        wm = build_weight_matrix(ModuleSpec("D", 18, "spin", 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wm.entries.nbytes == 18 << 17
    assert peak < 8 << 20


@pytest.mark.parametrize(
    "spec",
    [
        ModuleSpec("D", 8, "spin", 3),
        ModuleSpec("D", 8, "adjoint_plus_spin", 3, mode="weight_code"),
        ModuleSpec("A", 9, "ext3", 2),
        ModuleSpec("A", 9, "adjoint", 3, basis="matrix_unit_E"),
        ModuleSpec("D", 7, "ext3", 3),
    ],
    ids=str,
)
def test_build_and_mod_copy_the_entries_once(spec, monkeypatch):
    # every array on the way from a builder to an FpMatrix is kept as it
    # comes: np.array, which would copy it, is never called
    def refuse(*args, **kwargs):
        raise AssertionError("an entries array was copied")

    monkeypatch.setattr(np, "array", refuse)
    wm = build_weight_matrix(spec)
    reduced = wm.mod(spec.p)
    assert reduced.entries.flags.owndata and not reduced.entries.flags.writeable
    assert not np.shares_memory(reduced.entries, wm.entries)
    monkeypatch.undo()
    assert np.array_equal(reduced.entries, wm.entries % spec.p)
