"""Tests for the Weyl-orbit count of the sl(n) and o(2m) codes from their
column templates, against enumeration, the orbit count over the built
matrix and the builders' own combination weights."""

import itertools
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecodes import fieldcodes, repweights
from liecodes.fieldcodes import FpMatrix, LinearCode, analyze, combination_weight, row_space_code
from liecodes.repweights import (
    ADJOINT_SPIN_MODES,
    ALLOWED_MODULES,
    ModuleSpec,
    _columns,
    build_weight_matrix,
    d_spin_templates,
    ext_templates_A,
    fixture_matrix,
    module_table,
    orbit_weights,
)
from liecodes.verify import module_code, registered_cases

from _oracles import (
    krawtchouk_transform,
    naive_weight_distribution,
    orbit_weight_by_pairs,
    orbit_weight_distribution,
    spin_orbit_weight_by_sum,
)


def _orbit_weight(templates, p, counts):
    """The weight of one orbit, `orbit_weights` on the rank sum(counts)."""
    return orbit_weights(templates, p, sum(counts), [counts])[0]


# the modules of the benchmark's extended range, 0.5M to 2.1M codewords each
EXTENDED_SPECS = (
    ModuleSpec("A", 22, "ext3", 2),
    ModuleSpec("A", 14, "ext2", 3),
    ModuleSpec("A", 14, "ext3", 3),
    ModuleSpec("D", 12, "adjoint_plus_spin", 3, mode="direct_sum"),
)

# the binary sl(n) codes in both bases, where self-orthogonality takes both
# values: the flag is read off two orbit weights
BINARY_SPECS = tuple(
    ModuleSpec("A", n, module, 2, basis=basis)
    for module in ("ext2", "ext3")
    for basis in (None, "matrix_unit_E")
    for n in range(4, 10)
)

# past the reach of enumeration, up to sl(40) and o(40)
LARGE_SPECS = (
    ModuleSpec("A", 40, "ext3", 2),
    ModuleSpec("A", 40, "ext3", 3),
    ModuleSpec("A", 40, "ext2", 3, basis="matrix_unit_E"),
    ModuleSpec("A", 25, "adjoint", 3),
    ModuleSpec("D", 20, "ext2", 3),
    ModuleSpec("D", 20, "ext3", 3),
    ModuleSpec("D", 14, "spin", 3),
    ModuleSpec("D", 13, "adjoint_plus_spin", 3, mode="weight_code"),
    ModuleSpec("D", 14, "adjoint_plus_spin", 3, mode="weight_code"),
)


def registered_specs():
    specs = [c.spec for c in registered_cases() if c.spec.family in ("A", "D")]
    assert len(specs) == 49
    return specs


def test_orbits_agree_with_enumeration():
    # every field of the report: n, k, d, the distribution and the flags
    for spec in registered_specs() + list(EXTENDED_SPECS + BINARY_SPECS):
        assert module_code(spec) == analyze(row_space_code(build_weight_matrix(spec).mod(spec.p))), spec


def test_template_count_agrees_with_orbit_oracle():
    for spec in registered_specs() + list(EXTENDED_SPECS + LARGE_SPECS):
        report = module_code(spec)
        cartan = spec.family == "A" and spec.basis is None
        coords = build_weight_matrix(replace(spec, basis="matrix_unit_E") if spec.family == "A" else spec)
        # the oracle raises unless k is the dimension of the code
        assert report.weight_distribution == orbit_weight_distribution(coords.entries, spec.p, report.k, cartan), spec
        assert report.n == coords.cols


def test_exceptional_codes_are_enumerated():
    for case in registered_cases():
        if case.spec.family not in ("A", "D"):
            assert isinstance(module_code(case.spec), LinearCode), case.case_id


@st.composite
def invariant_matrices(draw):
    """Coordinate rows whose columns are full orbits of random vectors under
    row permutations, each column scaled by a random nonzero scalar."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * r), min_size=1, max_size=3))
    columns = [c for v in vectors for c in sorted(set(itertools.permutations(v)))]
    scalars = draw(st.lists(st.integers(1, p - 1), min_size=len(columns), max_size=len(columns)))
    coords = (np.array(columns).T * np.array(scalars)) % p
    return p, coords, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(invariant_matrices())
def test_orbits_agree_with_oracle_and_kernel(case):
    p, coords, sum_zero = case
    generator = coords[:-1] - coords[1:] if sum_zero else coords
    code = row_space_code(FpMatrix.reduce(p, generator))
    dist = orbit_weight_distribution(coords, p, code.k, sum_zero)
    assert dist == fieldcodes.weight_distribution(code)
    assert list(dist) == naive_weight_distribution(p, code.basis.entries.tolist(), code.n)
    for wrong_k in (code.k - 1, code.k + 1):
        with pytest.raises(ValueError):
            orbit_weight_distribution(coords, p, wrong_k, sum_zero)


def test_matrix_without_permutation_symmetry_is_rejected():
    e6 = fixture_matrix("E6_minimal")
    with pytest.raises(ValueError, match="not permuted"):
        orbit_weight_distribution(e6.entries, 3, 6, False)
    with pytest.raises(ValueError, match="not permuted"):
        orbit_weight_distribution([[1], [0]], 2, 1, False)


@st.composite
def module_orbits(draw):
    """A matrix-unit-basis sl(n) or o(2m) module request and a coefficient
    vector with n1 ones and n2 twos in random places."""
    family, module = draw(st.sampled_from([(f, m) for f in ("A", "D") for m in ALLOWED_MODULES[f]]))
    p = draw(st.sampled_from([2, 3] if module in ("ext2", "ext3") and family == "A" else [3]))
    mode = draw(st.sampled_from(ADJOINT_SPIN_MODES)) if module == "adjoint_plus_spin" else None
    basis = "matrix_unit_E" if family == "A" else None
    smallest = {("A", "ext3"): 4, ("A", "ext4"): 5, ("D", "adjoint_plus_spin"): 4}.get((family, module), 3)
    rank = draw(st.integers(smallest, 10))
    n1 = draw(st.integers(0, rank))
    n2 = draw(st.integers(0, rank - n1)) if p == 3 else 0
    coeffs = draw(st.permutations([1] * n1 + [2] * n2 + [0] * (rank - n1 - n2)))
    return ModuleSpec(family, rank, module, p, mode=mode, basis=basis), coeffs, (rank - n1 - n2, n1, n2)


@settings(max_examples=200, deadline=None)
@given(module_orbits())
def test_template_weight_is_the_builders_combination_weight(case):
    spec, coeffs, counts = case
    matrix = build_weight_matrix(spec).mod(spec.p)
    assert combination_weight(matrix, coeffs) == _orbit_weight(module_table(spec)[0], spec.p, counts)


def test_template_weight_matches_the_fraction_and_pair_sums():
    # every composition of every A/D module's templates at ranks 3..30, over
    # every field it allows, weighed in one batch per rank; the templates are
    # read from the module table, as the size check of `module_table`
    # refuses spin past rank 18
    checked = set()
    for (family, module), (fields, args, _, templates, _) in repweights._MODULES.items():
        if templates is None:
            continue
        modes = ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,)
        for p, mode, rank in itertools.product(fields, modes, range(3, 31)):
            try:
                tmpl = templates(*args(ModuleSpec(family, rank, module, p, mode=mode)))
            except ValueError:
                continue  # below the module's smallest rank
            orbits = [(rank - n1 - n2, n1, n2) for n1 in range(rank + 1) for n2 in range(rank - n1 + 1 if p == 3 else 1)]
            for counts, weight in zip(orbits, orbit_weights(tmpl, p, rank, orbits), strict=True):
                assert weight == orbit_weight_by_pairs(tmpl, p, counts), (module, mode, p, counts)
            checked.add((family, module, p, mode))
    assert {(f, m) for f, m, _, _ in checked} == {(f, m) for f in ("A", "D") for m in ALLOWED_MODULES[f]}
    assert len(checked) == 11


def test_spin_weight_closed_form_matches_the_sum_over_j():
    # every composition of the spin rank m = 3..60, past the pairs oracle's
    # rank 30: with a zero coefficient the weight is a closed form, without
    # one a sum over j, and both must give the sum over j of every orbit
    for m in range(3, 61):
        templates = d_spin_templates(m)
        for n1 in range(m + 1):
            for n2 in range(m - n1 + 1):
                counts = (m - n1 - n2, n1, n2)
                assert _orbit_weight(templates, 3, counts) == spin_orbit_weight_by_sum(counts), counts


def test_ternary_template_weight_is_mirror_symmetric():
    # c and -c have one weight over F3, and -c swaps the counts of ones and
    # twos: every ternary template table at every rank to 20 gives
    # (n0, n1, n2) and (n0, n2, n1) one weight, which `module_code` relies on
    checked = set()
    for (family, module), (fields, args, _, templates, _) in repweights._MODULES.items():
        if templates is None or 3 not in fields:
            continue
        modes = ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,)
        for mode, rank in itertools.product(modes, range(21)):
            try:
                tmpl = templates(*args(ModuleSpec(family, rank, module, 3, mode=mode)))
            except ValueError:
                continue  # below the module's smallest rank
            for n1 in range(rank + 1):
                for n2 in range(min(n1, rank - n1 + 1)):
                    n0 = rank - n1 - n2
                    assert _orbit_weight(tmpl, 3, (n0, n1, n2)) == _orbit_weight(tmpl, 3, (n0, n2, n1)), (module, mode)
            checked.add((family, module, mode))
    assert len(checked) == 9  # every A and D module, each mode of adjoint_plus_spin


def test_o2m_template_weight_is_one_per_weyl_class():
    # W(D_m) permutes the rows and changes the signs of any two, which maps
    # every o(2m) column to a column up to sign: every D template table at
    # every rank from 3 to 60 gives one weight per class, which `module_code`
    # relies on.  A zero coefficient absorbs one of the two sign changes, so
    # (n0, n1, n2) with n0 >= 1 all agree; with none, the parity of n2 (that
    # of n1 for even m) is kept, and for odd m -c swaps it too
    checked = set()
    for (family, module), (_, args, _, templates, _) in repweights._MODULES.items():
        if family != "D":
            continue
        modes = ADJOINT_SPIN_MODES if module == "adjoint_plus_spin" else (None,)
        for mode, rank in itertools.product(modes, range(3, 61)):
            try:
                tmpl = templates(*args(ModuleSpec(family, rank, module, 3, mode=mode)))
            except ValueError:
                continue  # below the module's smallest rank
            orbits = [(rank - n1 - n2, n1, n2) for n1 in range(rank + 1) for n2 in range(rank - n1 + 1)]
            weights = defaultdict(set)
            for (n0, n1, _), weight in zip(orbits, orbit_weights(tmpl, 3, rank, orbits)):
                weights[n0, n1 % 2 if n0 == 0 and rank % 2 == 0 else None].add(weight)
            assert len(weights) == rank + 1 + (rank % 2 == 0)
            assert all(len(ws) == 1 for ws in weights.values()), (module, mode, rank)
            checked.add((module, mode))
    assert len(checked) == 5  # every D module, each mode of adjoint_plus_spin


def test_template_weight_must_be_a_whole_count():
    # one position of coefficient 1 hits one column; at share 1/2 that is half a column
    templates = (((1,), Fraction(1, 2)),)
    with pytest.raises(ValueError, match="counts 1 x 1/2 columns, not a whole number"):
        _orbit_weight(templates, 3, (2, 1, 0))
    # in a batch the check fires on the one broken orbit: (3, 0, 0) hits nothing
    assert orbit_weights(templates, 3, 3, [(3, 0, 0)]) == [0]
    with pytest.raises(ValueError, match="counts 1 x 1/2 columns, not a whole number"):
        orbit_weights(templates, 3, 3, [(3, 0, 0), (2, 1, 0)])


@pytest.mark.parametrize("templates", [ext_templates_A(5, 2), d_spin_templates(5)], ids=["ext2", "spin"])
def test_orbit_counts_must_be_a_composition_of_the_rank(templates):
    # a negative count would index the falling factorials from the end, and
    # counts off the rank would weigh another rank's orbit
    for counts in ((-1, 3, 3), (3, -1, 3), (3, 3, -1)):
        with pytest.raises(ValueError, match=rf"orbit counts \({counts[0]}, {counts[1]}, {counts[2]}\) must be"):
            _orbit_weight(templates, 3, counts)
        with pytest.raises(ValueError, match="must be non-negative and sum to the rank 5"):
            orbit_weights(templates, 3, 5, [(5, 0, 0), counts])
    for counts in ((4, 0, 0), (3, 2, 1)):
        with pytest.raises(ValueError, match=rf"orbit counts \({counts[0]}, {counts[1]}, {counts[2]}\) must be"):
            orbit_weights(templates, 3, 5, [counts])


@pytest.mark.parametrize(
    "templates, message",
    [
        # one coefficient goes on 3 rows in 3 ways; at share 1/2 that is 1.5 columns
        ((((1,), Fraction(1, 2)),), "counts 3 x 1/2 columns"),
        # a spin template hits the 2^2 subsets of 3 rows; at share 1/8 (or 1/3)
        # that is not whole
        (((None, Fraction(1, 8)),), "counts 4 x 1/8 columns"),
        (((None, Fraction(1, 3)),), "counts 4 x 1/3 columns"),
    ],
)
def test_template_columns_must_be_a_whole_count(templates, message):
    with pytest.raises(ValueError, match=message + ", not a whole number"):
        _columns(3, templates)


def _weight_code_columns(m):
    # [ext2 | -ext2 | spin] for odd m, [ext2 | half spin] for even m
    return 2 * m * (m - 1) + 2 ** (m - 1) if m % 2 else m * (m - 1) + 2 ** (m - 2)


# each module's smallest rank and its column count in closed form
COLUMN_COUNTS = {
    ("A", "ext2", None): (3, lambda n: comb(n, 2)),
    ("A", "ext3", None): (4, lambda n: comb(n, 3)),
    ("A", "ext4", None): (5, lambda n: comb(n, 4)),
    ("A", "adjoint", None): (3, lambda n: comb(n, 2)),
    ("D", "ext2", None): (3, lambda m: m * (m - 1)),
    ("D", "ext3", None): (3, lambda m: comb(m, 3) + m * comb(m, 2)),
    ("D", "spin", None): (3, lambda m: 2 ** (m - 1)),
    ("D", "adjoint_plus_spin", "weight_code"): (4, _weight_code_columns),
    ("D", "adjoint_plus_spin", "direct_sum"): (4, lambda m: m * (m - 1) + 2 ** (m - 1)),
}


@pytest.mark.parametrize("family, module, mode", list(COLUMN_COUNTS))
def test_column_count_is_the_closed_form(family, module, mode):
    # every rank from the module's smallest to 64, and three far past the
    # ranks `module_table` admits, where the spin counts have up to 2^22 bits
    _, args, _, templates, _ = repweights._MODULES[family, module]
    smallest, count = COLUMN_COUNTS[family, module, mode]
    with pytest.raises(ValueError, match=" needs "):
        templates(*args(ModuleSpec(family, smallest - 1, module, 3, mode=mode)))
    for rank in [*range(smallest, 65), 10**3, 10**6, 1 << 22]:
        assert _columns(rank, templates(*args(ModuleSpec(family, rank, module, 3, mode=mode)))) == count(rank), rank


@pytest.mark.parametrize(
    "spec",
    [ModuleSpec("A", 38, "ext2", 3), ModuleSpec("A", 30, "ext3", 3)],
    ids=["thm2.3/ext2/n=38", "thm2.3/ext3/n=30"],
)
def test_macwilliams_identity_past_the_caps(spec):
    # MacWilliams & Sloane (1977), ch. 5: the transform of a counted
    # distribution (3^37 and 3^28 codewords) is that of the dual code
    rep = module_code(spec)
    b = krawtchouk_transform(rep.p, rep.n, rep.k, rep.weight_distribution)
    assert b[0] == 1
    assert min(b) >= 0
    assert sum(b) == rep.p ** (rep.n - rep.k)
