"""Tests for the Weyl-orbit weight distributions of the sl(n) and o(2m) codes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecodes import fieldcodes, orbits
from liecodes.fieldcodes import FpMatrix, row_space_code
from liecodes.repweights import ModuleSpec, fixture_matrix
from liecodes.verify import module_code, registered_cases

from _oracles import krawtchouk_transform, naive_weight_distribution

# the modules of the benchmark's extended range, 0.5M to 2.1M codewords each
EXTENDED_SPECS = (
    ModuleSpec("A", 22, "ext3", 2),
    ModuleSpec("A", 14, "ext2", 3),
    ModuleSpec("A", 14, "ext3", 3),
    ModuleSpec("D", 12, "adjoint_plus_spin", 3, mode="direct_sum"),
)


def test_orbits_agree_with_enumeration():
    specs = [c.spec for c in registered_cases() if c.spec.family in ("A", "D")]
    assert len(specs) == 49
    for spec in specs + list(EXTENDED_SPECS):
        code, dist = module_code(spec)
        assert dist == fieldcodes.weight_distribution(code), spec


def test_exceptional_codes_are_enumerated():
    for case in registered_cases():
        if case.spec.family not in ("A", "D"):
            assert module_code(case.spec)[1] is None, case.case_id


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
    dist = orbits.weight_distribution(coords, p, code.k, sum_zero)
    assert dist == fieldcodes.weight_distribution(code)
    assert list(dist) == naive_weight_distribution(p, code.basis.entries.tolist(), code.n)
    for wrong_k in (code.k - 1, code.k + 1):
        with pytest.raises(ValueError):
            orbits.weight_distribution(coords, p, wrong_k, sum_zero)


def test_matrix_without_permutation_symmetry_is_rejected():
    e6 = fixture_matrix("E6_minimal")
    with pytest.raises(ValueError, match="not permuted"):
        orbits.weight_distribution(e6.entries, 3, 6, False)
    with pytest.raises(ValueError, match="not permuted"):
        orbits.weight_distribution([[1], [0]], 2, 1, False)


@pytest.mark.parametrize(
    "spec",
    [ModuleSpec("A", 38, "ext2", 3), ModuleSpec("A", 30, "ext3", 3)],
    ids=["thm2.3/ext2/n=38", "thm2.3/ext3/n=30"],
)
def test_macwilliams_identity_past_the_caps(spec):
    # MacWilliams & Sloane (1977), ch. 5: the transform of an orbit-counted
    # distribution (3^37 and 3^28 codewords) is that of the dual code
    code, dist = module_code(spec)
    b = krawtchouk_transform(code.p, code.n, code.k, dist)
    assert b[0] == 1
    assert min(b) >= 0
    assert sum(b) == code.p ** (code.n - code.k)
