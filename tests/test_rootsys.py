"""Tests for Cartan matrices, positive roots, orbits and reflections."""

import numpy as np
import pytest

from liecodes.rootsys import (
    cartan_matrix,
    positive_roots,
    reflect_coroot_coeffs,
    weyl_orbit,
)

from _oracles import pairing_vector

# the 24 positive roots of F4 in simple-root coordinates, as published
F4_POSITIVE_ROOTS = [
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 1, 1),
    (0, 1, 2, 0), (1, 1, 2, 0), (0, 1, 2, 1), (1, 1, 1, 1),
    (1, 2, 2, 0), (1, 1, 2, 1), (0, 1, 2, 2), (1, 2, 2, 1),
    (1, 1, 2, 2), (1, 2, 2, 2), (1, 2, 3, 1), (1, 2, 3, 2),
    (1, 2, 4, 2), (1, 3, 4, 2), (2, 3, 4, 2),
]


def test_cartan_a2():
    cm = cartan_matrix("A", 2)
    assert cm.entries == ((2, -1), (-1, 2))


def test_cartan_f4_asymmetric_pair():
    cm = cartan_matrix("F4", 4)
    assert cm.entries[1][2] == -2
    assert cm.entries[2][1] == -1
    assert all(cm.entries[i][i] == 2 for i in range(4))


def test_cartan_e6_branch_node():
    cm = cartan_matrix("E6", 6)
    # node 2 (index 1) is attached to node 4 (index 3) and nothing else
    row = cm.entries[1]
    assert row[3] == -1
    assert [j for j in range(6) if j != 1 and row[j] != 0] == [3]


def test_cartan_d_fork():
    cm = cartan_matrix("D", 5)
    assert cm.entries[3][4] == 0 and cm.entries[4][3] == 0
    assert cm.entries[2][4] == -1 and cm.entries[2][3] == -1


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 2), ("E6", 7), ("F4", 5), ("G2", 2)])
def test_cartan_rejects_unsupported(family, rank):
    with pytest.raises(ValueError):
        cartan_matrix(family, rank)


@pytest.mark.parametrize(
    "family,rank,count",
    [("A", 1, 1), ("A", 4, 10), ("A", 7, 28), ("D", 3, 6), ("D", 5, 20), ("D", 8, 56),
     ("E6", 6, 36), ("E7", 7, 63), ("E8", 8, 120), ("F4", 4, 24)],
)
def test_positive_root_counts(family, rank, count):
    assert len(positive_roots(cartan_matrix(family, rank))) == count


def test_positive_roots_are_an_immutable_cached_value():
    roots = positive_roots(cartan_matrix("E8", 8))
    assert isinstance(roots, tuple) and all(type(r) is tuple for r in roots)
    assert positive_roots(cartan_matrix("E8", 8)) == roots


def test_f4_roots_exactly_as_published():
    roots = positive_roots(cartan_matrix("F4", 4))
    assert sorted(roots) == sorted(F4_POSITIVE_ROOTS)


def test_roots_sorted_by_height_then_lex():
    roots = positive_roots(cartan_matrix("E6", 6))
    keys = [(sum(r), r) for r in roots]
    assert keys == sorted(keys)


def test_pairing_simple_roots_give_cartan_rows():
    for family, rank in [("A", 3), ("D", 4), ("F4", 4), ("E6", 6)]:
        cm = cartan_matrix(family, rank)
        for i in range(rank):
            beta = tuple(1 if j == i else 0 for j in range(rank))
            assert pairing_vector(cm, beta) == cm.entries[i]


def test_pairing_examples():
    a2 = cartan_matrix("A", 2)
    assert pairing_vector(a2, (1, 1)) == (1, 1)
    f4 = cartan_matrix("F4", 4)
    assert pairing_vector(f4, (2, 3, 4, 2)) == (1, 0, 0, 0)


def test_every_positive_root_has_positive_pairing_entry():
    for family, rank in [("A", 5), ("D", 6), ("E7", 7), ("F4", 4)]:
        cm = cartan_matrix(family, rank)
        for root in positive_roots(cm):
            assert any(x > 0 for x in pairing_vector(cm, root))


@pytest.mark.parametrize("family,rank", [("A", 6), ("D", 5), ("E6", 6), ("E7", 7), ("E8", 8)])
def test_roots_are_the_weight_orbit_of_the_highest_root(family, rank):
    # all roots of a simply-laced system have one length, so their weights
    # are one Weyl orbit: that of the highest root, the last one listed
    cm = cartan_matrix(family, rank)
    weights = [pairing_vector(cm, root) for root in positive_roots(cm)]
    negated = [tuple(-x for x in w) for w in weights]
    assert weyl_orbit(cm, weights[-1]) == sorted(weights + negated)


def test_weyl_orbit_a1():
    cm = cartan_matrix("A", 1)
    assert weyl_orbit(cm, (1,)) == [(-1,), (1,)]


@pytest.mark.parametrize(
    "family,rank,node,size",
    [("E6", 6, 0, 27), ("E7", 7, 6, 56), ("F4", 4, 3, 24),
     ("D", 4, 3, 8), ("D", 5, 4, 16), ("D", 6, 5, 32), ("D", 8, 7, 128)],
)
def test_weyl_orbit_sizes(family, rank, node, size):
    cm = cartan_matrix(family, rank)
    highest = tuple(1 if i == node else 0 for i in range(rank))
    assert len(weyl_orbit(cm, highest)) == size


def test_weyl_orbit_closed_under_reflections():
    cm = cartan_matrix("E6", 6)
    orbit = set(weyl_orbit(cm, (1, 0, 0, 0, 0, 0)))
    for mu in orbit:
        for i in range(6):
            image = tuple(mu[j] - mu[i] * cm.entries[i][j] for j in range(6))
            assert image in orbit


@pytest.mark.parametrize(
    "family,rank,node",
    [("E7", 7, 6), ("F4", 4, 3), ("D", 6, 5), ("D", 8, 7)],
)
def test_self_dual_orbits_closed_under_negation(family, rank, node):
    cm = cartan_matrix(family, rank)
    highest = tuple(1 if i == node else 0 for i in range(rank))
    orbit = set(weyl_orbit(cm, highest))
    assert orbit == {tuple(-x for x in w) for w in orbit}


def test_e6_orbit_not_negation_closed():
    cm = cartan_matrix("E6", 6)
    orbit = set(weyl_orbit(cm, (1, 0, 0, 0, 0, 0)))
    assert orbit != {tuple(-x for x in w) for w in orbit}


def test_weyl_orbit_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_orbit(cartan_matrix("A", 2), (1, -1))


def test_reflect_zero_fixed():
    cm = cartan_matrix("F4", 4)
    assert reflect_coroot_coeffs(cm, 2, (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_reflect_a2_example():
    cm = cartan_matrix("A", 2)
    assert reflect_coroot_coeffs(cm, 0, (1, 0)) == (-1, 0)


def test_reflect_is_involution(seed=17):
    rng = np.random.default_rng(seed)
    for family, rank in [("A", 4), ("D", 5), ("F4", 4), ("E7", 7)]:
        cm = cartan_matrix(family, rank)
        for _ in range(50):
            coeffs = tuple(int(x) for x in rng.integers(-3, 4, size=rank))
            i = int(rng.integers(0, rank))
            once = reflect_coroot_coeffs(cm, i, coeffs)
            assert reflect_coroot_coeffs(cm, i, once) == coeffs


def test_wrong_number_of_coordinates_is_rejected():
    cm = cartan_matrix("A", 2)
    with pytest.raises(ValueError, match=r"^expected 2 weight coordinates, got 1$"):
        weyl_orbit(cm, (1,))
    with pytest.raises(ValueError, match=r"^expected 2 coefficients, got 3$"):
        reflect_coroot_coeffs(cm, 0, (0, 0, 0))


def test_reflect_rejects_bad_node():
    cm = cartan_matrix("A", 2)
    with pytest.raises(ValueError):
        reflect_coroot_coeffs(cm, 2, (0, 0))
