"""Root systems computed intrinsically from Cartan matrices.

Roots are integer coefficient vectors on the simple roots; weights are
integer eigenvalue tuples on the Cartan generators h_1..h_n.  A Cartan
matrix is the tuple of its rows, and its rank is their count.  Entry [i][j]
is the value of simple root i on generator j, so the pairing of a root
beta = sum_j c_j alpha_j with generator i is the dot product of c with
column i.  Node indices are 0-based throughout.  Roots and weights both
come from one Weyl-orbit search.
"""

from __future__ import annotations

from functools import cache
from operator import index, mul
from typing import Sequence

__all__ = [
    "cartan_matrix",
    "positive_roots",
    "weyl_orbit",
    "reflect_coroot_coeffs",
    "EXCEPTIONAL_RANKS",
]

# The exceptional families and their Lie ranks; A and D take any rank.
EXCEPTIONAL_RANKS = {"F4": 4, "E6": 6, "E7": 7, "E8": 8}

# F4 diagram: chain 1-2=>3-4 with the double edge between nodes 2 and 3
# (nodes 3 and 4 short).  Rows follow the same node order.
_F4_ENTRIES = (
    (2, -1, 0, 0),
    (-1, 2, -2, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)


def _chain_edges(labels: Sequence[int]) -> list[tuple[int, int]]:
    return [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]


def _edges(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return _chain_edges(range(rank))
    if family == "D":
        # chain over nodes 0..rank-2, extra node rank-1 forking at rank-3
        return _chain_edges(range(rank - 1)) + [(rank - 3, rank - 1)]
    # E6/E7/E8: chain 1-3-4-5-... with node 2 attached to node 4 (1-based)
    chain = [0] + list(range(2, rank))
    return _chain_edges(chain) + [(1, 3)]


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Standard Cartan matrix for the supported (family, rank) pairs."""
    legal = (
        (family == "A" and rank >= 1)
        or (family == "D" and rank >= 3)
        or EXCEPTIONAL_RANKS.get(family) == rank
    )
    if not legal:
        exceptional = ", ".join(f"{f}/{r}" for f, r in EXCEPTIONAL_RANKS.items())
        raise ValueError(
            f"unsupported pair ({family!r}, {rank}); expected A (rank >= 1), "
            f"D (rank >= 3) or one of {exceptional}"
        )
    if family == "F4":
        return _F4_ENTRIES
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(family, rank):
        rows[i][j] = rows[j][i] = -1
    return tuple(map(tuple, rows))


def _integers(values: Sequence[int]) -> list[int]:
    """`values` as Python ints, or ValueError: int() would truncate a float."""
    try:
        return [index(x) for x in values]
    except TypeError:
        raise ValueError(f"expected integer values, got {values!r}") from None


def _orbit(seeds, reflect, rank: int) -> set[tuple[int, ...]]:
    """Breadth-first closure of `seeds` under the simple reflections;
    `reflect(v, i)` is the image of v under s_i, or None for a move the
    search leaves out."""
    seen = set(seeds)
    level = list(seen)
    while level:
        found = []
        for v in level:
            for i in range(rank):
                w = reflect(v, i)
                if w is not None and w not in seen:
                    seen.add(w)
                    found.append(w)
        level = found
    return seen


@cache
def positive_roots(cm: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """All positive roots, as coefficient vectors sorted by (height, lex).

    Every root is a Weyl image of a simple root, and s_i permutes the
    positive roots other than alpha_i (Humphreys 1972, 10.3(c) and 10.2
    Lemma B), so the orbit search from the simple roots finds them all once
    it leaves out the one move alpha_i -> -alpha_i.  s_i changes
    coefficient i only, by minus the pairing of the root with generator i.
    Computed once per Cartan matrix; the tuple keeps the cached value
    immutable.
    """
    n, columns = len(cm), list(zip(*cm))

    def reflect(c, i):
        ci = c[i] - sum(map(mul, c, columns[i]))
        return None if ci < 0 else c[:i] + (ci,) + c[i + 1 :]

    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return tuple(sorted(_orbit(simple, reflect, n), key=lambda r: (sum(r), r)))


def weyl_orbit(cm: tuple[tuple[int, ...], ...], dominant: Sequence[int]) -> list[tuple[int, ...]]:
    """Orbit of a dominant weight under the simple reflections, sorted lex;
    s_i subtracts w_i times row i of the Cartan matrix."""
    mu = tuple(_integers(dominant))
    if len(mu) != len(cm):
        raise ValueError(f"expected {len(cm)} weight coordinates, got {len(mu)}")
    if any(x < 0 for x in mu):
        raise ValueError("weight must be dominant (all coordinates >= 0)")

    def reflect(w, i):
        return tuple([wj - w[i] * cij for wj, cij in zip(w, cm[i])]) if w[i] else None

    return sorted(_orbit([mu], reflect, len(cm)))


def reflect_coroot_coeffs(cm: tuple[tuple[int, ...], ...], node: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Simple reflection acting on Cartan-generator coefficient vectors.

    Only the `node` coordinate moves: it picks up minus the pairing of the
    whole combination with the node's simple root.  Weight codes are
    invariant under this action, which is what makes partial row sums
    representative codewords.
    """
    l = _integers(coeffs)
    if len(l) != len(cm):
        raise ValueError(f"expected {len(cm)} coefficients, got {len(l)}")
    if not 0 <= node < len(cm):
        raise ValueError(f"node index {node} out of range 0..{len(cm) - 1}")
    l[node] -= sum(map(mul, l, cm[node]))
    return tuple(l)
