"""Root systems computed intrinsically from Cartan matrices.

Roots are integer coefficient vectors on the simple roots; weights are
integer eigenvalue tuples on the Cartan generators h_1..h_n.  Entry [i][j]
of a Cartan matrix is the value of simple root i on generator j, so the
pairing of a root beta = sum_j c_j alpha_j with generator i is the dot
product of c with column i.  Node indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "CartanMatrix",
    "cartan_matrix",
    "positive_roots",
    "pairing_vector",
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


@dataclass(frozen=True)
class CartanMatrix:
    family: str
    rank: int
    entries: tuple[tuple[int, ...], ...]


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


def cartan_matrix(family: str, rank: int) -> CartanMatrix:
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
        return CartanMatrix("F4", rank, _F4_ENTRIES)
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(family, rank):
        rows[i][j] = rows[j][i] = -1
    return CartanMatrix(family, rank, tuple(tuple(r) for r in rows))


def pairing_vector(cm: CartanMatrix, root_coeffs: Sequence[int]) -> tuple[int, ...]:
    """Eigenvalue tuple of a root on the Cartan generators h_1..h_n."""
    c = [int(x) for x in root_coeffs]
    if len(c) != cm.rank:
        raise ValueError(f"expected {cm.rank} root coefficients, got {len(c)}")
    C = cm.entries
    return tuple(sum(cj * C[j][i] for j, cj in enumerate(c)) for i in range(cm.rank))


def positive_roots(cm: CartanMatrix) -> list[tuple[int, ...]]:
    """All positive roots, as coefficient vectors sorted by (height, lex).

    Generated by height induction: each known root is extended through every
    simple-root string, with the upward string length fixed by the pairing
    and the downward length found by lookup.
    """
    n = cm.rank
    C = cm.entries
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    level = simple
    while level:
        found = []
        for beta in level:
            for i in range(n):
                pairing = sum(cj * C[j][i] for j, cj in enumerate(beta) if cj)
                down = 0
                lower = list(beta)
                while True:
                    lower[i] -= 1
                    if lower[i] < 0 or tuple(lower) not in known:
                        break
                    down += 1
                if down - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        found.append(cand)
        level = found
    return sorted(known, key=lambda r: (sum(r), r))


def weyl_orbit(cm: CartanMatrix, dominant: Sequence[int]) -> list[tuple[int, ...]]:
    """Orbit of a dominant weight under the simple reflections, sorted lex."""
    mu = tuple(int(x) for x in dominant)
    if len(mu) != cm.rank:
        raise ValueError(f"expected {cm.rank} weight coordinates, got {len(mu)}")
    if any(x < 0 for x in mu):
        raise ValueError("weight must be dominant (all coordinates >= 0)")
    C = cm.entries
    seen = {mu}
    queue = [mu]
    while queue:
        cur = queue.pop()
        for i in range(cm.rank):
            ci = cur[i]
            if ci == 0:
                continue
            nxt = tuple(cur[j] - ci * C[i][j] for j in range(cm.rank))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def reflect_coroot_coeffs(cm: CartanMatrix, node: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Simple reflection acting on Cartan-generator coefficient vectors.

    Only the `node` coordinate moves: it picks up minus the pairing of the
    whole combination with the node's simple root.  Weight codes are
    invariant under this action, which is what makes partial row sums
    representative codewords.
    """
    l = [int(x) for x in coeffs]
    if len(l) != cm.rank:
        raise ValueError(f"expected {cm.rank} coefficients, got {len(l)}")
    if not 0 <= node < cm.rank:
        raise ValueError(f"node index {node} out of range 0..{cm.rank - 1}")
    C = cm.entries
    l[node] -= sum(lk * C[node][k] for k, lk in enumerate(l))
    return tuple(l)
