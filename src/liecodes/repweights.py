"""Weight matrices of the module families under study.

Rows are eigenvalue vectors of a fixed diagonal basis, either the Cartan
generators h_i ("cartan_h") or the coordinate rows ("matrix_unit_E": the
diagonal matrix units of sl(n), the E_ii - E_(m+i,m+i) of o(2m)), which
the sl(n) and o(2m) builders give.  Columns are module basis vectors of
nonzero weight; `column_labels` names them, formed from the request only
when a payload prints them.  Entries are exact integers, except for the
spin constructions, which are meaningful only after reducing the
half-integer eigenvalues modulo 3 (1/2 = -1 = 2 in F3); `WeightMatrix.mod`
reduces those modules modulo 3 only.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, log2, perm
from operator import mul

import numpy as np

from .fieldcodes import FpMatrix, frozen, read_only
from .rootsys import EXCEPTIONAL_RANKS, cartan_matrix, positive_roots, weyl_orbit

__all__ = [
    "WeightMatrix",
    "ModuleSpec",
    "ext_weight_matrix_A",
    "adjoint_weight_matrix_A",
    "d_lambda2_matrix",
    "d_lambda3_matrix",
    "d_spin_matrix",
    "d_adjoint_spin_matrix",
    "exceptional_minimal_matrix",
    "exceptional_adjoint_matrix",
    "fixture_matrix",
    "build_weight_matrix",
    "column_labels",
    "module_table",
    "orbit_weights",
    "to_cartan_h",
]


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Integer eigenvalue matrix: a read-only int8 array of exact small
    integers, every module's within -2..4 (see `read_only`).

    `rank` is the defining parameter of the algebra: n for sl(n), m for
    o(2m), the Lie rank for the exceptional families.
    """

    family: str
    rank: int
    module: str
    basis: str  # "cartan_h" | "matrix_unit_E"
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", read_only(self.entries))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def mod(self, p: int) -> FpMatrix:
        """Reduce the integer entries modulo p; a half-integer module's, modulo 3 only."""
        if self.module in _HALF_INTEGER_MODULES and p != 3:
            raise ValueError(f"{self.module} matrices are defined modulo 3 only")
        return FpMatrix.reduce(p, self.entries)


ADJOINT_SPIN_MODES = ("weight_code", "direct_sum")
_HALF_INTEGER_MODULES = ("spin", "adjoint_plus_spin")  # their entries hold residues mod 3

# Ten times the entries of the 40 x 9880 cube matrix of sl(40)
_MAX_ENTRIES = 1 << 22

# The columns of an sl(n) or o(2m) weight matrix on its coordinate rows
# X_1..X_r (the matrix-unit rows of sl(n), the e_i rows of o(2m)) are a few
# templates (coeffs, share): coeffs placed on distinct rows in every order,
# each placement counted share times, which lists the columns up to sign.
# coeffs None stands for the spin columns: 2 (1/2 in F3) on the rows of a
# subset S with |S| = r (mod 2), 1 (-1/2) on the others.


def _not_whole(coeffs, hits, share: Fraction) -> ValueError:
    """The error of a template whose hits times its share is not whole."""
    return ValueError(f"template {coeffs} counts {hits} x {share} columns, not a whole number")


def _columns(rank: int, templates: tuple) -> int:
    """The columns the templates give on `rank` coordinate rows.  A template
    hits its coefficients placed on distinct rows in every order, a spin
    template its 2^(rank - 1) subsets, and each column 1/share times, its
    equal coefficients in every order or both columns of a +- pair.  A count
    that is not whole raises ValueError."""
    total = 0
    for coeffs, share in templates:
        hits = 1 << (rank - 1) if coeffs is None else perm(rank, len(coeffs))
        whole, rest = divmod(hits * share.numerator, share.denominator)
        if rest:
            raise _not_whole(coeffs, hits, share)
        total += whole
    return total


@functools.cache
def _placements(coeffs: tuple[int, ...], p: int) -> tuple[tuple[int, int, int, int], ...]:
    """(ways, k0, k1, k2): in how many ways the template's positions can take
    coefficients 0, 1 and 2 (k0, k1 and k2 of them) with a nonzero entry."""
    classes = itertools.product(range(p), repeat=len(coeffs))
    nonzero = Counter(tuple(map(cls.count, range(3))) for cls in classes if sum(map(mul, cls, coeffs)) % p)
    return tuple((ways, *ks) for ks, ways in nonzero.items())


@functools.cache
def _falling_factorials(rank: int, length: int) -> tuple[tuple[int, ...], ...]:
    """Row n, for n = 0..rank, holds perm(n, k) for k = 0..length."""
    return tuple(tuple(perm(n, k) for k in range(length + 1)) for n in range(rank + 1))


def _spin_hits(n0: int, n1: int, n2: int) -> int:
    """The hits of the spin template on the orbit (n0, n1, n2).

    With j = |S & ones| + |twos - S| the entry is u + j (mod 3), u = n1 +
    n2, and C(u, j) subsets of the nonzero rows have that j.  The zeros in S
    fix the parity of |S| in 2^(n0 - 1) ways, and by the cube roots of unity
    the C(u, j) with j != -u (mod 3) sum to 2 (2^u - (-1)^u) / 3; with no
    zeros |S| = j + n2 (mod 2) must be that of u, so j = n1 (mod 2), and the
    sum is taken term by term, O(r) work."""
    u = n1 + n2
    if n0:
        return ((1 << u) - (-1) ** u) // 3 << n0
    return sum(comb(u, j) for j in range(n1 % 2, u + 1, 2) if (u + j) % 3)


def orbit_weights(templates: tuple, p: int, rank: int, orbits: Sequence[tuple[int, int, int]]) -> list[int]:
    """Weights over F_p of the words c . X on `rank` coordinate rows, one per
    orbit (n0, n1, n2) of `orbits`: n_v coefficients of c are v, and any
    permutation of c gives the same weight.  Each template's placements and
    its share as two integers, and the falling factorials perm(n, k) of the
    rank, are looked up once per call; each template then weighs every
    orbit, one placement at a time.  Counts that are negative or do not sum
    to `rank` raise ValueError, as does a template whose hits on an orbit
    times its share is not whole."""
    longest = max((len(c) for c, _ in templates if c is not None), default=0)
    falling = _falling_factorials(rank, longest)
    rows = []  # the falling factorials of n0, n1 and n2, one triple per orbit
    for counts in orbits:
        n0, n1, n2 = counts
        if n0 < 0 or n1 < 0 or n2 < 0 or n0 + n1 + n2 != rank:
            raise ValueError(f"orbit counts {counts} must be non-negative and sum to the rank {rank}")
        rows.append((falling[n0], falling[n1], falling[n2]))
    weights = [0] * len(rows)
    for coeffs, share in templates:
        if coeffs is None:
            hits = [_spin_hits(*counts) for counts in orbits]
        else:
            # k_v positions on rows of coefficient v go there in perm(n_v, k_v)
            # ways; each placement adds its term to every orbit
            hits = [0] * len(rows)
            for w, k0, k1, k2 in _placements(coeffs, p):
                hits = [h + w * f0[k0] * f1[k1] * f2[k2] for h, (f0, f1, f2) in zip(hits, rows)]
        num, den = share.numerator, share.denominator
        for i, h in enumerate(hits):
            whole, rest = divmod(h * num, den)
            if rest:
                raise _not_whole(coeffs, h, share)
            weights[i] += whole
    return weights


def _count_text(x: int) -> str:
    """x in digits, or as a power of two past 2^64 (the digits of 2^(m-1)
    for a large spin module would not print)."""
    if x < 1 << 64:
        return str(x)
    top = x.bit_length() - 1
    return f"2^{top}" if x == 1 << top else f"about 2^{log2(x):.1f}"


def _subset_label(members) -> str:
    """The label of a subset, given the names of its members."""
    return "{" + ",".join(members) + "}"


def _subsets(n: int, r: int) -> np.ndarray:
    """The r-subsets of {0..n-1} in lexicographic order, one per row."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    return np.fromiter(flat, dtype=np.intp, count=comb(n, r) * r).reshape(-1, r)


def ext_templates_A(n: int, r: int) -> tuple:
    """Column templates of sl(n) on the degree-r exterior power: r ones."""
    if not 1 <= r <= n - 1:
        raise ValueError(f"ext{r} of sl(n) needs 1 <= r <= n - 1, got n={n}")
    return (((1,) * r, Fraction(1, factorial(r))),)


def ext_weight_matrix_A(n: int, r: int) -> WeightMatrix:
    """Weight matrix of sl(n) on the degree-r exterior power, on the n
    matrix-unit rows: row i is the indicator of i belonging to the subset.

    Columns are the r-subsets of {1..n} in lexicographic order.
    """
    ext_templates_A(n, r)
    subsets = _subsets(n, r)
    e = np.zeros((n, len(subsets)), dtype=np.int8)
    e[subsets.T, np.arange(len(subsets))] = 1
    return WeightMatrix("A", n, f"ext{r}", "matrix_unit_E", frozen(e))


def _ext_labels_A(n: int, r: int) -> tuple[str, ...]:
    return tuple(_subset_label(map(str, s)) for s in (_subsets(n, r) + 1).tolist())


def adjoint_templates_A(n: int) -> tuple:
    """Column templates of sl(n) on its adjoint module: (1, -1)."""
    if n < 3:
        raise ValueError(f"adjoint of sl(n) needs n >= 3, got n={n}")
    return (((1, -1), Fraction(1, 2)),)


def adjoint_weight_matrix_A(n: int) -> WeightMatrix:
    """Weight matrix of sl(n) on its adjoint module, positive roots only, on
    the n matrix-unit rows: row r acts by delta_(r,i) - delta_(r,j).

    Columns are the root vectors for e_i - e_j (i < j, lexicographic).
    """
    adjoint_templates_A(n)
    pairs = _subsets(n, 2)
    e = np.zeros((n, len(pairs)), dtype=np.int8)
    e[pairs.T, np.arange(len(pairs))] = [[1], [-1]]
    return WeightMatrix("A", n, "adjoint", "matrix_unit_E", frozen(e))


def _adjoint_labels_A(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}-e{j}" for i, j in (_subsets(n, 2) + 1).tolist())


def d_lambda2_templates(m: int) -> tuple:
    """Column templates of o(2m) on its degree-2 exterior module."""
    if m < 3:
        raise ValueError(f"ext2 of o(2m) needs m >= 3, got m={m}")
    return (((1, 1), Fraction(1, 2)), ((1, -1), Fraction(1, 2)))


def d_lambda2_matrix(m: int) -> WeightMatrix:
    """Half weight matrix of o(2m) on its degree-2 exterior module.

    Rows are the diagonal generators E_ii - E_(m+i,m+i).  For each pair
    i < j there is a sum column (weight e_i + e_j), that of sl(m) on ext2,
    and a difference column (weight e_i - e_j), that of its adjoint module,
    interleaved in lexicographic pair order.
    """
    d_lambda2_templates(m)
    rows = np.empty((m, m * (m - 1)), dtype=np.int8)
    rows[:, ::2] = ext_weight_matrix_A(m, 2).entries
    rows[:, 1::2] = adjoint_weight_matrix_A(m).entries
    return WeightMatrix("D", m, "ext2", "matrix_unit_E", frozen(rows))


def _d_lambda2_labels(m: int) -> tuple[str, ...]:
    return tuple(f"e{i}{sign}e{j}" for i, j in (_subsets(m, 2) + 1).tolist() for sign in "+-")


def d_lambda3_templates(m: int) -> tuple:
    """Column templates of o(2m) on its degree-3 exterior module; the column
    e_i + e_j - e_l with l = i or j is e_j or e_i, m - 1 times each."""
    if m < 3:
        raise ValueError(f"ext3 of o(2m) needs m >= 3, got m={m}")
    return (((1, 1, 1), Fraction(1, 6)), ((1, 1, -1), Fraction(1, 2)), ((1,), Fraction(m - 1)))


def d_lambda3_matrix(m: int) -> WeightMatrix:
    """Half weight matrix of o(2m) on its degree-3 exterior module.

    First the C(m,3) columns of weight e_i + e_j + e_l (i < j < l), then the
    m * C(m,2) columns of weight e_i + e_j - e_l (i < j, l arbitrary).
    """
    d_lambda3_templates(m)
    triples, pairs = _subsets(m, 3), _subsets(m, 2)
    rows = np.zeros((m, len(triples) + len(pairs) * m), dtype=np.int8)
    rows[triples.T, np.arange(len(triples))] = 1
    # the column of pair (i, j) and row l, one row per pair
    mixed = len(triples) + np.arange(len(pairs) * m).reshape(-1, m)
    rows[pairs[:, :1], mixed] = 1
    rows[pairs[:, 1:], mixed] = 1
    rows[np.arange(m), mixed] -= 1
    return WeightMatrix("D", m, "ext3", "matrix_unit_E", frozen(rows))


def _d_lambda3_labels(m: int) -> tuple[str, ...]:
    triples, pairs = (_subsets(m, 3) + 1).tolist(), (_subsets(m, 2) + 1).tolist()
    return tuple(
        [f"e{i}+e{j}+e{l}" for i, j, l in triples]
        + [f"e{i}+e{j}-e{l}" for i, j in pairs for l in range(1, m + 1)]
    )


def d_spin_templates(m: int) -> tuple:
    """Column templates of the spin module of o(2m)."""
    if m < 3:
        raise ValueError(f"spin of o(2m) needs m >= 3, got m={m}")
    return ((None, Fraction(1)),)


def _spin_masks(m: int) -> np.ndarray:
    """The spin columns of o(2m): the subsets S of {1..m} with |S| = m (mod
    2) in lexicographic order, each the mask with bit i - 1 set for i in S."""
    masks = np.zeros(1, dtype=np.int64)
    # the subsets of {i..m} in order: the empty one, then each subset of
    # {i+1..m} with i added, then the nonempty subsets of {i+1..m}
    for bit in range(m - 1, -1, -1):
        masks = np.concatenate([masks[:1], masks | 1 << bit, masks[1:]])
    return masks[np.bitwise_count(masks) % 2 == m % 2]


def _spin_rows(m: int, masks: np.ndarray) -> np.ndarray:
    """The spin columns of `masks`: 2 in row r for r in S, 1 elsewhere."""
    rows = np.empty((m, len(masks)), dtype=np.int8)
    for r, row in enumerate(rows):
        np.bitwise_and(masks >> r, 1, out=row, casting="unsafe")
    rows += 1
    return rows


def _member_texts(first: int, last: int) -> list[str]:
    """The members of every subset of {first..last - 1}, each followed by a
    comma, indexed by the subset's mask with bit 0 for `first`."""
    texts = [""]
    for i in range(first, last):
        texts += [f"{text}{i}," for text in texts]
    return texts


def _spin_labels(m: int, masks: np.ndarray) -> tuple[str, ...]:
    # the members of S in {1..half} and in {half+1..m}, read off two tables
    # of 2^(m/2) texts each, less the last comma
    half = m // 2
    low, high = _member_texts(1, half + 1), _member_texts(half + 1, m + 1)
    low_bits = (1 << half) - 1
    return tuple(["{" + (low[s & low_bits] + high[s >> half])[:-1] + "}" for s in masks.tolist()])


def d_spin_matrix(m: int) -> WeightMatrix:
    """Spin weight matrix of o(2m), reduced to F3.

    Columns are the subsets S of {1..m} with |S| = m (mod 2); the entry in
    row r is 2 (that is, 1/2 = -1) when r lies in S and 1 (-1/2) otherwise.
    """
    d_spin_templates(m)
    return WeightMatrix("D", m, "spin", "matrix_unit_E", frozen(_spin_rows(m, _spin_masks(m))))


def _d_spin_labels(m: int) -> tuple[str, ...]:
    return _spin_labels(m, _spin_masks(m))


def d_adjoint_spin_templates(m: int, mode: str) -> tuple:
    """Column templates of o(2m) on adjoint-plus-spin, by blocks."""
    if m < 4:
        raise ValueError(f"adjoint_plus_spin of o(2m) needs m >= 4, got m={m}")
    if mode not in ADJOINT_SPIN_MODES:
        raise ValueError(f"adjoint_plus_spin needs a mode, one of {list(ADJOINT_SPIN_MODES)}; got {mode!r}")
    # shares of the ext2 and spin blocks: weight_code keeps one column of
    # each +- pair, doubling ext2 for odd m and halving spin for even m
    shares = (1, 1) if mode == "direct_sum" else (2, 1) if m % 2 else (1, Fraction(1, 2))
    blocks = (d_lambda2_templates(m), d_spin_templates(m))
    return tuple((c, k * share) for k, block in zip(shares, blocks) for c, share in block)


def _adjoint_spin_blocks(m: int, mode: str) -> tuple[bool, np.ndarray]:
    """Whether a negated ext2 block follows the ext2 one, and the kept spin
    columns (see `d_adjoint_spin_matrix`)."""
    d_adjoint_spin_templates(m, mode)
    masks = _spin_masks(m)
    if mode == "weight_code" and m % 2 == 0:
        masks = masks[masks & 1 == 1]  # the subsets containing 1
    return mode == "weight_code" and m % 2 == 1, masks


def d_adjoint_spin_matrix(m: int, mode: str) -> WeightMatrix:
    """Weight matrix of o(2m) acting on adjoint-plus-spin, by block columns.

    mode="weight_code" keeps one column per +- weight pair: for even m the
    spin module is self-dual and the blocks are [ext2 | half spin]; for odd
    m it is not, and the blocks are [ext2 | -ext2 | spin].  mode="direct_sum"
    always uses [ext2 | spin], the generator of the direct-sum code.
    """
    negated, masks = _adjoint_spin_blocks(m, mode)
    c2 = d_lambda2_matrix(m).entries
    blocks = [c2, -c2] if negated else [c2]
    entries = np.hstack(blocks + [_spin_rows(m, masks)])
    return WeightMatrix("D", m, "adjoint_plus_spin", "matrix_unit_E", frozen(entries))


def _d_adjoint_spin_labels(m: int, mode: str) -> tuple[str, ...]:
    negated, masks = _adjoint_spin_blocks(m, mode)
    c2 = _d_lambda2_labels(m)
    negative = tuple("-" + label for label in c2) if negated else ()
    return c2 + negative + _spin_labels(m, masks)


_MINIMAL_ORBITS = {
    # family -> (highest-weight node index, keep one column per +- pair)
    "F4": (3, True),
    "E6": (0, False),
    "E7": (6, True),
}


def _weight_label(w: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, w)) + ")"


@functools.cache
def _minimal_orbit(family: str) -> tuple[tuple[int, ...], ...]:
    """The kept columns of a minimal module, searched once per process."""
    node, keep_half = _MINIMAL_ORBITS[family]
    rank = EXCEPTIONAL_RANKS[family]
    orbit = weyl_orbit(cartan_matrix(family, rank), tuple(1 if i == node else 0 for i in range(rank)))
    return tuple(w for w in orbit if not keep_half or next(x for x in w if x) > 0)


def exceptional_minimal_matrix(family: str) -> WeightMatrix:
    """Weight matrix of the minimal module of F4, E6 or E7.

    Columns come from the Weyl orbit of the fundamental highest weight.  The
    F4 and E7 orbits are closed under negation, so only the member of each
    pair whose first nonzero coordinate is positive is kept.
    """
    if family not in _MINIMAL_ORBITS:
        raise ValueError(f"minimal-module matrix known for F4, E6, E7; got {family!r}")
    entries = np.array(_minimal_orbit(family), dtype=np.int8).T
    return WeightMatrix(family, EXCEPTIONAL_RANKS[family], "minimal", "cartan_h", entries)


def _minimal_labels(family: str) -> tuple[str, ...]:
    return tuple(map(_weight_label, _minimal_orbit(family)))


def exceptional_adjoint_matrix(family: str) -> WeightMatrix:
    """Adjoint weight matrix of F4, E6, E7 or E8: one column per positive
    root, its pairings c @ C with the Cartan generators."""
    if family not in EXCEPTIONAL_RANKS:
        raise ValueError(f"adjoint matrix known for F4, E6, E7, E8; got {family!r}")
    rank = EXCEPTIONAL_RANKS[family]
    cm = cartan_matrix(family, rank)
    entries = (np.array(positive_roots(cm)) @ np.array(cm.entries)).T
    return WeightMatrix(family, rank, "adjoint", "cartan_h", entries)


def _adjoint_labels(family: str) -> tuple[str, ...]:
    """The positive roots, by their coefficients on the simple roots."""
    return tuple(map(_weight_label, positive_roots(cartan_matrix(family, EXCEPTIONAL_RANKS[family]))))


def _parse_rows(rows: tuple[str, ...]) -> np.ndarray:
    return np.array([[int(t) for t in row.split()] for row in rows], dtype=np.int8)


# Verbatim reference matrices from the source tables, used as ground truth
# for the generated constructions.
_FIXTURES: dict[str, tuple[str, int, str, tuple[str, ...]]] = {
    "F4_minimal": (
        "F4",
        4,
        "minimal",
        (
            "0 0 0 1 1 -1 1 -1 -1 0 0 0",
            "0 0 1 -1 0 0 0 1 1 -1 -1 0",
            "0 1 -1 1 -1 1 0 -1 0 1 2 -1",
            "1 -1 0 0 1 0 -1 1 -1 1 -1 2",
        ),
    ),
    "F4_adjoint": (
        "F4",
        4,
        "adjoint",
        (
            "2 -1 0 0 1 -1 0 1 -1 -1 1 -1 1 0 1 -1 0 1 0 0 0 0 -1 1",
            "-1 2 -1 0 1 1 -1 0 1 0 -1 0 0 1 -1 0 1 -1 1 0 0 -1 1 0",
            "0 -2 2 -1 -2 0 1 0 -1 2 2 1 -1 0 1 0 -1 0 -2 1 0 2 0 0",
            "0 0 -1 2 0 -1 1 -1 1 -2 -2 0 1 -2 0 2 0 2 2 -1 1 0 0 0",
        ),
    ),
    "E6_minimal": (
        "E6",
        6,
        "minimal",
        (
            "1 -1 0 0 0 0 0 0 0 0 1 0 0 -1 1 1 -1 1 -1 1 -1 0 -1 0 0 0 0",
            "0 0 0 1 1 -1 -1 1 0 -1 0 0 0 0 0 0 0 1 0 -1 1 1 -1 -1 0 0 0",
            "0 1 -1 0 0 0 0 0 1 0 -1 1 1 0 -1 -1 0 0 0 0 1 -1 1 -1 0 0 0",
            "0 0 1 -1 0 0 1 0 -1 1 0 -1 0 0 0 1 0 -1 1 0 -1 0 0 1 -1 0 0",
            "0 0 0 1 -1 1 -1 0 0 0 0 1 -1 0 1 -1 1 0 -1 0 0 0 0 0 1 -1 0",
            "0 0 0 0 1 0 1 -1 1 -1 1 -1 0 1 -1 0 -1 0 0 0 0 0 0 0 0 1 -1",
        ),
    ),
    "E7_minimal": (
        "E7",
        7,
        "minimal",
        (
            "0 0 0 0 0 1 0 -1 1 1 -1 1 -1 1 0 -1 1 0 -1 0 0 -1 0 0 0 0 0 0",
            "0 0 0 0 1 1 -1 1 -1 0 -1 0 0 0 0 0 0 0 0 1 0 0 -1 1 0 -1 1 1",
            "0 0 0 0 1 -1 1 0 -1 0 0 0 1 0 -1 1 0 -1 1 0 -1 1 0 0 -1 0 0 0",
            "0 0 0 1 -1 0 0 0 1 -1 1 0 -1 0 0 0 0 1 0 -1 1 0 0 -1 1 0 0 -1",
            "0 0 1 -1 0 0 0 0 0 1 0 -1 1 0 1 -1 0 -1 0 0 0 0 0 1 0 1 -1 1",
            "0 1 -1 0 0 0 0 0 0 0 0 1 0 -1 0 1 0 1 -1 1 -1 0 1 -1 0 -1 0 0",
            "1 -1 0 0 0 0 0 0 0 0 0 0 0 1 0 0 -1 0 1 0 1 -1 0 1 -1 1 1 -1",
        ),
    ),
}

def fixture_matrix(name: str) -> WeightMatrix:
    """One of the verbatim reference matrices, exactly as published."""
    try:
        family, rank, module, rows = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(sorted(_FIXTURES))}") from None
    return WeightMatrix(family, rank, module, "cartan_h", _parse_rows(rows))


def to_cartan_h(wm: WeightMatrix) -> WeightMatrix:
    """Rewrite a matrix-unit-basis weight matrix on the Cartan generators.

    For sl(n) the h rows are consecutive differences of the matrix-unit
    rows; for o(2m) they are g_s - g_(s+1) for s < m together with
    g_(m-1) + g_m, where g_i = E_ii - E_(m+i,m+i).
    """
    if wm.basis == "cartan_h":
        return wm
    if wm.family not in ("A", "D"):
        raise ValueError(f"no Cartan-basis transition for family {wm.family!r}")
    if wm.rows != wm.rank:
        raise ValueError("need all matrix-unit rows to change basis")
    e = wm.entries
    rows = e[:-1] - e[1:]
    if wm.family == "D":
        rows = np.vstack([rows, e[-2:-1] + e[-1:]])
    return WeightMatrix(wm.family, wm.rank, wm.module, "cartan_h", frozen(rows))


@dataclass(frozen=True)
class ModuleSpec:
    """A (family, rank, module, field) request plus mode flags; `module_table`
    checks it, for both `build_weight_matrix` and `verify.module_code`."""

    family: str
    rank: int
    module: str
    p: int
    mode: str | None = None  # adjoint_plus_spin: weight_code | direct_sum
    basis: str | None = None  # "matrix_unit_E" keeps the sl(n) coordinate rows

    @property
    def sum_zero(self) -> bool:
        """Whether this is a Cartan-basis sl(n) code, spanned by the
        X_i - X_(i+1): its words are the c . X with c_1 + ... + c_r = 0."""
        return self.family == "A" and self.basis != "matrix_unit_E"


# (family, module) -> (fields it is defined over, arguments of a request,
# builder, column templates, column labels); the templates function checks
# the rank and mode bounds, and the builder calls it first.  The labels
# function takes the builder's arguments and names its columns in order.
# The exceptional modules have no templates.
_MODULES = {
    ("A", "ext2"): ((2, 3), lambda ms: (ms.rank, 2), ext_weight_matrix_A, ext_templates_A, _ext_labels_A),
    ("A", "ext3"): ((2, 3), lambda ms: (ms.rank, 3), ext_weight_matrix_A, ext_templates_A, _ext_labels_A),
    ("A", "ext4"): ((3,), lambda ms: (ms.rank, 4), ext_weight_matrix_A, ext_templates_A, _ext_labels_A),
    ("A", "adjoint"):
        ((3,), lambda ms: (ms.rank,), adjoint_weight_matrix_A, adjoint_templates_A, _adjoint_labels_A),
    ("D", "ext2"): ((3,), lambda ms: (ms.rank,), d_lambda2_matrix, d_lambda2_templates, _d_lambda2_labels),
    ("D", "ext3"): ((3,), lambda ms: (ms.rank,), d_lambda3_matrix, d_lambda3_templates, _d_lambda3_labels),
    ("D", "spin"): ((3,), lambda ms: (ms.rank,), d_spin_matrix, d_spin_templates, _d_spin_labels),
    ("D", "adjoint_plus_spin"): (
        (3,),
        lambda ms: (ms.rank, ms.mode),
        d_adjoint_spin_matrix,
        d_adjoint_spin_templates,
        _d_adjoint_spin_labels,
    ),
    **{
        (family, module): ((3,), lambda ms: (ms.family,), build, None, labels)
        for family in EXCEPTIONAL_RANKS
        for module, build, labels in (
            ("minimal", exceptional_minimal_matrix, _minimal_labels),
            ("adjoint", exceptional_adjoint_matrix, _adjoint_labels),
        )
    },
    # the minimal E8 module is the adjoint one
    ("E8", "minimal"): ((3,), lambda ms: (ms.family,), exceptional_adjoint_matrix, None, _adjoint_labels),
}

ALLOWED_MODULES = {family: tuple(mod for fam, mod in _MODULES if fam == family) for family, _ in _MODULES}


def module_table(ms: ModuleSpec) -> tuple[tuple, int] | None:
    """The column templates of an sl(n) or o(2m) module request and the
    number of columns they give, None for an exceptional one, or ValueError:
    the module table decides which (family, module) pairs exist and over
    which fields, the templates the ranks and modes; then the basis is
    checked, and the size of the matrix: a request of more than 2^22 rows
    is refused by its row count alone, any other by its exact column count,
    which `module_code` reads too."""
    allowed = ALLOWED_MODULES.get(ms.family)
    if allowed is None:
        raise ValueError(f"unknown family {ms.family!r}; expected one of {sorted(ALLOWED_MODULES)}")
    if ms.module not in allowed:
        raise ValueError(f"family {ms.family} has no module {ms.module!r}; expected one of {list(allowed)}")
    entry = _MODULES[ms.family, ms.module]
    if ms.p not in entry[0]:
        over = "F2 and F3" if 2 in entry[0] else "F3 only (the code is ternary)"
        raise ValueError(f"module {ms.module} of family {ms.family} is defined over {over}")
    if ms.basis is not None and ms.family != "A":
        raise ValueError(f"a basis override applies to family A only, not {ms.family}")
    if ms.mode is not None and ms.module != "adjoint_plus_spin":
        raise ValueError(f"a mode applies to module adjoint_plus_spin only, not {ms.module}")
    if ms.family in EXCEPTIONAL_RANKS and ms.rank != EXCEPTIONAL_RANKS[ms.family]:
        raise ValueError(f"family {ms.family} has rank {EXCEPTIONAL_RANKS[ms.family]}")
    _, args, _, templates, _ = entry
    if templates is None:
        return None
    templates = templates(*args(ms))
    if ms.basis not in (None, "matrix_unit_E"):
        raise ValueError(f"unknown basis {ms.basis!r}; the one override is 'matrix_unit_E'")
    rows = ms.rank
    # every module has a column, so past _MAX_ENTRIES rows the matrix is over
    # the cap whatever its columns, and they are not counted
    if rows > _MAX_ENTRIES:
        size = f"{rows} rows, so at least {rows}"
    elif rows * (columns := _columns(rows, templates)) > _MAX_ENTRIES:
        size = f"{rows} x {_count_text(columns)} = {_count_text(rows * columns)}"
    else:
        return templates, columns
    algebra = f"sl({rows})" if ms.family == "A" else f"o({2 * rows})"
    raise ValueError(f"{ms.module} of {algebra} would have {size} entries, over {_MAX_ENTRIES}")


def build_weight_matrix(ms: ModuleSpec) -> WeightMatrix:
    """Construct the weight matrix of a module request, or raise the
    ValueError of `module_table`.  The builders give the coordinate rows;
    an sl(n) matrix moves to the Cartan generators unless the request asks
    for matrix_unit_E."""
    module_table(ms)
    _, args, build, _, _ = _MODULES[ms.family, ms.module]
    wm = build(*args(ms))
    return to_cartan_h(wm) if ms.sum_zero else wm


def column_labels(ms: ModuleSpec) -> tuple[str, ...]:
    """The names of the columns of `build_weight_matrix(ms)`, in order, from
    the request alone, or the ValueError of `module_table`.  A change of
    basis keeps the columns, so the names do not depend on it."""
    module_table(ms)
    _, args, _, _, labels = _MODULES[ms.family, ms.module]
    return labels(*args(ms))
