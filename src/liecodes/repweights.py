"""Weight matrices of the module families under study.

Rows are eigenvalue vectors of a fixed diagonal basis, either the Cartan
generators h_i ("cartan_h") or diagonal matrix units / their differences
("matrix_unit_E").  Columns are labeled module basis vectors of nonzero
weight.  Entries are exact integers, except for the spin constructions,
which are meaningful only after reducing the half-integer eigenvalues
modulo 3 (1/2 = -1 = 2 in F3); those carry the `mod3_only` flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .fieldcodes import FpMatrix
from .rootsys import EXCEPTIONAL_RANKS, cartan_matrix, pairing_vector, positive_roots, weyl_orbit

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
    "FIXTURE_NAMES",
    "build_weight_matrix",
    "to_cartan_h",
]


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Integer eigenvalue matrix with labeled columns.

    `rank` is the defining parameter of the algebra: n for sl(n), m for
    o(2m), the Lie rank for the exceptional families.
    """

    family: str
    rank: int
    module: str
    basis: str  # "cartan_h" | "matrix_unit_E"
    mod3_only: bool
    entries: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        if a.shape[1] != len(self.column_labels):
            raise ValueError("one label per column required")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def mod(self, p: int) -> FpMatrix:
        """Reduce the integer entries modulo p."""
        if self.mod3_only and p != 3:
            raise ValueError(f"{self.module} matrices are defined modulo 3 only")
        return FpMatrix.reduce(p, self.entries)


_BASES = ("cartan_h", "matrix_unit_E")
ADJOINT_SPIN_MODES = ("weight_code", "direct_sum")

# Ten times the entries of the largest weight matrix the tests and the
# benchmark build, the 40 x 9880 cube matrix of sl(40)
_MAX_ENTRIES = 1 << 22


def _check_size(module: str, rows: int, cols: int) -> None:
    """Refuse a matrix of more than _MAX_ENTRIES entries before it is allocated."""
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(f"{module} would have {rows} x {cols} = {rows * cols} entries, over {_MAX_ENTRIES}")


def _subset_label(subset: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"


def ext_weight_matrix_A(n: int, r: int, basis: str = "cartan_h") -> WeightMatrix:
    """Weight matrix of sl(n) on the degree-r exterior power.

    Columns are the r-subsets of {1..n} in lexicographic order.  In the
    matrix_unit_E basis, row i is the indicator of i belonging to the
    subset; cartan_h rows are consecutive differences of those.
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"ext{r} of sl(n) needs 1 <= r <= n - 1, got n={n}")
    if basis not in _BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {list(_BASES)}")
    _check_size(f"ext{r} of sl({n})", n, comb(n, r))
    subsets = list(itertools.combinations(range(1, n + 1), r))
    e = np.zeros((n, len(subsets)), dtype=np.int64)
    for j, s in enumerate(subsets):
        for i in s:
            e[i - 1, j] = 1
    labels = tuple(_subset_label(s) for s in subsets)
    wm = WeightMatrix("A", n, f"ext{r}", "matrix_unit_E", False, e, labels)
    return wm if basis == "matrix_unit_E" else to_cartan_h(wm)


def adjoint_weight_matrix_A(n: int, basis: str = "cartan_h") -> WeightMatrix:
    """Weight matrix of sl(n) on its adjoint module, positive roots only.

    Columns are the root vectors for e_i - e_j (i < j, lexicographic).  The
    matrix_unit_E rows act by delta_(r,i) - delta_(r,j); cartan_h rows are
    consecutive differences and generate the adjoint weight code.
    """
    if n < 3:
        raise ValueError(f"adjoint of sl(n) needs n >= 3, got n={n}")
    if basis not in _BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {list(_BASES)}")
    _check_size(f"adjoint of sl({n})", n, comb(n, 2))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    e = np.zeros((n, len(pairs)), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        e[i - 1, col] = 1
        e[j - 1, col] = -1
    labels = tuple(f"e{i}-e{j}" for i, j in pairs)
    wm = WeightMatrix("A", n, "adjoint", "matrix_unit_E", False, e, labels)
    return wm if basis == "matrix_unit_E" else to_cartan_h(wm)


def d_lambda2_matrix(m: int) -> WeightMatrix:
    """Half weight matrix of o(2m) on its degree-2 exterior module.

    Rows are the diagonal generators E_ii - E_(m+i,m+i).  For each pair
    i < j there is a sum column (weight e_i + e_j) and a difference column
    (weight e_i - e_j), interleaved in lexicographic pair order.
    """
    if m < 3:
        raise ValueError(f"ext2 of o(2m) needs m >= 3, got m={m}")
    _check_size(f"ext2 of o({2 * m})", m, 2 * comb(m, 2))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    rows = np.zeros((m, 2 * len(pairs)), dtype=np.int64)
    labels = []
    for idx, (i, j) in enumerate(pairs):
        rows[i - 1, 2 * idx] = 1
        rows[j - 1, 2 * idx] = 1
        labels.append(f"e{i}+e{j}")
        rows[i - 1, 2 * idx + 1] = 1
        rows[j - 1, 2 * idx + 1] = -1
        labels.append(f"e{i}-e{j}")
    return WeightMatrix("D", m, "ext2", "matrix_unit_E", False, rows, tuple(labels))


def d_lambda3_matrix(m: int) -> WeightMatrix:
    """Half weight matrix of o(2m) on its degree-3 exterior module.

    First the C(m,3) columns of weight e_i + e_j + e_l (i < j < l), then the
    m * C(m,2) columns of weight e_i + e_j - e_l (i < j, l arbitrary).
    """
    if m < 3:
        raise ValueError(f"ext3 of o(2m) needs m >= 3, got m={m}")
    _check_size(f"ext3 of o({2 * m})", m, comb(m, 3) + m * comb(m, 2))
    triples = list(itertools.combinations(range(1, m + 1), 3))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    cols = len(triples) + m * len(pairs)
    rows = np.zeros((m, cols), dtype=np.int64)
    labels = []
    for idx, (i, j, l) in enumerate(triples):
        rows[i - 1, idx] = 1
        rows[j - 1, idx] = 1
        rows[l - 1, idx] = 1
        labels.append(f"e{i}+e{j}+e{l}")
    base = len(triples)
    col = base
    for i, j in pairs:
        for l in range(1, m + 1):
            rows[i - 1, col] += 1
            rows[j - 1, col] += 1
            rows[l - 1, col] -= 1
            labels.append(f"e{i}+e{j}-e{l}")
            col += 1
    return WeightMatrix("D", m, "ext3", "matrix_unit_E", False, rows, tuple(labels))


def d_spin_matrix(m: int, half: bool = False) -> WeightMatrix:
    """Spin weight matrix of o(2m), reduced to F3.

    Columns are the subsets S of {1..m} with |S| = m (mod 2); the entry in
    row r is 2 (that is, 1/2 = -1) when r lies in S and 1 (-1/2) otherwise.
    With `half` set, only subsets containing 1 are kept, one per +- pair of
    weights; that requires even m.
    """
    if m < 3:
        raise ValueError(f"spin of o(2m) needs m >= 3, got m={m}")
    if half and m % 2:
        raise ValueError("the half-column spin matrix needs even m")
    _check_size(f"spin of o({2 * m})", m, 2 ** (m - 2 if half else m - 1))
    subsets = [
        s
        for size in range(m % 2, m + 1, 2)
        for s in itertools.combinations(range(1, m + 1), size)
    ]
    if half:
        subsets = [s for s in subsets if 1 in s]
    subsets.sort()
    rows = np.zeros((m, len(subsets)), dtype=np.int64)
    for j, s in enumerate(subsets):
        inside = set(s)
        for r in range(1, m + 1):
            rows[r - 1, j] = 2 if r in inside else 1
    labels = tuple(_subset_label(s) for s in subsets)
    return WeightMatrix("D", m, "spin", "matrix_unit_E", True, rows, labels)


def d_adjoint_spin_matrix(m: int, mode: str) -> WeightMatrix:
    """Weight matrix of o(2m) acting on adjoint-plus-spin, by block columns.

    mode="weight_code" keeps one column per +- weight pair: for even m the
    spin module is self-dual and the blocks are [ext2 | half spin]; for odd
    m it is not, and the blocks are [ext2 | -ext2 | spin].  mode="direct_sum"
    always uses [ext2 | spin], the generator of the direct-sum code.
    """
    if m < 4:
        raise ValueError(f"adjoint_plus_spin of o(2m) needs m >= 4, got m={m}")
    if mode not in ADJOINT_SPIN_MODES:
        raise ValueError(f"adjoint_plus_spin needs a mode, one of {list(ADJOINT_SPIN_MODES)}; got {mode!r}")
    c2 = d_lambda2_matrix(m)
    if mode == "direct_sum":
        spin = d_spin_matrix(m)
        blocks = [c2.entries, spin.entries]
        labels = c2.column_labels + spin.column_labels
    elif m % 2 == 0:
        spin = d_spin_matrix(m, half=True)
        blocks = [c2.entries, spin.entries]
        labels = c2.column_labels + spin.column_labels
    else:
        spin = d_spin_matrix(m)
        blocks = [c2.entries, -c2.entries, spin.entries]
        labels = (
            c2.column_labels
            + tuple("-" + lab for lab in c2.column_labels)
            + spin.column_labels
        )
    entries = np.hstack(blocks)
    return WeightMatrix("D", m, "adjoint_plus_spin", "matrix_unit_E", True, entries, labels)


_MINIMAL_ORBITS = {
    # family -> (highest-weight node index, keep one column per +- pair)
    "F4": (3, True),
    "E6": (0, False),
    "E7": (6, True),
}


def _weight_label(w: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def exceptional_minimal_matrix(family: str) -> WeightMatrix:
    """Weight matrix of the minimal module of F4, E6 or E7.

    Columns come from the Weyl orbit of the fundamental highest weight.  The
    F4 and E7 orbits are closed under negation, so only the member of each
    pair whose first nonzero coordinate is positive is kept.
    """
    if family not in _MINIMAL_ORBITS:
        raise ValueError(f"minimal-module matrix known for F4, E6, E7; got {family!r}")
    node, keep_half = _MINIMAL_ORBITS[family]
    rank = EXCEPTIONAL_RANKS[family]
    cm = cartan_matrix(family, rank)
    highest = tuple(1 if i == node else 0 for i in range(rank))
    orbit = weyl_orbit(cm, highest)
    if keep_half:
        orbit = [w for w in orbit if next(x for x in w if x) > 0]
    entries = np.array(orbit, dtype=np.int64).T
    labels = tuple(_weight_label(w) for w in orbit)
    return WeightMatrix(family, rank, "minimal", "cartan_h", False, entries, labels)


def exceptional_adjoint_matrix(family: str) -> WeightMatrix:
    """Adjoint weight matrix of F4, E6, E7 or E8: one column per positive root."""
    if family not in EXCEPTIONAL_RANKS:
        raise ValueError(f"adjoint matrix known for F4, E6, E7, E8; got {family!r}")
    rank = EXCEPTIONAL_RANKS[family]
    cm = cartan_matrix(family, rank)
    roots = positive_roots(cm)
    entries = np.array([pairing_vector(cm, r) for r in roots], dtype=np.int64).T
    labels = tuple(_weight_label(r) for r in roots)
    return WeightMatrix(family, rank, "adjoint", "cartan_h", False, entries, labels)


def _parse_rows(rows: tuple[str, ...]) -> np.ndarray:
    return np.array([[int(t) for t in row.split()] for row in rows], dtype=np.int64)


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

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture_matrix(name: str) -> WeightMatrix:
    """One of the verbatim reference matrices, exactly as published."""
    try:
        family, rank, module, rows = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
    entries = _parse_rows(rows)
    labels = tuple(f"c{j + 1}" for j in range(entries.shape[1]))
    return WeightMatrix(family, rank, module, "cartan_h", False, entries, labels)


def to_cartan_h(wm: WeightMatrix) -> WeightMatrix:
    """Rewrite a matrix-unit-basis weight matrix on the Cartan generators.

    For sl(n) the h rows are consecutive differences of the matrix-unit
    rows; for o(2m) they are g_s - g_(s+1) for s < m together with
    g_(m-1) + g_m, where g_i = E_ii - E_(m+i,m+i).
    """
    if wm.basis == "cartan_h":
        return wm
    e = wm.entries
    if wm.family == "A":
        if wm.rows != wm.rank:
            raise ValueError("need all matrix-unit rows to change basis")
        rows = e[:-1] - e[1:]
    elif wm.family == "D":
        rows = np.vstack([e[:-1] - e[1:], e[-2:-1] + e[-1:]])
    else:
        raise ValueError(f"no Cartan-basis transition for family {wm.family!r}")
    return WeightMatrix(wm.family, wm.rank, wm.module, "cartan_h", wm.mod3_only, rows, wm.column_labels)


@dataclass(frozen=True)
class ModuleSpec:
    """A (family, rank, module, field) request plus mode flags; `build_weight_matrix` checks it."""

    family: str
    rank: int
    module: str
    p: int
    mode: str | None = None  # adjoint_plus_spin: weight_code | direct_sum
    basis: str | None = None  # optional override for the sl(n) families


# (family, module) -> (fields it is defined over, builder); the builders
# check their own rank, basis and mode bounds
_MODULES = {
    ("A", "ext2"): ((2, 3), lambda ms: ext_weight_matrix_A(ms.rank, 2, ms.basis or "cartan_h")),
    ("A", "ext3"): ((2, 3), lambda ms: ext_weight_matrix_A(ms.rank, 3, ms.basis or "cartan_h")),
    ("A", "ext4"): ((3,), lambda ms: ext_weight_matrix_A(ms.rank, 4, ms.basis or "cartan_h")),
    ("A", "adjoint"): ((3,), lambda ms: adjoint_weight_matrix_A(ms.rank, ms.basis or "cartan_h")),
    ("D", "ext2"): ((3,), lambda ms: d_lambda2_matrix(ms.rank)),
    ("D", "ext3"): ((3,), lambda ms: d_lambda3_matrix(ms.rank)),
    ("D", "spin"): ((3,), lambda ms: d_spin_matrix(ms.rank)),
    ("D", "adjoint_plus_spin"): ((3,), lambda ms: d_adjoint_spin_matrix(ms.rank, ms.mode)),
    **{
        (family, module): ((3,), build)
        for family in EXCEPTIONAL_RANKS
        for module, build in (
            ("minimal", lambda ms: exceptional_minimal_matrix(ms.family)),
            ("adjoint", lambda ms: exceptional_adjoint_matrix(ms.family)),
        )
    },
    # the minimal E8 module is the adjoint one
    ("E8", "minimal"): ((3,), lambda ms: exceptional_adjoint_matrix("E8")),
}

ALLOWED_MODULES = {family: tuple(mod for fam, mod in _MODULES if fam == family) for family, _ in _MODULES}


def build_weight_matrix(ms: ModuleSpec) -> WeightMatrix:
    """Construct the weight matrix of a module request, or raise ValueError.

    The module table decides which (family, module) pairs exist and over
    which fields; the builder it names checks the rank, basis and mode.
    """
    allowed = ALLOWED_MODULES.get(ms.family)
    if allowed is None:
        raise ValueError(f"unknown family {ms.family!r}; expected one of {sorted(ALLOWED_MODULES)}")
    if ms.module not in allowed:
        raise ValueError(f"family {ms.family} has no module {ms.module!r}; expected one of {list(allowed)}")
    fields, build = _MODULES[ms.family, ms.module]
    if ms.p not in fields:
        over = "F2 and F3" if 2 in fields else "F3 only (the code is ternary)"
        raise ValueError(f"module {ms.module} of family {ms.family} is defined over {over}")
    if ms.basis is not None and ms.family != "A":
        raise ValueError(f"a basis override applies to family A only, not {ms.family}")
    if ms.mode is not None and ms.module != "adjoint_plus_spin":
        raise ValueError(f"a mode applies to module adjoint_plus_spin only, not {ms.module}")
    if ms.family in EXCEPTIONAL_RANKS and ms.rank != EXCEPTIONAL_RANKS[ms.family]:
        raise ValueError(f"family {ms.family} has rank {EXCEPTIONAL_RANKS[ms.family]}")
    return build(ms)
