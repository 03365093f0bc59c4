"""Exact linear algebra and code analytics over the prime fields F2 and F3.

Generator matrices carry entries reduced modulo p.  Weight distributions,
and minimum distances read off them, come from exhaustive enumeration of the
row space.  The basis is packed into uint64 bit planes (one plane over F2,
planes for symbols 1 and 2 over F3).  One table holds every combination of
the first basis rows and a second every combination of the remaining rows.
Each column of the second whose last nonzero coefficient is 1 is added
across the whole first table in one vectorized step, and the resulting
weights are counted with a population count and a histogram.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "SUPPORTED_PRIMES",
    "FpMatrix",
    "LinearCode",
    "CodeReport",
    "rref",
    "row_space_code",
    "weight_distribution",
    "analyze",
    "combination_weight",
    "frozen",
    "read_only",
    "parse_matrix_text",
    "format_matrix_text",
    "digit_rows",
]

SUPPORTED_PRIMES = (2, 3)


def frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only; a fresh int8 array frozen this way is kept, not
    copied, by `read_only`."""
    a.setflags(write=False)
    return a


def _integers(entries) -> np.ndarray:
    """`entries` as an array of integers (bool, or Python ints in an object
    array), else ValueError: a cast would truncate a float and pass it."""
    a = np.asarray(entries)
    if a.dtype.kind in "biu" or not a.size:
        return a
    if a.dtype == object and all(isinstance(x, numbers.Integral) for x in a.flat):
        return a
    raise ValueError(f"expected integer values, got {a.dtype}")


def read_only(entries) -> np.ndarray:
    """The entries as a read-only int8 array, the element type of every matrix
    here: exact small integers, one byte each, whose accumulating arithmetic
    (a matrix product, a row sum) must widen first.  The one place an array
    is narrowed: a float or complex array, or a value outside -128..127,
    raises ValueError before the cast.  An int8 array that owns its memory
    and is read-only (see `frozen`) is kept; anything else is copied, so
    later writes by the caller do not reach the matrix."""
    a = _integers(entries)
    if a.dtype == np.int8:
        if a.flags.owndata and not a.flags.writeable:
            return a
    elif a.size and (int(a.min()) < -128 or int(a.max()) > 127):
        raise ValueError("entries must lie in -128..127")
    return frozen(a.astype(np.int8))


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """An integer matrix with every entry reduced modulo p, p in {2, 3}.

    `entries` is a read-only int8 array (see `read_only`) of values 0..p-1,
    checked on the caller's values before they are narrowed.  A matrix with
    zero rows is legal; it generates the zero code.
    """

    p: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"modulus must be one of {SUPPORTED_PRIMES}, got {self.p}")
        a = np.asarray(self.entries)
        if a.ndim != 2:
            raise ValueError("matrix entries must form a two-dimensional array")
        if a.shape[1] < 1:
            raise ValueError("a matrix needs at least one column")
        if a.size and (int(a.min()) < 0 or int(a.max()) >= self.p):
            raise ValueError(f"entries must lie in 0..{self.p - 1}")
        object.__setattr__(self, "entries", read_only(a))

    @classmethod
    def reduce(cls, p: int, entries) -> "FpMatrix":
        """Reduce an integer matrix modulo p (a float raises ValueError),
        writing the residues straight into int8, in no wider copy."""
        a = _integers(entries)
        residues = np.empty(a.shape, dtype=np.int8)
        np.remainder(a, p, out=residues, casting="unsafe")
        return cls(p, frozen(residues))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )


def digit_rows(m: FpMatrix, sep: str) -> str:
    """The entries, a line per row.  Entries are single digits, so each row
    is one run of bytes: a digit and `sep` per entry, the last `sep`
    replaced by a newline."""
    body = np.full((m.rows, 2 * m.cols), ord(sep), dtype=np.uint8)
    np.add(m.entries, ord("0"), out=body[:, ::2], casting="unsafe")  # no temporary
    body[:, -1] = ord("\n")
    return str(body, "ascii")


def format_matrix_text(m: FpMatrix) -> str:
    """Render a matrix in the shared text format: 'p rows cols' then rows
    of space-separated entries."""
    return f"{m.p} {m.rows} {m.cols}\n" + digit_rows(m, " ")


# the ASCII characters str.split() splits on
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])


def parse_matrix_text(text: str) -> FpMatrix:
    """Parse the shared text format in the shape `format_matrix_text`
    writes, rejecting out-of-range symbols.

    After the header the body must hold rows x cols one-character ASCII
    entries, each but the last followed by one whitespace character, and
    then only whitespace; it is read from its bytes with one conversion.
    Any other body is refused with one message.  The error names the first
    bad entry in reading order.
    """
    head = text.split(maxsplit=3)
    if len(head) < 3:
        raise ValueError("matrix text needs a 'p rows cols' header")
    try:
        p, rows, cols = (int(t) for t in head[:3])
    except ValueError as exc:
        raise ValueError(f"malformed matrix header {head[:3]!r}") from exc
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"modulus must be one of {SUPPORTED_PRIMES}, got {p}")
    if rows < 0 or cols < 1:
        raise ValueError(f"bad matrix shape {rows}x{cols}")
    body = head[3] if len(head) > 3 else ""  # starts with an entry
    end = max(2 * rows * cols - 1, 0)  # just past the last entry
    codes = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)
    space = _ASCII_SPACE[codes]
    entries_apart = len(codes) >= end and not space[:end:2].any() and space[1:end:2].all()
    if not (body.isascii() and entries_apart and space[end:].all()):
        raise ValueError(f"expected {rows * cols} one-character entries, each followed by one whitespace character")
    codes = codes[:end:2]
    bad = (codes < ord("0")) | (codes >= ord("0") + p)
    if bad.any():
        entry = chr(codes[bad.argmax()])
        if entry.isdigit():
            raise ValueError(f"entry {entry} out of range for modulus {p}")
        raise ValueError(f"non-numeric matrix entry {entry!r}")
    a = np.empty((rows, cols), dtype=np.int8)
    np.subtract(codes.reshape(rows, cols), ord("0"), out=a, casting="unsafe")
    return FpMatrix(p, frozen(a))


def rref(m: FpMatrix) -> FpMatrix:
    """Reduced row echelon form over F_p: its nonzero rows only, the
    canonical basis of the row space of `m`.  The rank is its row count, and
    each row's leading 1 marks a pivot column.  The work stays in int8:
    every intermediate lies in -4..4.
    """
    p = m.p
    a = m.entries.copy()
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for hot in range(r, nrows):
            if a[hot, c]:
                break
        else:  # no pivot in this column
            continue
        if hot != r:
            a[[r, hot]] = a[[hot, r]]
        # 1 and 2 are their own inverses mod 2 and mod 3
        a[r] = a[r] * a[r, c] % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        r += 1
    return FpMatrix(p, a[:r])


@dataclass(frozen=True)
class LinearCode:
    """A row space over F_p held by its reduced-row-echelon generator alone:
    p, n and k are read off it, and two codes are equal when their bases are."""

    basis: FpMatrix

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def n(self) -> int:
        return self.basis.cols

    @property
    def k(self) -> int:
        return self.basis.rows


def row_space_code(m: FpMatrix) -> LinearCode:
    """The linear code generated by the rows of `m`, in canonical form."""
    return LinearCode(rref(m))


def combination_weight(m: FpMatrix, coeffs: Sequence[int]) -> int:
    """Hamming weight of the row combination (coeffs . m) reduced mod p."""
    v = _integers(list(coeffs)).astype(np.int64)
    if v.shape != (m.rows,):
        raise ValueError(f"expected {m.rows} coefficients, got {v.shape[0] if v.ndim == 1 else v.shape}")
    # einsum widens the int8 entries in buffered chunks; `v @ m.entries`
    # would first copy the whole matrix to int64
    return int(np.count_nonzero(np.einsum("i,ij->j", v, m.entries) % m.p))


# ---------------------------------------------------------------------------
# weight enumeration

# Byte budget of the table of row combinations.  A table this size stays in
# the L2 cache while every outer column is added across it.
_TABLE_BYTES = 1 << 18


def _pack_planes(c: LinearCode) -> np.ndarray:
    """Basis rows as a (k, p-1, W) uint64 array, W = ceil(n / 64).

    Bit j of plane v-1 marks symbol v at position j; padding bits are zero.
    """
    words = -(-c.n // 64)
    bits = np.zeros((c.k, c.p - 1, 64 * words), dtype=bool)
    bits[..., : c.n] = c.basis.entries[:, None, :] == np.arange(1, c.p)[:, None]
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def _add(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of packed words over F_p; axis 0 holds the p-1 symbol planes."""
    if p == 2:
        return a ^ b
    # a sum is 1 from 0+1, 1+0 or 2+2, and 2 from 0+2, 2+0 or 1+1
    return (a & b)[::-1] | ((a ^ b) & ~(a | b)[::-1])


def _table_rows(p: int, k: int, words: int) -> int:
    """Rows in the table: the most whose p^a combinations fit _TABLE_BYTES."""
    entry = 8 * (p - 1) * words
    a = 0
    while a < k and p ** (a + 1) * entry <= _TABLE_BYTES:
        a += 1
    return a


def _combinations(p: int, rows: np.ndarray) -> np.ndarray:
    """All p^a combinations of the packed rows as a (p-1, W, p^a) array.

    Column i holds the combination whose coefficient on row j is base-p
    digit j of i.
    """
    a, planes, words = rows.shape
    table = np.zeros((planes, words, p**a), dtype=np.uint64)
    size = 1
    for row in rows:
        multiple = row[..., None]
        for d in range(1, p):
            table[..., d * size : (d + 1) * size] = _add(p, table[..., :size], multiple)
            multiple = multiple[::-1]  # twice a row over F3 swaps its planes
        size *= p
    return table


def weight_distribution(c: LinearCode) -> tuple[int, ...]:
    """Codeword counts A_0..A_n by Hamming weight; the counts sum to p^k.

    Meet in the middle: the first a basis rows give a table of all p^a
    combinations and the remaining rows an outer table of all theirs.  Each
    outer column u is added across the whole first table at once, of which
    only the support is formed.  Over F3,
    c and 2c have the same weight, so only outer columns whose last nonzero
    coefficient is 1 are visited, columns p^j to 2p^j - 1 for outer row j,
    and each counts p - 1 times.
    """
    p, n = c.p, c.n
    rows = _pack_planes(c)
    a = _table_rows(p, c.k, rows.shape[-1])
    table = _combinations(p, rows[:a])
    outer = _combinations(p, rows[a:])

    def histogram(support: np.ndarray) -> np.ndarray:
        # the narrowest unsigned type that holds a weight; a sum in it is cheap
        weights = np.bitwise_count(support).sum(axis=0, dtype=np.min_scalar_type(n))
        return np.bincount(weights, minlength=n + 1)

    support = table[0] if p == 2 else table[0] | table[1]
    dist = histogram(support)
    if a == c.k:
        return tuple(dist.tolist())
    # the outer loop forms only the support of each sum, in buffers it
    # reuses: fresh table-sized temporaries for every outer column cost more
    # than the arithmetic
    moved, cancel = np.empty_like(support), np.empty_like(table)
    for j in range(c.k - a):
        for u in range(p**j, 2 * p**j):
            column = outer[..., u, None]
            if p == 2:
                np.bitwise_xor(support, column[0], out=moved)
            else:
                # over F3 a sum is nonzero on the union of the two supports
                # except where the terms are 1 and 2 (cancel[0]) or 2 and 1
                # (cancel[1]): disjoint subsets of the union, which XOR removes
                np.bitwise_or(support, column[0] | column[1], out=moved)
                np.bitwise_and(table, column[::-1], out=cancel)
                moved ^= cancel[0]
                moved ^= cancel[1]
            dist += (p - 1) * histogram(moved)
    return tuple(dist.tolist())


@dataclass(frozen=True)
class CodeReport:
    """Everything the verification suite needs to know about one code: its
    counts, the (w, A_w) pairs of the weights that occur in increasing w (a
    mapping is accepted), which must be a weight distribution of a code of
    length n and dimension k, and d and the binary flags read off them.  `d`
    is None for the zero code, `even` and `doubly_even` for ternary codes.
    """

    p: int
    n: int
    k: int
    counts: tuple[tuple[int, int], ...]
    self_orthogonal: bool
    d: int | None = field(init=False)
    even: bool | None = field(init=False)
    doubly_even: bool | None = field(init=False)

    def __post_init__(self) -> None:
        counts = tuple(sorted(dict(self.counts).items()))
        occurring = len(counts) == len(self.counts) and all(0 <= w <= self.n and count > 0 for w, count in counts)
        if not occurring or counts[:1] != ((0, 1),) or sum(count for _, count in counts) != self.p**self.k:
            raise ValueError(f"not a weight distribution of a code of length {self.n} and dimension {self.k}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "d", counts[1][0] if len(counts) > 1 else None)
        object.__setattr__(self, "even", all(w % 2 == 0 for w, _ in counts) if self.p == 2 else None)
        object.__setattr__(self, "doubly_even", all(w % 4 == 0 for w, _ in counts) if self.p == 2 else None)

    def _dense_counts(self) -> list[int]:
        dist = [0] * (self.n + 1)
        for w, count in self.counts:
            dist[w] = count
        return dist

    @property
    def weight_distribution(self) -> tuple[int, ...]:
        """The counts A_0..A_n, formed on each call; the JSON payloads
        write them from `counts` instead (`verify.ZeroFilled`)."""
        return tuple(self._dense_counts())

    @property
    def self_dual(self) -> bool:
        return self.self_orthogonal and 2 * self.k == self.n

    def params(self) -> tuple[int, int, int | None]:
        return (self.n, self.k, self.d)

    def to_dict(self, weight_distribution: object = None) -> dict:
        """The fields in the order the text and CSV reports list them; the
        weight distribution is the list A_0..A_n unless a value is given."""
        if weight_distribution is None:
            weight_distribution = self._dense_counts()
        return {
            "p": self.p,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "self_orthogonal": self.self_orthogonal,
            "self_dual": self.self_dual,
            "even": self.even,
            "doubly_even": self.doubly_even,
            "weight_distribution": weight_distribution,
        }


def analyze(c: LinearCode) -> CodeReport:
    """Full report of a code whose weight distribution is enumerated."""
    g = c.basis.entries.astype(np.int64)  # an int8 Gram product wraps
    counts = {w: count for w, count in enumerate(weight_distribution(c)) if count}
    return CodeReport(c.p, c.n, c.k, counts, not (g @ g.T % c.p).any())
