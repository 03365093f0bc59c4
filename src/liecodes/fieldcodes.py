"""Exact linear algebra and code analytics over the prime fields F2 and F3.

Generator matrices carry entries reduced modulo p.  Weight distributions,
and minimum distances read off them, come from exhaustive enumeration of the
row space in uint64 bit planes (one plane over F2, planes for symbols 1 and
2 over F3).  An inner table holds every combination of the first basis rows
and an outer table every combination of the remaining rows, each built from
blocks of at most four rows: one int8 product with a table of base-p digits
per block, reduced and packed once, the blocks joined by one broadcast sum.
The columns of the outer table whose last nonzero coefficient is 1 are
added across the whole inner table: all in one broadcast step when the
inner table takes half the rows and the sums fit the byte budget, as for
every exceptional code, else one at a time across the largest table that
fits.  The weights are counted with a population count and a histogram.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

__all__ = [
    "SUPPORTED_PRIMES",
    "Record",
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


class Record:
    """An immutable record, the base of every value class of the package.

    A subclass names its fields by annotations, in order, each with an
    optional class-level default.  Nothing is generated per class, so a
    record class costs microseconds to create, where a class whose methods
    are generated and compiled as its module is imported costs about 1 ms
    on every command.  One shared `__init__` binds the arguments into the
    instance dict in field order and then calls the class's
    `__post_init__`, if it has one, which may normalize a field or add a
    derived attribute by writing to `vars(self)`.  Equality (same class,
    same dict), the hash and the repr `Name(field=value, ...)` read the
    instance dict, derived attributes included; a subclass may define its
    own.
    """

    _fields = ()  # the field names, in order
    _defaults = ()  # the defaults of the last fields
    _default_of = {}  # the same, by field name
    _tails = (frozenset(),)  # the names of the fields from each position on
    _post_init = False  # whether the class has a __post_init__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields, own = tuple(cls.__annotations__), vars(cls)
        cls._defaults = tuple(own[name] for name in fields if name in own)
        if any(name in own for name in fields[: len(fields) - len(cls._defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._fields = fields
        cls._default_of = {name: own[name] for name in fields if name in own}
        cls._tails = tuple(frozenset(fields[i:]) for i in range(len(fields) + 1))
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        vars(self).update(zip(fields, args))
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The values of the fields, in order, from the arguments and the defaults."""
        fields, defaults = cls._fields, cls._defaults
        first_default = len(fields) - len(defaults)
        if not kwargs and first_default <= len(args) <= len(fields):
            return args + defaults[len(args) - first_default :]
        name = cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        if kwargs.keys() <= cls._tails[len(args)]:
            # the keywords name only fields after the positional arguments:
            # each of those takes its keyword, else its default
            try:
                return args + tuple(map({**cls._default_of, **kwargs}.__getitem__, fields[len(args) :]))
            except KeyError:
                pass  # a field with neither, reported below
        values = dict(cls._default_of)
        values.update(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        if missing := [f for f in fields if f not in values]:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return tuple(map(values.__getitem__, fields))

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed, checked as a new record is;
        a name that is not a field raises TypeError."""
        return type(self)(**{**{name: vars(self)[name] for name in self._fields}, **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class FpMatrix(Record):
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
        vars(self)["entries"] = read_only(a)

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
    every intermediate lies in -8..4.
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
        # one broadcast product scales the pivot row by the inverse of its
        # pivot, the pivot itself (1 and 2 are their own inverses mod 2 and
        # mod 3), and clears column c from every other row
        pivot = a[r, c]
        factor = a[:, c, None] * pivot
        factor[r] = 1 - pivot
        a -= factor * a[r]
        a %= p
        r += 1
    return FpMatrix(p, a[:r])


class LinearCode(Record):
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

# Byte budget of the table of row combinations, or of a table and all its
# sums when the join is one step: this much stays in the L2 cache while the
# outer columns are added across the table.
_TABLE_BYTES = 1 << 18

# Row i holds the base-p digits of i, digit j in column j, for i < p^4: the
# coefficients of every combination of a block of four rows, or of its
# first a rows in the first p^a rows and a columns.
_DIGITS = {p: (np.arange(p**4)[:, None] // p ** np.arange(4) % p).astype(np.int8) for p in SUPPORTED_PRIMES}


def _add(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of packed words over F_p, broadcast; axis 0 holds the p-1 symbol
    planes."""
    if p == 2:
        return a ^ b
    # a sum is 1 from 0+1, 1+0 or 2+2, and 2 from 0+2, 2+0 or 1+1:
    # (a ^ b) & ~(a | b)[::-1] | (a & b)[::-1], formed in two arrays, since
    # fresh temporaries the size of a large table cost more than the arithmetic
    total, other = a ^ b, a | b
    np.invert(other, out=other)
    total &= other[::-1]
    np.bitwise_and(a, b, out=other)
    total |= other[::-1]
    return total


def _tables(p: int, *groups: np.ndarray) -> list[np.ndarray]:
    """All p^a combinations of each group of int8 rows (a, 64 W), one
    (p-1, W, p^a) uint64 array per group, W words per plane.

    Column i holds the combination whose coefficient on row j is base-p
    digit j of i; bit t of word w of plane v-1 marks symbol v at position
    64 w + t.  Each block of at most four rows gives all its combinations
    in one product with the digit table, whose entries are at most
    4 (p-1)^2 = 16, so int8 holds them unreduced; the blocks of every group
    are reduced mod p and packed together, and each block after the first
    of a group is joined across the table so far by one broadcast `_add`,
    its digits above those of the rows before it.
    """
    groups = [[g[i : i + 4] for i in range(0, max(len(g), 1), 4)] for g in groups]
    blocks = [np.einsum("ij,jn->in", _DIGITS[p][: p ** len(b), : len(b)], b) for g in groups for b in g]
    symbols = np.concatenate(blocks)
    symbols -= symbols // p * p  # int8 floor division by a scalar is vectorized, % is not
    bits = symbols.reshape(len(symbols), -1, 64).transpose(1, 0, 2) == np.arange(1, p)[:, None, None, None]
    packed = np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)[..., 0]
    tables, start = [], 0
    for g in groups:
        table = None
        for b in g:
            block, start = packed[..., start : start + p ** len(b)], start + p ** len(b)
            if table is not None:
                block = _add(p, block[..., :, None], table[..., None, :]).reshape(p - 1, packed.shape[1], -1)
            table = block
        tables.append(table)
    return tables


def _split(p: int, k: int, entry: int) -> tuple[int, bool]:
    """The rows of the inner table, for k basis rows of `entry` bytes each
    packed, and whether all the outer columns join it in one chunk.

    When the ceil(k/2)-row table and its sums with every outer column whose
    last nonzero coefficient is 1 fit _TABLE_BYTES together, it takes those
    rows and one chunk; otherwise it takes as many rows as fit and one outer
    column at a time.
    """
    a = (k + 1) // 2
    if p**a * (1 + (p ** (k - a) - 1) // (p - 1)) * entry <= _TABLE_BYTES:
        return a, True
    a = 0
    while a < k and p ** (a + 1) * entry <= _TABLE_BYTES:
        a += 1
    return a, False


def weight_distribution(c: LinearCode) -> tuple[int, ...]:
    """Codeword counts A_0..A_n by Hamming weight; the counts sum to p^k.

    Meet in the middle: the first a basis rows give an inner table of all
    p^a combinations and the remaining rows an outer table of all theirs,
    both built by `_tables` from blocks of four rows.  Over F3, c and 2c have
    the same weight, so only the outer columns whose last nonzero
    coefficient is 1 are joined, columns p^j to 2p^j - 1 for outer row j,
    and each counts p - 1 times.  They are added across the whole inner
    table, of which only the support is formed, and the weights are counted
    with a population count and a histogram.  `_split` picks a: a balanced
    split whose join is one broadcast step when it fits the byte budget,
    else the largest table that fits, with one outer column at a time in
    buffers reused from column to column.
    """
    p, n, k = c.p, c.n, c.k
    words = -(-n // 64)
    a, one_chunk = _split(p, k, 8 * (p - 1) * words)
    rows = np.zeros((k, 64 * words), dtype=np.int8)  # padding bits stay zero
    rows[:, :n] = c.basis.entries
    table, outer = _tables(p, rows[:a], rows[a:])

    def histogram(support: np.ndarray) -> np.ndarray:
        # the narrowest unsigned type that holds a weight; a sum in it is cheap
        weights = np.bitwise_count(support).sum(axis=0, dtype=np.min_scalar_type(n))
        return np.bincount(weights.ravel(), minlength=n + 1)

    support = table[0] if p == 2 else table[0] | table[1]
    dist = histogram(support)
    if a == k:
        return tuple(dist.tolist())
    outer = outer[..., np.concatenate([np.arange(p**j, 2 * p**j) for j in range(k - a)])]
    if one_chunk:  # every column at once, along an axis of its own
        table, support, columns = table[:, :, None], support[:, None], [outer[..., None]]
        moved = np.empty((words, outer.shape[-1], support.shape[-1]), dtype=np.uint64)
    else:
        # fresh table-sized temporaries for every column cost more than the
        # arithmetic, and a three-axis broadcast more per word than two axes
        columns = (outer[..., u, None] for u in range(outer.shape[-1]))
        moved = np.empty_like(support)
    cancel = np.empty((p - 1, *moved.shape), dtype=np.uint64)
    for column in columns:
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


class CodeReport(Record):
    """Everything the verification suite needs to know about one code: its
    counts, the (w, A_w) pairs of the weights that occur in increasing w (a
    mapping is accepted), which must be a weight distribution of a code of
    length n and dimension k, and d and the binary flags read off them.  `d`
    (int | None) is None for the zero code, `even` and `doubly_even` (bool |
    None) for ternary codes; the three are derived attributes, not fields,
    so no caller can set them.
    """

    p: int
    n: int
    k: int
    counts: tuple[tuple[int, int], ...]
    self_orthogonal: bool

    def __post_init__(self) -> None:
        counts = tuple(sorted(dict(self.counts).items()))
        occurring = len(counts) == len(self.counts) and all(0 <= w <= self.n and count > 0 for w, count in counts)
        if not occurring or counts[:1] != ((0, 1),) or sum(count for _, count in counts) != self.p**self.k:
            raise ValueError(f"not a weight distribution of a code of length {self.n} and dimension {self.k}")
        vars(self).update(
            counts=counts,
            d=counts[1][0] if len(counts) > 1 else None,
            even=all(w % 2 == 0 for w, _ in counts) if self.p == 2 else None,
            doubly_even=all(w % 4 == 0 for w, _ in counts) if self.p == 2 else None,
        )

    @property
    def weight_distribution(self) -> tuple[int, ...]:
        """The counts A_0..A_n, formed on each call; the JSON payloads
        write them from `counts` instead (`verify.ZeroFilled`)."""
        dist = [0] * (self.n + 1)
        for w, count in self.counts:
            dist[w] = count
        return tuple(dist)

    @property
    def self_dual(self) -> bool:
        return self.self_orthogonal and 2 * self.k == self.n

    def params(self) -> tuple[int, int, int | None]:
        return (self.n, self.k, self.d)

    def to_dict(self, weight_distribution: object) -> dict:
        """The fields in the order the text and CSV reports list them, with
        the given value as the weight distribution."""
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
