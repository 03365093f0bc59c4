"""Weight distributions of permutation-invariant codes by counting orbits.

The weight codes of sl(n) and o(2m) are spanned by coordinate rows X_1..X_r
(the matrix-unit rows of sl(n), the e_i rows of o(2m)).  Permuting those
rows, which the Weyl group does, only permutes the columns up to a nonzero
scalar.  So permuting the coefficients of a codeword c.X leaves its weight
unchanged, and a weight depends only on how many coefficients are 0, 1
and 2.  The distribution is then a sum over those compositions
(n0, n1, n2) of r, each counted with its multinomial orbit size: O(r^2)
words of length n in place of all p^k codewords.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = ["weight_distribution"]


def _canonical_columns(a: np.ndarray, p: int) -> np.ndarray:
    """The columns scaled to a leading 1 (zero columns stay zero), sorted."""
    lead = a[np.argmax(a != 0, axis=0), np.arange(a.shape[1])]
    # 1 and 2 are their own inverses mod 2 and mod 3
    scaled = a * lead % p
    return scaled[:, np.lexsort(scaled[::-1])]


def _check_invariant(a: np.ndarray, p: int) -> None:
    """Raise unless a row swap and a row cycle, which generate every row
    permutation, leave the multiset of columns up to scalars unchanged."""
    r = a.shape[0]
    if r < 2:
        return
    canonical = _canonical_columns(a, p)
    for moved in (a[[1, 0, *range(2, r)]], np.roll(a, 1, axis=0)):
        if not np.array_equal(_canonical_columns(moved, p), canonical):
            raise ValueError("the columns are not permuted by row permutations; orbits do not apply")


def weight_distribution(coords, p: int, k: int, sum_zero: bool) -> tuple[int, ...]:
    """Codeword counts A_0..A_n of the code {c . coords}, counted by orbits.

    `coords` is the r x n integer matrix of coordinate rows and `k` the
    dimension of the code.  With `sum_zero` only coefficient vectors with
    c_1 + ... + c_r = 0 (mod p) count: that is the code of the consecutive
    differences X_i - X_(i+1), the Cartan-basis sl(n) codes.  Each codeword
    is the image of p^(dim - k) coefficient vectors, dim = r - 1 with
    `sum_zero` and r without, so the counts are divided by that; a wrong k
    shows as a count at weight 0 other than that kernel size and raises
    ValueError, as does a matrix whose columns row permutations do not
    permute.
    """
    a = (np.asarray(coords, dtype=np.int64) % p).astype(np.uint8)
    if a.ndim != 2:
        raise ValueError("coordinate rows must form a two-dimensional array")
    r, n = a.shape
    dim = r - 1 if sum_zero else r
    if not 0 <= k <= dim:
        raise ValueError(f"dimension k={k} outside 0..{dim}")
    _check_invariant(a, p)
    # prefix sums: sums[j] = X_1 + ... + X_j (mod p), j = 0..r
    sums = np.zeros((r + 1, n), dtype=np.uint8)
    for j, row in enumerate(a):
        np.remainder(sums[j] + row, p, out=sums[j + 1])
    counts = [0] * (n + 1)
    for n1 in range(r + 1):
        # the orbit of n1 ones followed by n2 twos is represented by the word
        # S_(n1) + 2 (S_(n1+n2) - S_(n1)) = 2 S_b - S_(n1), b = n1 + n2
        top = n1 + 1 if p == 2 else r + 1
        ends = [b for b in range(n1, top) if not sum_zero or (2 * b - n1) % p == 0]
        if not ends:
            continue
        words = (2 * sums[ends] + (p - 1) * sums[n1]) % p
        for b, w in zip(ends, np.count_nonzero(words, axis=1).tolist()):
            counts[w] += comb(r, b) * comb(b, n1)
    kernel = p ** (dim - k)
    if counts[0] != kernel:
        raise ValueError(f"{counts[0]} coefficient vectors give the zero word; a code of dimension {k} has {kernel}")
    return tuple(c // kernel for c in counts)
