"""Reference implementations used as independent oracles.

The naive enumerators materialize every codeword as a plain list of
integers; no packing, no Gray walk, no numpy.  Deliberately slow and
obviously correct.  The MacWilliams transform of a weight distribution is
exact integer arithmetic too, and `dual_code` gives the code it describes.
The closed forms are the paper's codeword weights of partial row sums,
against which the weight-matrix builders are checked.
"""

from itertools import product
from math import comb

import numpy as np

from liecodes.fieldcodes import FpMatrix, LinearCode, row_space_code


def all_codewords(p, basis_rows, n):
    """Yield every codeword of the row space as a list of ints."""
    if not basis_rows:
        yield [0] * n
        return
    for coeffs in product(range(p), repeat=len(basis_rows)):
        word = [0] * n
        for c, row in zip(coeffs, basis_rows):
            if c:
                for j in range(n):
                    word[j] = (word[j] + c * row[j]) % p
        yield word


def naive_min_distance(p, basis_rows, n):
    """Minimum weight over all nonzero codewords, or None for the zero code."""
    best = None
    for word in all_codewords(p, basis_rows, n):
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    return best


def naive_weight_distribution(p, basis_rows, n):
    counts = [0] * (n + 1)
    for word in all_codewords(p, basis_rows, n):
        counts[sum(1 for x in word if x)] += 1
    return counts


def krawtchouk_transform(p, n, k, dist):
    """B_j = sum_w A_w K_j(w) / p^k, exactly, for j = 0..n.

    K_j(w) follows the three-term recurrence
    (j+1) K_{j+1} = ((p-1)(n-j) + j - p w) K_j - (p-1)(n-j+1) K_{j-1},
    evaluated only at weights with A_w != 0.
    """
    size = p**k
    support = [(w, a) for w, a in enumerate(dist) if a]
    prev = [0] * len(support)
    cur = [1] * len(support)
    out = []
    for j in range(n + 1):
        total = sum(a * kj for (_, a), kj in zip(support, cur))
        assert total % size == 0, f"B_{j} is not an integer"
        out.append(total // size)
        nxt = []
        for (w, _), km, kj in zip(support, prev, cur):
            num = ((p - 1) * (n - j) + j - p * w) * kj - (p - 1) * (n - j + 1) * km
            assert num % (j + 1) == 0
            nxt.append(num // (j + 1))
        prev, cur = cur, nxt
    return out


def dual_code(c: LinearCode) -> LinearCode:
    """The orthogonal complement {a : a.b = 0 for every codeword b}."""
    p, n, g = c.p, c.n, c.basis.entries
    pivots = [int(np.argmax(row != 0)) for row in g]
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    if not free:
        return LinearCode(p, n, 0, FpMatrix(p, np.zeros((0, n), dtype=np.int64)))
    rows = np.zeros((len(free), n), dtype=np.int64)
    for idx, f in enumerate(free):
        rows[idx, f] = 1
        for r, pc in enumerate(pivots):
            rows[idx, pc] = (-int(g[r, f])) % p
    return row_space_code(FpMatrix(p, rows))


# Closed forms for the weight of a partial row sum, by formula id.  The sl(n)
# forms take (n, s, t): coefficients 1 on s matrix-unit rows and -1 on t
# others, 0 <= s + t <= n.  The o(2m) forms take (m, t): coefficients 1 on t
# of the m e_i rows.
CLOSED_FORMS = {
    "A2_st": lambda n, s, t: (s + t) * (n - s - t) + comb(s, 2) + comb(t, 2),
    "A3_st": lambda n, s, t: (s + t) * comb(n - s - t, 2) + (n - s) * comb(s, 2) + (n - t) * comb(t, 2),
    "A_adjoint_st": lambda n, s, t: (s + t) * (n - s - t) + s * t,
    "D2_t": lambda m, t: comb(t, 2) + 2 * t * (m - t),
    "D3_t": lambda m, t: (2 * m - t) * comb(t, 2) + 2 * t * comb(m - t, 2) + t * (m - t) ** 2,
}


def closed_form_weight(formula_id, **params):
    """Codeword weight of a partial row sum from the closed form `formula_id`."""
    return CLOSED_FORMS[formula_id](**params)
