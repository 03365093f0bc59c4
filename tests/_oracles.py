"""Naive reference implementations used as independent oracles.

Every codeword is materialized as a plain list of integers; no packing, no
Gray walk, no numpy.  Deliberately slow and obviously correct.  The
MacWilliams transform of a weight distribution is exact integer arithmetic
too.
"""

from itertools import product


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
