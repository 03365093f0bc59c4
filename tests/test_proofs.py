"""Certificates that four parametric families have their stated minimum
distance at every size from a threshold on, not only at the sizes run.

The weight of the orbit with n0, n1 and n2 coefficients 0, 1 and 2 is a
sum over the templates of products of falling factorials perm(n_v, k_v),
k0 + k1 + k2 the template length t: a polynomial of degree at most t in
each count.  Each certificate writes that weight as d, or a bound on it,
plus a term of known sign, again of degree at most t in each count, so the
two agree as polynomials once they agree on the grid {0..t}^3, which
`assert_orbit_weight` checks.  The signs are then checked in exact
integers: a factor linear in the orbit variable at both ends of its range,
a quadratic by its discriminant, and a polynomial in the size, from the
threshold on, by its forward differences there (`nonnegative_from`).
Below each threshold the sweep `test_verify.py::ADMISSIBLE` decides.
"""

import itertools
from fractions import Fraction

from liecodes import verify
from liecodes.repweights import module_table, orbit_weight


def claim(pattern: str, r: int):
    """The registered claim of a family rule at size r: (spec, n, k, d, ...)."""
    return next(rule for pat, _, rule in verify._FAMILIES if pat == pattern)(r)


def assert_orbit_weight(pattern: str, sizes, closed_form) -> None:
    """`orbit_weight` on the templates of the family equals
    `closed_form(n0, n1, n2)` on the grid {0..t}^3; the templates are the
    same at every size in `sizes`.  Over F2 no coefficient is 2, and
    neither side reads n2."""
    spec = claim(pattern, sizes[0])[0]
    templates = module_table(spec)[0]
    assert {module_table(claim(pattern, r)[0])[0] for r in sizes} == {templates}
    t = max(len(coeffs) for coeffs, _ in templates)
    for counts in itertools.product(range(t + 1), repeat=3):
        assert orbit_weight(templates, spec.p, counts) == closed_form(*counts), counts


def nonnegative_from(f, start: int, degree: int) -> bool:
    """Whether the forward differences of the polynomial f, of degree at
    most `degree`, are all >= 0 at `start`.  By Newton's formula f(start + x)
    is the sum over i of those differences times C(x, i) >= 0, so then
    f(n) >= 0 at every integer n >= start."""
    values = [f(start + x) for x in range(degree + 1)]
    while values:
        if values[0] < 0:
            return False
        values = [b - a for a, b in zip(values, values[1:])]
    return True


def test_nonnegative_from_reads_the_differences():
    assert nonnegative_from(lambda n: n * n - 4 * n + 4, 2, 2)  # (n - 2)^2
    assert not nonnegative_from(lambda n: n * n - 4 * n + 4, 1, 2)  # a negative difference
    assert not nonnegative_from(lambda n: 1 - n, 0, 1)


def test_thm2_1_binary_ext2():
    # sl(n), n = 2m: the sum-zero words have j ones, j even, and the word is
    # 0 for j = 0 and j = n.  With n0 = n - j zeros,
    # w = j (n - j) = 2(n - 2) + (j - 2)(n - 2 - j)
    assert_orbit_weight(
        "thm2.1/m={}", range(2, 21), lambda n0, j, _: 2 * (n0 + j - 2) + (j - 2) * (n0 - 2)
    )
    # both factors are linear in j and, on 2 <= j <= n - 2, >= 0 at its ends
    # j = 2 (values 0 and n - 4) and j = n - 2 (values n - 4 and 0)
    assert nonnegative_from(lambda n: n - 4, 4, 1)
    # so d = 2(n - 2), at j = 2, from sl(4) on
    for m in range(2, 21):
        assert claim("thm2.1/m={}", m)[3] == 2 * (2 * m - 2)


def thm2_2_q(n: int, j: int) -> int:
    return 4 * j * j - (6 * n - 8) * j + 3 * n * n - 15 * n + 18


def test_thm2_2_binary_ext3():
    # sl(n): the nonzero sum-zero words have j ones, j even, 2 <= j <= n, and
    # 6 (w - (n - 2)(n - 3)) = (j - 2) q(n, j)
    sizes = [n for n in range(11, 41) if n % 4 in (2, 3)]
    assert_orbit_weight(
        "thm2.2/n={}",
        sizes,
        lambda n0, j, _: (n0 + j - 2) * (n0 + j - 3) + Fraction((j - 2) * thm2_2_q(n0 + j, j), 6),
    )
    # q is 4 j^2 + b j + c: positive at every j once its discriminant
    # b^2 - 16 c = -12 n^2 + 144 n - 224 is negative, from n = 11 on
    def discriminant(n):
        b, c = thm2_2_q(n, 1) - thm2_2_q(n, 0) - 4, thm2_2_q(n, 0)
        return b * b - 16 * c

    assert [discriminant(n) for n in range(3)] == [-224, -92, 16]  # -12 n^2 + 144 n - 224
    assert nonnegative_from(lambda n: -discriminant(n) - 1, 11, 2)
    # so w > (n - 2)(n - 3) for j > 2, and d = (n - 2)(n - 3), at j = 2
    for n in sizes:
        assert claim("thm2.2/n={}", n)[3] == (n - 2) * (n - 3)


def test_thm2_3_ternary_ext2():
    # sl(n): a nonzero sum-zero word has u = n1 + n2 >= 2, since one nonzero
    # coefficient does not sum to 0; with B(n, u) = u (4n - 3u - 2) / 4,
    # w = u (2n - u - 1) / 2 - n1 n2 = B(n, u) + (n1 - n2)^2 / 4
    def bound(n, u):
        return Fraction(u * (4 * n - 3 * u - 2), 4)

    assert_orbit_weight(
        "thm2.3/ext2/n={}",
        range(8, 41, 3),
        lambda n0, n1, n2: bound(n0 + n1 + n2, n1 + n2) + Fraction((n1 - n2) ** 2, 4),
    )
    # B is concave in u (its u^2 coefficient is -3/4), so on 2 <= u <= n it
    # is at least its value at an end: 2(n - 2) at u = 2, and at u = n
    # n (n - 2) / 4 >= 2(n - 2) from n = 8 on
    assert all(bound(n, 2) == 2 * (n - 2) for n in range(2))  # linear in n
    assert nonnegative_from(lambda n: bound(n, n) - 2 * (n - 2), 8, 2)
    # so d = 2(n - 2), at n1 = n2 = 1
    for n in range(8, 41, 3):
        assert claim("thm2.3/ext2/n={}", n)[3] == 2 * (n - 2)


def test_thm3_1_ternary_o2m_ext2():
    # o(2m): a nonzero word has u = n1 + n2 >= 1 nonzero coefficients, and
    # w = 2u (m - u) + C(u, 2) = 2(m - 1) + (u - 1)(4m - 4 - 3u) / 2
    assert_orbit_weight(
        "thm3.1/m={}",
        range(4, 21, 3),
        lambda n0, n1, n2: 2 * (n0 + n1 + n2 - 1) + Fraction((n1 + n2 - 1) * (4 * n0 + n1 + n2 - 4), 2),
    )
    # u - 1 >= 0, and 4m - 4 - 3u is linear in u: 4m - 7 at u = 1 and
    # m - 4 at u = m, both >= 0 from m = 4 on
    assert nonnegative_from(lambda m: 4 * m - 7, 4, 1)
    assert nonnegative_from(lambda m: m - 4, 4, 1)
    # so d = 2(m - 1), at u = 1
    for m in range(4, 21, 3):
        assert claim("thm3.1/m={}", m)[3] == 2 * (m - 1)
