"""Certificates that nine parametric families have their claimed n, k, d
and flags at every size from a threshold N0 on, not only at the sizes run.

Each family is one row of `verify.CLAIMS`, the row the registry's cases
are generated from: its module, its size condition on the rank mod a
modulus L, the closed forms of n, k and d as polynomials in the rank on
each residue class, N0 and the flag claims.  The engine reads nothing else
of a family; the d the paper states below N0 (thm2.2's 8 and 16 at n = 6
and 7) is left to computation with the rest below N0.

On the orbit (n0, n1, n2), n_v coefficients equal to v, the weight w is a
polynomial of degree at most D in each count.  A region is a corner c and
a set of free counts: the orbits c + L x, x_i >= 0 for a free count and 0
for the others.  The size and the sum-zero condition depend only on
residues mod L, so a region is inside or outside the claim as a whole, and
all its ranks have one residue class and so one closed form P of d.  By
Newton's forward formula, w(c + L x) - P is the sum over alpha in
{0..D}^free of its forward difference at c times the product of binomials
C(x_i, alpha_i) >= 0.  So a region is settled when it is outside, when w
is 0 on its grid {0..D}^free (a kernel region), or when its corner has
rank >= N0 and every difference is >= 0.  Otherwise the free count with
the smallest corner value is split: one part fixes it, the other moves the
corner by L.  Below N0 nothing is weighed; a single orbit there is left to
the sweep `test_verify.py::ADMISSIBLE`, which computes every size to n = 40
and m = 20.

By hand one writes w as d plus a term of known sign: for thm2.1 the orbit
with j ones weighs j (n - j) = 2(n - 2) + (j - 2)(n - 2 - j), both factors
>= 0 for 2 <= j <= n - 2.  The differences find such a split without the
algebra.
"""

import functools
import itertools
import math
from collections import Counter, defaultdict, deque
from dataclasses import replace
from fractions import Fraction

import pytest

from liecodes.repweights import module_table, orbit_weights
from liecodes.verify import CLAIMS, N, run_case

# The weight of an orbit is a sum over the templates of a share times
# products perm(n_v, k_v), k0 + k1 + k2 the template length.  A share is
# constant or affine in the rank (o(2m) ext3 counts the column e_i m - 1
# times), so a template of at most D - 1 coefficients adds degree at most D
# in each count, and the engine checks both on every template it reads.  The
# closed forms have degree at most 2 in the rank.  So D + 1 values along
# each count determine w, w - P and the column count.
D = 4

# a wrong claim whose regions never settle fails here, not by running on;
# each of the nine families takes at most 59 regions
MAX_REGIONS = 1000

PROVED = [claims for claims in CLAIMS if claims.n0 is not None]


def family_id(claims):
    return claims.pattern.rsplit("/", 1)[0]


def degree(poly):
    return max((i for i, c in enumerate(poly.coeffs) if c), default=-1)


def admits(claims, orbit):
    """Whether the residues of the orbit (n0, n1, n2) put it in the claim:
    its rank in a stated class and, for a sum-zero code, n1 + 2 n2 = 0
    (mod p)."""
    _, n1, n2 = orbit
    spec = claims.spec
    return sum(orbit) % claims.modulus in claims.classes and not (spec.sum_zero and (n1 + 2 * n2) % spec.p)


def forward_differences(values):
    """{alpha: the forward difference Delta^alpha f(0)} from {x: f(x)} on a
    grid {0..s}^k, keys tuples of length k: the differences in one variable
    taken along each axis in turn, on the values in the grid's order."""
    keys = sorted(values)
    flat = [values[x] for x in keys]
    k, side = len(keys[0]), 1 + max(keys[-1], default=0)
    for axis in range(k):
        stride = side ** (k - 1 - axis)
        for start in range(len(flat)):
            if start // stride % side == 0:
                line = flat[start:start + side * stride:stride]
                for i in range(side):
                    flat[start + i * stride], line = line[0], [b - a for a, b in zip(line, line[1:])]
    return dict(zip(keys, flat))


def _weigher(claims, templates):
    """The weights of a list of orbits, each weighed once per family, in one
    `orbit_weights` call per rank on `templates(rank)`.  It checks the degree
    bound D on each rank's table: no spin template, none longer than D - 1,
    the coefficients of the first rank read, and shares affine in the rank."""
    cache, tables = {}, {}

    def table(rank):
        if rank not in tables:
            tables[rank] = found = templates(rank)
            assert all(coeffs is not None and len(coeffs) < D for coeffs, _ in found), found
            (r0, first), (r1, second) = (list(tables.items()) * 2)[:2]  # the first two ranks read
            assert [coeffs for coeffs, _ in found] == [coeffs for coeffs, _ in first], found
            for (_, s), (_, a), (_, b) in zip(found, first, second):
                assert (s - a) * (r1 - r0) == (b - a) * (rank - r0), f"share {s} at rank {rank} is not affine in it"
        return tables[rank]

    def weigh(orbits):
        missing = defaultdict(dict)
        for orbit in orbits:
            if orbit not in cache:
                missing[sum(orbit)][orbit] = None
        for rank, group in missing.items():
            cache.update(zip(group, orbit_weights(table(rank), claims.spec.p, rank, list(group))))
        return [cache[orbit] for orbit in orbits]

    return weigh


def _move(orbit, axes, steps):
    """The orbit with each step added to the count of its axis."""
    moved = list(orbit)
    for axis, step in zip(axes, steps):
        moved[axis] += step
    return tuple(moved)


def _divisor(p, forms):
    """The flag claim as (q, claimed): every weight is 0 mod q, or not.
    Over F3 c . c = wt(c), so a code is self-orthogonal iff every weight is
    0 mod 3; over F2 a doubly-even code is self-orthogonal."""
    if p == 3:
        assert forms.doubly_even is None
        return 3, forms.self_orthogonal
    assert forms.self_orthogonal is None or forms.doubly_even, "over F2 only doubly even proves self-orthogonal"
    return 4, forms.doubly_even


def _check_class(claims, counts, forms, first, weigh, kernel):
    """The claims of one residue class from its first rank >= N0 on, once
    its regions are settled: d >= 1, n, k from its kernel regions, and the
    witness lines of d and of a flag claimed False.  All but k are
    polynomials of degree <= D along a line of ranks or counts, so D + 1
    values fix them."""
    p, L = claims.spec.p, claims.modulus
    assert max(degree(forms.n), degree(forms.k), degree(forms.d)) <= D
    ranks = [first + L * t for t in range(D + 1)]
    d_less_one = forward_differences({(t,): forms.d(rank) - 1 for t, rank in enumerate(ranks)})
    assert min(d_less_one.values()) >= 0, f"the claimed d {forms.d} is below 1 from rank {first}"
    columns = [module_table(claims.at(rank))[1] for rank in ranks]
    assert columns == [forms.n(rank) for rank in ranks], f"columns {columns} at ranks {ranks}, claimed n {forms.n}"
    assert all(len(free) == 1 and c[free[0]] == sum(c) <= first for c, free in kernel), kernel
    gap = (N - 1 if claims.spec.sum_zero else N) - forms.k
    assert degree(gap) <= 0 and p ** gap(0) == len(kernel), f"{len(kernel)} kernel lines, claimed k {forms.k}"
    starts = [(first - n1 - n2, n1, n2) for n1 in range(first + 1) for n2 in range(first - n1 + 1 if p == 3 else 1)]
    starts = [start for start in starts if admits(claims, start)]
    lines = [[_move(start, [axis], [L * t]) for t in range(D + 1)] for start in starts for axis in counts]
    assert any(
        all(w == forms.d(sum(orbit)) for orbit, w in zip(line, weigh(line))) for line in lines
    ), f"no witness line of the claimed d from rank {first}"
    q, claimed = _divisor(p, forms)
    if claimed is False:
        residues = (forward_differences({(t,): w for t, w in enumerate(weigh(line))}) for line in lines)
        assert any(
            diffs[(0,)] % q and all(v % q == 0 for (t,), v in diffs.items() if t) for diffs in residues
        ), f"no line of a constant weight off 0 mod {q} from rank {first}"


def certify(claims, templates=None):
    """Prove a family's claim from N0 on, or fail an assert that names the
    orbit or the class at fault; return the tally of regions: outside,
    kernel and bound settled, and single orbits below N0 left.

    - d: w >= P on every region, P >= 1, and on each class a witness line
      from its first rank on which w - P is 0 at D + 1 points, so on all;
    - k: every kernel region is a line of orbit size 1 (all coefficients
      equal) from the first rank of its class on, and each class has
      p^(dim - k) of them, one per coefficient vector of the zero word;
    - n: the column count of `module_table` is the claimed n at D + 1 ranks
      of each class;
    - flags: on every bound region the differences of w are 0 mod q, and a
      claimed False has a witness line whose weight mod q is constant and
      not 0.

    `templates(rank)` gives the templates the orbits are weighed on: by
    default the module's own; a test passes a changed table to see a gate
    fire.
    """
    spec, L = claims.spec, claims.modulus
    assert not spec.sum_zero or L % spec.p == 0, "the sum-zero condition must be one on a region"
    weigh = _weigher(claims, templates or (lambda rank: module_table(claims.at(rank))[0]))
    counts = (0, 1) if spec.p == 2 else (0, 1, 2)  # over F2 no coefficient is 2
    claimed_d = functools.cache(lambda rank: claims.classes[rank % L].d(rank))
    # the L^3 residue corners, L^2 over F2, with n2 = 0, each with every count free
    queue = deque(((*corner, 0)[:3], counts) for corner in itertools.product(range(L), repeat=len(counts)))
    tally, kernel = Counter(), []
    while queue:
        assert sum(tally.values()) < MAX_REGIONS, "the regions do not settle"
        corner, free = queue.popleft()
        if not admits(claims, corner):
            tally["outside"] += 1
            continue
        rank = sum(corner)
        forms = claims.classes[rank % L]
        if rank >= claims.n0:
            grid = list(itertools.product(range(D + 1), repeat=len(free)))
            orbits = [_move(corner, free, [L * x_i for x_i in x]) for x in grid]
            weights = weigh(orbits)
            if not any(weights):
                kernel.append((corner, free))
                tally["kernel"] += 1
                continue
            bound = forward_differences({x: w - claimed_d(sum(o)) for x, o, w in zip(grid, orbits, weights)})
            if min(bound.values()) >= 0:
                q, claimed = _divisor(spec.p, forms)
                flags = forward_differences(dict(zip(grid, weights))) if claimed else {}
                assert all(v % q == 0 for v in flags.values()), f"a weight on the region {corner} + {L} x is off 0 mod {q}"
                tally["bound"] += 1
                continue
            assert free, f"orbit {corner} weighs {weights[0]}, below the claimed d {claimed_d(rank)}"
        elif not free:
            tally["left"] += 1
            continue
        axis = min(free, key=lambda i: corner[i])
        queue.append((corner, tuple(i for i in free if i != axis)))
        queue.append((_move(corner, [axis], [L]), free))
    for residue, forms in claims.classes.items():
        first = claims.n0 + (residue - claims.n0) % L  # the class's first rank >= N0
        lines = [(c, free) for c, free in kernel if sum(c) % L == residue]
        _check_class(claims, counts, forms, first, weigh, lines)
    return tally


def test_forward_differences_on_hand_examples():
    # (x - 2)^2: 4 at 0, then -3, and 2
    assert forward_differences({(x,): (x - 2) ** 2 for x in range(3)}) == {(0,): 4, (1,): -3, (2,): 2}
    # x^2 - x y + y^2 >= 0 everywhere, but its Newton form is
    # 2 C(x, 2) + x + 2 C(y, 2) + y - x y: only the cross term is negative
    diffs = forward_differences({(x, y): x * x - x * y + y * y for x in range(3) for y in range(3)})
    assert diffs == {(0, 0): 0, (1, 0): 1, (2, 0): 2, (0, 1): 1, (0, 2): 2, (1, 1): -1, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    # x y z: the single difference 1 at (1, 1, 1)
    cube = list(itertools.product(range(2), repeat=3))
    assert forward_differences({x: math.prod(x) for x in cube}) == {x: int(x == (1, 1, 1)) for x in cube}
    # a constant: no variable, one difference
    assert forward_differences({(): 7}) == {(): 7}

    # Newton's formula gives f back off the grid, f of degree <= 2 in each variable
    def f(x, y):
        return (x - 2) * (y - 3) + 5 * x * x * y - 7

    diffs = forward_differences({(x, y): f(x, y) for x in range(3) for y in range(3)})
    for x, y in itertools.product(range(9), repeat=2):
        assert sum(v * math.comb(x, a) * math.comb(y, b) for (a, b), v in diffs.items()) == f(x, y)


@pytest.mark.parametrize("claims", PROVED, ids=family_id)
def test_claims_hold_from_their_threshold(claims):
    tally = certify(claims)
    var = "n" if claims.spec.family == "A" else "m"
    settled = tally["outside"] + tally["kernel"] + tally["bound"]
    print(
        f"\n{family_id(claims)}: proved for {var} >= {claims.n0}: {settled} regions settled"
        f" ({tally['outside']} outside, {tally['kernel']} kernel, {tally['bound']} bound),"
        f" {tally['left']} single orbits below {var} = {claims.n0} left to computation"
    )


def _changed(claims, field, change, residues=None):
    """The claims with one closed form or flag changed on the given classes, every class by default."""
    classes = {
        r: replace(forms, **{field: change(getattr(forms, field))}) if residues is None or r in residues else forms
        for r, forms in claims.classes.items()
    }
    return replace(claims, classes=classes)


# field, change, and the gate that must fire
GATES = {
    "d+1": ("d", lambda d: d + 1, "below the claimed d"),
    "d-1": ("d", lambda d: d - 1, "no witness line of the claimed d"),
    "k+1": ("k", lambda k: k + 1, "kernel lines, claimed k"),
    "n+1": ("n", lambda n: n + 1, "claimed n"),
}


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("claims", PROVED, ids=family_id)
def test_each_gate_fires_on_every_family(claims, gate):
    field, change, message = GATES[gate]
    with pytest.raises(AssertionError, match=message):
        certify(_changed(claims, field, change))


@pytest.mark.parametrize("claims", PROVED, ids=family_id)
def test_a_raised_d_fails_the_registry_and_the_certificate(claims):
    # the registry's cases and the certificate read one row, so one change
    # to it fails both: every registered size the form gives d at, and N0 on
    raised = _changed(claims, "d", lambda d: d + 1)
    for i in claims.sizes:
        if claims.scale * i not in claims.exceptions:
            res = run_case(raised.case(i))
            assert not res.passed and res.mismatches[0].startswith("d: expected"), res.mismatches
    with pytest.raises(AssertionError, match="below the claimed d"):
        certify(raised)


def _claims(pattern):
    return next(claims for claims in CLAIMS if claims.pattern == pattern)


# adjoint_templates_A with (1, -1) made (1, 1), and M27: d_lambda2_templates
# with its difference columns made sums
SUM_COLUMNS = (((1, 1), Fraction(1, 2)),)


@pytest.mark.parametrize(
    "pattern, table, message",
    [
        ("thm2.4/L/n={}", SUM_COLUMNS, r"orbit \(0, 2, 2\) weighs 2, below the claimed d 3"),
        ("thm2.4/K/m={}", SUM_COLUMNS, "off 0 mod 3"),
        ("thm3.1/m={}", SUM_COLUMNS * 2, "off 0 mod 3"),
    ],
    ids=["adjoint-L", "adjoint-K", "M27"],
)
def test_a_changed_template_fails(pattern, table, message):
    with pytest.raises(AssertionError, match=message):
        certify(_claims(pattern), lambda rank: table)


def test_a_wrong_flag_fails():
    claims = _claims("thm3.2/m={}")
    # o(2m) ext3 is not self-orthogonal at m = 2 (mod 3), and is at m = 0
    with pytest.raises(AssertionError, match="off 0 mod 3"):
        certify(_changed(claims, "self_orthogonal", lambda _: True, {2}))
    with pytest.raises(AssertionError, match="no line of a constant weight off 0 mod 3"):
        certify(_changed(claims, "self_orthogonal", lambda _: False, {0}))
