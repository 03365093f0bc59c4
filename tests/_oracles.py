"""Reference implementations used as independent oracles.

The naive enumerators materialize every codeword as a plain list of
integers; no packing, no Gray walk, no numpy.  Deliberately slow and
obviously correct.  The MacWilliams transform of a weight distribution is
exact integer arithmetic too, and `dual_code` gives the code it describes.
The closed forms are the paper's codeword weights of partial row sums,
against which the weight-matrix builders are checked.  The orbit count over
a built weight matrix is the second engine behind the template count past
the reach of enumeration.  Weyl invariance is checked here twice: on
every coefficient vector of a small rank, and one column at a time.  The
matrix text format has a loop version here, one entry at a time, the
text is also read one token at a time, and the pairings of a root with
the Cartan generators are formed one sum at a time.
The weight of a template orbit has its first form here too: a sum of
Fraction shares, and a spin orbit weighed by a double sum over how many
ones and how many twos lie in the subset.  The published weight tables are
recomputed here as the paper forms them: one coefficient vector times the
built weight matrix.  The JSON matrix payload and the suite JSON are
rendered here as they were first written, every entry through `json.dumps`,
and the CSV matrix payload one row at a time through `csv.writer`.  The
template count of a code's weight distribution is here as first written,
without pairing the orbits of c and -c over F3, and a spin orbit's weight
as one sum over j for every orbit, before its closed form.  A long payload
that differs from its oracle is reported by its first differing line, not
by a full diff.  The sizes at which a family row of `verify.CLAIMS` is
stated, to n = 40 and m = 20, are read off its size condition here.
"""

import csv
import io
import json
import os
from collections import Counter
from fractions import Fraction
from itertools import product, takewhile
from math import comb, perm

import numpy as np

from liecodes.fieldcodes import FpMatrix, LinearCode, combination_weight, row_space_code
from liecodes.repweights import (
    _MAX_ENTRIES,
    ModuleSpec,
    _placements,
    build_weight_matrix,
    module_table,
    orbit_weights,
    to_cartan_h,
)
from liecodes.rootsys import cartan_matrix, reflect_coroot_coeffs


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
        return LinearCode(FpMatrix(p, np.zeros((0, n), dtype=np.int64)))
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


# the sizes the tests compute each family at: to n = 40 and m = 20, as far
# as the 2^22-entry cap of `build_weight_matrix` admits
SWEEP_TOP = {"A": 40, "D": 20}


def within_matrix_cap(spec):
    """Whether `module_table` accepts the request and its weight matrix has
    at most the 2^22 entries `build_weight_matrix` builds."""
    try:
        table = module_table(spec)
    except ValueError:
        return False
    return table is not None and spec.rank * table[1] <= _MAX_ENTRIES


def admissible_sizes(claims):
    """The indices at which a row of `verify.CLAIMS` is stated, up to its
    family's `SWEEP_TOP` and the last size whose matrix can be built."""
    top = SWEEP_TOP[claims.spec.family] // claims.scale
    stated = [
        i
        for i in range(-(-claims.spec.rank // claims.scale), top + 1)
        if claims.scale * i % claims.modulus in claims.classes
    ]
    return list(takewhile(lambda i: within_matrix_cap(claims.at(claims.scale * i)), stated))


# ---------------------------------------------------------------------------
# Weyl-orbit count over a weight matrix
#
# The sl(n) and o(2m) codes are spanned by coordinate rows X_1..X_r (the
# matrix-unit rows of sl(n), the e_i rows of o(2m)).  Permuting those rows,
# which the Weyl group does, only permutes the columns up to a nonzero scalar,
# so a weight depends only on how many coefficients are 0, 1 and 2, and the
# distribution is a sum over those compositions (n0, n1, n2) of r, each
# counted with its multinomial orbit size.  Unlike the template count, this
# one reads the words off the built matrix and checks the symmetry it uses.


def _canonical_columns(a, p):
    """The columns scaled to a leading 1 (zero columns stay zero), sorted."""
    lead = a[np.argmax(a != 0, axis=0), np.arange(a.shape[1])]
    # 1 and 2 are their own inverses mod 2 and mod 3
    scaled = a * lead % p
    return scaled[:, np.lexsort(scaled[::-1])]


def _check_invariant(a, p):
    """Raise unless a row swap and a row cycle, which generate every row
    permutation, leave the multiset of columns up to scalars unchanged."""
    r = a.shape[0]
    if r < 2:
        return
    canonical = _canonical_columns(a, p)
    for moved in (a[[1, 0, *range(2, r)]], np.roll(a, 1, axis=0)):
        if not np.array_equal(_canonical_columns(moved, p), canonical):
            raise ValueError("the columns are not permuted by row permutations; orbits do not apply")


def orbit_weight_distribution(coords, p, k, sum_zero):
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


def orbit_weight_by_pairs(templates, p, counts):
    """Weight over F_p of the word c . X, where counts[v] coefficients of c
    are v; any permutation of c gives the same weight."""
    n0, n1, n2 = counts
    total = Fraction(0)
    for coeffs, share in templates:
        if coeffs is None:
            # with a of the n1 ones and b of the n2 twos in S the entry is
            # n1 + a + 2 n2 - b; the zeros in S only fix the parity of |S|
            ab = [(a, b) for a in range(n1 + 1) for b in range(n2 + 1) if (n1 + a + 2 * n2 - b) % 3]
            hits = sum(comb(n1, a) * comb(n2, b) * (2 ** (n0 - 1) if n0 else 1 - (n1 + n2 - a - b) % 2) for a, b in ab)
        else:
            # k_v positions on rows of coefficient v go there in perm(n_v, k_v) ways
            hits = sum(w * perm(n0, k0) * perm(n1, k1) * perm(n2, k2) for w, k0, k1, k2 in _placements(coeffs, p))
        total += share * hits
    return int(total)


def spin_orbit_weight_by_sum(counts):
    """Weight over F3 of c . X on the spin columns, counts[v] coefficients
    of c being v: one sum over j = |S & ones| + |twos - S| for every orbit."""
    n0, n1, n2 = counts
    nonzero = n1 + n2
    hits = sum(
        comb(nonzero, j)
        for j in range(nonzero + 1)
        if (nonzero + j) % 3 and (n0 or (nonzero - j + n2) % 2 == 0)
    )
    return hits << max(n0 - 1, 0)


def weight_distribution_unpaired(spec):
    """The weight distribution of an sl(n) or o(2m) code from its templates,
    every composition (n0, n1, n2) of the rank weighed on its own, one
    `orbit_weights` call per orbit, apart from the batched count of
    `module_code`, which weighs one composition per class of its symmetry:
    the mirror pair of c and -c, the S3 class, or for o(2m) the class of
    W(D_m), permutations and an even number of sign changes."""
    templates, n = module_table(spec)
    p, r = spec.p, spec.rank
    sum_zero = spec.family == "A" and spec.basis != "matrix_unit_E"
    counts = [0] * (n + 1)
    for n1 in range(r + 1):
        for n2 in range(r - n1 + 1 if p == 3 else 1):
            if not sum_zero or (n1 + 2 * n2) % p == 0:
                weight = orbit_weights(templates, p, r, [(r - n1 - n2, n1, n2)])[0]
                counts[weight] += comb(r, n1) * comb(r - n1, n2)
    return tuple(count // counts[0] for count in counts)


def pairing_vector(cm, root_coeffs):
    """Eigenvalue tuple of a root on the Cartan generators h_1..h_n: entry i
    pairs the coefficients with column i of the Cartan matrix."""
    return tuple(sum(cj * cm[j][i] for j, cj in enumerate(root_coeffs)) for i in range(len(cm)))


def _cartan_columns(wm, p):
    """The Cartan matrix of a weight matrix's algebra and its columns on the
    Cartan generators, reduced mod p, as lists of ints."""
    hm = to_cartan_h(wm)
    cm = cartan_matrix(hm.family, hm.rank - 1 if hm.family == "A" else hm.rank)
    return cm, hm.mod(p).entries.T.tolist()


def weyl_violations_by_enumeration(wm, p):
    """The simple reflections that change the weight of some codeword: every
    coefficient vector of F_p^rank is reflected by `reflect_coroot_coeffs`,
    and every word, before and after, is weighed in one product."""
    cm, cols = _cartan_columns(wm, p)
    vectors = list(product(range(p), repeat=len(cm)))
    moved = [reflect_coroot_coeffs(cm, i, v) for i in range(len(cm)) for v in vectors]
    words = np.array(vectors + moved, dtype=np.int64) @ np.array(cols, dtype=np.int64).T % p
    weights = np.count_nonzero(words, axis=1).reshape(len(cm) + 1, len(vectors))
    return sum(bool((weights[i + 1] != weights[0]).any()) for i in range(len(cm)))


def weyl_violations_by_columns(wm, p):
    """The same count one column at a time, with Python ints: s_i sends a
    column w to w - w_i C[i], and the weights are kept exactly when the
    columns it moves, each scaled to a leading 1, are the same multiset
    before and after (MacWilliams' extension theorem)."""
    cm, cols = _cartan_columns(wm, p)

    def scaled(w):
        lead = next((x for x in w if x), 1)
        return tuple(x * lead % p for x in w)

    violations = 0
    for i, row in enumerate(cm):
        moving = [w for w in cols if w[i]]
        after = [[(x - w[i] * c) % p for x, c in zip(w, row)] for w in moving]
        violations += Counter(map(scaled, moving)) != Counter(map(scaled, after))
    return violations


def matrix_text_by_loop(m):
    """The shared text format, one entry at a time."""
    lines = [f"{m.p} {m.rows} {m.cols}"] + [" ".join(str(int(v)) for v in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def parse_matrix_text_by_tokens(text):
    """The shared text format split into tokens, which numpy converts; the
    error names the first bad entry in reading order."""

    def check(token, p):
        try:
            v = int(token)
        except ValueError as exc:
            raise ValueError(f"non-numeric matrix entry {token!r}") from exc
        if not 0 <= v < p:
            raise ValueError(f"entry {v} out of range for modulus {p}")

    tokens = text.split()
    if len(tokens) < 3:
        raise ValueError("matrix text needs a 'p rows cols' header")
    try:
        p, rows, cols = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise ValueError(f"malformed matrix header {tokens[:3]!r}") from exc
    if p not in (2, 3):
        raise ValueError(f"modulus must be one of (2, 3), got {p}")
    if rows < 0 or cols < 1:
        raise ValueError(f"bad matrix shape {rows}x{cols}")
    body = tokens[3:]
    if len(body) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(body)}")
    try:
        a = np.array(body, dtype=np.int64)
    except (ValueError, OverflowError):
        for token in body:
            check(token, p)
        raise
    bad = (a < 0) | (a >= p)
    if bad.any():
        check(body[bad.argmax()], p)
    return FpMatrix(p, a.reshape(rows, cols))


def _matrix_weight(spec, coeffs):
    return combination_weight(build_weight_matrix(spec).mod(spec.p), coeffs)


def table_by_matrix(table_id):
    """The entries of a published weight table, each the weight of a partial
    row sum c (entries 1, -1 and 0 on the coordinate rows) times the built
    weight matrix of the table's module; table 6.3 states doubled weights."""
    series, _, number = table_id.partition(".")
    if series == "2":
        # binary cube power of sl(n): the sum of the first 2t rows
        n = {"1": 10, "2": 11, "3": 14, "4": 15, "5": 6, "6": 7}[number]
        spec = ModuleSpec("A", n, "ext3", 2, basis="matrix_unit_E")
        return [_matrix_weight(spec, [1] * (2 * t) + [0] * (n - 2 * t)) for t in range(1, n // 2 + 1)]
    if table_id == "3.1":
        # spin of o(2m), m = 4..10: the first m - 1 rows minus the last
        return [_matrix_weight(ModuleSpec("D", m, "spin", 3), [1] * (m - 1) + [-1]) for m in range(4, 11)]
    if series == "3":
        # o(2m): the sum of the first t rows
        module, m = {"2": ("ext2", 5), "3": ("spin", 5), "4": ("ext2", 6), "5": ("spin", 6)}[number]
        spec = ModuleSpec("D", m, module, 3)
        return [_matrix_weight(spec, [1] * t + [0] * (m - t)) for t in range(1, m + 1)]
    # sl(8) on all eight matrix-unit rows: s rows plus, the next t minus
    module, scale = {"6.2": ("ext4", 1), "6.3": ("adjoint", 2)}[table_id]
    spec = ModuleSpec("A", 8, module, 3, basis="matrix_unit_E")
    pairs = ((1, 1), (2, 2), (3, 3), (4, 4), (3, 0), (6, 0), (4, 1), (5, 2))
    return [scale * _matrix_weight(spec, [1] * s + [-1] * t + [0] * (8 - s - t)) for s, t in pairs]


def matrix_json_by_dumps(matrix, labels):
    """The `matrix --format json` payload of a reduced matrix and its column
    labels, every key and entry through `json.dumps`."""
    payload = {
        "p": matrix.p,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": matrix.entries.tolist(),
        "column_labels": list(labels),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def matrix_csv_by_writer(matrix, labels):
    """The `matrix --format csv` payload: the labels, then every row of
    entries, through `csv.writer`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(labels)
    writer.writerows(matrix.entries.tolist())
    return buf.getvalue()


def suite_json_by_dumps(report, stable=False):
    """The suite JSON of `verify.to_json`, the whole payload through
    `json.dumps`; `stable` zeroes the timing field."""
    out_cases = []
    for res in report.results:
        case = res.case
        entry = {
            "case_id": res.case_id,
            "citation": case.citation,
            "expected": case.expected_dict(),
            "computed": res.report.to_dict(res.report.weight_distribution) if res.report else None,
            "pass": res.passed,
            "skipped": res.skipped,
            "millis": 0.0 if stable else round(res.millis, 3),
        }
        if case.annotation is not None:
            entry["annotation"] = {"stated": dict(case.annotation.stated), "note": case.annotation.note}
        out_cases.append(entry)
    payload = {"cases": out_cases, "totals": report.totals, "discrepancies": list(report.discrepancies)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_json_by_dumps(report):
    """The `report --format json` payload, through `json.dumps`."""
    return json.dumps(report.to_dict(report.weight_distribution), indent=2, sort_keys=True) + "\n"


def assert_same_text(got, want):
    """Fail with the place where two texts part; pytest's own diff of two
    payloads of thousands of lines takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        start = max(at - 40, 0)
        raise AssertionError(f"texts part at offset {at}: got {got[start:at + 40]!r}, want {want[start:at + 40]!r}")
