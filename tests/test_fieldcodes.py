"""Tests for the F2/F3 matrix algebra and the packed code analytics."""

import dataclasses
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecodes import fieldcodes
from liecodes.fieldcodes import (
    CodeReport,
    FpMatrix,
    analyze,
    combination_weight,
    format_matrix_text,
    frozen,
    parse_matrix_text,
    row_space_code,
    rref,
    weight_distribution,
)
from liecodes.repweights import (
    ModuleSpec,
    WeightMatrix,
    adjoint_weight_matrix_A,
    build_weight_matrix,
    d_spin_matrix,
    exceptional_adjoint_matrix,
    ext_weight_matrix_A,
    fixture_matrix,
    to_cartan_h,
)
from liecodes.rootsys import cartan_matrix, reflect_coroot_coeffs, weyl_orbit
from liecodes.verify import module_code, registered_cases, run_case

from _oracles import (
    dual_code,
    krawtchouk_transform,
    matrix_text_by_loop,
    naive_min_distance,
    naive_weight_distribution,
    parse_matrix_text_by_tokens,
)
from test_orbits import LARGE_SPECS


def random_fp_matrix(rng, p, max_rows=4, max_cols=20):
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    return FpMatrix(p, rng.integers(0, p, size=(rows, cols)))


# ---------------------------------------------------------------------------
# FpMatrix and the shared text format

def test_fpmatrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FpMatrix(5, [[0]])
    with pytest.raises(ValueError):
        FpMatrix(2, [[2]])
    with pytest.raises(ValueError):
        FpMatrix(3, [[-1]])
    with pytest.raises(ValueError):
        FpMatrix(2, np.zeros((2, 0), dtype=np.int64))
    for entries in ([0, 1], np.zeros((1, 1, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="^matrix entries must form a two-dimensional array$"):
            FpMatrix(2, entries)
    # each of these wraps into 0..2 under a bare int8 cast: the range is
    # checked on the caller's values, before they are narrowed
    for bad in (256, -255, 2**32):
        for p in (2, 3):
            with pytest.raises(ValueError, match=rf"^entries must lie in 0\.\.{p - 1}$"):
                FpMatrix(p, np.array([[0, bad]], dtype=np.int64))
    # a cast would round a float toward zero and pass it for an integer
    for make in (
        lambda: FpMatrix(2, [[0.9, 1]]),
        lambda: WeightMatrix("A", 3, "ext2", "matrix_unit_E", [[0.5, 1.9]]),
        lambda: WeightMatrix("A", 3, "ext2", "matrix_unit_E", np.array([[1j, 0]])),
    ):
        with pytest.raises(ValueError, match="^expected integer values, got (float64|complex128)$"):
            make()
    # int8 holds -128..127: 300 would wrap to 44, -129 to 127
    for bad in (300, -129, 2**70):
        with pytest.raises(ValueError, match=r"^entries must lie in -128\.\.127$"):
            WeightMatrix("A", 3, "ext2", "matrix_unit_E", [[0, bad]])


NON_INTEGER_INPUTS = {
    "FpMatrix.reduce": lambda: FpMatrix.reduce(3, [[4.5, -1.2]]),
    "combination_weight": lambda: combination_weight(FpMatrix(3, [[1, 2], [2, 2]]), [0.5, 1]),
    "reflect_coroot_coeffs": lambda: reflect_coroot_coeffs(cartan_matrix("A", 3), 0, (0.5, 0, 0)),
    "weyl_orbit": lambda: weyl_orbit(cartan_matrix("A", 3), (1.7, 0, 0)),
}


@pytest.mark.parametrize("make", NON_INTEGER_INPUTS.values(), ids=NON_INTEGER_INPUTS)
def test_entry_points_refuse_non_integer_input(make):
    # a cast or int() would truncate each float: 4.5 to 4, 0.5 to 0, 1.7 to 1
    with pytest.raises(ValueError, match="^expected integer values"):
        make()


def test_entry_points_take_integers_of_any_kind():
    assert FpMatrix.reduce(3, [[2**70, -2**70]]).entries.tolist() == [[1, 2]]
    assert FpMatrix.reduce(2, np.array([[True, False]])).entries.tolist() == [[1, 0]]
    assert combination_weight(FpMatrix(3, [[1, 2]]), [np.int64(2)]) == 2
    assert combination_weight(FpMatrix(3, np.zeros((0, 2))), []) == 0
    cm = cartan_matrix("A", 3)
    assert reflect_coroot_coeffs(cm, 0, (np.int64(1), True, 0)) == (0, 1, 0)
    assert weyl_orbit(cm, (np.int64(1), False, 0)) == weyl_orbit(cm, (1, 0, 0))


def test_fpmatrix_reduce_normalizes():
    m = FpMatrix.reduce(3, [[-1, 4], [5, -6]])
    assert m.entries.tolist() == [[2, 1], [2, 0]]


def test_fpmatrix_copies_what_it_does_not_own():
    a = np.array([[0, 1], [2, 0]], dtype=np.int64)
    for make in (lambda: FpMatrix(3, a), lambda: FpMatrix(3, a[:, :]), lambda: FpMatrix.reduce(3, a)):
        m = make()
        a[0, 0] = 1
        assert m.entries.tolist() == [[0, 1], [2, 0]]
        a[0, 0] = 0
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1
    # a frozen int8 array is kept, and so are the entries of another matrix;
    # a frozen int64 array is copied into int8
    b = frozen(np.ones((2, 2), dtype=np.int8))
    assert FpMatrix(2, b).entries is b
    assert FpMatrix(3, FpMatrix(2, b).entries).entries is b
    wide = frozen(np.ones((2, 2), dtype=np.int64))
    kept = FpMatrix(2, wide).entries
    assert kept is not wide and kept.dtype == np.int8 and kept.tolist() == wide.tolist()


def test_every_fpmatrix_holds_one_byte_per_entry():
    a = np.array([[0, 1, 2], [2, 2, 0]], dtype=np.int64)
    made = {
        "list": FpMatrix(3, a.tolist()),
        "int64": FpMatrix(3, a),
        "frozen int8": FpMatrix(3, frozen(a.astype(np.int8))),
        "reduce": FpMatrix.reduce(3, a - 3),
        "WeightMatrix.mod": build_weight_matrix(ModuleSpec("D", 6, "spin", 3)).mod(3),
        "parse_matrix_text": parse_matrix_text(format_matrix_text(FpMatrix(3, a))),
        "rref": rref(FpMatrix(3, a)),
    }
    for how, m in made.items():
        assert m.entries.dtype == np.int8, how
        assert m.entries.nbytes == m.rows * m.cols, how
    assert made["reduce"] == made["int64"] == made["parse_matrix_text"]


def test_reduce_and_combination_weight_make_no_wide_copy():
    # o(36) spin: 18 x 131072 entries, reduced straight into int8 and
    # weighed without widening the whole matrix; an int64 copy alone would
    # take 8 bytes an entry
    wm = build_weight_matrix(ModuleSpec("D", 18, "spin", 3))
    tracemalloc.start()
    try:
        m = wm.mod(3)
        reduce_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        weight = combination_weight(m, range(m.rows))
        weight_peak = tracemalloc.get_traced_memory()[1] - m.entries.nbytes
    finally:
        tracemalloc.stop()
    assert m.entries.dtype == np.int8
    assert reduce_peak < 2 * m.rows * m.cols
    assert weight_peak < 2 * m.rows * m.cols
    assert weight == np.count_nonzero(np.arange(m.rows) @ wm.entries % 3)


def test_text_format_round_trip():
    m = FpMatrix(3, [[0, 1, 2], [2, 2, 0]])
    text = format_matrix_text(m)
    assert text.splitlines()[0] == "3 2 3"
    assert parse_matrix_text(text) == m


def test_text_format_matches_the_loop_version(seed=5):
    rng = np.random.default_rng(seed)
    for p in (2, 3):
        for _ in range(20):
            m = random_fp_matrix(rng, p)
            text = format_matrix_text(m)
            assert text == matrix_text_by_loop(m)
            assert parse_matrix_text(text) == m


def test_text_format_round_trip_without_rows():
    m = FpMatrix(3, np.zeros((0, 4), dtype=np.int64))
    assert format_matrix_text(m) == "3 0 4\n"
    assert parse_matrix_text("3 0 4\n") == m


# the one shape of body that is read
SHAPE = "one-character entries, each followed by one whitespace character"

# each malformed text and the error it raises
TEXT_ERRORS = {
    "3 1": "matrix text needs a 'p rows cols' header",  # truncated header
    "3 1 2\n0 3": "entry 3 out of range for modulus 3",  # out-of-range symbol
    "2 1 2\n0": f"expected 2 {SHAPE}",  # too few
    "2 1 2\n0 x": "non-numeric matrix entry 'x'",  # non-numeric entry
    "7 1 1\n0": "modulus must be one of (2, 3), got 7",  # unsupported modulus
    "3 x 2\n0 1": "malformed matrix header ['3', 'x', '2']",  # non-numeric header
    "3 0 0\n": "bad matrix shape 0x0",  # no column
    "3 -1 2\n": "bad matrix shape -1x2",  # negative row count
    # the first bad entry in reading order is named
    "3 1 3\n0 5 x": "entry 5 out of range for modulus 3",
    "3 1 3\n0 x 5": "non-numeric matrix entry 'x'",
    # any other body shape is refused: a longer token, or as many characters
    # as four one-character entries but three tokens
    "2 1 2\n99999999999999999999999 x": f"expected 2 {SHAPE}",
    "3 2 2\n1 001 1\n": f"expected 4 {SHAPE}",
    "3 2 2\n1   1 1\n": f"expected 4 {SHAPE}",
}


@pytest.mark.parametrize("text", list(TEXT_ERRORS))
def test_text_format_rejects(text):
    with pytest.raises(ValueError) as info:
        parse_matrix_text(text)
    assert str(info.value) == TEXT_ERRORS[text]


def parse_outcome(parse, text):
    try:
        m = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return m.p, m.entries.shape, m.entries.tolist()


ONE_CHARACTER = ["0", "1", "2", "3", "9", "x", "-", "+"]
OTHER_TOKENS = ["01", "+1", "-0", "-1", "10", "٣", "1_0", "00", "001", "+10"]
ONE_GAP = [" ", "\n"]
OTHER_GAPS = ["  ", "\t", " \n", "\x1c", "\r\n", "\x85", " \t\n"]


@st.composite
def matrix_texts(draw):
    """A header and a body of tokens drawn from one of three alphabets, apart
    by single spaces and newlines or by any whitespace, so that both success
    and each error are drawn often; and whether the body has the shape
    `format_matrix_text` writes: an ASCII text with the right count of
    one-character tokens, each but the last followed by one whitespace
    character."""
    p, rows, cols = draw(st.sampled_from([2, 3, 3, 5])), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    count = max(rows * cols + draw(st.sampled_from([0, 0, 0, 0, -1, 1])), 0)
    alphabet = draw(st.sampled_from([["0", "1"], ONE_CHARACTER, ONE_CHARACTER + OTHER_TOKENS]))
    gaps = draw(st.sampled_from([ONE_GAP, ONE_GAP + OTHER_GAPS]))
    tokens = draw(st.lists(st.sampled_from(alphabet), min_size=count, max_size=count))
    between = draw(st.lists(st.sampled_from(gaps), min_size=count, max_size=count))
    text = f"{p} {rows} {cols}" + draw(st.sampled_from(["\n", " ", "\n\n"]))
    text += "".join(map(str.__add__, tokens, between))
    text = text[: len(text) - draw(st.sampled_from([0, 0, 1]))]
    canonical = count == rows * cols and all(len(t) == 1 for t in tokens) and all(len(g) == 1 for g in between[:-1])
    return text, canonical and text.isascii()


@settings(max_examples=400, deadline=None)
@given(matrix_texts())
def test_text_is_read_as_numpy_reads_its_tokens(drawn):
    # text in the written shape is read, or refused, exactly as numpy reads
    # its tokens; any other is refused, even where numpy reads it
    text, canonical = drawn
    outcome = parse_outcome(parse_matrix_text, text)
    if canonical:
        assert outcome == parse_outcome(parse_matrix_text_by_tokens, text)
    else:
        assert outcome[0] == "error"


def test_canonical_text_is_read_without_tokens(monkeypatch):
    # the body format_matrix_text writes is read from its bytes: numpy never
    # converts a token
    rng = np.random.default_rng(7)
    texts = {}
    for p in (2, 3):
        m = random_fp_matrix(rng, p)
        texts[format_matrix_text(m)] = m
    bad = "3 2 2\n0 1\n2 5\n"

    def refuse(*args, **kwargs):
        raise AssertionError("a token was converted")

    monkeypatch.setattr(np, "array", refuse)
    for text, m in texts.items():
        assert parse_matrix_text(text) == m
        assert parse_matrix_text(text.rstrip("\n")) == m
    with pytest.raises(ValueError, match="entry 5 out of range for modulus 3"):
        parse_matrix_text(bad)
    # another token shape is refused, not converted
    with pytest.raises(ValueError, match=f"^expected 2 {SHAPE}$"):
        parse_matrix_text("3 1 2\n01 1\n")


# ---------------------------------------------------------------------------
# row reduction and canonical codes

def pivot_columns(red: FpMatrix) -> tuple[int, ...]:
    """The pivots of a reduced matrix, read as the leading 1 of each row;
    they must strictly increase, and each pivot column must be the unit
    vector of its row."""
    e = red.entries
    pivots = tuple(int(np.argmax(row != 0)) for row in e)
    assert all(e[i, c] == 1 for i, c in enumerate(pivots))
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert e[:, c].tolist() == [int(r == i) for r in range(red.rows)]
    return pivots


def test_rref_duplicate_rows():
    red = rref(FpMatrix(2, [[1, 1], [1, 1]]))
    assert red.rows == 1
    assert red.entries.tolist() == [[1, 1]]
    assert pivot_columns(red) == (0,)


def test_rref_identity():
    red = rref(FpMatrix(3, np.eye(3, dtype=np.int64)))
    assert isinstance(red, FpMatrix) and red.rows == 3
    assert pivot_columns(red) == (0, 1, 2)
    assert red.entries.tolist() == np.eye(3, dtype=np.int64).tolist()


def test_rref_e6_adjoint_rank_five():
    b = exceptional_adjoint_matrix("E6").mod(3)
    assert rref(b).rows == 5


def test_rref_idempotent_on_random(seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        m = random_fp_matrix(rng, p)
        red = rref(m)
        again = rref(red)
        assert again == red
        pivot_columns(red)


def test_row_space_code_examples():
    code = row_space_code(to_cartan_h(ext_weight_matrix_A(4, 2)).mod(2))
    assert (code.n, code.k) == (6, 2)
    # p, n and k are read off the basis, the one field
    assert [f.name for f in dataclasses.fields(code)] == ["basis"]
    assert (code.p, code.n, code.k) == (code.basis.p, code.basis.cols, code.basis.rows)
    zero = row_space_code(FpMatrix(3, np.zeros((2, 5), dtype=np.int64)))
    assert zero.k == 0
    k_code = row_space_code(to_cartan_h(adjoint_weight_matrix_A(6)).mod(3))
    assert k_code.k == 4


# ---------------------------------------------------------------------------
# minimum distance and weight distribution

def test_min_distance_identity_generator():
    for p in (2, 3):
        code = row_space_code(FpMatrix(p, np.eye(5, dtype=np.int64)))
        assert analyze(code).d == 1


def test_min_distance_f4_and_e8():
    f4 = row_space_code(fixture_matrix("F4_minimal").mod(3))
    assert analyze(f4).d == 6
    e8 = row_space_code(exceptional_adjoint_matrix("E8").mod(3))
    assert analyze(e8).d == 57


def test_table_split_agrees_with_oracle(monkeypatch):
    # a table of the zero word alone: every basis row is an outer row
    monkeypatch.setattr(fieldcodes, "_TABLE_BYTES", 0)
    check_random_codes_against_oracle()


@pytest.mark.parametrize(
    "n, p, table_bytes",
    [
        # the default cases keep their ids; at _TABLE_BYTES = 0 every basis row is an outer row
        pytest.param(n, p, table_bytes, id=f"{n}-{p}{suffix}")
        for table_bytes, suffix in ((fieldcodes._TABLE_BYTES, ""), (0, "-all_outer"))
        for n in (63, 64, 65, 128)
        for p in (2, 3)
    ],
)
def test_padding_words_agree_with_oracle(monkeypatch, n, p, table_bytes, seed=17):
    # n one below, at and above a 64-bit word boundary; k = 0, 1 and 4
    monkeypatch.setattr(fieldcodes, "_TABLE_BYTES", table_bytes)
    rng = np.random.default_rng(seed + n + p)
    for k in (0, 1, 4):
        code = row_space_code(FpMatrix(p, rng.integers(0, p, size=(k, n))))
        assert code.k == k
        rows = code.basis.entries.tolist()
        assert list(weight_distribution(code)) == naive_weight_distribution(p, rows, n)


def test_ternary_single_outer_row_agrees_with_oracle(monkeypatch, seed=29):
    rng = np.random.default_rng(seed)
    code = row_space_code(FpMatrix(3, rng.integers(0, 3, size=(5, 40))))
    assert code.k == 5
    # one 40-symbol word is two uint64 planes, 16 bytes: a table of 3^4 words
    monkeypatch.setattr(fieldcodes, "_TABLE_BYTES", 16 * 3**4)
    assert fieldcodes._table_rows(3, code.k, 1) == code.k - 1
    rows = code.basis.entries.tolist()
    assert list(weight_distribution(code)) == naive_weight_distribution(3, rows, code.n)


def test_weight_distribution_zero_code():
    zero = row_space_code(FpMatrix(3, np.zeros((1, 6), dtype=np.int64)))
    dist = weight_distribution(zero)
    assert dist[0] == 1 and sum(dist) == 1


def test_weight_distribution_f4_minimal():
    # weights 6 and 9 only; counts frozen from the naive oracle
    code = row_space_code(fixture_matrix("F4_minimal").mod(3))
    dist = weight_distribution(code)
    support = {w: c for w, c in enumerate(dist) if c}
    assert support == {0: 1, 6: 24, 9: 56}
    rows = fixture_matrix("F4_minimal").mod(3).entries.tolist()
    assert naive_weight_distribution(3, rows, 12) == list(dist)


def test_e6_minimal_no_small_weights():
    code = row_space_code(fixture_matrix("E6_minimal").mod(3))
    dist = weight_distribution(code)
    assert all(dist[w] == 0 for w in range(1, 12))
    assert dist[12] > 0


def test_min_distance_matches_distribution():
    for wm, p in [
        (exceptional_adjoint_matrix("F4"), 3),
        (to_cartan_h(ext_weight_matrix_A(7, 3)), 3),
        (to_cartan_h(ext_weight_matrix_A(8, 2)), 2),
        (d_spin_matrix(5), 3),
    ]:
        code = row_space_code(wm.mod(p))
        dist = weight_distribution(code)
        assert analyze(code).d == next(w for w in range(1, code.n + 1) if dist[w])


def check_random_codes_against_oracle(seed=2024):
    # 200 random generator matrices, checked against the unpacked oracle
    rng = np.random.default_rng(seed)
    for _ in range(200):
        p = int(rng.choice([2, 3]))
        m = random_fp_matrix(rng, p)
        code = row_space_code(m)
        rows = code.basis.entries.tolist()
        dist = weight_distribution(code)
        assert list(dist) == naive_weight_distribution(p, rows, code.n)
        assert analyze(code).d == naive_min_distance(p, rows, code.n)


def test_oracle_equivalence_on_random_codes():
    check_random_codes_against_oracle()


def test_krawtchouk_transform_of_small_codes():
    # the transform of a code's distribution is its dual's distribution
    for wm, p in [(fixture_matrix("F4_minimal"), 3), (to_cartan_h(ext_weight_matrix_A(6, 2)), 2)]:
        code = row_space_code(wm.mod(p))
        got = krawtchouk_transform(p, code.n, code.k, weight_distribution(code))
        assert got == list(weight_distribution(dual_code(code)))


@pytest.mark.parametrize("case", registered_cases(), ids=lambda c: c.case_id)
def test_macwilliams_identity_on_large_codes(case):
    # MacWilliams & Sloane (1977), ch. 5: the transform of a code's weight
    # distribution is a weight distribution, that of the dual code
    rep = run_case(case).report
    assert (rep.n, rep.k) == (case.expected_n, case.expected_k)
    b = krawtchouk_transform(rep.p, rep.n, rep.k, rep.weight_distribution)
    assert b[0] == 1
    assert min(b) >= 0
    assert sum(b) == rep.p ** (rep.n - rep.k)
    if rep.self_orthogonal:
        # the code lies inside its dual
        assert all(bw >= aw for bw, aw in zip(b, rep.weight_distribution))
    if rep.p == 3:
        # c.c = wt(c) mod 3, and polarization gives every inner product
        assert rep.self_orthogonal == all(w % 3 == 0 for w, a in enumerate(rep.weight_distribution) if a)
    elif rep.doubly_even:
        assert rep.self_orthogonal


# ---------------------------------------------------------------------------
# duality and the analysis report

def test_dual_of_full_space_is_zero():
    full = row_space_code(FpMatrix(3, np.eye(4, dtype=np.int64)))
    assert dual_code(full).k == 0


def test_dual_involution_and_dimension(seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        p = int(rng.choice([2, 3]))
        code = row_space_code(random_fp_matrix(rng, p, max_rows=6, max_cols=12))
        dual = dual_code(code)
        assert code.k + dual.k == code.n
        assert dual_code(dual) == code
        # orthogonality of the pair
        prod = code.basis.entries.astype(np.int64) @ dual.basis.entries.T % p
        assert not prod.any()


def test_f4_minimal_inside_its_dual():
    code = row_space_code(fixture_matrix("F4_minimal").mod(3))
    dual = dual_code(code)
    prod = code.basis.entries.astype(np.int64) @ dual.basis.entries.T % 3
    assert not prod.any()
    assert analyze(code).self_orthogonal


def test_analyze_doubly_even_case():
    rep = analyze(row_space_code(to_cartan_h(ext_weight_matrix_A(6, 2)).mod(2)))
    assert rep.params() == (15, 4, 8)
    assert rep.doubly_even and rep.even and rep.self_orthogonal


def test_analyze_zero_code():
    rep = analyze(row_space_code(FpMatrix(3, np.zeros((1, 4), dtype=np.int64))))
    assert rep.d is None
    assert rep.self_orthogonal and not rep.self_dual
    assert rep.even is None and rep.doubly_even is None


def test_analyze_sl7_cube_not_orthogonal():
    rep = analyze(row_space_code(to_cartan_h(ext_weight_matrix_A(7, 3)).mod(3)))
    assert not rep.self_orthogonal


def test_code_report_takes_a_counted_distribution():
    code = row_space_code(to_cartan_h(ext_weight_matrix_A(6, 2)).mod(2))
    counts = {w: count for w, count in enumerate(weight_distribution(code)) if count}
    rep = CodeReport(2, code.n, code.k, counts, True)
    assert rep == analyze(code)
    assert rep.counts == tuple(counts.items())
    # pairs in any order, or a mapping, make one report
    assert CodeReport(2, code.n, code.k, tuple(reversed(counts.items())), True) == rep
    top = max(counts)
    rest = {w: count for w, count in counts.items() if w != top}
    for bad in (
        rest,  # a total below 2^k
        {**rest, 0: 1 + counts[top]},  # the right total, but the zero word more than once
        {**rest, code.n + 1: counts[top]},  # a weight past n
        {**rest, -1: counts[top]},  # a negative weight
        {**counts, 1: 0},  # a weight held by no word
        (*counts.items(), (top, counts[top])),  # a weight given twice
    ):
        with pytest.raises(ValueError, match="not a weight distribution"):
            CodeReport(2, code.n, code.k, bad, True)
    # d and the flags are read off the counts, never set apart from them
    for name in ("d", "even", "doubly_even"):
        with pytest.raises((TypeError, ValueError), match=f"{name} is declared with init=False"):
            dataclasses.replace(rep, **{name: 9})
    with pytest.raises(ValueError, match="not a weight distribution"):
        dataclasses.replace(rep, counts=rest)


@pytest.mark.parametrize("p", [2, 3])
def test_code_report_of_the_zero_code(p):
    rep = CodeReport(p, 5, 0, {0: 1}, True)
    assert rep.d is None
    assert rep.self_orthogonal and not rep.self_dual
    # no nonzero weight occurs, so none is odd or 2 mod 4
    assert (rep.even, rep.doubly_even) == ((True, True) if p == 2 else (None, None))


@pytest.mark.parametrize(
    "p, n, even, doubly_even",
    [(2, 4, True, True), (2, 6, True, False), (2, 7, False, False), (3, 5, None, None)],
)
def test_code_report_of_a_repetition_code(p, n, even, doubly_even):
    # the only nonzero weight is n, the last entry of the distribution
    rep = CodeReport(p, n, 1, {0: 1, n: p - 1}, n % p == 0)
    assert rep.d == n
    assert (rep.even, rep.doubly_even) == (even, doubly_even)
    assert rep.weight_distribution == (1, *[0] * (n - 1), p - 1)


def test_code_report_of_a_count_past_2_64():
    # thm2.3/ext3/n=45: 3^43 codewords, some weights held by more than 2^64
    # of them, which no fixed-width integer holds
    rep = module_code(ModuleSpec("A", 45, "ext3", 3))
    dist = rep.weight_distribution
    assert max(dist) > 1 << 64
    assert rep.params() == (comb(45, 3), 43, 43 * 42)
    assert rep.d == next(w for w in range(1, rep.n + 1) if dist[w])
    counts = {w: count for w, count in enumerate(dist) if count}
    assert CodeReport(3, rep.n, rep.k, counts, rep.self_orthogonal) == rep


@pytest.mark.parametrize(
    "spec",
    [case.spec for case in registered_cases()] + list(LARGE_SPECS),
    ids=[case.case_id for case in registered_cases()]
    + [f"{s.family}{s.rank}-{s.module}-F{s.p}-{s.basis or s.mode}" for s in LARGE_SPECS],
)
def test_code_report_fields_agree_with_the_dense_view(spec):
    # the pairs are the nonzero entries of A_0..A_n, and d and the flags are
    # what the dense distribution gives
    rep = module_code(spec)
    if isinstance(rep, fieldcodes.LinearCode):
        rep = analyze(rep)
    dist = rep.weight_distribution
    assert len(dist) == rep.n + 1
    assert rep.counts == tuple((w, count) for w, count in enumerate(dist) if count)
    occurring = [w for w in range(1, rep.n + 1) if dist[w]]
    assert rep.d == (occurring[0] if occurring else None)
    if rep.p == 2:
        assert rep.even == all(w % 2 == 0 for w in occurring)
        assert rep.doubly_even == all(w % 4 == 0 for w in occurring)
    else:
        assert rep.even is None and rep.doubly_even is None


def test_analyze_self_dual_repetition_code():
    rep = analyze(row_space_code(FpMatrix(2, [[1, 1]])))
    assert rep.self_dual and rep.self_orthogonal
    assert rep.params() == (2, 1, 2)


def test_distribution_totals(seed=23):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        code = row_space_code(random_fp_matrix(rng, p, max_rows=5, max_cols=12))
        dist = weight_distribution(code)
        assert dist[0] == 1
        assert sum(dist) == p**code.k


def test_self_orthogonal_matches_gram_and_dual(seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        code = row_space_code(random_fp_matrix(rng, p, max_rows=5, max_cols=10))
        rep = analyze(code)
        g = code.basis.entries.astype(np.int64)  # an int8 product wraps
        assert rep.self_orthogonal == (not (g @ g.T % p).any())
        dual = dual_code(code)
        contained = all(
            row_space_code(FpMatrix(p, np.vstack([dual.basis.entries, [r]]))).k == dual.k
            for r in g
        )
        assert rep.self_orthogonal == contained
        if p == 2 and rep.doubly_even:
            assert rep.self_orthogonal


def test_column_permutation_and_negation_invariance(seed=5):
    rng = np.random.default_rng(seed)
    base = fixture_matrix("F4_minimal").mod(3)
    rep = analyze(row_space_code(base))
    for _ in range(5):
        perm = rng.permutation(base.cols)
        shuffled = analyze(row_space_code(FpMatrix(3, base.entries[:, perm])))
        assert shuffled.params() == rep.params()
        assert shuffled.weight_distribution == rep.weight_distribution
    negated = base.entries.copy()
    col = int(rng.integers(0, base.cols))
    negated[:, col] = (-negated[:, col]) % 3
    rep_neg = analyze(row_space_code(FpMatrix(3, negated)))
    assert rep_neg.params() == rep.params()
    assert rep_neg.weight_distribution == rep.weight_distribution


# ---------------------------------------------------------------------------
# row combinations

def test_combination_weight_examples():
    b3 = ext_weight_matrix_A(10, 3).mod(2)
    assert combination_weight(b3, [1, 1] + [0] * 8) == 56
    assert combination_weight(b3, [0] * 10) == 0
    spin = d_spin_matrix(5).mod(3)
    assert combination_weight(spin, [1, 1, 0, 0, 0]) == 8


def test_combination_weight_dimension_mismatch():
    m = FpMatrix(2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        combination_weight(m, [1])
