"""End-to-end tests of the command line front end."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from liecodes.cli import _build_parser, _matrix_payload, _report_payload, _suite_payload, run
from liecodes.fieldcodes import FpMatrix, analyze, parse_matrix_text, row_space_code
from liecodes.repweights import exceptional_minimal_matrix
from liecodes.verify import SuiteReport, VerifyLimits, registered_cases, run_case, run_suite, to_json


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_text_round_trip(capsys):
    code, out, err = invoke(capsys, "matrix", "--family", "F4", "--module", "minimal", "--field", "3")
    assert code == 0 and not err
    assert out.splitlines()[0] == "3 4 12"
    parsed = parse_matrix_text(out)
    assert parsed == exceptional_minimal_matrix("F4").mod(3)


def test_report_json_e8(capsys):
    code, out, _ = invoke(
        capsys, "report", "--family", "E8", "--module", "adjoint", "--field", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (120, 8, 57)
    assert payload["self_orthogonal"] is True


def test_report_text_f4(capsys):
    code, out, _ = invoke(capsys, "report", "--family", "F4", "--module", "minimal", "--field", "3")
    assert code == 0
    assert "n: 12" in out and "k: 4" in out and "d: 6" in out


def test_report_past_the_enumeration_caps(capsys):
    # 3^28 codewords: the sl(n) report counts Weyl orbits instead
    code, out, err = invoke(capsys, "report", "--family", "A", "--n", "30", "--module", "ext3", "--field", "3")
    assert code == 0 and not err
    assert "d: 756" in out.splitlines()


def test_report_at_the_size_cap(capsys):
    # 203 x 20503 entries, just under the cap: the count builds no matrix and
    # row-reduces nothing (a 203 x 20503 row reduction took 9.5 s)
    started = time.perf_counter()
    code, out, err = invoke(capsys, "report", "--family", "A", "--n", "203", "--module", "ext2", "--field", "3")
    assert time.perf_counter() - started < 3.0
    assert code == 0 and not err
    assert "d: 402" in out.splitlines()


def test_oversized_module_is_a_usage_error(capsys):
    # refused before anything is allocated: 30 x 2^29, 300 x C(300, 3),
    # 16000 x 2^15999 and 10^8 x 2^(10^8 - 1) entries; the last two counts
    # have too many digits to print, and the last is refused from its
    # exponent, without forming 2^(10^8 - 1)
    for argv, size, budget in (
        (["report", "--family", "D", "--m", "30", "--module", "spin"], "30 x 536870912", 1.0),
        (["matrix", "--family", "A", "--n", "300", "--module", "ext3"], "300 x 4455100", 1.0),
        (
            ["report", "--family", "D", "--m", "16000", "--module", "spin"],
            "spin of o(32000) would have 16000 x 2^15999",
            1.0,
        ),
        (
            ["report", "--family", "D", "--m", "100000000", "--module", "spin"],
            "spin of o(200000000) would have 100000000 x 2^99999999 = about 2^100000025.6",
            0.2,
        ),
    ):
        started = time.perf_counter()
        code, out, err = invoke(capsys, *argv, "--field", "3")
        assert time.perf_counter() - started < budget
        assert code == 2 and not out
        assert err.startswith("liecodes: error: ") and size in err
        assert err.rstrip().endswith(f"entries, over {1 << 22}")


# SHA-256 of `liecodes matrix --family F --module M --field 3`, text format,
# as first recorded: the column order of the exceptional modules is fixed
EXCEPTIONAL_MATRIX_TEXT_SHA256 = {
    ("F4", "minimal"): "8c114ff4293997f99a5cfcdf9b86bc7baf50dde9881e2d14e7280bd6c5387d0f",
    ("F4", "adjoint"): "50d256e3e201423bffb0a8e6e0d5234e5941df2099007e6c9de6b295a4544e60",
    ("E6", "minimal"): "8e704f2c9a047c4a6cfa8ab6f42968c0d82b20f1df542f8eb5bca15284bd7d77",
    ("E6", "adjoint"): "acd6d5481263a5da47aec7e7282c2690d13026dd3e2378fa50924ed6d7b81887",
    ("E7", "minimal"): "5b6f176c695897cd3b5238a8f26f86cd3168340a4563181d564f71abd4ba4c9d",
    ("E7", "adjoint"): "8faccfdabe21fccb83b95efc68cc4377ae2aa8b429d3110601242b98cf9b1677",
    ("E8", "adjoint"): "c617769c2c7ae6bfcbf6597bbe6e736a3da06cf166ee29dc0fbabd724ef58352",
}


@pytest.mark.parametrize("family,module", sorted(EXCEPTIONAL_MATRIX_TEXT_SHA256))
def test_exceptional_matrix_text_is_pinned(capsys, family, module):
    code, out, err = invoke(capsys, "matrix", "--family", family, "--module", module, "--field", "3")
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == EXCEPTIONAL_MATRIX_TEXT_SHA256[family, module]


# SHA-256 of `liecodes matrix` stdout, text format, as written entry by entry
# before the text was rendered from one byte buffer (E8 adjoint is above)
MATRIX_TEXT_SHA256 = {
    "--family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3":
        "3d43991df42c69789ddb873784dbb3f8979295c9f5bafb8df0b3570b13d59ffc",
    "--family A --n 20 --module ext3 --field 2": "54d10f59b3e3cc612993b5d8419b56e8f83d62a70d813fe77f7cd4ad5568dafc",
}


@pytest.mark.parametrize("args", sorted(MATRIX_TEXT_SHA256))
def test_matrix_text_is_pinned(capsys, args):
    code, out, err = invoke(capsys, "matrix", *args.split())
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_TEXT_SHA256[args]


def test_verify_filter_exit_zero(capsys):
    code, out, _ = invoke(capsys, "verify", "--filter", "thm2.2", "--max-n", "15")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_stable_output_byte_identical(capsys):
    _, first, _ = invoke(capsys, "verify", "--filter", "thm4.*", "--stable", "--format", "json")
    _, second, _ = invoke(capsys, "verify", "--filter", "thm4.*", "--stable", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert all(entry["millis"] == 0.0 for entry in payload["cases"])


def test_verify_json_is_the_suite_renderer(capsys):
    code, out, _ = invoke(capsys, "verify", "--include-optional", "--stable", "--format", "json")
    assert code == 0
    assert out == to_json(run_suite(include_optional=True), stable=True)


def test_report_json_matches_registered_cases(capsys):
    checked = 0
    for case in registered_cases():
        spec = case.spec
        if spec.basis is not None:
            continue  # the command line always builds the default basis
        argv = ["report", "--family", spec.family, "--module", spec.module, "--field", str(spec.p)]
        if spec.family in ("A", "D"):
            argv += ["--n" if spec.family == "A" else "--m", str(spec.rank)]
        if spec.mode is not None:
            argv += ["--mode", spec.mode]
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert code == 0 and not err, case.case_id
        assert json.loads(out) == run_case(case).report.to_dict(), case.case_id
        checked += 1
    assert checked == 49


def test_suite_of_unregistered_cases_renders():
    # a result carries its case, so a report need not come from the registry
    annotated = next(c for c in registered_cases() if c.case_id == "thm2.3/ext3/n=6")
    case = dataclasses.replace(annotated, case_id="custom", citation="a case of our own")
    res = run_case(case)
    report = SuiteReport((res,), {"cases": 1, "passed": 1, "failed": 0, "skipped": 0}, ())
    entry = json.loads(to_json(report, stable=True))["cases"][0]
    assert entry["case_id"] == "custom" and entry["citation"] == "a case of our own"
    assert entry["annotation"]["note"] == case.annotation.note
    text = _suite_payload(report, "text", stable=True)
    assert text.startswith("PASS  custom ")
    assert "(documented discrepancy: " + case.annotation.note + ")" in text


def test_verify_defaults_are_the_library_limits():
    args = _build_parser().parse_args(["verify"])
    limits = VerifyLimits()
    assert (args.max_n, args.max_m) == (limits.max_n, limits.max_m)


def test_verify_empty_filter(capsys):
    code, out, _ = invoke(capsys, "verify", "--filter", "nothing-here")
    assert code == 0
    assert "total: 0" in out


def test_usage_error_lists_valid_values(capsys):
    code, _, err = invoke(capsys, "matrix", "--family", "D", "--m", "6", "--module", "ext2", "--field", "2")
    assert code == 2
    assert "ternary" in err
    code, _, err = invoke(capsys, "matrix", "--family", "A", "--module", "ext2", "--field", "2")
    assert code == 2
    assert "--n" in err
    # flags the chosen family or module would ignore are rejected
    for extra, flag in (
        (["--family", "F4", "--module", "minimal", "--n", "99"], "--n"),
        (["--family", "A", "--n", "6", "--module", "ext2", "--m", "7"], "--m"),
        (["--family", "D", "--m", "6", "--module", "ext2", "--mode", "direct_sum"], "--mode"),
        (["--family", "F4", "--module", "minimal", "--n", "99", "--m", "7", "--mode", "direct_sum"], "--n"),
    ):
        code, out, err = invoke(capsys, "matrix", *extra, "--field", "3")
        assert code == 2 and not out
        assert flag in err


def test_usage_error_bad_choice(capsys):
    code, _, _ = invoke(capsys, "matrix", "--family", "G2", "--module", "minimal", "--field", "3")
    assert code == 2


def test_table_csv_has_five_data_rows(capsys):
    code, out, _ = invoke(capsys, "table", "2.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header plus five entries
    assert lines[0].startswith("label,")


def test_table_text_annotated_note(capsys):
    code, out, _ = invoke(capsys, "table", "3.5")
    assert code == 0
    assert "superseded" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "m.txt"
    code, out, _ = invoke(
        capsys, "matrix", "--family", "E6", "--module", "minimal", "--field", "3", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert parse_matrix_text(target.read_text()).cols == 27
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = invoke(capsys, "table", "2.1", "--output", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("liecodes: error: ") and str(missing) in err


def test_report_payload_zero_code_text():
    report = analyze(row_space_code(FpMatrix(3, np.zeros((1, 4), dtype=np.int64))))
    text = _report_payload(report, "text")
    assert "d: undefined" in text


def test_matrix_payload_csv():
    m = FpMatrix(2, [[1, 0], [0, 1]])
    text = _matrix_payload(m, ("a", "b"), "csv")
    assert text.splitlines() == ["a,b", "1,0", "0,1"]


def test_workers_flag(capsys):
    # enumeration runs in one process; the removed flag is a usage error
    for command in ("report", "verify"):
        args = ["--family", "E7", "--module", "adjoint", "--field", "3"] if command == "report" else []
        code, out, err = invoke(capsys, command, *args, "--workers", "2")
        assert code == 2 and not out
        assert "--workers" in err
