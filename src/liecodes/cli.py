"""Command-line front end: emit matrices and code reports, run the
verification suite, and reproduce the published numeric tables.

Payload goes to standard output (or --output); diagnostics go to standard
error.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from functools import cache

import numpy as np

from .fieldcodes import SUPPORTED_PRIMES, CodeReport, FpMatrix, LinearCode, analyze, digit_rows, format_matrix_text
from .repweights import ADJOINT_SPIN_MODES, ALLOWED_MODULES, ModuleSpec, build_weight_matrix, column_labels
from .rootsys import EXCEPTIONAL_RANKS
from .verify import (
    CaseResult,
    SuiteReport,
    TableRow,
    ZeroFilled,
    _matches,
    json_text,
    module_code,
    registered_cases,
    reproduce_table,
    run_suite,
    to_json,
)

__all__ = ["run", "console"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecodes",
        description="Weight codes of simple Lie algebra modules over F2 and F3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_module: bool) -> None:
        if with_module:
            p.add_argument("--family", required=True, choices=sorted(ALLOWED_MODULES))
            p.add_argument("--n", type=int, help="sl(n) size parameter (family A)")
            p.add_argument("--m", type=int, help="o(2m) size parameter (family D)")
            modules = dict.fromkeys(m for allowed in ALLOWED_MODULES.values() for m in allowed)
            p.add_argument("--module", required=True, choices=list(modules))
            p.add_argument("--field", type=int, required=True, choices=SUPPORTED_PRIMES)
            p.add_argument("--mode", choices=ADJOINT_SPIN_MODES, help="adjoint_plus_spin block layout")
        p.add_argument("--format", default="text", choices=["text", "json", "csv"])
        p.add_argument("--output", help="write the payload to this file instead of standard output")

    pm = sub.add_parser("matrix", help="emit a weight matrix reduced mod the field")
    common(pm, True)

    pr = sub.add_parser("report", help="emit the code report of a module")
    common(pr, True)

    pv = sub.add_parser("verify", help="run the claim verification suite")
    pv.add_argument("--filter", default=None, help="case id pattern, e.g. thm2.2 or thm3.*")
    pv.add_argument("--include-optional", action="store_true", help="add the optional [1134,11,549] claim")
    pv.add_argument("--stable", action="store_true", help="zero timing fields for byte-identical output")
    common(pv, with_module=False)

    pt = sub.add_parser("table", help="reproduce a published weight table")
    pt.add_argument("table_id", help="table identifier, e.g. 2.1")
    common(pt, with_module=False)

    return parser


def _module_spec(args: argparse.Namespace) -> ModuleSpec:
    if args.n is not None and args.family != "A":
        raise ValueError("--n applies to family A only")
    if args.m is not None and args.family != "D":
        raise ValueError("--m applies to family D only")
    if args.family == "A":
        if args.n is None:
            raise ValueError("family A needs --n")
        rank = args.n
    elif args.family == "D":
        if args.m is None:
            raise ValueError("family D needs --m")
        rank = args.m
    else:
        rank = EXCEPTIONAL_RANKS[args.family]
    return ModuleSpec(args.family, rank, args.module, args.field, mode=args.mode)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_entries(matrix: FpMatrix) -> str:
    """The entries as `json.dumps(..., indent=2)` writes them one level
    deep, from one byte buffer: a row is '    [', an '      d,' line per
    entry, the last without its comma, and '    ],'; the last row drops
    its comma too."""
    if not matrix.rows:
        return "[]"
    body = np.empty((matrix.rows, 9 * matrix.cols + 12), dtype=np.uint8)
    body[:, :6] = np.frombuffer(b"    [\n", dtype=np.uint8)
    cells = body[:, 6:-6].reshape(matrix.rows, matrix.cols, 9)
    cells[:] = np.frombuffer(b"      0,\n", dtype=np.uint8)
    np.add(matrix.entries, ord("0"), out=cells[:, :, 6], casting="unsafe")  # no temporary
    cells[:, -1, 7:] = np.frombuffer(b"\n ", dtype=np.uint8)  # the space indents the closing bracket
    body[:, -6:] = np.frombuffer(b"   ],\n", dtype=np.uint8)
    return "[\n" + str(body.reshape(-1)[:-2], "ascii") + "\n  ]"


def _matrix_payload(matrix: FpMatrix, spec: ModuleSpec, fmt: str) -> str:
    """The matrix of `spec` in a payload format; only json and csv name the
    columns, so only they form the labels."""
    if fmt == "text":
        return format_matrix_text(matrix)
    labels = column_labels(spec)
    if fmt == "json":
        payload = {
            "p": matrix.p,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "entries": None,  # spliced in: a label cannot hold the key's unescaped quotes
            "column_labels": list(labels),
        }
        head, _, tail = json_text(payload).partition('"entries": null')
        return f'{head}"entries": {_json_entries(matrix)}{tail}'
    return _csv_text(list(labels), []) + digit_rows(matrix, ",")


def _text_value(value) -> str:
    """A report value as the text report writes it; bool is tested by type,
    since 0 == False and 1 == True."""
    if value is None:
        return "undefined"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _report_payload(report: CodeReport, fmt: str) -> str:
    """Every format writes the fields of `CodeReport.to_dict`, json through
    `json_text`, its A_0..A_n written from the report's counts; text and csv
    write those counts as w:c pairs, and text names the binary flags over F2
    only."""
    if fmt == "json":
        return json_text(report.to_dict(ZeroFilled(report.counts, report.n + 1)))
    fields = report.to_dict(" ".join(f"{w}:{count}" for w, count in report.counts))
    if fmt == "csv":
        return _csv_text(list(fields), [list(fields.values())])
    if report.p != 2:
        del fields["even"], fields["doubly_even"]
    return "".join(f"{name}: {_text_value(value)}\n" for name, value in fields.items())


def _case_status(res: CaseResult) -> tuple[str, str]:
    """A case's status word and its [n,k,d], empty where it has no report."""
    status = "skip" if res.skipped else ("pass" if res.passed else "fail")
    return status, "" if res.report is None else f"[{res.report.n},{res.report.k},{res.report.d}]"


def _suite_text(report: SuiteReport, stable: bool) -> str:
    lines = []
    for res in report.results:
        status, params = _case_status(res)
        detail = {"skip": "resource limits", "pass": params, "fail": "; ".join(res.mismatches)}[status]
        millis = 0.0 if stable else res.millis
        note = ""
        if res.case.annotation is not None and not res.skipped:
            note = "  (documented discrepancy: " + res.case.annotation.note + ")"
        lines.append(f"{status.upper()}  {res.case_id:<22} {detail:<18} {millis:9.1f} ms{note}")
    t = report.totals
    lines.append(
        f"total: {t['cases']}  passed: {t['passed']}  failed: {t['failed']}  skipped: {t['skipped']}"
    )
    return "\n".join(lines) + "\n"


def _suite_payload(report: SuiteReport, fmt: str, stable: bool) -> str:
    if fmt == "text":
        return _suite_text(report, stable)
    if fmt == "json":
        return to_json(report, stable)
    rows = [[res.case_id, *_case_status(res), 0.0 if stable else round(res.millis, 3)] for res in report.results]
    return _csv_text(["case_id", "status", "params", "millis"], rows)


def _table_payload(rows: tuple[TableRow, ...], fmt: str) -> str:
    names = [f.name for f in dataclasses.fields(TableRow)]
    if fmt == "json":
        return json_text([{name: getattr(r, name) for name in names} for r in rows])
    if fmt == "csv":
        return _csv_text(names, [[getattr(r, name) for name in names] for r in rows])
    lines = [f"{'label':<14} {'stated':>7} {'computed':>9}  note"]
    for r in rows:
        note = "ok"
        if not r.match:
            note = "MISMATCH"
        elif r.annotated:
            note = "stated value superseded by computation"
        lines.append(f"{r.label:<14} {r.stated:>7} {r.computed:>9}  {note}")
    return "\n".join(lines) + "\n"


def _write_payload(payload: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        if args.command == "matrix":
            spec = _module_spec(args)
            payload = _matrix_payload(build_weight_matrix(spec).mod(spec.p), spec, args.format)
            _write_payload(payload, args.output)
            return EXIT_OK

        if args.command == "report":
            report = module_code(_module_spec(args))
            report = analyze(report) if isinstance(report, LinearCode) else report
            _write_payload(_report_payload(report, args.format), args.output)
            return EXIT_OK

        if args.command == "verify":
            suite = run_suite(filter=args.filter, include_optional=args.include_optional)
            if not suite.results:
                optional = [c.case_id for c in registered_cases() if c.optional and _matches(c.case_id, args.filter)]
                hint = f"only optional claims ({', '.join(optional)}); add --include-optional to run them"
                raise ValueError(f"--filter {args.filter!r} selects {hint if optional else 'no claim'}")
            _write_payload(_suite_payload(suite, args.format, args.stable), args.output)
            return EXIT_OK if suite.totals["failed"] == 0 else EXIT_VERIFY_FAILED

        # table
        rows = reproduce_table(args.table_id)
        _write_payload(_table_payload(rows, args.format), args.output)
        return EXIT_OK if all(r.match for r in rows) else EXIT_VERIFY_FAILED

    except ValueError as exc:
        print(f"liecodes: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    sys.exit(run())
