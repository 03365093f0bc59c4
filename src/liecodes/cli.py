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
import json
import sys
from functools import cache

from .fieldcodes import SUPPORTED_PRIMES, CodeReport, FpMatrix, LinearCode, analyze, format_matrix_text
from .repweights import ADJOINT_SPIN_MODES, ALLOWED_MODULES, ModuleSpec, build_weight_matrix, column_labels
from .rootsys import EXCEPTIONAL_RANKS
from .verify import (
    SuiteReport,
    TableRow,
    module_code,
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
    if args.mode is not None and args.module != "adjoint_plus_spin":
        raise ValueError("--mode applies to module adjoint_plus_spin only")
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
            "entries": matrix.entries.tolist(),
            "column_labels": list(labels),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _csv_text(list(labels), matrix.entries.tolist())


def _report_text(report: CodeReport) -> str:
    lines = [
        f"p: {report.p}",
        f"n: {report.n}",
        f"k: {report.k}",
        f"d: {report.d if report.d is not None else 'undefined'}",
        f"self_orthogonal: {str(report.self_orthogonal).lower()}",
        f"self_dual: {str(report.self_dual).lower()}",
    ]
    if report.p == 2:
        lines.append(f"even: {str(report.even).lower()}")
        lines.append(f"doubly_even: {str(report.doubly_even).lower()}")
    dist = " ".join(
        f"{w}:{c}" for w, c in enumerate(report.weight_distribution) if c
    )
    lines.append(f"weight_distribution: {dist}")
    return "\n".join(lines) + "\n"


def _report_payload(report: CodeReport, fmt: str) -> str:
    if fmt == "text":
        return _report_text(report)
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    d = report.to_dict()
    dist = d.pop("weight_distribution")
    d["weight_distribution"] = " ".join(f"{w}:{c}" for w, c in enumerate(dist) if c)
    header = list(d.keys())
    return _csv_text(header, [[d[h] for h in header]])


def _suite_text(report: SuiteReport, stable: bool) -> str:
    lines = []
    for res in report.results:
        if res.skipped:
            status = "SKIP"
            detail = "resource limits"
        elif res.passed:
            status = "PASS"
            rep = res.report
            detail = f"[{rep.n},{rep.k},{rep.d}]"
        else:
            status = "FAIL"
            detail = "; ".join(res.mismatches)
        millis = 0.0 if stable else res.millis
        note = ""
        if res.case.annotation is not None and not res.skipped:
            note = "  (documented discrepancy: " + res.case.annotation.note + ")"
        lines.append(f"{status}  {res.case_id:<22} {detail:<18} {millis:9.1f} ms{note}")
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
    rows = []
    for res in report.results:
        status = "skip" if res.skipped else ("pass" if res.passed else "fail")
        params = ""
        if res.report is not None:
            params = f"[{res.report.n},{res.report.k},{res.report.d}]"
        rows.append([res.case_id, status, params, 0.0 if stable else round(res.millis, 3)])
    return _csv_text(["case_id", "status", "params", "millis"], rows)


def _table_payload(rows: tuple[TableRow, ...], fmt: str) -> str:
    names = [f.name for f in dataclasses.fields(TableRow)]
    if fmt == "json":
        payload = [{name: getattr(r, name) for name in names} for r in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _csv_text(names, [[getattr(r, name) for name in names] for r in rows])
    lines = [f"{'label':<14} {'stated':>7} {'computed':>9}  note"]
    for r in rows:
        note = "ok"
        if r.annotated:
            note = "stated value superseded by computation"
        elif not r.match:
            note = "MISMATCH"
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
                raise ValueError(f"--filter {args.filter!r} selects no claim")
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
