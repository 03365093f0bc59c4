"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

Every call goes through a public liecodes function looked up on its module
at call time, so the tracer's wrappers are seen.  No `workers` argument is
ever passed, and run.py clears LIECODES_WORKERS, so the enumeration process
pool stays off.

A workload has `run()`, one pass whose outputs it returns; `digests(out)`,
the SHA-256 of each output that must equal the reference recorded from the
seed code; `check(out, checks)`, the checks that need no reference; and
`cli_bytes`, the bytes `liecodes` commands wrote to stdout in the last pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import comb

from liecodes import cli, fieldcodes, repweights, rootsys, verify
from liecodes.repweights import ModuleSpec


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one `liecodes` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


class Checks:
    """Tally of correctness checks; keeps the first failures for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def warm_up() -> None:
    """One small call into each layer, as a fresh process's set-up does."""
    cm = rootsys.cartan_matrix("A", 3)
    rootsys.positive_roots(cm)
    rootsys.reflect_coroot_coeffs(cm, 0, (1, 0, 0))
    matrix = repweights.build_weight_matrix(ModuleSpec("A", 4, "ext2", 3)).mod(3)
    fieldcodes.parse_matrix_text(fieldcodes.format_matrix_text(matrix))
    fieldcodes.combination_weight(matrix, [1] * matrix.rows)
    fieldcodes.analyze(fieldcodes.row_space_code(matrix))
    verify.run_case(verify.registered_cases()[0])
    run_cli(["table", "2.5", "--format", "json"])


class Registry:
    """`liecodes verify --include-optional`: the 56 registered claims.

    run_suite runs the registry in its own fixed order, so the seed changes
    nothing here.
    """

    CASES = 56
    cli_bytes = 0

    def __init__(self, seed: int) -> None:
        self.case_ids = [c.case_id for c in verify.registered_cases()]

    def run(self):
        report = verify.run_suite(include_optional=True)
        return report, verify.to_json(report, stable=True)

    def digests(self, out) -> dict[str, str]:
        return {"suite_json": sha256(out[1])}

    def check(self, out, checks: Checks) -> None:
        report, _ = out
        checks.expect(len(self.case_ids) == self.CASES, f"registry holds {len(self.case_ids)} cases")
        passed = {r.case_id for r in report.results if r.passed and not r.skipped}
        for case_id in self.case_ids:
            checks.expect(case_id in passed, f"{case_id} did not pass")


# cor3.4 has no closed form for d; this is the distance the seed code
# enumerates for the o(24) direct-sum code.
COR34_M12_D = 1065


def _extended_cases() -> tuple[verify.TheoremCase, ...]:
    def case(case_id, spec, n, k, d, doubly_even=None):
        return verify.TheoremCase(case_id, spec, n, k, d, True, doubly_even, f"extended range: {case_id}")

    return (
        # binary cube exterior power of sl(n): [C(n,3), n-1, (n-2)(n-3)]
        case("thm2.2/n=22", ModuleSpec("A", 22, "ext3", 2), comb(22, 3), 21, 20 * 19, doubly_even=True),
        # ternary square exterior power of sl(3m+2): [C(n,2), n-1, 2(n-2)]
        case("thm2.3/ext2/n=14", ModuleSpec("A", 14, "ext2", 3), comb(14, 2), 13, 2 * 12),
        # ternary cube exterior power, n = 2 mod 3: [C(n,3), n-1, (n-1)(n-2)/2]
        case("thm2.3/ext3/n=14", ModuleSpec("A", 14, "ext3", 3), comb(14, 3), 13, 13 * 12 // 2),
        # o(2m) square exterior plus spin, direct sum: n = 2 C(m,2) + 2^(m-1)
        case(
            "cor3.4/m=12",
            ModuleSpec("D", 12, "adjoint_plus_spin", 3, mode="direct_sum"),
            2 * comb(12, 2) + 2**11,
            12,
            COR34_M12_D,
        ),
    )


class Extended:
    """Four theorems past the default caps, 0.5M to 2.1M codewords each.

    Results do not depend on order, so the seed shuffles the case order.
    """

    # n * p^k reaches 1540 * 2^21 = 3.2e9
    LIMITS = verify.VerifyLimits(max_n=40, max_m=20, max_work=4_000_000_000)
    cli_bytes = 0

    def __init__(self, seed: int) -> None:
        self.cases = list(_extended_cases())
        random.Random(seed).shuffle(self.cases)

    def run(self):
        return [verify.run_case(case, self.LIMITS) for case in self.cases]

    def digests(self, out) -> dict[str, str]:
        return {
            res.case_id: sha256(json.dumps(list(res.report.weight_distribution)))
            for res in out
            if res.report is not None
        }

    def check(self, out, checks: Checks) -> None:
        for case, res in zip(self.cases, out):
            checks.expect(res.passed and not res.skipped, f"{case.case_id}: {res.mismatches or 'skipped'}")
            params = res.report.params() if res.report else None
            want = (case.expected_n, case.expected_k, case.expected_d)
            checks.expect(params == want, f"{case.case_id}: computed {params}, closed form {want}")


FUZZ_SPECS = (
    ModuleSpec("A", 8, "ext3", 3, basis="matrix_unit_E"),
    ModuleSpec("A", 8, "adjoint", 3, basis="matrix_unit_E"),
    ModuleSpec("D", 6, "ext2", 3),
    ModuleSpec("D", 6, "ext3", 3),
    ModuleSpec("D", 8, "spin", 3),
)
FUZZ_TRIALS = 200

# name -> (`liecodes matrix` arguments, the module they build)
MATRICES = {
    "o24-adjoint_plus_spin": (
        ["--family", "D", "--m", "12", "--module", "adjoint_plus_spin", "--mode", "direct_sum", "--field", "3"],
        ModuleSpec("D", 12, "adjoint_plus_spin", 3, mode="direct_sum"),
    ),
    "sl20-ext3-F2": (
        ["--family", "A", "--n", "20", "--module", "ext3", "--field", "2"],
        ModuleSpec("A", 20, "ext3", 2),
    ),
    "E8-adjoint": (
        ["--family", "E8", "--module", "adjoint", "--field", "3"],
        ModuleSpec("E8", 8, "adjoint", 3),
    ),
}

REPORTS = (
    ("F4", "minimal"),
    ("F4", "adjoint"),
    ("E6", "minimal"),
    ("E6", "adjoint"),
    ("E7", "minimal"),
    ("E7", "adjoint"),
    ("E8", "adjoint"),
)


class Crosschecks:
    """Everything except whole-space enumeration of large codes: tables,
    branch equivalences, the Weyl-invariance fuzz, matrix text round trips
    and exceptional reports.  The seed draws the fuzz words.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.fuzz_seeds = [rng.randrange(2**32) for _ in FUZZ_SPECS]
        self.expected_matrices = {
            name: repweights.build_weight_matrix(spec).mod(spec.p) for name, (_, spec) in MATRICES.items()
        }

    def run(self):
        out = {}
        self.cli_bytes = 0

        def command(argv):
            code, text = run_cli(argv)
            self.cli_bytes += len(text.encode())
            return code, text

        out["tables"] = {t: command(["table", t, "--format", "json"]) for t in verify.TABLE_IDS}
        out["branch"] = verify.branch_equivalences()
        out["fuzz"] = [
            verify.weyl_invariance_violations(repweights.build_weight_matrix(spec), spec.p, FUZZ_TRIALS, seed=s)
            for spec, s in zip(FUZZ_SPECS, self.fuzz_seeds)
        ]
        out["matrices"] = {}
        for name, (args, _) in MATRICES.items():
            code, text = command(["matrix", *args])
            out["matrices"][name] = (code, text, fieldcodes.parse_matrix_text(text))
        out["reports"] = {
            f"{family}/{module}": command(["report", "--family", family, "--module", module, "--field", "3", "--format", "json"])
            for family, module in REPORTS
        }
        return out

    def digests(self, out) -> dict[str, str]:
        found = {f"table/{t}": sha256(text) for t, (_, text) in out["tables"].items()}
        found.update({f"matrix/{name}": sha256(text) for name, (_, text, _) in out["matrices"].items()})
        found.update({f"report/{name}": sha256(text) for name, (_, text) in out["reports"].items()})
        return found

    def check(self, out, checks: Checks) -> None:
        for table_id, (code, text) in out["tables"].items():
            checks.expect(code == 0, f"table {table_id} exited {code}")
            rows = json.loads(text)
            checks.expect(bool(rows) and all(r["match"] for r in rows), f"table {table_id} has a mismatched row")
        for branch in out["branch"]:
            checks.expect(branch.identical, f"branch check {branch.check_id} not identical")
        for spec, violations in zip(FUZZ_SPECS, out["fuzz"]):
            checks.expect(violations == 0, f"Weyl fuzz on {spec}: {violations} violations")
        for name, (code, _, parsed) in out["matrices"].items():
            checks.expect(code == 0, f"matrix {name} exited {code}")
            checks.expect(parsed == self.expected_matrices[name], f"matrix {name} did not round-trip")
        for name, (code, _) in out["reports"].items():
            checks.expect(code == 0, f"report {name} exited {code}")


WORKLOADS = {"registry": Registry, "extended": Extended, "crosschecks": Crosschecks}
