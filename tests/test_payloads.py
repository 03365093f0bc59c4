"""The payloads of the command line, checked in fresh processes: each
command exits 0, writes the same bytes under two hash seeds, and writes
canonical JSON where its format is json.

All commands run through `cli.run` in one child process per seed, since a
payload that iterates a set or a dict of strings could only show its
dependence on the seed across processes.  One more child checks what the
commands and the cross-checks load."""

import json
import os
import subprocess
import sys
from pathlib import Path

import liecodes
import pytest
from liecodes.verify import TABLE_IDS

from test_cli import PAYLOAD_SHA256

HASH_SEEDS = ("0", "12345")
FORMATS = ("text", "json", "csv")

MATRIX_MODULES = (
    "--family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3",
    "--family A --n 20 --module ext3 --field 2",
    "--family E8 --module adjoint --field 3",
    "--family D --m 8 --module ext3 --field 3",
    "--family A --n 8 --module ext4 --field 3",
    "--family D --m 8 --module adjoint_plus_spin --mode weight_code --field 3",
)
REPORT_MODULES = (
    *(
        f"--family {family} --module {module} --field 3"
        for family in ("F4", "E6", "E7")
        for module in ("minimal", "adjoint")
    ),
    "--family E8 --module adjoint --field 3",
    "--family D --m 12 --module spin --field 3",
    "--family D --m 9 --module adjoint_plus_spin --mode weight_code --field 3",
    "--family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3",
    "--family D --m 8 --module ext3 --field 3",
)

COMMANDS = list(
    dict.fromkeys(
        [
            *(
                f"{verify} --stable --format {fmt}"
                for verify in ("verify --include-optional", "verify")
                for fmt in FORMATS
            ),
            *(f"table {tid} --format {fmt}" for tid in TABLE_IDS for fmt in FORMATS),
            *(f"matrix {module} --format json" for module in MATRIX_MODULES),
            *(f"report {module} --format json" for module in REPORT_MODULES),
            *PAYLOAD_SHA256,
        ]
    )
)

CHILD = """
import contextlib, io, json, sys
from liecodes.cli import run
results = []
for command in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(command.split())
    results.append((code, out.getvalue(), err.getvalue()))
json.dump(results, sys.stdout)
"""


FOOTPRINT_CHILD = """
import contextlib, io, json, sys
from liecodes.cli import run
from liecodes.repweights import ModuleSpec, build_weight_matrix
from liecodes.verify import branch_equivalences, weyl_invariance_violations
commands = [
    "verify --include-optional",
    "report --family E8 --module adjoint --field 3",
    "report --family D --m 8 --module spin --field 3",
    "table 3.5",
    "matrix --family D --m 12 --module adjoint_plus_spin --mode direct_sum --field 3 --format text",
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(command.split()) for command in commands]
assert codes == [0] * len(commands), codes
branch_equivalences()
for spec in (ModuleSpec("A", 7, "ext2", 3), ModuleSpec("D", 5, "ext3", 3), ModuleSpec("E6", 6, "minimal", 3)):
    assert weyl_invariance_violations(build_weight_matrix(spec), spec.p, 200) == 0, spec
json.dump(sorted(name for name in sys.modules if name.startswith(("numpy.random", "numpy.ma.")) or name in ("numpy.ma", "dataclasses")), sys.stdout)
"""


def run_in_child(hash_seed, script=CHILD, stdin=json.dumps(COMMANDS)):
    # the package is named on the path, so an uninstalled checkout works too
    path = [str(Path(liecodes.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run([sys.executable, "-c", script], input=stdin, capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def payloads():
    return {seed: run_in_child(seed) for seed in HASH_SEEDS}


def test_every_command_exits_zero(payloads):
    failed = [(command, code, err) for command, (code, _, err) in zip(COMMANDS, payloads["0"]) if code]
    assert failed == []


def test_payloads_do_not_depend_on_the_hash_seed(payloads):
    # name the commands, not the payloads: a diff of a suite payload takes minutes
    first, second = payloads.values()
    assert [command for command, a, b in zip(COMMANDS, first, second) if a != b] == []


def test_json_payloads_are_canonical(payloads):
    # the JSON comes from verify.json_text, with matrix entries spliced in;
    # the text must still be what json.dumps writes for the data it holds
    noncanonical = [
        command
        for command, (_, out, _) in zip(COMMANDS, payloads["0"])
        if command.endswith("json") and out != json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    ]
    assert noncanonical == []


@pytest.fixture(scope="module")
def footprint():
    return run_in_child("0", FOOTPRINT_CHILD, "")


def test_no_command_or_cross_check_loads_numpy_random(footprint):
    # no command or cross-check draws random numbers; numpy.random would
    # add some 6 MB to the process
    assert [name for name in footprint if name.startswith("numpy.random")] == []


def test_no_command_or_cross_check_loads_numpy_ma(footprint):
    # nothing uses masked arrays; np.unique imports numpy.ma, about 1 MB
    assert [name for name in footprint if name.startswith("numpy.ma")] == []


def test_no_command_or_cross_check_loads_dataclasses(footprint):
    # the value classes are records (`fieldcodes.Record`): a generated class
    # costs every command about 1 ms to create, and the module more to import
    assert "dataclasses" not in footprint
