"""Shows that the benchmark's correctness gate has teeth.

For each workload, runs run.py with one recorded reference digest altered
and requires that the run counts failed checks (so `failed_frac` > 0),
reports `correct: false` and exits nonzero.  Run from the root of a
checkout:

    python3 perfbench/check_gate.py

Exits 0 when the gate fired on every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    missed = 0
    for workload in ("registry", "extended", "crosschecks"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
        cmd += ["--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt-reference"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_frac = result["failed"] / result["attempted"]
        fired = proc.returncode != 0 and not result["correct"] and failed_frac > 0
        print(
            f"{workload:<12} exit {proc.returncode}  failed {result['failed']}/{result['attempted']}"
            f"  failed_frac {failed_frac:.4f}  {'gate fired' if fired else 'GATE DID NOT FIRE'}"
        )
        missed += not fired
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
