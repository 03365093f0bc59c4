"""Benchmark of liecodes: one workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 20 --trace 0

Workloads are `registry`, `extended` and `crosschecks` (see workloads.py
and README.md).  The load runs in this one process on one thread, one pass
after another; the enumeration process pool stays off.

With `--trace 0` the run reports the end-to-end metrics: `setup_s`, the
median time of fresh interpreters that import liecodes and make one warm-up
call into each layer; `wall_s`, the median time of one warm pass;
`peak_rss_mb`, this process's high-water RSS.  Pass times are wall times
scaled to a reference machine speed by the probe in speed.py, set-up times
by a numpy-only interpreter run beside each; the raw wall times are printed
and kept in the record too.  With `--trace 1` the run times untraced passes
for half the window, then wraps the layers' public functions (tracing.py)
and reports per-layer medians over traced passes.

Every pass is checked: against digests recorded from the seed code
(reference.json) and against checks that need no reference.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the exit code is 0 only if every check passed.  A record with
the machine, the seed, every pass time and the spans of one traced pass is
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7  # measured set-up pairs, after one pair that warms the file cache
# numpy import time of a fresh interpreter that defines the reference speed
# for set-up; chosen so that scaled set-up times are close to raw ones on a
# typical (contended) 2-vCPU Xeon VM
REF_IMPORT_S = 0.13
MIN_PASSES = 3  # timed passes per phase, however short the window

# A fresh interpreter's set-up: import, the registry, one call into each
# layer; then it prints the system-wide monotonic clock.
SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import liecodes, workloads
liecodes.registered_cases()
workloads.warm_up()
import time
print(time.monotonic())
"""
# The reference beside it: a fresh interpreter that imports only numpy.
IMPORT_CODE = """\
import numpy, time
print(time.monotonic())
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["registry", "extended", "crosschecks"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="alter one recorded digest, to show that a wrong output fails the run (check_gate.py)",
    )
    return parser.parse_args(argv)


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup() -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of SETUP_RUNS fresh interpreters.

    A time runs from spawn to the end of the warm-up as the child reads the
    clock (waiting for the child's exit with a timeout polls, which would
    round it to 50 ms).  Set-up is mostly the numpy import, whose speed
    drifts on a shared machine in a way the probe in speed.py does not
    follow, so each set-up is scaled by a numpy-only interpreter started
    just before it: scaled = raw * REF_IMPORT_S / numpy-only time."""
    env = dict(os.environ)
    env.pop("LIECODES_WORKERS", None)
    # compile liecodes from source every time, and write nothing into the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    def elapsed(code: str) -> float:
        start = time.monotonic()
        cmd = [sys.executable, "-c", code, str(SRC), str(HERE)]
        proc = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
        return float(proc.stdout) - start

    raw, scaled = [], []
    for _ in range(SETUP_RUNS + 1):
        numpy_only = elapsed(IMPORT_CODE)
        setup = elapsed(SETUP_CODE)
        raw.append(setup)
        scaled.append(setup * REF_IMPORT_S / numpy_only)
    return raw[1:], scaled[1:]


def timed_passes(workload, reference, checks, probe, seconds, tracer=None) -> tuple[list, list, list]:
    """Run passes until `seconds` have gone by (at least MIN_PASSES) and
    check each one.  Returns the raw and speed-scaled pass times and, when
    traced, the per-layer metrics of each pass (times scaled likewise)."""
    raw, scaled, layers = [], [], []
    window_start = time.perf_counter()
    while len(raw) < MIN_PASSES or time.perf_counter() - window_start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        probe.reset()
        probe.sample()
        start = time.perf_counter()
        out = workload.run()
        wall = time.perf_counter() - start
        probe.sample()
        raw.append(wall)
        scaled.append(wall * probe.factor())
        if tracer is not None:
            metrics = tracer.pass_metrics(wall, probe.factor())
            metrics["cli.bytes_out"] = workload.cli_bytes
            layers.append(metrics)
        check_pass(workload, out, reference, checks)
    return raw, scaled, layers


def check_pass(workload, out, reference: dict, checks) -> None:
    found = workload.digests(out)
    for key in sorted(set(reference) | set(found)):
        checks.expect(found.get(key) == reference.get(key), f"digest of {key}: {found.get(key)} != reference {reference.get(key)}")
    workload.check(out, checks)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liecodes" / "__init__.py").is_file():
        print(f"run.py: no liecodes source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.pop("LIECODES_WORKERS", None)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_raw, setup_times = ([], []) if args.trace else measure_setup()

    import liecodes
    import speed
    import tracing
    import workloads

    if Path(liecodes.__file__).resolve().parent != (SRC / "liecodes").resolve():
        print(f"run.py: imported liecodes from {liecodes.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    if args.corrupt_reference:
        key = sorted(reference)[0]
        reference[key] = reference[key][:-1] + ("0" if reference[key][-1] != "0" else "1")

    workloads.warm_up()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    checks = workloads.Checks()
    gc.collect()
    check_pass(workload, workload.run(), reference, checks)  # the warm pass, untimed

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record["machine"] = machine_record()
    with speed.SpeedProbe() as probe:
        if args.trace:
            plain_raw, plain, _ = timed_passes(workload, reference, checks, probe, args.seconds / 2)
            with tracing.Tracer() as tracer:
                traced_raw, traced, layers = timed_passes(workload, reference, checks, probe, args.seconds / 2, tracer)
                spans = list(tracer.spans)  # the last traced pass
        else:
            times_raw, times, _ = timed_passes(workload, reference, checks, probe, args.seconds)
    if args.trace:
        # median_low keeps counts whole: it returns one pass's own figure
        values = {name: statistics.median_low(p[name] for p in layers) for name in layers[0]}
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        record.update(
            untraced_pass_s=plain,
            untraced_pass_raw_s=plain_raw,
            traced_pass_s=traced,
            traced_pass_raw_s=traced_raw,
            passes=layers,
            spans_last_pass=spans,
        )
        raw_lines = {"untraced pass, raw wall": statistics.median(plain_raw)}
        counted = {"untraced passes": plain, "traced passes": traced}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_s=setup_times, setup_raw_s=setup_raw, pass_s=times, pass_raw_s=times_raw)
        raw_lines = {"setup, raw wall": statistics.median(setup_raw), "pass, raw wall": statistics.median(times_raw)}
        counted = {"timed passes": times}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed_frac = checks.failed / checks.attempted
    record.update(metrics=metrics, attempted=checks.attempted, failed=checks.failed, failed_frac=failed_frac, failures=checks.failures)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-corrupt' if args.corrupt_reference else ''}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "workload": args.workload, "seed": args.seed}))
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in raw_lines.items():
        print(f"{args.workload:<12} {name:<34} {value:>16.6f} s (median, not scaled)")
    for name, series in counted.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload:<12} {name:<34} {len(series):>9}        quartiles {q1:.6f} {q3:.6f} s")
    print(f"{args.workload:<12} {'failed_frac':<34} {failed_frac:>16.6f} ({checks.failed}/{checks.attempted} checks)")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
