"""Benchmark launcher for eoa3.

    python3 bench/run.py --workload verify-closed --seed 1 --seconds 30 --trace 0

Runs one workload in its own worker process with single-threaded BLAS and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the ``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its ``per_layer`` metrics.

``setup_s`` is the median over ``SETUP_PROCESSES`` fresh worker processes of
the time from process start to the end of warm-up: importing the package from
``src/`` and building the workload, then running the warm-up units.  The last
of those processes goes on to the timed run.  Like every time the benchmark
reports, it is in reference seconds (see ``REF_NOMINAL_MS`` in ``worker.py``).

Exits 1 without a result line when a worker fails, is killed at the time
limit, or reports metrics other than the ones ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from worker import IMPORTED, REF_NOMINAL_MS, SETUP, THREAD_VARS, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_PROCESSES = 3


def metric_units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def run_worker(worker_args, deadline):
    """Start one worker; return (exit code, set-up time or None, other stdout lines).

    The set-up time is the wall time from start to the worker's IMPORTED line,
    scaled by REF_NOMINAL_MS over the reference-kernel time the worker
    measures right after that line, plus the warm-up time in reference
    seconds that its SETUP line reports.
    """
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    killer.start()
    import_s = setup = None
    lines = []
    try:
        for line in proc.stdout:
            if import_s is None and line.strip() == IMPORTED:
                import_s = time.perf_counter() - start
            elif setup is None and line.startswith(SETUP):
                setup = [float(x) for x in line.split()[1:]]
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if import_s is None or setup is None:
        return code, None, lines
    import_reference_ms, warmup_s = setup
    return code, import_s * REF_NOMINAL_MS / import_reference_ms + warmup_s, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eoa3 benchmark launcher")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.perf_counter() + TIME_LIMIT_S
    units = metric_units(args.trace)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    worker_args += ["--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups = []
    for _ in range(0 if args.trace else SETUP_PROCESSES - 1):
        code, setup_s, _ = run_worker(worker_args + ["--setup-only"], deadline)
        if code != 0 or setup_s is None:
            print(f"bench: set-up worker failed with exit code {code}", file=sys.stderr)
            return 1
        setups.append(setup_s)
    code, setup_s, lines = run_worker(worker_args, deadline)
    if code != 0 or setup_s is None or not lines:
        print(f"bench: worker failed with exit code {code}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    result = json.loads(lines[-1])
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for line in lines[:-1]:
        print(line)
    print(f"setup_s per process: {[round(s, 4) for s in setups]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
