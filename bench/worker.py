"""One benchmark workload in one process: set-up, warm-up, timed loop, checks.

``run.py`` starts this file with single-threaded BLAS.  The worker prints
``IMPORTED`` once the package is imported and the workload built, then a
``SETUP`` line with the reference-kernel time right after that point and the
warm-up's time in reference seconds; ``run.py`` adds the two phases up into
``setup_s``.  The package is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.

Every workload is a closed loop: unit k + 1 starts when unit k has finished.
Units are generated from the workload seed alone, and every unit's output is
checked against an exact oracle; a unit that fails a check or raises counts
all its items as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
IMPORTED = "IMPORTED"
SETUP = "SETUP"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("verify-closed", "oracle-qubit", "analyze-report")

# A solve "hits" its oracle when it lands within this distance of the exact value.
HIT_TOL = 1e-6

# Reported times are in reference milliseconds: each stretch of wall time
# scaled by REF_NOMINAL_MS / (time of the reference kernel runs that bound it).
# On the machine the benchmark was defined on (2-core VM, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1) the kernel took either about 4.3 or about 7.5 ms, in
# phases lasting a few seconds, and the workloads slowed down with it.  Five
# 20 s oracle-qubit runs of one seed spread 0.23 in wall-clock throughput
# (quartile distance over median).  Four 30 s analyze-report runs of one seed
# spread 0.11 when the kernel ran between units only, since a report lasts
# about a second and phases change inside it, and 0.02 with the kernel also
# run inside units.  A reference millisecond is a wall millisecond of that
# machine's slow phase.
REF_NOMINAL_MS = 8.0
REF_EVERY_S = 0.2


# Package seeds of the warm-up units, the same for every workload seed so that
# set-up does the same work on every run; below every workload seed's range.
WARMUP_BASE = 250_000


def seed_base(seed: int) -> int:
    """First package seed of a workload seed.

    Workload seed s owns package seeds [10^6 s + 5*10^5, 10^6 s + 9*10^5), so
    runs with different workload seeds share no inputs, and none overlaps the
    acceptance gate's ranges (0-10^4, 20 000+, ..., 140 000+ and their
    10^7-step bumps).
    """
    return 1_000_000 * seed + 500_000


def import_package():
    src = ROOT / "src"
    if not (src / "eoa3" / "__init__.py").is_file():
        sys.exit(f"bench: no eoa3 sources under {src}")
    sys.path.insert(0, str(src))
    import eoa3
    import eoa3.cli

    if Path(eoa3.__file__).resolve().parent != src / "eoa3":
        sys.exit(f"bench: imported eoa3 from {eoa3.__file__}, not from {src}")
    return eoa3


@dataclass
class Unit:
    items: int
    failed: int
    result: str  # compared between the untraced and traced loops
    exact_gap: float | None = None  # |solve - exact value| where an exact value exists


def call_cli(cli, argv):
    """Run ``eoa3 <argv>`` in process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class VerifyClosed:
    """``eoa3 verify`` over all seven targets, ``TRIALS`` trials per invocation.

    Closed-form path only: no unit calls ``eoa_numeric``.
    """

    TRIALS = 20
    warmup_units = 14  # two sweeps over the targets; throughput settles after the first
    unit_items = TRIALS

    def __init__(self, eoa3, base):
        self.cli = eoa3.cli
        self.base = base

    def run_unit(self, k):
        targets = self.cli.VERIFY_TARGETS
        target = targets[k % len(targets)]
        seed = self.base + (k // len(targets)) * self.TRIALS
        code, out = call_cli(self.cli, ["verify", target, "--trials", str(self.TRIALS), "--seed", str(seed)])
        failures = self.TRIALS
        if code in (0, 1):
            failures = json.loads(out)["failures"]
        if code != 0 and failures == 0:
            failures = self.TRIALS
        return Unit(self.TRIALS, failures, f"{code} {out}")


class OracleQubit:
    """``eoa_numeric`` at the acceptance gate's fast budget, three interleaved streams.

    Unit 3j is Haar state j with E2 (criterion 2), unit 3j + 1 the thm2-family
    state j with entropy:1 (criterion 4), unit 3j + 2 another Haar state with
    entropy:1 (criterion 5).
    """

    warmup_units = 3
    unit_items = 1
    SECOND_HAAR_OFFSET = 200_000

    def __init__(self, eoa3, base):
        self.eoa3 = eoa3
        self.base = base
        self.budget = eoa3.SearchBudget(random_starts=1, max_evals=200)
        self.e2 = eoa3.monotones.E2
        self.entropy1 = eoa3.monotones.ENTROPY_1

    def min_cut(self, psi, m):
        cut = self.eoa3.monotones.cut_entanglement
        return min(cut(psi, "A|BC", m), cut(psi, "B|AC", m))

    def run_unit(self, k):
        pkg, j = self.eoa3, k // 3
        solve = pkg.assistance.eoa_numeric
        if k % 3 == 0:
            psi = pkg.qcore.haar_random_pure((2, 2, 2), self.base + j)
            value, _ = solve(psi, self.e2, self.budget)
            exact = self.min_cut(psi, self.e2)
            ok = exact - 1e-4 <= value <= exact + 1e-6
        elif k % 3 == 1:
            psi = pkg.states.generate(pkg.states.FamilySpec(kind="thm2", seed=self.base + j))
            value, _ = solve(psi, self.entropy1, self.budget)
            exact = pkg.monotones.cut_entanglement(psi, "A|BC", self.entropy1)
            ok = value >= exact - 1e-4
        else:
            psi = pkg.qcore.haar_random_pure((2, 2, 2), self.base + self.SECOND_HAAR_OFFSET + j)
            value, _ = solve(psi, self.entropy1, self.budget)
            exact = None
            ok = self.min_cut(psi, self.e2) <= 0.1 or self.min_cut(psi, self.entropy1) - value > 0
        gap = None if exact is None else abs(value - exact)
        return Unit(1, 0 if ok else 1, repr(value), gap)


class AnalyzeReport:
    """``eoa3 analyze`` with CLI defaults, cycling over families x monotones.

    Unit k uses family k mod 8 and monotone k mod 5, so every window of 40
    consecutive units covers all 40 pairs and short runs still mix them.
    """

    FAMILIES = ("haar", "w", "ghz", "product", "bell_c", "eq21", "thm2", "corollary")
    MONOTONES = ("e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2")
    warmup_units = 1
    unit_items = 1

    def __init__(self, eoa3, base):
        self.cli = eoa3.cli
        self.base = base

    def run_unit(self, k):
        family = self.FAMILIES[k % len(self.FAMILIES)]
        monotone = self.MONOTONES[k % len(self.MONOTONES)]
        argv = ["analyze", "--family", family, "--monotone", monotone, "--seed", str(self.base + k)]
        code, out = call_cli(self.cli, argv)
        if code != 0:
            return Unit(1, 1, f"{code} {out}")
        report = json.loads(out)
        numeric, constructive = report["eoaNumeric"], report["eoaConstructive"]
        min_cut = min(report["cutA"], report["cutB"])
        ok = numeric <= min_cut + 1e-6 and numeric >= constructive
        exact = None
        if monotone == "e2":
            ok = ok and abs(constructive - min_cut) <= 1e-7
            exact = min_cut
        elif family == "thm2":  # lossless across A|BC for every monotone
            exact = report["cutA"]
        gap = None if exact is None else abs(numeric - exact)
        return Unit(1, 0 if ok else 1, out, gap)


WORKLOAD_CLASSES = dict(zip(WORKLOADS, (VerifyClosed, OracleQubit, AnalyzeReport)))


def reference_ms() -> float:
    """Time one run of the reference kernel, which uses no eoa3 code.

    The kernel is a fixed Nelder-Mead search over the smallest eigenvalue of a
    4x4 Hermitian matrix: the same mix of interpreter, scipy and small LAPACK
    calls as the package, so slow and fast phases of a shared machine stretch
    it the way they stretch the workloads.
    """
    import numpy as np
    from scipy.optimize import minimize

    h = np.array([[2, 1j, 0, 0.5], [-1j, 1, 0.2, 0], [0, 0.2, 3, 1], [0.5, 0, 1, 1]], dtype=complex)

    def objective(x):
        return float(np.linalg.eigvalsh(h + np.diag(x))[0] ** 2 + np.sum((x - 0.3) ** 2))

    start = time.perf_counter_ns()
    minimize(objective, np.zeros(4), method="Nelder-Mead", options={"maxfev": 150, "xatol": 1e-14, "fatol": 1e-16})
    return (time.perf_counter_ns() - start) / 1e6


@dataclass
class Loop:
    spans: list = field(default_factory=list)  # (start, end) of each unit, perf_counter_ns
    unit_items: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # (start, end, reference_ms()) of each kernel run
    failed: int = 0
    results: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    failed_units: list = field(default_factory=list)

    @property
    def units(self) -> int:
        return len(self.spans)

    @property
    def items(self) -> int:
        return sum(self.unit_items)

    def _stretches(self, start, end):
        """(wall ms, reference ms per wall ms) of each stretch of [start, end]
        between two reference-kernel runs; the runs themselves are left out."""
        for (_, after, ms0), (before, _, ms1) in zip(self.refs, self.refs[1:]):
            lo, hi = max(start, after), min(end, before)
            if hi > lo:
                yield (hi - lo) / 1e6, 2 * REF_NOMINAL_MS / (ms0 + ms1)

    def unit_ms(self) -> list:
        """Wall time of each unit, kernel runs inside it left out."""
        return [sum(ms for ms, _ in self._stretches(*span)) for span in self.spans]

    def unit_reference_ms(self) -> list:
        """Time of each unit in reference milliseconds: each stretch of wall
        time scaled by REF_NOMINAL_MS over the mean of the kernel runs that
        bound it."""
        return [sum(ms * scale for ms, scale in self._stretches(*span)) for span in self.spans]

    def reference_s(self) -> float:
        """Time of all units in reference seconds."""
        return sum(self.unit_reference_ms()) / 1e3

    def items_per_s(self) -> float:
        return self.items / self.reference_s()


def run_loop(workload, seconds, max_units=sys.maxsize, tracer=None) -> Loop:
    """Run units 0, 1, ... until ``seconds`` have passed or ``max_units`` ran.

    The reference kernel runs before the first unit, after the last one, and
    every REF_EVERY_S of wall time in between.  Untraced, a SIGALRM handler
    runs it, so a unit longer than REF_EVERY_S is sampled in its middle too;
    traced, it runs between units only, so that no span contains it.
    """
    loop = Loop()
    clock = time.perf_counter_ns
    running = False

    def sample(*_):
        nonlocal running
        if not running:  # a signal that arrives during a kernel run is dropped
            running = True
            start = clock()
            ms = reference_ms()
            loop.refs.append((start, clock(), ms))
            running = False

    sample()
    if tracer is None:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
    start = clock()
    try:
        while loop.units < max_units and clock() - start < seconds * 1e9:
            k = loop.units
            if tracer is not None:
                if clock() - loop.refs[-1][1] >= REF_EVERY_S * 1e9:
                    sample()
                tracer.item = k
            t0 = clock()
            try:
                unit = workload.run_unit(k)
            except Exception:
                traceback.print_exc()
                unit = Unit(workload.unit_items, workload.unit_items, "raised")
            loop.spans.append((t0, clock()))
            loop.unit_items.append(unit.items)
            if unit.failed:
                loop.failed_units.append(k)
                print(f"bench: unit {k} failed its check: {unit.result.strip()[:400]}", file=sys.stderr)
            loop.failed += unit.failed
            loop.results.append(unit.result)
            if unit.exact_gap is not None:
                loop.gaps.append(unit.exact_gap)
    finally:
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    sample()
    return loop


def oracle_metrics(loop: Loop) -> dict:
    solves = len(loop.gaps)
    hits = sum(gap <= HIT_TOL for gap in loop.gaps)
    return {
        "assistance.eoa_numeric.oracle_solves": solves,
        "assistance.eoa_numeric.oracle_hit_frac": hits / solves if solves else 0.0,
        "assistance.eoa_numeric.oracle_gap_max": max(loop.gaps, default=0.0),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    eoa3 = import_package()
    workload_class = WORKLOAD_CLASSES[args.workload]
    workload = workload_class(eoa3, seed_base(args.seed))
    print(IMPORTED, flush=True)
    import_reference_ms = statistics.median(reference_ms() for _ in range(3))
    warmup = run_loop(workload_class(eoa3, WARMUP_BASE), float("inf"), workload.warmup_units)
    print(SETUP, import_reference_ms, warmup.reference_s(), flush=True)
    if args.setup_only:
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "environment": environment()}
    if args.trace == 0:
        loop = run_loop(workload, args.seconds)
        loops = [loop]
        correct = True
        metrics = {
            "items_per_s": loop.items_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["oracle"] = oracle_metrics(loop)
    else:
        from tracing import Tracer, layer_metrics

        # Half the time untraced, then the same units traced: equal work on
        # both sides, so their throughput ratio is the tracing overhead.
        plain = run_loop(workload, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced = run_loop(workload, float("inf"), plain.units, tracer)
        loops = [plain, traced]
        correct = traced.results == plain.results
        if not correct:
            print("bench: traced and untraced runs gave different results", file=sys.stderr)
        metrics = layer_metrics(tracer, sum(traced.unit_ms()) * 1e6, traced.items)
        metrics.update(oracle_metrics(plain))
        metrics["trace.overhead_frac"] = 1.0 - traced.items_per_s() / plain.items_per_s()
        tracer.write_csv(OUT_DIR / f"spans-{stem}.csv")
    attempted = sum(loop.items for loop in loops)
    failed = sum(loop.failed for loop in loops)
    record.update(
        units=[loop.units for loop in loops],
        failed_units=[loop.failed_units for loop in loops],
        unit_ms=[loop.unit_ms() for loop in loops],
        unit_reference_ms=[loop.unit_reference_ms() for loop in loops],
        reference_ms=[[ms for _, _, ms in loop.refs] for loop in loops],
        metrics=metrics,
    )
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment:", json.dumps(record["environment"]))
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
