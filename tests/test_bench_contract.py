"""The package names the benchmark under ``bench/`` reaches for still resolve.

``bench/tracing.py`` wraps its ``TRACED`` functions by name and
``bench/worker.py`` drives the CLI in process; a deleted or renamed name
fails here, in the unit tests, rather than in a benchmark run.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("eoa3_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    assert tracing.SPAN_NAMES
    for span_name in tracing.SPAN_NAMES:
        layer, name = span_name.split(".")
        assert callable(getattr(importlib.import_module(f"eoa3.{layer}"), name, None)), span_name


def test_cli_entry_points_resolve():
    cli = importlib.import_module("eoa3.cli")
    assert callable(cli.main)
    # The verify-closed workload cycles over the targets in this order.
    assert cli.VERIFY_TARGETS == ("thm1", "thm2", "prop2", "corollary", "appendixB", "ckw", "eq37")


def _cli_json(argv):
    """Run ``eoa3 <argv>`` in process the way ``bench/worker.py`` does; parse stdout."""
    cli = importlib.import_module("eoa3.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return json.loads(buf.getvalue())


def test_verify_summary_keys_the_bench_reads():
    # verify-closed reads the summary's failure count.
    for target in ("thm1", "ckw"):
        summary = _cli_json(["verify", target, "--trials", "2", "--seed", "3"])
        assert isinstance(summary["failures"], int)


def test_analyze_report_keys_the_bench_reads():
    # analyze-report checks eoaNumeric >= eoaConstructive and both against the cuts.
    report = _cli_json(["analyze", "--family", "w", "--monotone", "e2", "--budget", "20"])
    for key in ("eoaNumeric", "eoaConstructive", "cutA", "cutB"):
        assert isinstance(report[key], float), key


def test_oracle_qubit_calls_return_floats():
    # The calls the oracle-qubit workload makes per unit, with its budget.
    eoa3 = importlib.import_module("eoa3")
    monotones = eoa3.monotones
    budget = eoa3.SearchBudget(random_starts=1, max_evals=200)
    for s in (0, 1):
        for psi, m in (
            (eoa3.qcore.haar_random_pure((2, 2, 2), s), monotones.E2),
            (eoa3.states.generate(eoa3.states.FamilySpec(kind="thm2", seed=s)), monotones.ENTROPY_1),
        ):
            value, _ = eoa3.assistance.eoa_numeric(psi, m, budget)
            assert isinstance(value, float)
            for cut in ("A|BC", "B|AC"):
                assert isinstance(monotones.cut_entanglement(psi, cut, m), float)
