"""The package names the benchmark under ``bench/`` reaches for still resolve.

``bench/tracing.py`` wraps its ``TRACED`` functions by name and
``bench/worker.py`` drives the CLI in process; a deleted or renamed name
fails here, in the unit tests, rather than in a benchmark run.
"""

import importlib
import importlib.util
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
