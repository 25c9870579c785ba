"""Smoke test of the benchmark: every workload, untraced and traced, tiny runs.

    python3 -m pytest -q bench/test_smoke.py

Checks that each run passes its oracle checks and prints exactly the metric
names below, and that these are the names ``BENCHMARK.json`` lists.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import TRACED  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END = {"items_per_s", "setup_s", "peak_rss_mb"}
PER_LAYER = (
    {f"{layer}.self_share" for layer in (*TRACED, "harness")}
    | {
        f"{layer}.{fn}.{stat}"
        for layer, fns in TRACED.items()
        for fn in fns
        for stat in ("calls_per_item", "self_us_per_call")
    }
    | {f"assistance.eoa_numeric.oracle_{x}" for x in ("solves", "hit_frac", "gap_max")}
    | {"trace.overhead_frac"}
)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric():
    s = spec()
    assert {w["name"] for w in s["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in s["end_to_end"]} == END_TO_END
    assert {m["name"] for m in s["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        shares = [m[f"{layer}.self_share"] for layer in (*TRACED, "harness")]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
        if workload == "verify-closed":
            assert m["assistance.eoa_numeric.calls_per_item"] == 0
