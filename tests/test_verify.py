import json

import numpy as np
import pytest

from eoa3.cli import VERIFY_TARGETS, main
from eoa3.qcore import haar_random_pure, min_marginal_eigenvalue, reduced_density, state_to_json
from eoa3.verify import TRIALS, mixed_marginal_density


@pytest.mark.parametrize("target", VERIFY_TARGETS)
def test_cli_rows_fold_the_registry_trial(capsys, target):
    seed, trials, tol = 1_500_000, 20, 1e-7
    code = main(["verify", target, "--trials", str(trials), "--seed", str(seed), "--format", "csv"])
    csv_out = capsys.readouterr().out
    rows, failures, first = [], 0, None
    for i, (ok, row, witness) in enumerate(TRIALS[target](range(seed, seed + trials), tol)):
        rows.append({"trial": i, "seed": seed + i, "ok": ok, **row})
        failures += not ok
        if not ok and first is None and witness is not None:
            first = json.loads(state_to_json(witness))
    keys = sorted({k for row in rows for k in row})
    lines = [",".join(keys)] + [",".join(str(row.get(k, "")) for k in keys) for row in rows]
    assert csv_out == "\n".join(lines) + "\n"
    assert code == (0 if failures == 0 else 1)
    main(["verify", target, "--trials", str(trials), "--seed", str(seed)])
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == failures
    assert summary.get("firstCounterexample") == first


def _inline_min_marginal(entries):
    red_a = entries.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    red_b = entries.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    return min(np.linalg.eigvalsh(red_a)[0], np.linalg.eigvalsh(red_b)[0])


def test_min_marginal_eigenvalue_equals_inline_partial_traces():
    # The acceptance seeds of criteria 8 (Eq. 37) and 9 (Appendix B).
    for seed in range(1000):
        rho = reduced_density(haar_random_pure((2, 2, 2), 100_000 + seed), (0, 1))
        assert min_marginal_eigenvalue(rho.entries) == _inline_min_marginal(rho.entries)
        rho = mixed_marginal_density(120_000 + seed)
        assert min_marginal_eigenvalue(rho.entries) == _inline_min_marginal(rho.entries)
