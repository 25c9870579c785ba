import json

import numpy as np
import pytest

from eoa3 import assistance
from eoa3.cli import VERIFY_TARGETS, main
from eoa3.monotones import E2, cut_values, pair_concurrences
from eoa3.qcore import haar_random_pure, min_marginal_eigenvalue, reduced_density, state_to_json, three_qubit_stack
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


# Each seed's Haar state at the given trial has an E2 gap just below the
# corollary's tol of 1e-6 and a concurrence gap above it.
NEAR_TIES = [(5_522_940, 10), (7_554_240, 15)]


@pytest.mark.parametrize("seed, trial", NEAR_TIES)
def test_corollary_decides_near_ties_at_the_cut_scale(seed, trial):
    psi = haar_random_pure((2, 2, 2), seed + trial + 10**9)
    (c_ac, c_bc), cuts = pair_concurrences([psi])[0, 1:], cut_values([psi], E2)[0]
    assert abs(cuts[0] - cuts[1]) <= 1e-6 < abs(c_ac - c_bc)
    rows = TRIALS["corollary"](range(seed, seed + 20), 1e-7)
    assert all(ok for ok, _, _ in rows)
    assert rows[trial][1] == {"symmetric_all": True, "haar_i": True, "haar_iii": True}


@pytest.mark.parametrize("seed, trial", NEAR_TIES)
def test_corollary_names_the_haar_state_that_breaks_the_equivalence(monkeypatch, seed, trial):
    # A concurrence planted 1e-4 off on the near tie's Haar state, and on no
    # other state, fails that trial alone and makes it the witness.
    psi = haar_random_pure((2, 2, 2), seed + trial + 10**9)

    def planted(states):
        t = three_qubit_stack(states)
        pairs = pair_concurrences(t)
        pairs[np.all(t.reshape(-1, 8) == psi.amplitudes, axis=1), 1] += 1e-4
        return pairs

    monkeypatch.setattr(assistance, "pair_concurrences", planted)
    rows = TRIALS["corollary"](range(seed, seed + 20), 1e-7)
    assert [k for k, (ok, _, _) in enumerate(rows) if not ok] == [trial]
    ok, row, witness = rows[trial]
    assert row == {"symmetric_all": True, "haar_i": True, "haar_iii": False}
    np.testing.assert_array_equal(witness.amplitudes, psi.amplitudes)
