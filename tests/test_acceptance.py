"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at its full stated sample size and tolerance, so this
module is slower than the unit tests (several minutes in total).
"""

import time

import numpy as np

from eoa3.assistance import (
    SearchBudget,
    corollary_checks,
    eoa_numeric,
    lossless_classifier,
    lossless_classifiers,
    theorem1_measurement,
)
from eoa3.ensembles import convex_roof_concurrence
from eoa3.monotones import (
    E2,
    ENTROPY_1,
    cut_entanglement,
    three_tangle,
    wootters_concurrence,
)
from eoa3.qcore import haar_random_pure, random_density_matrix
from eoa3.states import FamilySpec, generate, ghz_state, w_state
from eoa3.verify import TRIALS

FAST_BUDGET = SearchBudget(random_starts=1, max_evals=200)


def report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def min_cut(psi, m):
    return min(cut_entanglement(psi, "A|BC", m), cut_entanglement(psi, "B|AC", m))


def test_criterion_01_theorem1_saturation():
    start = time.time()
    rows = TRIALS["thm1"](range(10_000), 1e-7)
    ok = all(ok for ok, _, _ in rows)
    worst = max(row["gap"] for _, row, _ in rows)
    elapsed = time.time() - start
    print(f"  worst gap {worst:.3e}, {elapsed:.1f}s for 10000 states")
    report(1, "constructive measurement saturates the min-cut", ok and worst <= 1e-7 and elapsed <= 300)


def test_criterion_02_numeric_oracle_agreement():
    ok = True
    for seed in range(500):
        psi = haar_random_pure((2, 2, 2), 20_000 + seed)
        val, _ = eoa_numeric(psi, E2, FAST_BUDGET)
        mc = min_cut(psi, E2)
        if not (mc - 1e-4 <= val <= mc + 1e-6):
            ok = False
            break
    report(2, "numeric optimizer reaches the constructive optimum", ok)


def test_criterion_03_golden_values():
    _, ghz_avg = theorem1_measurement(ghz_state())
    _, w_avg = theorem1_measurement(w_state())
    ok = (
        abs(ghz_avg - 1.0) <= 1e-9
        and abs(w_avg - 2 / 3) <= 1e-8
        and abs(cut_entanglement(w_state(), "A|BC", E2) - 2 / 3) <= 1e-10
    )
    report(3, "golden values for GHZ and W", ok)


def test_criterion_04_lossless_family_positive():
    ok = True
    for ok, _, psi in TRIALS["thm2"](range(1000), 1e-8):
        if not ok:
            break
        val, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
        if val < cut_entanglement(psi, "A|BC", ENTROPY_1) - 1e-4:
            ok = False
            break
    report(4, "generated lossless family classifies lossless", ok)


def test_criterion_05_lossy_negative_cases():
    ok = lossless_classifier(w_state(), "A|BC", 1e-7).kind == "lossy"
    psis = [haar_random_pure((2, 2, 2), 40_000 + seed) for seed in range(1000)]
    ok = ok and bool(np.all(lossless_classifiers(psis, "A|BC", 1e-7).kinds == "lossy"))
    for psi in psis:
        if not ok:
            break
        if min_cut(psi, E2) > 0.1:
            val, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
            if min_cut(psi, ENTROPY_1) - val <= 0:
                ok = False
                break
    report(5, "generic states classify lossy with a positive entropy gap", ok)


def test_criterion_06_fixed_point_equivalence():
    disagreements = sum(not ok for ok, _, _ in TRIALS["prop2"](range(10_000), 1e-7))
    report(6, "minimum-eigenvalue preservation equals commutation", disagreements == 0)


def test_criterion_07_ckw_and_cut_symmetry():
    ok = abs(three_tangle(ghz_state()) - 1.0) <= 1e-9
    ok = ok and abs(three_tangle(w_state())) <= 1e-7
    ok = ok and all(ok for ok, _, _ in TRIALS["ckw"](range(60_000, 70_000), 1e-7))
    rng = np.random.default_rng(1)
    symmetric = [
        generate(
            FamilySpec(
                kind="eq21",
                p=float(rng.uniform(0.1, 0.9)),
                overlap=complex(rng.uniform(-0.95, 0.95)),
            )
        )
        for _ in range(1000)
    ]
    ok = ok and all(rep.i and rep.ii and rep.iii for rep in corollary_checks(symmetric, 1e-6))
    haar = [haar_random_pure((2, 2, 2), 80_000 + seed) for seed in range(1000)]
    ok = ok and all(rep.i == rep.iii for rep in corollary_checks(haar, 1e-6, check_swap=False))
    report(7, "monogamy relations and cut-symmetry equivalences", ok)


def test_criterion_08_density_restatement():
    ok = all(ok for ok, _, _ in TRIALS["eq37"](range(100_000, 101_000), 1e-7))
    report(8, "rank-2 density assistance equals twice the smaller eigenvalue", ok)


def test_criterion_09_entangled_decompositions():
    ok = all(ok for ok, _, _ in TRIALS["appendixB"](range(120_000, 121_000), 1e-7))
    report(9, "all-entangled decompositions with exact reconstruction", ok)


def test_criterion_10_convex_roof_cross_check():
    ok = True
    for seed in range(100):
        rho = random_density_matrix(4, 2, 140_000 + seed)
        closed = wootters_concurrence(rho)
        brute = convex_roof_concurrence(rho, starts=6, max_evals=4000, seed=seed)
        if abs(brute - closed) > 2e-3:
            ok = False
            print(f"  mismatch at seed {seed}: closed {closed}, brute {brute}")
            break
    report(10, "closed-form concurrence matches brute-force convex roof", ok)
