"""Monte Carlo trials of the paper's claims, one per ``eoa3 verify`` target.

A trial maps ``(seed, tol)`` to ``(ok, row, witness)``: whether the claim
holds on the instance the seed generates, the per-trial values (CSV rows and
counterexample reports), and the pure state to report as a counterexample, or
None where the instance is not a pure state.  The acceptance tests run the
same trials over their own seed ranges.

Package functions are called through their modules so that wrappers installed
on those modules (``bench/tracing.py``) see the calls.
"""

from __future__ import annotations

import numpy as np

from . import assistance, ensembles, monotones, qcore, states
from .assistance import VerificationError

# The least tolerance each target compares against (thm1 has none).  Targets
# absent here (prop2, appendixB, ckw) ignore tol for fixed thresholds.
TOL_FLOORS = {"thm1": 0.0, "thm2": 1e-8, "corollary": 1e-6, "eq37": 1e-8}


def effective_tol(target, tol):
    """The tolerance ``target``'s trial applies for a requested ``tol``; None for fixed thresholds."""
    return max(tol, TOL_FLOORS[target]) if target in TOL_FLOORS else None


def _trial_thm1(seed, tol):
    psi = qcore.haar_random_pure((2, 2, 2), seed)
    try:
        rep = assistance.verify_theorem1(psi, effective_tol("thm1", tol))
        return True, {"gap": rep.gap, "mincut": min(rep.cut_a, rep.cut_b)}, psi
    except VerificationError as exc:
        return False, {"gap": exc.gap}, psi


def _trial_thm2(seed, tol):
    psi = states.generate(states.FamilySpec(kind="thm2", seed=seed))
    verdict = assistance.lossless_classifier(psi, "A|BC", tol=effective_tol("thm2", tol))
    ok = verdict.kind in ("lossless", "decoupled")
    return ok, {"verdict": verdict.kind, "objective": verdict.objective}, psi


def prop2_instance(seed):
    """(H, probabilities, unitaries) of a random-unitary mixture; the first unitary is I.

    Even seeds rotate by unitaries diagonal in H's eigenbasis, so the mixture
    commutes with H; odd seeds use Haar unitaries.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    probs = rng.uniform(0.1, 1.0, n)
    probs /= probs.sum()
    if seed % 2 == 0:
        v = qcore.haar_random_unitary(2, seed)
        h_evals = np.sort(rng.uniform(0.0, 1.0, 2))[::-1]
        h = v @ np.diag(h_evals).astype(complex) @ v.conj().T
        us = [np.eye(2, dtype=complex)] + [
            v @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) @ v.conj().T
            for _ in range(n - 1)
        ]
    else:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (g + g.conj().T)
        us = [np.eye(2, dtype=complex)] + [
            qcore.haar_random_unitary(2, int(rng.integers(2**32))) for _ in range(n - 1)
        ]
    return h, probs, us


def _trial_prop2(seed, tol):
    h, probs, us = prop2_instance(seed)
    preserved, commutes = assistance.unital_fixed_point_check(h, probs, us)
    ok = preserved == commutes
    if ok and preserved:
        # Shared-eigenvector consistency: each rotated copy keeps H's principal
        # eigenvector as an eigenvector.
        _, evecs = np.linalg.eigh(h)
        v = evecs[:, -1]
        for u in us:
            term = u @ h @ u.conj().T
            resid = term @ v - (v.conj() @ term @ v) * v
            if np.linalg.norm(resid) > 1e-9:
                ok = False
    return ok, {"preserved": preserved, "commutes": commutes}, None


def _trial_corollary(seed, tol):
    rng = np.random.default_rng(seed)
    spec = states.FamilySpec(
        kind="eq21",
        p=float(rng.uniform(0.1, 0.9)),
        overlap=complex(rng.uniform(-0.95, 0.95)),
    )
    sym = states.generate(spec)
    tol = effective_tol("corollary", tol)
    rep = assistance.corollary_check(sym, tol)
    ok = rep.i and rep.ii and rep.iii
    haar = qcore.haar_random_pure((2, 2, 2), seed + 10**9)
    rep2 = assistance.corollary_check(haar, tol, check_swap=False)
    ok = ok and (rep2.i == rep2.iii)
    return ok, {"symmetric_all": rep.i and rep.ii and rep.iii, "haar_i": rep2.i, "haar_iii": rep2.iii}, sym


def mixed_marginal_density(seed) -> qcore.DensityMatrix:
    """Random two-qubit density matrix of rank 2 + seed % 3 with both marginals mixed.

    Redraws with the seed bumped by 10^7 until both marginals' minimum
    eigenvalues exceed 1e-6.
    """
    rank = 2 + seed % 3
    bump = 0
    while True:
        rho = qcore.random_density_matrix(4, rank, seed + bump * 10**7)
        if qcore.min_marginal_eigenvalue(rho.entries) > 1e-6:
            return rho
        bump += 1


def _trial_appendix_b(seed, tol):
    rho = mixed_marginal_density(seed)
    ens = ensembles.entangled_decomposition(rho)
    concs = [monotones.concurrence_pure(s) for _, s in ens.elements]
    mix = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in ens.elements)
    recon = float(np.max(np.abs(mix - rho.entries)))
    ok = min(concs) > 0 and recon <= 1e-10 and ensembles.s0_assistance(rho) == 1.0
    return ok, {"min_concurrence": min(concs), "reconstruction": recon}, None


def _trial_ckw(seed, tol):
    psi = qcore.haar_random_pure((2, 2, 2), seed)
    tau = monotones.three_tangle(psi)
    c_ac = monotones.wootters_concurrence(qcore.reduced_density(psi, (0, 2)))
    c_bc = monotones.wootters_concurrence(qcore.reduced_density(psi, (1, 2)))
    lhs = c_ac**2 - c_bc**2
    rhs = monotones.pure_cut_concurrence(psi, "A|BC") ** 2 - monotones.pure_cut_concurrence(psi, "B|AC") ** 2
    ok = tau >= -1e-9 and abs(lhs - rhs) <= 1e-8
    return ok, {"tau": tau, "difference_identity": abs(lhs - rhs)}, psi


def _trial_eq37(seed, tol):
    psi = qcore.haar_random_pure((2, 2, 2), seed)
    rho = qcore.reduced_density(psi, (0, 1))
    try:
        value = assistance.eoa_density(rho)
        expected = 2.0 * qcore.min_marginal_eigenvalue(rho.entries)
        ok = abs(value - expected) <= effective_tol("eq37", tol)
        return ok, {"value": value, "expected": expected}, psi
    except VerificationError as exc:
        return False, {"gap": exc.gap}, psi


# Target name -> trial, in the order ``eoa3 verify`` lists the targets.
TRIALS = {
    "thm1": _trial_thm1,
    "thm2": _trial_thm2,
    "prop2": _trial_prop2,
    "corollary": _trial_corollary,
    "appendixB": _trial_appendix_b,
    "ckw": _trial_ckw,
    "eq37": _trial_eq37,
}
