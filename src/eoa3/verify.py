"""Monte Carlo trials of the paper's claims, one per ``eoa3 verify`` target.

A trial maps ``(seeds, tol)`` to one ``(ok, row, witness)`` per seed: whether
the claim holds on the instance the seed generates, the per-trial values (CSV
rows and counterexample reports), and the pure state to report as a
counterexample, or None where the instance is not a pure state.  Every
target but prop2 draws its instances one seed at a time and checks them all
in one call of the stacked kernels (thm2 through ``lossless_classifiers``,
appendixB through ``entangled_stack``); prop2, whose instances vary in size,
runs seed by seed.  The acceptance tests run the same trials over their own
seed ranges.

Package functions are called through their modules so that wrappers installed
on those modules (``bench/tracing.py``) see the calls.
"""

from __future__ import annotations

import numpy as np

from . import assistance, ensembles, monotones, qcore, states

# The least tolerance each target compares against (thm1 has none).  Targets
# absent here (prop2, appendixB, ckw) ignore tol for fixed thresholds.
TOL_FLOORS = {"thm1": 0.0, "thm2": 1e-8, "corollary": 1e-6, "eq37": 1e-8}


def effective_tol(target, tol):
    """The tolerance ``target``'s trial applies for a requested ``tol``; None for fixed thresholds."""
    return max(tol, TOL_FLOORS[target]) if target in TOL_FLOORS else None


def _haar_states(seeds, offset=0):
    return [qcore.haar_random_pure((2, 2, 2), seed + offset) for seed in seeds]


def _trial_thm1(seeds, tol):
    psis = _haar_states(seeds)
    th = assistance.theorem1_stack(psis)
    mincut = monotones.E2.eigenvalue_values(th.minima).min(axis=1)
    gap = np.abs(th.average - mincut)
    tol = effective_tol("thm1", tol)
    return [
        (True, {"gap": float(g), "mincut": float(mc)}, psi) if g <= tol else (False, {"gap": float(g)}, psi)
        for g, mc, psi in zip(gap, mincut, psis)
    ]


def _trial_thm2(seeds, tol):
    psis = [states.generate(states.FamilySpec(kind="thm2", seed=seed)) for seed in seeds]
    c = assistance.lossless_classifiers(psis, "A|BC", effective_tol("thm2", tol))
    return [
        (kind != "lossy", {"verdict": str(kind), "objective": float(obj)}, psi)
        for kind, obj, psi in zip(c.kinds, c.objectives, psis)
    ]


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


def _trial_prop2(seeds, tol):
    return [_prop2(seed) for seed in seeds]


def _prop2(seed):
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


def _eq21_instance(seed):
    rng = np.random.default_rng(seed)
    spec = states.FamilySpec(
        kind="eq21",
        p=float(rng.uniform(0.1, 0.9)),
        overlap=complex(rng.uniform(-0.95, 0.95)),
    )
    return states.generate(spec)


def _trial_corollary(seeds, tol):
    syms = [_eq21_instance(seed) for seed in seeds]
    tol = effective_tol("corollary", tol)
    reps = assistance.corollary_checks(syms, tol)
    haar_reps = assistance.corollary_checks(_haar_states(seeds, 10**9), tol, check_swap=False)
    out = []
    for sym, rep, rep2 in zip(syms, reps, haar_reps):
        symmetric = rep.i and rep.ii and rep.iii
        ok = symmetric and (rep2.i == rep2.iii)
        out.append((ok, {"symmetric_all": symmetric, "haar_i": rep2.i, "haar_iii": rep2.iii}, sym))
    return out


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


def _trial_appendix_b(seeds, tol):
    rhos = [mixed_marginal_density(seed) for seed in seeds]
    ys = ensembles.entangled_stack(rhos)
    entries = np.array([rho.entries for rho in rhos])
    weights = np.sum(ys.real**2 + ys.imag**2, axis=-1)
    element = weights >= 1e-14  # the elements an Ensemble keeps
    conc = np.min(ensembles._element_concurrences(ys), axis=1, where=element, initial=np.inf)
    recon = np.max(np.abs(np.einsum("nka,nkb->nab", ys, ys.conj()) - entries), axis=(1, 2))
    normalized = np.abs(np.sum(weights, axis=1, where=element) - 1.0) <= 1e-12
    purity = np.trace(entries @ entries, axis1=1, axis2=2).real
    s0 = ensembles._s0_values(rhos, qcore.min_marginal_eigenvalue(entries), purity > 1.0 - 1e-10)
    return [
        (bool(c > 0 and r <= 1e-10 and w_ok and v == 1.0), {"min_concurrence": float(c), "reconstruction": float(r)}, None)
        for c, r, w_ok, v in zip(conc, recon, normalized, s0)
    ]


def _trial_ckw(seeds, tol):
    psis = _haar_states(seeds)
    t = qcore.three_qubit_stack(psis)
    tau = monotones.three_tangles(t)
    _, c_ac, c_bc = monotones.pair_concurrences(t).T
    c_a, c_b = monotones.cut_values(t, monotones.CONCURRENCE).T
    diff = np.abs((c_ac**2 - c_bc**2) - (c_a**2 - c_b**2))
    return [
        (bool(tau_i >= -1e-9 and d <= 1e-8), {"tau": float(tau_i), "difference_identity": float(d)}, psi)
        for tau_i, d, psi in zip(tau, diff, psis)
    ]


def _trial_eq37(seeds, tol):
    psis = _haar_states(seeds)
    rhos = qcore.reduced_stack(qcore.three_qubit_stack(psis), (0, 1))
    values, expected = assistance.eoa_densities(rhos)
    tol = effective_tol("eq37", tol)
    out = []
    for value, exp, psi in zip(values, expected, psis):
        gap = abs(value - exp)
        if gap > 1e-8:  # eoa_density's own check of the identity
            out.append((False, {"gap": float(gap)}, psi))
        else:
            out.append((bool(gap <= tol), {"value": float(value), "expected": float(exp)}, psi))
    return out


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
