"""Monte Carlo trials of the paper's claims, one per ``eoa3 verify`` target.

A trial maps ``(seeds, tol)`` to one ``(ok, row, witness)`` per seed: whether
the claim holds on the instance the seed generates, the per-trial values (CSV
rows and counterexample reports), and the pure state to report as a
counterexample, or None where the instance is not a pure state.

Every target draws its instances with a stacked seeded builder
(``qcore.haar_random_rows``, ``states.thm2_rows``, ``_eq21_stack``,
``prop2_instances``, ``mixed_marginal_densities``): per seed only
``default_rng(seed)`` and its draws run, and the rest of the draw runs once
per stack, each row bit for bit the instance of the one-seed draw.  The stack
is validated once (``three_qubit_stack``, or ``_density_factors`` inside
``entangled_stack``) and checked in one call of the stacked kernels (thm2
through ``lossless_classifiers``, appendixB through ``entangled_stack``,
prop2 through ``unital_fixed_point_checks`` once per mixture size).  The
witnesses are the validated rows, wrapped as ``PureState``s without a second
validation.  The acceptance tests run the same trials over their own seed
ranges.

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


def _haar_stack(seeds, offset=0):
    """The validated stack (N, 2, 2, 2) of the Haar states of the seeds, and
    its rows as the trials' witnesses."""
    t = qcore.three_qubit_stack(qcore.haar_random_rows(8, [seed + offset for seed in seeds]))
    return t, qcore._unchecked_states(t)


def _trial_thm1(seeds, tol):
    t, psis = _haar_stack(seeds)
    th = assistance.theorem1_stack(t)
    mincut = monotones.E2.eigenvalue_values(th.minima).min(axis=1)
    gap = np.abs(th.average - mincut)
    tol = effective_tol("thm1", tol)
    return [
        (True, {"gap": float(g), "mincut": float(mc)}, psi) if g <= tol else (False, {"gap": float(g)}, psi)
        for g, mc, psi in zip(gap, mincut, psis)
    ]


def _trial_thm2(seeds, tol):
    t = qcore.three_qubit_stack(states.thm2_rows([states.FamilySpec(kind="thm2", seed=seed) for seed in seeds]))
    c = assistance.lossless_classifiers(t, "A|BC", effective_tol("thm2", tol))
    return [
        (kind != "lossy", {"verdict": str(kind), "objective": float(obj)}, psi)
        for kind, obj, psi in zip(c.kinds, c.objectives, qcore._unchecked_states(t))
    ]


def prop2_instance(seed):
    """(H, probabilities, unitaries) of a random-unitary mixture; the first unitary is I.

    Even seeds rotate by unitaries diagonal in H's eigenbasis, so the mixture
    commutes with H; odd seeds use Haar unitaries.  The N = 1 call of
    ``prop2_instances``.
    """
    ((_, h, probs, us),) = prop2_instances([seed])
    return h[0], probs[0], list(us[0])


def prop2_instances(seeds) -> list:
    """``prop2_instance`` for each seed, grouped by mixture size n: a list of
    (rows, H (k, 2, 2), probabilities (k, n), unitaries (k, n, 2, 2)), where
    rows index the seeds.

    Per seed, only ``default_rng(seed)`` and its draws run: n, the
    probabilities, then H's eigenvalues and the rotation phases (even seeds)
    or H's Gaussian matrix and one seed per Haar unitary (odd seeds).  An even
    seed's eigenbasis V is ``haar_random_unitary(2, seed)``.  The unitaries,
    H, the rotations and the normalization run once over the stack, so every
    instance equals its one-seed draw bit for bit.
    """
    seeds = list(seeds)
    count = len(seeds)
    sizes = np.empty(count, dtype=int)
    probs = np.zeros((count, 3))
    evals, angles = np.zeros((count, 2)), np.zeros((count, 2, 2))
    g = np.zeros((count, 2, 2), dtype=complex)
    haar = []  # (row, slot, seed) of the odd seeds' Haar unitaries
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        n = sizes[i] = rng.integers(2, 4)
        probs[i, :n] = rng.uniform(0.1, 1.0, n)
        if seed % 2 == 0:
            evals[i] = rng.uniform(0.0, 1.0, 2)
            angles[i, : n - 1] = rng.uniform(0, 2 * np.pi, (n - 1, 2))
        else:
            g[i] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            haar += [(i, j, int(rng.integers(2**32))) for j in range(1, n)]
    h = np.empty((count, 2, 2), dtype=complex)
    us = np.zeros((count, 3, 2, 2), dtype=complex)
    us[:, 0] = np.eye(2)
    parity = np.array(seeds) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity)
    if even.size:
        v = qcore.haar_random_unitaries(2, [seeds[i] for i in even])
        vh = v.conj().swapaxes(-1, -2)
        h_evals = np.sort(evals[even], axis=-1)[:, ::-1]
        h[even] = v @ (h_evals[:, :, None] * np.eye(2)).astype(complex) @ vh
        phases = np.zeros((even.size, 2, 2, 2), dtype=complex)
        phases[..., 0, 0], phases[..., 1, 1] = np.exp(1j * angles[even]).transpose(2, 0, 1)
        us[even, 1:] = v[:, None] @ phases @ vh[:, None]
    h[odd] = 0.5 * (g[odd] + g[odd].conj().swapaxes(-1, -2))
    if haar:
        rows, slots, haar_seeds = zip(*haar)
        us[list(rows), list(slots)] = qcore.haar_random_unitaries(2, haar_seeds)
    groups = []
    for n in (2, 3):
        rows = np.flatnonzero(sizes == n)
        if rows.size:
            p = probs[rows, :n]
            groups.append((rows, h[rows], p / p.sum(axis=1, keepdims=True), us[rows, :n]))
    return groups


def _trial_prop2(seeds, tol):
    out = [None] * len(seeds)
    for rows, h, probs, us in prop2_instances(seeds):
        preserved, commutes = assistance.unital_fixed_point_checks(h, probs, us)
        # Shared-eigenvector consistency: each rotated copy keeps H's principal
        # eigenvector v as an eigenvector.
        v = np.linalg.eigh(h)[1][:, :, -1]
        terms = us @ h[:, None] @ us.conj().swapaxes(-1, -2)
        tv = np.einsum("knab,kb->kna", terms, v)
        resid = tv - np.einsum("ka,kna->kn", v.conj(), tv)[..., None] * v[:, None]
        consistent = np.all(np.linalg.norm(resid, axis=-1) <= 1e-9, axis=1)
        ok = (preserved == commutes) & (consistent | ~preserved)
        for row, ok_i, p_i, c_i in zip(rows, ok, preserved, commutes):
            out[row] = (bool(ok_i), {"preserved": bool(p_i), "commutes": bool(c_i)}, None)
    return out


def _eq21_stack(seeds):
    """The validated stack of the Eq. 21 states of the seeds, p and the
    overlap drawn from ``default_rng(seed)``, and its rows as witnesses."""
    draws = np.empty((len(seeds), 2))
    for row, seed in zip(draws, seeds):
        rng = np.random.default_rng(seed)
        row[:] = rng.uniform(0.1, 0.9), rng.uniform(-0.95, 0.95)
    t = qcore.three_qubit_stack(states.eq21_rows(draws[:, 0], draws[:, 1]))
    return t, qcore._unchecked_states(t)


def _trial_corollary(seeds, tol):
    """Each seed's Eq. 21 state must pass (i)-(iii) of ``corollary_checks``,
    and its Haar state (seed + 10^9) (i) iff (iii).  On a pure state
    (C_AC - C_BC)(C_AC + C_BC) = (E2_A - E2_B)(2 - E2_A - E2_B), so the Haar
    side decides (iii) at the scale of (i), on the E2 gap its concurrence
    gap implies: compared directly, an E2 gap just below tol can come with
    a concurrence gap several times above it.  The witness is the Eq. 21
    state where that fails, else the Haar state."""
    t, syms = _eq21_stack(seeds)
    tol = effective_tol("corollary", tol)
    reps = assistance.corollary_checks(t, tol)
    haar, psis = _haar_stack(seeds, 10**9)
    cuts, pairs = assistance._corollary_values(haar)
    haar_i = np.abs(cuts[:, 0] - cuts[:, 1]) <= tol
    haar_iii = np.abs(pairs[:, 0] - pairs[:, 1]) * pairs.sum(axis=1) <= tol * (2.0 - cuts.sum(axis=1))
    out = []
    for sym, rep, psi, i, iii in zip(syms, reps, psis, haar_i, haar_iii):
        symmetric = rep.i and rep.ii and rep.iii
        row = {"symmetric_all": symmetric, "haar_i": bool(i), "haar_iii": bool(iii)}
        out.append((bool(symmetric and i == iii), row, psi if symmetric else sym))
    return out


def mixed_marginal_density(seed) -> qcore.DensityMatrix:
    """Random two-qubit density matrix of rank 2 + seed % 3 with both marginals mixed.

    Redraws with the seed bumped by 10^7 until both marginals' minimum
    eigenvalues exceed 1e-6.  The N = 1 call of ``mixed_marginal_densities``.
    """
    return qcore.DensityMatrix.from_matrix(mixed_marginal_densities([seed])[0])


def mixed_marginal_densities(seeds) -> np.ndarray:
    """The entries (N, 4, 4) of ``mixed_marginal_density`` for each seed.

    Every round draws the pending rows in one ``random_density_matrices``
    call and tests their marginals in one stacked call; only the rows that
    fail are redrawn, with the next bump.  Validation is the caller's.
    """
    seeds = list(seeds)
    out = np.empty((len(seeds), 4, 4), dtype=complex)
    pending, bump = list(range(len(seeds))), 0
    while pending:
        rho = qcore.random_density_matrices(
            4, [2 + seeds[i] % 3 for i in pending], [seeds[i] + bump * 10**7 for i in pending]
        )
        mixed = qcore.min_marginal_eigenvalue(rho) > 1e-6
        out[[i for i, ok in zip(pending, mixed) if ok]] = rho[mixed]
        pending, bump = [i for i, ok in zip(pending, mixed) if not ok], bump + 1
    return out


def _trial_appendix_b(seeds, tol):
    entries = mixed_marginal_densities(seeds)
    ys = ensembles.entangled_stack(entries)
    weights = np.sum(ys.real**2 + ys.imag**2, axis=-1)
    element = weights >= 1e-14  # the elements an Ensemble keeps
    conc = np.min(ensembles._element_concurrences(ys), axis=1, where=element, initial=np.inf)
    recon = np.max(np.abs(np.einsum("nka,nkb->nab", ys, ys.conj()) - entries), axis=(1, 2))
    normalized = np.abs(np.sum(weights, axis=1, where=element) - 1.0) <= 1e-12
    purity = np.trace(entries @ entries, axis1=1, axis2=2).real
    s0 = ensembles._s0_values(qcore.min_marginal_eigenvalue(entries), purity > 1.0 - 1e-10)
    return [
        (bool(c > 0 and r <= 1e-10 and w_ok and v == 1.0), {"min_concurrence": float(c), "reconstruction": float(r)}, None)
        for c, r, w_ok, v in zip(conc, recon, normalized, s0)
    ]


def _trial_ckw(seeds, tol):
    t, psis = _haar_stack(seeds)
    pairs = monotones.pair_concurrences(t)
    cuts = monotones.cut_values(t, monotones.CONCURRENCE)
    tau = monotones._tangles(pairs, cuts)
    (_, c_ac, c_bc), (c_a, c_b) = pairs.T, cuts.T
    diff = np.abs((c_ac**2 - c_bc**2) - (c_a**2 - c_b**2))
    return [
        (bool(tau_i >= -1e-9 and d <= 1e-8), {"tau": float(tau_i), "difference_identity": float(d)}, psi)
        for tau_i, d, psi in zip(tau, diff, psis)
    ]


def _trial_eq37(seeds, tol):
    t, psis = _haar_stack(seeds)
    values, expected = assistance.eoa_densities(qcore.reduced_stack(t, (0, 1)))
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
