"""Pure-state ensemble machinery for two-qubit density matrices.

Three constructions live here:

* the purification-measurement realization of an arbitrary ensemble (every
  ensemble of rho arises from a measurement on a purifying system);
* the equal-concurrence decomposition: every two-qubit state has a pure
  decomposition in which each element's concurrence equals the mixed-state
  concurrence;
* the entangled decomposition: when both marginals are mixed, a decomposition
  exists in which every element is entangled, obtained by repeatedly mixing a
  product element with a partner through a 2x2 unitary.

Subnormalized vectors carry the weights: an element (w, |phi>) is stored while
working as y = sqrt(w)|phi>, whose "preconcurrence" y^T (sy x sy) y transforms
linearly under ensemble-mixing unitaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .monotones import MonotoneSpec, _preconcurrence_forms
from .qcore import (
    SIGMA_YY,
    DensityMatrix,
    InputError,
    PureState,
    _complex_pairs,
    _density_factors,
    _from_complex_pairs,
    _polar,
    _state_parts,
    _state_payload,
    _stiefel_ascent,
    min_marginal_eigenvalue,
)


@dataclass(frozen=True)
class Ensemble:
    """Probability-weighted pure states mixing to a declared target."""

    target: DensityMatrix
    elements: tuple  # (weight, PureState) pairs

    def __post_init__(self):
        elements = tuple((float(w), s) for w, s in self.elements)
        weights = np.array([w for w, _ in elements])
        if np.any(weights <= 0):
            raise InputError("ensemble weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InputError("ensemble weights must sum to 1")
        mix = sum(
            w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in elements
        )
        if np.max(np.abs(mix - self.target.entries)) > 1e-10:
            raise InputError("ensemble does not reconstruct its target")
        object.__setattr__(self, "elements", elements)


def _subnormalized(elements, target: DensityMatrix | None = None) -> Ensemble:
    """Build an Ensemble from subnormalized vectors, pruning null elements."""
    kept = []
    for y in elements:
        w = float(np.real(np.vdot(y, y)))
        if w < 1e-14:
            continue
        kept.append((w, PureState((2, 2), y / np.sqrt(w))))
    if target is None:
        total = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in kept)
        target = DensityMatrix.from_matrix(total)
    return Ensemble(target=target, elements=tuple(kept))


def _element_concurrences(ys: np.ndarray) -> np.ndarray:
    """Concurrence |y^T (sy x sy) y| / |y|^2 of the normalized element of each
    subnormalized vector of the stack ys (..., 4); 0 where |y|^2 < 1e-14."""
    w = (ys.real**2 + ys.imag**2).sum(axis=-1)
    pre = np.abs(np.sum((ys @ SIGMA_YY) * ys, axis=-1))
    return np.where(w < 1e-14, 0.0, pre / np.where(w < 1e-14, 1.0, w))


# ---------------------------------------------------------------------------
# Purification-measurement ensembles


def purification(rho: DensityMatrix, purifier_dim: int) -> np.ndarray:
    """dim x d amplitude matrix of the canonical purification against |c> kets:
    the ``_density_factors`` factor of rho, whose columns past the rank are 0,
    cut or padded with zero columns to d."""
    v = _density_factors(rho.entries[None])[0]
    rank = int(v.any(axis=0).sum())
    if purifier_dim < rank:
        raise InputError(
            f"purifier dimension {purifier_dim} is below the state rank {rank}"
        )
    psi = np.zeros((rho.dim, purifier_dim), dtype=complex)
    psi[:, :rank] = v[:, :rank]
    return psi


def _pure_branches(psi_mat: np.ndarray, elements) -> np.ndarray:
    """The subnormalized branches sqrt(w_x) |phi_x> (K, d) left by measuring
    the Kraus elements E_x (m, n) on the system that indexes the columns of
    the amplitude matrix psi_mat (d, n), read off the blocks psi_mat E_x^T
    (d, m); outcomes of weight w_x < 1e-14 are dropped.  Elements with fewer
    rows are padded with zero rows, which add zero columns to a block.

    A branch's d-side state is pure iff its block has rank 1, i.e. the Gram
    matrix G of its columns has tr(G^2) = w_x^2; then every nonzero column
    is |phi_x> up to a scalar, and the longest one, scaled to norm
    sqrt(w_x), is the branch.  Raises ``InputError`` on a mixed branch.
    """
    height = max(len(e) for e in elements)
    kraus = np.array([np.pad(e, ((0, height - len(e)), (0, 0))) for e in elements], dtype=complex)
    mats = psi_mat @ kraus.swapaxes(-1, -2)
    gram = mats.conj().swapaxes(-1, -2) @ mats
    w = np.trace(gram, axis1=-2, axis2=-1).real
    live = w >= 1e-14
    mats, gram, w = mats[live], gram[live], w[live]
    if np.any(np.einsum("kij,kji->k", gram, gram).real / w**2 < 1.0 - 1e-10):
        raise InputError("measurement branch is mixed; rank-1 elements are required")
    lengths = np.diagonal(gram, axis1=-2, axis2=-1).real
    longest = np.argmax(lengths, axis=1)
    rows = np.arange(len(mats))
    return mats[rows, :, longest] * np.sqrt(w / lengths[rows, longest])[:, None]


def hjw_ensemble(rho: DensityMatrix, meas) -> Ensemble:
    """Ensemble of rho induced by measuring the canonical purifier: the
    ``_pure_branches`` of its purification."""
    return _subnormalized(_pure_branches(purification(rho, meas.dim), meas.elements), target=rho)


# ---------------------------------------------------------------------------
# Equal-concurrence decomposition


def _takagi(tau: np.ndarray):
    """Autonne-Takagi factorization of a complex symmetric matrix.

    Returns orthonormal columns c_k and values s_k >= 0 (descending) with
    tau conj(c_k) = s_k c_k.  Uses the real embedding M = [[X, Y], [Y, -X]]
    for tau = X + iY: if M(u; w) = s(u; w) then c = u + iw works, and the
    anticommuting J = [[0, I], [-I, 0]] pairs each +s eigenvector with a -s
    one, which keeps an orthonormal selection possible even at s = 0.
    """
    r = tau.shape[0]
    x, y = tau.real, tau.imag
    x = 0.5 * (x + x.T)
    y = 0.5 * (y + y.T)
    m = np.block([[x, y], [y, -x]])
    evals, evecs = np.linalg.eigh(m)
    order = np.argsort(evals)[::-1]
    jmat = np.block(
        [[np.zeros((r, r)), np.eye(r)], [-np.eye(r), np.zeros((r, r))]]
    )
    selected = []
    for idx in order:
        if len(selected) == r:
            break
        z = evecs[:, idx].copy()
        for zs in selected:
            z -= (zs @ z) * zs
            jz = jmat @ zs
            z -= (jz @ z) * jz
        nz = np.linalg.norm(z)
        if nz < 0.5:
            continue
        selected.append(z / nz)
    if len(selected) < r:
        raise ArithmeticError("Takagi selection failed to span the support")
    values = np.array([max(0.0, float(z @ m @ z)) for z in selected])
    order2 = np.argsort(values)[::-1]
    cols = np.column_stack([selected[i][:r] + 1j * selected[i][r:] for i in order2])
    return cols, values[order2]


def _preconcurrence_diagonal_vectors(rho: DensityMatrix):
    """Subnormalized vectors x_k with x_j^T (sy x sy) x_k = s_k delta_jk."""
    v = purification(rho, 4)
    v = v[:, : int(v.any(axis=0).sum())]
    cols, values = _takagi(_preconcurrence_forms(v))
    xs = [v @ cols[:, k].conj() for k in range(cols.shape[1])]
    return xs, values


def equal_concurrence_decomposition(rho: DensityMatrix) -> Ensemble:
    """Pure decomposition whose elements all share the mixed concurrence."""
    if rho.dim != 4:
        raise InputError("expected a two-qubit density matrix")
    xs, values = _preconcurrence_diagonal_vectors(rho)
    r = len(xs)
    c_raw = values[0] - values[1:].sum()
    if r == 1:
        return _subnormalized(xs, target=rho)
    if c_raw > 1e-12:
        ys = [xs[0]] + [1j * x for x in xs[1:]]
        ys = _equalize_ratios(ys, c_raw)
    else:
        ys = _zero_concurrence_mix(xs, values)
    return _subnormalized(ys, target=rho)


def _equalize_ratios(ys, target):
    """Pairwise real rotations driving every element's concurrence to target.

    The signed preconcurrence matrix is real diagonal at entry and stays real
    symmetric under real rotations; its trace (= target) is invariant, so the
    largest normalized preconcurrence is at least target and the smallest at
    most, and ``_equalizing_angle`` mixes the two into one at target.
    """
    ys = [y.copy() for y in ys]
    unlocked = list(range(len(ys)))
    while len(unlocked) > 1:
        ratios = {
            j: float(np.real(ys[j] @ SIGMA_YY @ ys[j])) / float(np.real(np.vdot(ys[j], ys[j])))
            for j in unlocked
        }
        a = max(unlocked, key=lambda j: ratios[j])
        b = min(unlocked, key=lambda j: ratios[j])
        if ratios[a] - ratios[b] < 1e-13:
            break
        ya, yb = ys[a], ys[b]
        theta = _equalizing_angle(ya, yb, target)
        new_a = np.cos(theta) * ya + np.sin(theta) * yb
        new_b = -np.sin(theta) * ya + np.cos(theta) * yb
        ys[a], ys[b] = new_a, new_b
        unlocked.remove(a)
    return ys


def _equalizing_angle(ya: np.ndarray, yb: np.ndarray, target: float) -> float:
    """The theta in [0, pi/2] at which v = cos(theta) ya + sin(theta) yb has
    Re(v^T (sy x sy) v) / |v|^2 = target, for ya at or above target and yb at
    or below.

    P - target N is the real quadratic form A c^2 + 2B cs + C s^2 in
    (c, s) = (cos theta, sin theta), with A >= 0 >= C; rounding on the wrong
    side of the target counts as 0.  Its root in [0, pi/2] is
    tan(theta) = A / (sqrt(B^2 - AC) - B), read where B > 0 as
    A (B + sqrt(B^2 - AC)) / (-AC) so that neither form subtracts nearly
    equal terms.  It is 0 at A = 0, and a root of the form at C = 0 too.
    """

    def form(x, y):
        return float(np.real(x @ SIGMA_YY @ y)) - target * float(np.real(np.vdot(x, y)))

    a, b, c = max(form(ya, ya), 0.0), form(ya, yb), min(form(yb, yb), 0.0)
    root = np.sqrt(b * b - a * c)
    if b <= 0.0:
        return float(np.arctan2(a, root - b))
    return float(np.arctan2(a * (b + root), abs(a * c)))

def _zero_concurrence_mix(xs, values):
    """Phases cancelling the total preconcurrence, then an unbiased mixing."""
    xs = list(xs) + [np.zeros(4, dtype=complex)] * (4 - len(xs))
    s = np.zeros(4)
    s[: len(values)] = values
    phis = _closing_polygon_angles(s[0], s[1], s[2] + s[3])
    phases = np.exp(0.5j * np.array([phis[0], phis[1], phis[2], phis[2]]))
    zs = [phases[k] * xs[k] for k in range(4)]
    if len(values) <= 2 and s[1] < 1e-14:
        o = np.eye(4)
        o[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    else:
        o = (
            np.array(
                [
                    [1, 1, 1, 1],
                    [1, -1, 1, -1],
                    [1, 1, -1, -1],
                    [1, -1, -1, 1],
                ],
                dtype=float,
            )
            / 2.0
        )
    return [sum(o[j, k] * zs[k] for k in range(4)) for j in range(4)]


def _closing_polygon_angles(a, b, c):
    """Angles (0, phi_b, phi_c) making a + b e^{i phi_b} + c e^{i phi_c} = 0.

    Requires the triangle inequality a <= b + c with a >= b >= 0, which is
    exactly the zero-concurrence condition on the sorted preconcurrence values.
    """
    if a < 1e-14:
        return 0.0, 0.0, 0.0
    if b < 1e-14:
        # Then c must match a alone.
        return 0.0, 0.0, np.pi
    cos_beta = np.clip((a * a + b * b - c * c) / (2.0 * a * b), -1.0, 1.0)
    beta = np.arccos(cos_beta)
    v2 = b * np.exp(1j * (np.pi - beta))
    v3 = -(a + v2)
    return 0.0, np.pi - beta, float(np.angle(v3))


# ---------------------------------------------------------------------------
# Entangled decomposition

# Fixed low-discrepancy angle sequence for the 2x2 mixing search (golden-ratio
# and plastic-number rotations of the unit square).
_MIX_SAMPLES = [(0.25 * np.pi, 0.0), (0.25 * np.pi, 0.5 * np.pi)] + [
    (
        0.5 * np.pi * ((0.5 + 0.6180339887498949 * i) % 1.0),
        2.0 * np.pi * ((0.7548776662466927 * i) % 1.0),
    )
    for i in range(1, 63)
]


def entangled_decomposition(rho: DensityMatrix) -> Ensemble:
    """Decomposition with every element entangled; needs both marginals mixed.

    The N = 1 call of ``entangled_stack``."""
    return _subnormalized(entangled_stack([rho])[0], target=rho)


def entangled_stack(rhos) -> np.ndarray:
    """The subnormalized elements of ``entangled_decomposition`` for each of a
    sequence of two-qubit density matrices, or of their entries (N, 4, 4),
    which are checked as ``DensityMatrix`` checks one, as rows (N, 4, 4): row
    k of entry n is sqrt(w_k) |phi_k>, and the rows past the rank are zero.

    The elements start as the columns of one ``_density_factors`` factor;
    only the matrices with a product element among them (concurrence <= 1e-6)
    go through the mixing search.  Raises ``InputError`` unless every matrix
    has both marginals mixed.
    """
    if isinstance(rhos, np.ndarray):
        if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
            raise InputError("expected a two-qubit density matrix")
        entries = np.asarray(rhos, dtype=complex)
    else:
        if any(rho.dim != 4 for rho in rhos):
            raise InputError("expected a two-qubit density matrix")
        entries = np.array([rho.entries for rho in rhos])
    ys = np.ascontiguousarray(_density_factors(entries).swapaxes(-1, -2))
    if np.any(min_marginal_eigenvalue(entries) <= 1e-9):
        raise InputError(
            "a reduced state is pure; no fully entangled decomposition exists"
        )
    support = ys.any(axis=-1)
    products = support & (_element_concurrences(ys) <= 1e-6)
    for n in np.flatnonzero(products.any(axis=1)):
        rank = int(support[n].sum())
        ys[n, :rank] = _eliminate_products(list(ys[n, :rank]))
    return ys


def _eliminate_products(ys: list) -> list:
    """Mix the product elements of ys away, one at a time, in place."""
    for _ in range(len(ys) + 2):
        product_idx = np.flatnonzero(_element_concurrences(np.array(ys)) <= 1e-6)
        if not product_idx.size:
            return ys
        if not _eliminate_product(ys, int(product_idx[0])):
            raise ArithmeticError("no mixing partner eliminated the product element")
    raise ArithmeticError("product elimination did not terminate")


def _eliminate_product(ys, j) -> bool:
    """Mix element j with some partner so both mixtures become entangled."""
    conc = _element_concurrences(np.array(ys))
    partners = sorted((k for k in range(len(ys)) if k != j), key=lambda k: -conc[k])
    for k in partners:
        if conc[k] <= 1e-6 and _same_product_ray(ys[j], ys[k]):
            continue
        for theta, phi in _MIX_SAMPLES:
            c, s = np.cos(theta), np.sin(theta)
            new_j = c * ys[j] + s * np.exp(1j * phi) * ys[k]
            new_k = -s * np.exp(-1j * phi) * ys[j] + c * ys[k]
            if np.all(_element_concurrences(np.array([new_j, new_k])) > 1e-6):
                ys[j], ys[k] = new_j, new_k
                return True
    return False


def _same_product_ray(y1, y2) -> bool:
    """True when two product vectors share both local factors (up to phase)."""
    m1 = y1.reshape(2, 2)
    m2 = y2.reshape(2, 2)
    u1, _, v1 = np.linalg.svd(m1)
    u2, _, v2 = np.linalg.svd(m2)
    return (
        abs(np.vdot(u1[:, 0], u2[:, 0])) > 1.0 - 1e-8
        and abs(np.vdot(v1[0], v2[0])) > 1.0 - 1e-8
    )


def s0_assistance(rho: DensityMatrix) -> float:
    """Assisted value of the rank step measure: 1 iff an all-entangled ensemble exists."""
    if rho.dim != 4:
        raise InputError("expected a two-qubit density matrix")
    lam = min_marginal_eigenvalue(rho.entries)
    if lam > 1e-9:
        entangled_decomposition(rho)  # existence is the certificate
    return float(_s0_values(np.array([lam]), np.array([rho.purity() > 1.0 - 1e-10]))[0])


def _s0_values(lam: np.ndarray, pure: np.ndarray) -> np.ndarray:
    """``s0_assistance`` of two-qubit density matrices with smaller marginal
    eigenvalues ``lam`` and purity tests ``pure`` (purity above 1 - 1e-10),
    whose all-entangled decomposition has been built wherever lam > 1e-9.

    A pure state's only ensemble is itself, so it scores the s0 measure of
    lam; a mixed one scores 1 where lam > 1e-9, as its decomposition exists.
    """
    return np.where(pure, MonotoneSpec("s0").eigenvalue_values(lam), lam > 1e-9).astype(float)


# ---------------------------------------------------------------------------
# JSON serialization


def ensemble_to_json(ens: Ensemble) -> str:
    payload = {
        "target": _complex_pairs(ens.target.entries),
        "elements": [{"weight": w, "state": _state_payload(s)} for w, s in ens.elements],
    }
    return json.dumps(payload, sort_keys=True)


def ensemble_from_json(text: str) -> Ensemble:
    try:
        payload = json.loads(text)
        target = DensityMatrix.from_matrix(_from_complex_pairs(payload["target"]))
        elements = tuple(
            (float(e["weight"]), PureState(*_state_parts(e["state"])))
            for e in payload["elements"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed ensemble file: {exc}") from exc
    return Ensemble(target=target, elements=elements)


# ---------------------------------------------------------------------------
# Brute-force convex roof (independent cross-check for the closed formula)


def _roof_value_grad(w: np.ndarray, psi: np.ndarray):
    """Negated total preconcurrence modulus of the ensemble each isometry of the
    stack w (K, r, 4) draws from the purification psi (4, r), and its Euclidean
    gradient (K, r, 4), dF = Re tr(G^dag dW).

    Element i is the subnormalized z_i = psi conj(w_i), w_i the i-th column, and
    its weighted concurrence is |c_i| with c_i = z_i^T (sy x sy) z_i.  Column i
    of G is -2 psi^T (sy x sy) z_i conj(c_i) / |c_i| (Audenaert, Verstraete &
    De Moor, PRA 2001), with the phase taken as 0 where c_i = 0.
    """
    z = psi @ w.conj()
    flipped = SIGMA_YY @ z
    c = np.einsum("kai,kai->ki", z, flipped)
    modulus = np.abs(c)
    phase = np.divide(c.conj(), modulus, out=np.zeros_like(c), where=modulus > 0.0)
    return -modulus.sum(axis=1), -2.0 * (psi.T @ flipped) * phase[:, None, :]


def convex_roof_concurrence(rho: DensityMatrix, starts: int = 6, max_evals: int = 4000, seed: int = 0) -> float:
    """Minimize the average pure concurrence over 4-element ensembles.

    Parameterizes ensembles through isometries W (r x 4, W W^dag = I) on the
    purifier (every ensemble arises that way); purely random multi-starts, and
    no stop target, so the result is independent of the closed-form
    construction it cross-checks.  The starts climb together through
    ``_stiefel_ascent``, ``max_evals`` value-and-gradient evaluations each;
    the purifier's eigenbasis is scored with their end points.
    """
    psi = purification(rho, 4)
    r = max(2, int(psi.any(axis=0).sum()))
    psi = psi[:, :r]
    x0 = np.random.default_rng(seed).standard_normal((starts, 8 * r))
    w0 = _polar((x0[:, : 4 * r] + 1j * x0[:, 4 * r :]).reshape(-1, r, 4))
    ends = _stiefel_ascent(lambda w: _roof_value_grad(w, psi), w0, max_evals, np.inf)
    eye = np.eye(r, 4, dtype=complex)[None]
    return float(-_roof_value_grad(np.vstack([eye, ends]), psi)[0].max())
