"""Optimal decoupling measurements for a three-qubit helper scenario.

The central objects are a commuting Charlie basis (conditional marginals on a
chosen side commute), the constructive optimal measurement for the E2 measure,
a numeric lower-bound optimizer over rank-1 POVMs, and the classifier that
decides whether the helper can decouple without loss for strictly concave
monotones.

Much of the geometry lives on the Bloch sphere.  For a two-qubit reduction
rho^{XC} with Pauli data (a, b, T) -- a the X-side Bloch vector, b the C-side
Bloch vector, T the 3x3 correlation matrix -- measuring C along the antipodal
directions +/-n produces conditional X-marginals with unnormalized Bloch parts
(a +/- T n)/2 and weights (1 +/- b.n)/2.  Two facts follow directly:

* the conditional marginals commute iff a x (T n) = 0, which is solved in
  closed form (n parallel to T^-1 a, or a null vector of T);
* both conditional marginals equal the global marginal iff (T - a b^T) n = 0,
  so the marginal-preserving basis of the lossless classifier is a null
  vector of that 3x3 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .monotones import E2, MonotoneSpec, cut_entanglement
from .qcore import (
    PAULIS,
    DensityMatrix,
    InputError,
    PureState,
    eig_hermitian,
    min_marginal_eigenvalue,
    pauli_coefficients,
    reduced_density,
)


class VerificationError(Exception):
    """A theorem check failed; carries the offending state and the gap."""

    def __init__(self, message, state=None, gap=None):
        super().__init__(message)
        self.state = state
        self.gap = gap


@dataclass(frozen=True)
class Measurement:
    """Finite list of Kraus elements on one subsystem of a pure state."""

    subsystem: int
    elements: tuple

    def __post_init__(self):
        elements = tuple(np.asarray(m, dtype=complex) for m in self.elements)
        if not 1 <= len(elements) <= 4:
            raise InputError("measurement must have between 1 and 4 elements")
        dim = elements[0].shape[0]
        total = sum(m.conj().T @ m for m in elements)
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise InputError("measurement elements do not satisfy completeness")
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @staticmethod
    def projective(basis: np.ndarray, subsystem: int = 2) -> "Measurement":
        """Projectors onto the columns of ``basis``."""
        elems = tuple(
            np.outer(basis[:, k], basis[:, k].conj()) for k in range(basis.shape[1])
        )
        return Measurement(subsystem=subsystem, elements=elems)

    @staticmethod
    def trivial(dim: int = 2, subsystem: int = 2) -> "Measurement":
        return Measurement(subsystem=subsystem, elements=(np.eye(dim, dtype=complex),))


@dataclass(frozen=True)
class CommutingBasisResult:
    """Charlie basis whose conditional reduced states on one side commute."""

    side: str
    basis: np.ndarray  # columns are the Charlie kets
    probabilities: np.ndarray
    conditional_states: tuple  # normalized conditional AB density matrices on the side
    operators: tuple  # the branch operators (A_k or B_k)
    bloch_vectors: tuple
    alignment: str  # "parallel" | "antiparallel"
    residual: float
    decoupled: bool


@dataclass(frozen=True)
class EBasisResult:
    """Orthonormal Charlie basis splitting two non-orthogonal branch kets."""

    eta0: np.ndarray
    eta1: np.ndarray
    theta: float
    e0: np.ndarray
    e1: np.ndarray
    p: float


@dataclass(frozen=True)
class LosslessVerdict:
    kind: str  # "decoupled" | "lossless" | "lossy"
    certificate: dict
    objective: float


@dataclass
class SearchBudget:
    """Evaluation budget for the derivative-free POVM searches."""

    random_starts: int = 8
    max_evals: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.random_starts < 0 or self.max_evals < 0:
            raise InputError(
                f"search budget needs random_starts >= 0 and max_evals >= 0, "
                f"got {self.random_starts} and {self.max_evals}"
            )


SMALL_BUDGET = SearchBudget(random_starts=1, max_evals=400, seed=0)

_AB_PURE_TOL = 1e-12  # purity threshold for "Charlie already decoupled"


def _pauli_data(psi: PureState, side: str):
    """(a, b, T) for the two-qubit reduction rho^{XC} with X = A or B."""
    keep = (0, 2) if side == "A" else (1, 2)
    r = pauli_coefficients(reduced_density(psi, keep).entries)
    return r[1:, 0], r[0, 1:], r[1:, 1:]


def _ket_from_direction(n: np.ndarray) -> np.ndarray:
    """Qubit ket with Bloch vector n (unit)."""
    nz = np.clip(n[2], -1.0, 1.0)
    t = np.arccos(nz)
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    if s < 1e-16:
        return np.array([c, 0.0], dtype=complex) if nz > 0 else np.array([0.0, 1.0], dtype=complex)
    phi = np.arctan2(n[1], n[0])
    return np.array([c, np.exp(1j * phi) * s], dtype=complex)


def _antipodal_basis(n: np.ndarray) -> np.ndarray:
    n = n / np.linalg.norm(n)
    k0 = _ket_from_direction(n)
    k1 = np.array([-np.conj(k0[1]), np.conj(k0[0])], dtype=complex)
    return np.column_stack([k0, k1])


def _branch_matrices(psi: PureState, basis: np.ndarray):
    """Unnormalized 2x2 branch matrices M_k (A row, B column) per Charlie ket."""
    t = psi.tensor_view()
    return [np.tensordot(t, basis[:, k].conj(), axes=([2], [0])) for k in range(basis.shape[1])]


def _conditional_marginals(psi: PureState, basis: np.ndarray, side: str):
    """Branch matrices, their probabilities, and the normalized conditional
    marginals on ``side`` (None where p < 1e-14) of measuring C in ``basis``."""
    mats = _branch_matrices(psi, basis)
    probs = np.array([np.real(np.trace(m @ m.conj().T)) for m in mats])
    conds = [
        None if p < 1e-14 else (m @ m.conj().T if side == "A" else m.T @ m.conj()) / p
        for m, p in zip(mats, probs)
    ]
    return mats, probs, conds


def _candidate_directions(a: np.ndarray, T: np.ndarray):
    """Unit directions n solving a x (T n) = 0."""
    candidates = []
    if np.linalg.norm(a) < 1e-13:
        # Any direction works; pick the principal axis of T for reproducibility.
        _, _, vt = np.linalg.svd(T)
        candidates.append(vt[0])
        candidates.append(np.array([0.0, 0.0, 1.0]))
    else:
        u, s, vt = np.linalg.svd(T)
        if s[2] > 1e-13:
            n = np.linalg.solve(T, a)
            candidates.append(n / np.linalg.norm(n))
        if s[2] < 1e-7:
            candidates.append(vt[2])
    return candidates


def _basis_result(psi: PureState, basis: np.ndarray, side: str, decoupled: bool):
    mats, probs, marginals = _conditional_marginals(psi, basis, side)
    conds = [0.5 * np.eye(2, dtype=complex) if c is None else c for c in marginals]
    blochs = [
        np.zeros(3) if c is None else pauli_coefficients(DensityMatrix.from_matrix(c).entries)[1:]
        for c in marginals
    ]
    comm = conds[0] @ conds[1] - conds[1] @ conds[0]
    residual = float(np.linalg.norm(comm))
    r1, r2 = blochs
    n1, n2 = np.linalg.norm(r1), np.linalg.norm(r2)
    if min(n1, n2) < 1e-11:
        alignment = "parallel"  # zero vectors count as parallel
    elif float(np.dot(r1, r2)) >= 0.0:
        alignment = "parallel"
    else:
        alignment = "antiparallel"
    operators = tuple(m if side == "A" else m.T for m in mats)
    return CommutingBasisResult(
        side=side,
        basis=basis,
        probabilities=probs,
        conditional_states=tuple(conds),
        operators=operators,
        bloch_vectors=tuple(blochs),
        alignment=alignment,
        residual=residual,
        decoupled=decoupled,
    )


def commuting_charlie_basis(psi: PureState, side: str) -> CommutingBasisResult:
    """Find an orthonormal Charlie basis with commuting conditional marginals."""
    if side not in ("A", "B"):
        raise InputError("side must be 'A' or 'B'")
    if psi.dims != (2, 2, 2):
        raise InputError("expected a three-qubit state")
    return _commuting_basis(psi, side, reduced_density(psi, (0, 1)).purity() > 1.0 - _AB_PURE_TOL)


def _commuting_basis(psi: PureState, side: str, decoupled: bool) -> CommutingBasisResult:
    """``commuting_charlie_basis`` on a validated state whose AB purity test
    (``decoupled``) the caller has already made."""
    a, _, T = _pauli_data(psi, side)
    results = []
    for n in _candidate_directions(a, T):
        results.append(_basis_result(psi, _antipodal_basis(n), side, decoupled))
    good = [r for r in results if r.residual <= 1e-9]
    if good:
        parallel = [r for r in good if r.alignment == "parallel"]
        return parallel[0] if parallel else good[0]
    # Fall back to a short local search; the solution is guaranteed to exist.
    best = min(results, key=lambda r: r.residual)
    refined = _refine_basis_residual(psi, side, best, decoupled)
    if refined.residual <= 1e-9:
        return refined
    raise ArithmeticError(
        f"commuting-basis search stalled at residual {refined.residual:.3e}"
    )


def _refine_basis_residual(psi, side, seed_result, decoupled):
    def objective(x):
        return _basis_result(psi, _basis_at_angles(x), side, decoupled).residual

    x0 = _ket_angles(seed_result.basis[:, 0])
    res = minimize(objective, x0, method="Nelder-Mead", options={"maxfev": 400, "xatol": 1e-12, "fatol": 1e-14})
    return _basis_result(psi, _basis_at_angles(res.x), side, decoupled)


def _ket_angles(k: np.ndarray) -> np.ndarray:
    """Polar and azimuthal angles of the Bloch vector of the qubit ket k."""
    n = pauli_coefficients(np.outer(k, k.conj()))[1:]
    return np.array([np.arccos(np.clip(n[2], -1, 1)), np.arctan2(n[1], n[0])])


def _basis_at_angles(x: np.ndarray) -> np.ndarray:
    """Antipodal basis along the direction with polar and azimuthal angles x."""
    n = np.array([np.sin(x[0]) * np.cos(x[1]), np.sin(x[0]) * np.sin(x[1]), np.cos(x[0])])
    return _antipodal_basis(n)


def e_basis_from_etas(eta0: np.ndarray, eta1: np.ndarray, p: float) -> EBasisResult:
    """Split two normalized (not necessarily orthogonal) kets symmetrically.

    The relative phase of eta1 is absorbed so the overlap is real in [0, 1];
    then eta0 = cos(theta) e0 + sin(theta) e1 and eta1 = cos(theta) e0 -
    sin(theta) e1 for theta = arccos(overlap)/2.
    """
    g = np.vdot(eta0, eta1)
    if abs(g) > 1e-14:
        eta1 = eta1 * (np.conj(g) / abs(g))
    overlap = float(np.clip(abs(g), 0.0, 1.0))
    theta = 0.5 * np.arccos(overlap)
    e0 = eta0 + eta1
    e0 = e0 / np.linalg.norm(e0)
    diff = eta0 - eta1
    nd = np.linalg.norm(diff)
    if nd < 1e-12:
        # Degenerate: kets coincide, pick any orthogonal completion.
        e1 = np.array([-np.conj(e0[1]), np.conj(e0[0])], dtype=complex)
    else:
        e1 = diff / nd
    return EBasisResult(eta0=eta0, eta1=eta1, theta=theta, e0=e0, e1=e1, p=p)


def _eq21_measurement(psi: PureState, res_a: CommutingBasisResult):
    """Charlie basis for the doubly anti-parallel case.

    Rotates both branches into the shared Schmidt frame of the first branch,
    where the state takes the form sqrt(p)|00>|eta0> + sqrt(1-p)|11>|eta1>,
    then measures the symmetric/antisymmetric combination basis of the etas.
    """
    mats = _branch_matrices(psi, res_a.basis)
    # Use the branch with the larger Bloch vector for the (non-degenerate) SVD frame.
    order = (0, 1)
    if np.linalg.norm(res_a.bloch_vectors[1]) > np.linalg.norm(res_a.bloch_vectors[0]):
        order = (1, 0)
    m_ref = mats[order[0]]
    u, _, vh = np.linalg.svd(m_ref)
    rotated = [u.conj().T @ mats[k] @ vh.conj().T for k in range(2)]
    eta0_c = np.array([rotated[0][0, 0], rotated[1][0, 0]])
    eta1_c = np.array([rotated[0][1, 1], rotated[1][1, 1]])
    p = float(np.linalg.norm(eta0_c) ** 2)
    q = float(np.linalg.norm(eta1_c) ** 2)
    scale = p + q  # off-diagonal leakage is numerical noise
    p, q = p / scale, q / scale
    if min(p, q) < 1e-14:
        return Measurement.trivial(), None
    eb = e_basis_from_etas(eta0_c / np.sqrt(p * scale), eta1_c / np.sqrt(q * scale), p)
    # e-basis coefficients are in the commuting Charlie basis; map back.
    e0 = res_a.basis @ eb.e0
    e1 = res_a.basis @ eb.e1
    return Measurement.projective(np.column_stack([e0, e1])), eb


def theorem1_measurement(psi: PureState):
    """Constructive measurement on Charlie that is optimal for the E2 measure.

    Returns the measurement and its achieved average post-measurement E2,
    which equals min(E2 across A|BC, E2 across B|AC).
    """
    meas, avg, _, _ = _theorem1(psi)
    return meas, avg


def _theorem1(psi: PureState):
    """``theorem1_measurement`` plus the two E2 cuts its average is checked
    against: (measurement, average, E2 across A|BC, E2 across B|AC)."""
    if psi.dims != (2, 2, 2):
        raise InputError("expected a three-qubit state")
    cut_a = cut_entanglement(psi, "A|BC", E2)
    cut_b = cut_entanglement(psi, "B|AC", E2)
    decoupled = reduced_density(psi, (0, 1)).purity() > 1.0 - _AB_PURE_TOL
    if decoupled:
        meas = Measurement.trivial()
        return meas, average_post_measurement(psi, meas, E2), cut_a, cut_b
    res_a = _commuting_basis(psi, "A", decoupled)
    if res_a.alignment == "parallel":
        meas = Measurement.projective(res_a.basis)
    else:
        res_b = _commuting_basis(psi, "B", decoupled)
        if res_b.alignment == "parallel":
            meas = Measurement.projective(res_b.basis)
        else:
            meas, _ = _eq21_measurement(psi, res_a)
    avg = average_post_measurement(psi, meas, E2)
    if abs(avg - min(cut_a, cut_b)) > 5e-8 and len(meas.elements) == 2:
        # Rare near-degenerate geometry: polish the projective basis locally.
        meas2 = _polish_projective(psi, meas)
        avg2 = average_post_measurement(psi, meas2, E2)
        if avg2 > avg:
            meas, avg = meas2, avg2
    return meas, avg, cut_a, cut_b


def _polish_projective(psi: PureState, meas: Measurement) -> Measurement:
    def negavg(x):
        return -average_post_measurement(psi, Measurement.projective(_basis_at_angles(x)), E2)

    x0 = _ket_angles(_principal_vector(meas.elements[0]))
    res = minimize(negavg, x0, method="Nelder-Mead", options={"maxfev": 200, "xatol": 1e-12, "fatol": 1e-14})
    return Measurement.projective(_basis_at_angles(res.x))


def _principal_vector(matrix: np.ndarray) -> np.ndarray:
    _, evecs = np.linalg.eigh(matrix)
    return evecs[:, -1]


def average_post_measurement(psi: PureState, meas: Measurement, m: MonotoneSpec) -> float:
    """Sum_x p_x E(phi_x) over the normalized post-measurement AB states.

    Branches whose AB reduction is not pure (the measurement element leaves C
    correlated) raise rather than silently evaluating a pure-state monotone.
    """
    n_c = psi.dims[2]
    if meas.dim != n_c:
        raise InputError("measurement dimension does not match Charlie's system")
    t = psi.tensor_view()
    total = 0.0
    for elem in meas.elements:
        branch = np.einsum("cd,abd->abc", elem, t)
        p = float(np.sum(np.abs(branch) ** 2))
        if p < 1e-14:
            continue
        mat = branch.reshape(4, n_c)
        rho_ab = mat @ mat.conj().T / p
        purity = float(np.real(np.trace(rho_ab @ rho_ab)))
        if purity < 1.0 - 1e-10:
            raise InputError(
                "measurement branch leaves a mixed AB state; use rank-1 elements"
            )
        evals, evecs = np.linalg.eigh(rho_ab)
        phi = PureState((2, 2), evecs[:, -1])
        total += p * _pure_two_qubit_value(phi, m)
    return float(total)


def _pure_two_qubit_value(phi: PureState, m: MonotoneSpec) -> float:
    mat = phi.amplitudes.reshape(2, 2)
    evals, _ = eig_hermitian(mat @ mat.conj().T)
    return m.eigenvalue_fn(float(np.clip(evals[-1], 0.0, 0.5)))


# ---------------------------------------------------------------------------
# Numeric EoA oracle


# scipy's non-adaptive Nelder-Mead (rho, chi, psi, sigma) = (1, 2, 1/2, 1/2)
# places each trial point at c * xbar - d * x_worst, xbar the centroid of the
# other vertices; these (c, d) reproduce scipy's arithmetic bit for bit.
_NM_REFLECT = (2.0, 1.0)
_NM_EXPAND = (3.0, 2.0)
_NM_CONTRACT_OUT = (1.5, 0.5)
_NM_CONTRACT_IN = (0.5, -0.5)
_NM_SHRINK = 0.5


def _sorted_simplices(sim: np.ndarray, fsim: np.ndarray):
    """The simplices with their vertices ordered by value, best first."""
    order = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, order], fsim[rows, order]


def _lockstep_nelder_mead(
    fun, x0: np.ndarray, maxfev: int, xatol: float, fatol: float, target: float | None = None
) -> np.ndarray:
    """Minimize ``fun`` from every row of ``x0`` at once; return each start's best vertex.

    Start k follows scipy's ``minimize(fun_k, x0[k], method="Nelder-Mead",
    options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})`` step for
    step, and row k of the result is its ``x``: the same initial simplex
    (each coordinate stepped by 5%, or to 0.00025 where it is zero), the same
    coefficients and convergence test, ``maxfev`` evaluations per start, and
    the same handling of a budget that runs out inside an iteration (the
    pending update is dropped; shrunk vertices beyond the budget keep their
    old values).  ``fun`` maps a stack (M, N) of points to their M values.
    Each phase of an iteration makes one call over every start still running:
    the reflection, then the expansion or contraction, then the shrink.

    With a ``target``, every start stops at the top of the first iteration
    where some start's best vertex scores ``target`` or less; without one
    (or while no start reaches it) the search is scipy's.
    """

    def evaluate(points):
        return fun(points) if len(points) else np.empty(0)

    k_starts, n = x0.shape
    diag = np.arange(n)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full((k_starts, n + 1), np.inf)
    n_init = min(n + 1, maxfev)
    fsim[:, :n_init] = evaluate(sim[:, :n_init].reshape(-1, n)).reshape(k_starts, n_init)
    sim, fsim = _sorted_simplices(*_sorted_simplices(sim, fsim))  # scipy sorts twice here
    if maxfev <= n + 1:  # the budget ends with the initial simplex
        return sim[:, 0]
    nfev = np.full(k_starts, n_init)
    ids = np.arange(k_starts)
    best = np.empty_like(x0)
    while True:
        if target is not None and fsim[:, 0].min() <= target:
            best[ids] = sim[:, 0]
            return best
        done = (nfev >= maxfev) | (
            (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= xatol)
            & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= fatol)
        )
        if done.any():
            best[ids[done]] = sim[done, 0]
            going = ~done
            ids, sim, fsim, nfev = ids[going], sim[going], fsim[going], nfev[going]
            if ids.size == 0:
                return best

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst = sim[:, -1]
        xr = _NM_REFLECT[0] * xbar - _NM_REFLECT[1] * worst
        fxr = evaluate(xr)
        nfev += 1
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, -2])
        outside = fxr < fsim[:, -1]  # picks the contraction where neither holds
        coef = np.where(
            expand[:, None],
            _NM_EXPAND,
            np.where(outside[:, None], _NM_CONTRACT_OUT, _NM_CONTRACT_IN),
        )
        probe = coef[:, :1] * xbar - coef[:, 1:] * worst
        second = ~accept & (nfev < maxfev)
        fprobe = np.full(ids.size, np.nan)  # NaN fails every comparison below
        fprobe[second] = evaluate(probe[second])
        nfev += second
        better = np.where(
            expand, fprobe < fxr, np.where(outside, fprobe <= fxr, fprobe < fsim[:, -1])
        )
        take_xr = accept | (second & expand & ~better)
        shrink = second & ~expand & ~better
        sim[take_xr, -1], fsim[take_xr, -1] = xr[take_xr], fxr[take_xr]
        sim[better, -1], fsim[better, -1] = probe[better], fprobe[better]

        if shrink.any():
            ss, fs = sim[shrink], fsim[shrink]
            ss[:, 1:] = ss[:, :1] + _NM_SHRINK * (ss[:, 1:] - ss[:, :1])
            evaluated = diag < (maxfev - nfev[shrink])[:, None]
            fs[:, 1:][evaluated] = evaluate(ss[:, 1:][evaluated])
            nfev[shrink] += evaluated.sum(axis=1)
            sim[shrink], fsim[shrink] = ss, fs
        sim, fsim = _sorted_simplices(sim, fsim)


def _povm_vectors(x: np.ndarray, n_c: int):
    """Map parameter rows to rank-1 POVM vectors by the Loewdin map.

    Row k holds the real then the imaginary parts of an (n_c, 4) block B; the
    columns of W = (B B^dag)^(-1/2) B satisfy sum_x w_x w_x^dag = I.  Returns
    the stack of W, shape (K, n_c, 4), and the mask of rows whose B B^dag is
    singular (smallest eigenvalue below 1e-12), which have no valid W.
    """
    pairs = np.ascontiguousarray(x.reshape(len(x), 2, -1).transpose(0, 2, 1))
    b = pairs.view(complex).reshape(-1, n_c, 4)
    evals, evecs = np.linalg.eigh(b @ b.conj().transpose(0, 2, 1))
    singular = evals[:, 0] < 1e-12
    scale = 1.0 / np.sqrt(np.maximum(evals, 1e-12))
    inv_sqrt = (evecs * scale[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    return inv_sqrt @ b, singular


def _params_from_vectors(vectors: np.ndarray, n_c: int) -> np.ndarray:
    b = np.zeros((n_c, 4), dtype=complex)
    b[:, : vectors.shape[1]] = vectors
    flat = b.reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _povm_objective_batch(x: np.ndarray, psi_mat: np.ndarray, m: MonotoneSpec) -> np.ndarray:
    """Negated average post-measurement entanglement of each parameter row, (K, 8 n_c) -> (K,).

    Outcome x of row k leaves AB in the unnormalized pure state
    v_x = psi_mat @ conj(w_x), read as the 2x2 amplitude matrix M, with
    probability p = |v_x|^2.  The eigenvalues of rho = M M^dag multiply to
    |det M|^2, and the larger is (p + gap) / 2 with
    gap^2 = (rho_00 - rho_11)^2 + 4 |rho_01|^2, so the Schmidt minimum is
    lam = 2 |det M|^2 / (p (p + gap)).  Neither step cancels: the textbook
    (1 - sqrt(1 - 4 |det M|^2 / p^2)) / 2 turns rounding noise near lam = 1/2
    into errors of ~1e-8.  Branches with p < 1e-14 contribute nothing;
    singular rows score the penalty 1.0.
    """
    w, singular = _povm_vectors(x, psi_mat.shape[1])
    # conj(M) for every row and outcome, indexed [k, a, b, x]; conjugation
    # leaves p, gap and |det M| unchanged.
    u = (psi_mat.conj() @ w).reshape(len(x), 2, 2, 4)
    rho_diag = (u * u.conj()).real.sum(axis=2)
    rho_01 = (u[:, 0] * u[:, 1].conj()).sum(axis=1)
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    p = rho_diag[:, 0] + rho_diag[:, 1]
    gap = np.sqrt((rho_diag[:, 0] - rho_diag[:, 1]) ** 2 + 4.0 * (rho_01 * rho_01.conj()).real)
    live = p >= 1e-14
    p_live = np.where(live, p, 1.0)
    lam = 2.0 * (det * det.conj()).real / (p_live * (p_live + gap))
    total = np.sum(p * m.eigenvalue_values(lam), axis=1, where=live)
    return np.where(singular, 1.0, -total)


def _theorem1_candidate(psi: PureState, m: MonotoneSpec):
    """The Theorem-1 measurement as (its value under ``m``, measurement), or
    None where that construction does not apply."""
    if psi.dims[2] != 2:
        return None
    try:
        meas, _ = theorem1_measurement(psi)
        return average_post_measurement(psi, meas, m), meas
    except (ArithmeticError, InputError):
        return None


def _informed_starts(psi: PureState, theorem1):
    """Projective bases worth seeding the POVM search with, given the Theorem-1 candidate."""
    n_c = psi.dims[2]
    cands = [np.eye(n_c, dtype=complex)]
    if n_c != 2:
        return cands
    cands.append(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    if theorem1 is None:
        return cands
    meas = theorem1[1]
    if len(meas.elements) == 2:
        cands.append(np.column_stack([_principal_vector(e) for e in meas.elements]))
    try:
        for side in ("A", "B"):
            cands.append(commuting_charlie_basis(psi, side).basis)
    except (ArithmeticError, InputError):
        pass
    return cands


def eoa_numeric(psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None):
    """Best found average entanglement over rank-1 POVMs on Charlie (<= 4 outcomes).

    Multi-start derivative-free search seeded with the constructive bases, all
    starts advanced in lockstep by one Nelder-Mead; the result is a certified
    lower bound on the entanglement of assistance.  The Theorem-1 measurement
    counts at the value ``average_post_measurement`` gives it, so the result
    is never below the constructive value ``analyze`` reports.  The search
    stops once a measurement comes within 1e-12 of the min-cut upper bound.
    """
    if psi.dims[:2] != (2, 2) or psi.dims[2] > 4:
        raise InputError("supported layouts are 2 x 2 x n with n <= 4")
    return _eoa_search(psi, m, budget or SearchBudget(), _theorem1_candidate(psi, m), _min_cut(psi, m))


def _min_cut(psi: PureState, m: MonotoneSpec) -> float:
    """min(E(A|BC), E(B|AC)) under ``m``: Charlie's measurement is LOCC across
    both cuts, so no POVM on Charlie scores above it."""
    return min(cut_entanglement(psi, "A|BC", m), cut_entanglement(psi, "B|AC", m))


# Value tolerance of the POVM search: its Nelder-Mead fatol, and the distance
# from the min-cut bound at which a candidate counts as optimal.
_SEARCH_FATOL = 1e-12


def _eoa_search(psi: PureState, m: MonotoneSpec, budget: SearchBudget, theorem1, bound: float):
    """The search of ``eoa_numeric`` from a given Theorem-1 candidate (see
    ``_theorem1_candidate``); ``analyze`` passes the one it has already built.

    ``bound`` is ``_min_cut(psi, m)``.  A Theorem-1 candidate within
    ``_SEARCH_FATOL`` of it is returned without a search, and the search
    stops once any start gets that close: the other starts could add at most
    ``_SEARCH_FATOL``.
    """
    if theorem1 is not None and theorem1[0] >= bound - _SEARCH_FATOL:
        return theorem1
    n_c = psi.dims[2]
    psi_mat = psi.amplitudes.reshape(4, n_c)
    cands = _informed_starts(psi, theorem1)
    rng = np.random.default_rng(budget.seed)
    x0 = np.array(
        [_params_from_vectors(c, n_c) for c in cands]
        + [rng.standard_normal(8 * n_c) for _ in range(budget.random_starts)]
    )

    def objective(x):
        return _povm_objective_batch(x, psi_mat, m)

    x_end = _lockstep_nelder_mead(
        objective, x0, budget.max_evals, xatol=1e-10, fatol=_SEARCH_FATOL, target=_SEARCH_FATOL - bound
    )
    # Each start's initial point, then its end point; a singular row scores -1,
    # below every valid average, so the first maximum is the first best POVM.
    candidates = np.stack([x0, x_end], axis=1).reshape(-1, 8 * n_c)
    values = -objective(candidates)
    best = int(np.argmax(values))
    best_val = float(values[best])
    if theorem1 is not None and theorem1[0] >= best_val:
        return theorem1

    best_w = _povm_vectors(candidates[best : best + 1], n_c)[0][0]
    keep = [x for x in range(4) if np.vdot(best_w[:, x], best_w[:, x]).real > 1e-14]
    elems = []
    for x in keep:
        elems.append(np.outer(np.eye(n_c, dtype=complex)[:, 0], best_w[:, x].conj()))
    # Restore exact completeness over the kept columns.
    total = sum(e.conj().T @ e for e in elems)
    evals, evecs = np.linalg.eigh(total)
    fix = (evecs / np.sqrt(np.clip(evals, 1e-300, None))) @ evecs.conj().T
    elems = [e @ fix for e in elems]
    return best_val, Measurement(subsystem=2, elements=tuple(elems))


# ---------------------------------------------------------------------------
# Theorem checks


@dataclass(frozen=True)
class Theorem1Report:
    cut_a: float
    cut_b: float
    constructive: float
    gap: float


def verify_theorem1(psi: PureState, tol: float) -> Theorem1Report:
    """Check the constructive measurement saturates the min-cut E2 bound."""
    _, avg, cut_a, cut_b = _theorem1(psi)
    mincut = min(cut_a, cut_b)
    gap = abs(avg - mincut)
    if gap > tol:
        raise VerificationError(
            f"constructive average {avg} misses min-cut {mincut} by {gap:.3e}",
            state=psi,
            gap=gap,
        )
    return Theorem1Report(cut_a=cut_a, cut_b=cut_b, constructive=avg, gap=gap)


def lossless_classifier(psi: PureState, cut: str, tol: float = 1e-9) -> LosslessVerdict:
    """Decide whether helper decoupling can be lossless for strictly concave measures.

    Lossless requires either both marginals maximally mixed (every ensemble
    element maximally entangled; for qubits, unital channels are mixed-unitary
    so such a decomposition exists) or a two-outcome Charlie basis whose
    conditional states preserve the cut party's marginal.
    """
    if cut not in ("A|BC", "B|AC"):
        raise InputError("cut must be 'A|BC' or 'B|AC'")
    side = "A" if cut == "A|BC" else "B"
    party = 0 if side == "A" else 1
    other = 1 - party
    rho_ab = reduced_density(psi, (0, 1))
    if rho_ab.purity() > 1.0 - _AB_PURE_TOL:
        return LosslessVerdict(kind="decoupled", certificate={}, objective=0.0)
    rho_side = reduced_density(psi, (party,))
    lam_side = _marginal_lambda_min(rho_side)
    lam_other = _marginal_lambda_min(reduced_density(psi, (other,)))
    if abs(lam_side - 0.5) <= tol and abs(lam_other - 0.5) <= tol:
        return LosslessVerdict(
            kind="lossless",
            certificate={"branch": "maximally-mixed", "lambda_min": lam_side},
            objective=0.0,
        )
    if lam_side >= 0.5 - tol:
        return LosslessVerdict(kind="lossy", certificate={}, objective=np.inf)
    a, b, T = _pauli_data(psi, side)
    k_mat = T - np.outer(a, b)
    _, _, vt = np.linalg.svd(k_mat)
    n = vt[2]
    basis = _antipodal_basis(n)
    obj, probs, branches = _marginal_preservation_objective(psi, basis, side, rho_side.entries)
    if obj <= tol and probs.min() > 1e-9:
        cert = _lossless_certificate(basis, probs, branches, lam_side)
        return LosslessVerdict(kind="lossless", certificate=cert, objective=obj)
    return LosslessVerdict(kind="lossy", certificate={"basis": basis}, objective=obj)


def _marginal_lambda_min(rho: DensityMatrix) -> float:
    evals, _ = eig_hermitian(rho.entries)
    return float(np.clip(evals[-1], 0.0, 0.5))


def _marginal_preservation_objective(psi: PureState, basis: np.ndarray, side: str, target: np.ndarray):
    """Probability-weighted squared distance of the conditional marginals on
    ``side`` from ``target``, that side's global marginal."""
    mats, probs, conds = _conditional_marginals(psi, basis, side)
    obj = sum(p * float(np.linalg.norm(c - target) ** 2) for p, c in zip(probs, conds) if c is not None)
    branches = [None if c is None else mm / np.sqrt(p) for mm, p, c in zip(mats, probs, conds)]
    return float(obj), probs, branches


def _lossless_certificate(basis, probs, branches, lam):
    """Recover the decomposition parameters (weights, local unitaries) per branch."""
    us, vs = [], []
    for mm in branches:
        if mm is None:
            us.append(None)
            vs.append(None)
            continue
        u, s, vh = np.linalg.svd(mm)
        # Order so the smaller Schmidt coefficient pairs with |00>.
        ux = u[:, ::-1]
        vx = vh.conj().T[:, ::-1]
        us.append(ux)
        vs.append(vx)
    return {
        "branch": "marginal-preserving",
        "basis": basis,
        "weights": probs,
        "lambda_min": float(lam),
        "u_locals": us,
        "v_locals": vs,
    }


def unital_fixed_point_check(h: np.ndarray, probs, unitaries):
    """(preserved, commutes) for lambda_min under the random-unitary mixture."""
    h = np.asarray(h, dtype=complex)
    probs = np.asarray(probs, dtype=float)
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    if np.any(probs <= 0.0):
        raise InputError("all mixture probabilities must be positive")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise InputError("mixture probabilities must sum to 1")
    if np.max(np.abs(unitaries[0] - np.eye(2))) > 1e-10:
        raise InputError("the first unitary must be the identity")
    mixed = sum(p * u @ h @ u.conj().T for p, u in zip(probs, unitaries))
    lam_h = np.linalg.eigvalsh(h)[0]
    lam_mixed = np.linalg.eigvalsh(mixed)[0]
    preserved = bool(abs(lam_h - lam_mixed) <= 1e-10)
    comm = max(np.linalg.norm(h @ u - u @ h) for u in unitaries)
    commutes = bool(comm <= 1e-10)
    return preserved, commutes


# ---------------------------------------------------------------------------
# Corollary checks


def _su2_from_params(x: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(x)
    if angle < 1e-14:
        return np.eye(2, dtype=complex)
    axis = x / angle
    gen = sum(axis[i] * PAULIS[i] for i in range(3))
    return np.cos(angle) * np.eye(2, dtype=complex) + 1j * np.sin(angle) * gen


def swap_infidelity(psi: PureState, seed: int = 0, starts: int = 24, maxfev: int = 600) -> float:
    """Best found infidelity between SWAP_AB |psi> and (U x V x W)|psi>."""
    t = psi.tensor_view()
    target = t.transpose(1, 0, 2)

    def infid(x):
        u, v, w = (_su2_from_params(x[3 * i : 3 * i + 3]) for i in range(3))
        rotated = np.einsum("ai,bj,ck,ijk->abc", u, v, w, t)
        return 1.0 - abs(np.vdot(target, rotated)) ** 2

    best = infid(np.zeros(9))
    if best < 1e-10:
        return float(max(best, 0.0))
    rng = np.random.default_rng(seed)
    for _ in range(starts):
        x0 = rng.uniform(-np.pi, np.pi, 9)
        res = minimize(
            infid, x0, method="Nelder-Mead", options={"maxfev": maxfev, "fatol": 1e-12}
        )
        best = min(best, res.fun)
        if best < 1e-10:
            break
    return float(max(best, 0.0))


@dataclass(frozen=True)
class CorollaryReport:
    i: bool
    ii: bool | None
    iii: bool
    applicable: bool
    swap_infidelity: float | None


def corollary_check(
    psi: PureState, tol: float, check_swap: bool = True, seed: int = 0
) -> CorollaryReport:
    """Check the cut-symmetry equivalences on a three-qubit state."""
    from .monotones import wootters_concurrence  # local import avoids cycle at module load

    cond_i = abs(
        cut_entanglement(psi, "A|BC", E2) - cut_entanglement(psi, "B|AC", E2)
    ) <= tol
    c_ac = wootters_concurrence(reduced_density(psi, (0, 2)))
    c_bc = wootters_concurrence(reduced_density(psi, (1, 2)))
    cond_iii = abs(c_ac - c_bc) <= tol
    res_a = commuting_charlie_basis(psi, "A")
    applicable = all(np.linalg.norm(r) > tol for r in res_a.bloch_vectors)
    infid = None
    cond_ii = None
    if check_swap:
        infid = swap_infidelity(psi, seed=seed)
        cond_ii = infid <= tol
    return CorollaryReport(
        i=bool(cond_i),
        ii=cond_ii,
        iii=bool(cond_iii),
        applicable=bool(applicable),
        swap_infidelity=infid,
    )


# ---------------------------------------------------------------------------
# Restricted two-round collaboration search


def _apply_local_kraus(psi: PureState, party: int, k: np.ndarray):
    t = psi.tensor_view()
    if party == 0:
        out = np.einsum("ai,ibc->abc", k, t)
    else:
        out = np.einsum("bi,aic->abc", k, t)
    p = float(np.sum(np.abs(out) ** 2))
    if p < 1e-14:
        return p, None
    return p, PureState(psi.dims, out.reshape(-1) / np.sqrt(p))


def _branch_eoa(psi: PureState, m: MonotoneSpec, budget) -> float:
    if m.kind == "e2":
        _, avg = theorem1_measurement(psi)
        return avg
    val, _ = eoa_numeric(psi, m, budget)
    return val


def eoc_lower_bound_search(
    psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None
) -> float:
    """Two-round lower bound on the collaboration value.

    Alice or Bob applies a two-element measurement, broadcasts, and Charlie
    then decouples optimally in each branch.  The trivial first round reduces
    to the plain assistance search, so the result never falls below it.  All
    three parties act by LOCC across both cuts, so the min-cut bound holds
    here too, and the search stops once it is reached within 1e-12.
    """
    budget = budget or SearchBudget(random_starts=2, max_evals=300)
    inner = SearchBudget(random_starts=1, max_evals=200, seed=budget.seed)
    target = _min_cut(psi, m) - _SEARCH_FATOL
    best = _branch_eoa(psi, m, inner)
    if best >= target:
        return float(best)

    def value(x, party):
        v = _su2_from_params(x[:3])
        s0, s1 = np.sin(x[3]), np.sin(x[4])
        c0, c1 = np.cos(x[3]), np.cos(x[4])
        m0 = v @ np.diag([s0, s1]).astype(complex) @ v.conj().T
        m1 = v @ np.diag([c0, c1]).astype(complex) @ v.conj().T
        total = 0.0
        for k in (m0, m1):
            p, branch = _apply_local_kraus(psi, party, k)
            if branch is None:
                continue
            total += p * _branch_eoa(branch, m, inner)
        return total

    rng = np.random.default_rng(budget.seed)
    for party in (0, 1):
        for _ in range(budget.random_starts):
            x0 = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(0, np.pi / 2, 2)])
            res = minimize(
                lambda x: -value(x, party),
                x0,
                method="Nelder-Mead",
                options={"maxfev": budget.max_evals},
            )
            best = max(best, -res.fun)
            if best >= target:
                return float(best)
    return float(best)


# ---------------------------------------------------------------------------
# Density-matrix restatement


def purify_with_qubit(rho: DensityMatrix) -> PureState:
    """Canonical purification of a rank-<=2 two-qubit state with a qubit helper."""
    if rho.dim != 4:
        raise InputError("expected a two-qubit density matrix")
    evals, evecs = np.linalg.eigh(rho.entries)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if evals.size > 2 and evals[2] > 1e-9:
        raise InputError("density matrix has rank greater than 2")
    amps = np.zeros(8, dtype=complex)
    for c in range(2):
        amps[c::2] = np.sqrt(max(evals[c], 0.0)) * evecs[:, c]
    return PureState((2, 2, 2), amps / np.linalg.norm(amps))


def eoa_density(rho: DensityMatrix) -> float:
    """Assistance value of a rank-2 two-qubit state via purification.

    Equals twice the smaller of the two marginal minimum eigenvalues; the
    identity is asserted against the constructive measurement.
    """
    psi = purify_with_qubit(rho)
    meas, avg = theorem1_measurement(psi)
    expected = 2.0 * min_marginal_eigenvalue(rho.entries)
    if abs(avg - expected) > 1e-8:
        raise VerificationError(
            f"assistance value {avg} misses 2*min marginal eigenvalue {expected}",
            state=psi,
            gap=abs(avg - expected),
        )
    return float(avg)


# ---------------------------------------------------------------------------
# Bundled analysis


@dataclass(frozen=True)
class AssistanceReport:
    cut_a: float
    cut_b: float
    eoa_constructive: float
    eoa_numeric: float
    eoc_lower_bound: float | None
    measurement: Measurement
    lossless_verdict: LosslessVerdict
    monotone: MonotoneSpec

    def to_dict(self) -> dict:
        return {
            "cutA": self.cut_a,
            "cutB": self.cut_b,
            "eoaConstructive": self.eoa_constructive,
            "eoaNumeric": self.eoa_numeric,
            "eocLowerBound": self.eoc_lower_bound,
            "monotone": self.monotone.label(),
            "verdict": self.lossless_verdict.kind,
            "measurement": [
                [[[float(z.real), float(z.imag)] for z in row] for row in elem]
                for elem in self.measurement.elements
            ],
            "certificate": {
                k: v
                for k, v in self.lossless_verdict.certificate.items()
                if isinstance(v, (int, float, str))
            },
        }


def analyze(
    psi: PureState,
    m: MonotoneSpec,
    budget: SearchBudget | None = None,
    with_eoc: bool = False,
) -> AssistanceReport:
    cut_a = cut_entanglement(psi, "A|BC", m)
    cut_b = cut_entanglement(psi, "B|AC", m)
    meas, _ = theorem1_measurement(psi)
    constructive = average_post_measurement(psi, meas, m)
    numeric, _ = _eoa_search(psi, m, budget or SMALL_BUDGET, (constructive, meas), min(cut_a, cut_b))
    eoc = eoc_lower_bound_search(psi, m, budget) if with_eoc else None
    cut = "A|BC" if cut_a <= cut_b else "B|AC"
    verdict = lossless_classifier(psi, cut, tol=1e-7)
    return AssistanceReport(
        cut_a=cut_a,
        cut_b=cut_b,
        eoa_constructive=constructive,
        eoa_numeric=numeric,
        eoc_lower_bound=eoc,
        measurement=meas,
        lossless_verdict=verdict,
        monotone=m,
    )
