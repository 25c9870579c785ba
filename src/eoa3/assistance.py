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

from .ensembles import _takagi
from .monotones import E2, MonotoneSpec, _schmidt_min, cut_entanglement
from .qcore import (
    PAULIS,
    SIGMA_YY,
    DensityMatrix,
    InputError,
    PureState,
    _polar,
    _stiefel_ascent,
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
    def projective(basis: np.ndarray) -> "Measurement":
        """Projectors onto the columns of ``basis``."""
        elems = tuple(
            np.outer(basis[:, k], basis[:, k].conj()) for k in range(basis.shape[1])
        )
        return Measurement(elements=elems)

    @staticmethod
    def trivial(dim: int = 2) -> "Measurement":
        return Measurement(elements=(np.eye(dim, dtype=complex),))


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
    """Budget of the POVM searches: random starts on top of the informed ones,
    and value-and-gradient evaluations per start, line-search trials included."""

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
    """Qubit ket with Bloch vector n (unit): (1 + z, x + iy) or, in the
    southern hemisphere, (x - iy, 1 - z), normalized.  Unlike angles through
    arccos(z), both keep the O(delta) tilt of a direction near the poles."""
    x, y, z = n
    k = np.array([1.0 + z, x + 1j * y]) if z >= 0.0 else np.array([x - 1j * y, 1.0 - z])
    return k / np.linalg.norm(k)


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
        np.zeros(3) if c is None else pauli_coefficients(c)[1:]
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
    meas, avg, _, _, _ = _theorem1(psi)
    return meas, avg


def _theorem1(psi: PureState):
    """``theorem1_measurement`` plus the two E2 cuts its average is checked
    against and the commuting bases it built: (measurement, average, E2 across
    A|BC, E2 across B|AC, {side: CommutingBasisResult})."""
    if psi.dims != (2, 2, 2):
        raise InputError("expected a three-qubit state")
    cut_a = cut_entanglement(psi, "A|BC", E2)
    cut_b = cut_entanglement(psi, "B|AC", E2)
    decoupled = reduced_density(psi, (0, 1)).purity() > 1.0 - _AB_PURE_TOL
    if decoupled:
        meas = Measurement.trivial()
        return meas, average_post_measurement(psi, meas, E2), cut_a, cut_b, {}
    bases = {"A": _commuting_basis(psi, "A", decoupled)}
    if bases["A"].alignment == "parallel":
        meas = Measurement.projective(bases["A"].basis)
    else:
        bases["B"] = _commuting_basis(psi, "B", decoupled)
        if bases["B"].alignment == "parallel":
            meas = Measurement.projective(bases["B"].basis)
        else:
            meas, _ = _eq21_measurement(psi, bases["A"])
    return meas, average_post_measurement(psi, meas, E2), cut_a, cut_b, bases


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
        # The AB state is the leading left singular vector of the (AB, C) block.
        phi = np.linalg.svd(mat)[0][:, 0].reshape(2, 2)
        total += p * m.eigenvalue_fn(float(np.linalg.svd(phi, compute_uv=False)[-1] ** 2))
    return float(total)


# ---------------------------------------------------------------------------
# Numeric EoA oracle


def _isometries(bases, n_c: int) -> np.ndarray:
    """Charlie bases as a (K, n_c, 4) stack of POVMs: each basis fills the
    first columns of a zero block, so the other outcomes never occur."""
    w = np.zeros((len(bases), n_c, 4), dtype=complex)
    for block, basis in zip(w, bases):
        block[:, : basis.shape[1]] = basis
    return w


def _povm_value_grad(w: np.ndarray, psi_mat: np.ndarray, m: MonotoneSpec):
    """Average post-measurement entanglement F of each POVM in the stack w
    (K, n_c, 4), and its Euclidean gradient (K, n_c, 4), dF = Re tr(G^dag dW).

    Outcome x leaves AB in the unnormalized pure state v_x = psi_mat @ conj(w_x),
    read as the 2x2 amplitude matrix M, with probability p = |v_x|^2.  The
    eigenvalues of rho = M M^dag multiply to |det M|^2, and the larger is
    (p + gap) / 2 with gap^2 = (rho_00 - rho_11)^2 + 4 |rho_01|^2, so the
    Schmidt minimum is lam = 2 |det M|^2 / (p (p + gap)).  Neither step
    cancels: the textbook (1 - sqrt(1 - 4 |det M|^2 / p^2)) / 2 turns rounding
    noise near lam = 1/2 into errors of ~1e-8.  Branches with p < 1e-14
    contribute nothing.  With U = conj(M) and mu = p lam, d(p f(mu / p)) =
    (f - lam f') dp + f' dmu, where dp = 2 Re tr(U^dag dU) and dmu =
    2 Re tr((P U)^dag dU), P the projector on the smaller eigenvector of
    U U^dag.  gap P U = det(U) adj(U)^dag - mu U neither divides by lam nor
    cancels at lam -> 0, and near lam = 1/2 the f' / gap of the concave
    measures stays finite.  The gradient pulls back through psi_mat^T.
    """
    # conj(M) for every row and outcome, indexed [k, a, b, x]; conjugation
    # leaves p, gap and |det M| unchanged.
    u = (psi_mat.conj() @ w).reshape(len(w), 2, 2, 4)
    rho_diag = (u * u.conj()).real.sum(axis=2)
    rho_01 = (u[:, 0] * u[:, 1].conj()).sum(axis=1)
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    p = rho_diag[:, 0] + rho_diag[:, 1]
    gap = np.sqrt((rho_diag[:, 0] - rho_diag[:, 1]) ** 2 + 4.0 * (rho_01 * rho_01.conj()).real)
    live = p >= 1e-14
    p_live = np.where(live, p, 1.0)
    lam = 2.0 * (det * det.conj()).real / (p_live * (p_live + gap))
    f = m.eigenvalue_values(lam)
    total = np.sum(p * f, axis=1, where=live)
    slope = np.where(live, m.eigenvalue_slopes(lam), 0.0)
    per_gap = slope / np.where(gap > 0.0, gap, 1.0)
    c_u = np.where(live, f - lam * slope, 0.0) - per_gap * lam * p_live
    adj_h = u[:, ::-1, ::-1].conj() * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]  # adj(U)^dag
    g = 2.0 * (c_u[:, None, None] * u + (per_gap * det)[:, None, None] * adj_h)
    return total, psi_mat.T @ g.reshape(len(w), 4, 4)


def _theorem1_candidate(psi: PureState, m: MonotoneSpec):
    """The Theorem-1 measurement as (its value under ``m``, measurement, the
    commuting bases built for it), or None where that construction does not
    apply."""
    if psi.dims[2] != 2:
        return None
    try:
        meas, _, _, _, bases = _theorem1(psi)
        return average_post_measurement(psi, meas, m), meas, bases
    except (ArithmeticError, InputError):
        return None


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _informed_starts(psi: PureState, theorem1):
    """Projective bases worth seeding the POVM search with, given the Theorem-1 candidate.

    The commuting bases the candidate carries are reused; a side it did not
    build is built here.
    """
    n_c = psi.dims[2]
    cands = [np.eye(n_c, dtype=complex)]
    if n_c != 2:
        return cands
    cands.append(_HADAMARD)
    if theorem1 is None:
        return cands
    _, meas, bases = theorem1
    if len(meas.elements) == 2:
        cands.append(np.column_stack([_principal_vector(e) for e in meas.elements]))
    try:
        for side in ("A", "B"):
            # Only the basis is read, so the AB purity test is not repeated.
            res = bases.get(side) or _commuting_basis(psi, side, decoupled=False)
            cands.append(res.basis)
    except (ArithmeticError, InputError):
        pass
    return cands


def eoa_numeric(psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None):
    """Best found average entanglement over rank-1 POVMs on Charlie (<= 4 outcomes).

    Multi-start Riemannian gradient ascent over the isometries W (W W^dag = I)
    whose columns are the POVM vectors, seeded with the constructive bases,
    all starts advanced together; the result is a certified lower bound on
    the entanglement of assistance.  The Theorem-1 measurement
    counts at the value ``average_post_measurement`` gives it, so the result
    is never below the constructive value ``analyze`` reports.  The search
    stops once a measurement comes within 1e-12 of the min-cut upper bound;
    under ``concurrence`` with a qubit Charlie the Takagi basis reaches the
    exact concurrence of assistance, and the search is skipped.
    """
    if psi.dims[:2] != (2, 2) or psi.dims[2] > 4:
        raise InputError("supported layouts are 2 x 2 x n with n <= 4")
    return _eoa_search(psi, m, budget or SearchBudget(), _theorem1_candidate(psi, m), _min_cut(psi, m))


def _min_cut(psi: PureState, m: MonotoneSpec) -> float:
    """min(E(A|BC), E(B|AC)) under ``m``: Charlie's measurement is LOCC across
    both cuts, so no POVM on Charlie scores above it."""
    return min(cut_entanglement(psi, "A|BC", m), cut_entanglement(psi, "B|AC", m))


def _assistance_tau(psi: PureState) -> np.ndarray:
    """tau = V^T (sy x sy) V for V the (AB, C) amplitude matrix of a 2x2x2 state.

    Its singular values are the Wootters lambdas of rho_AB = V V^dag, so its
    trace norm is the concurrence of assistance C_a (Laustsen, Verstraete &
    van Enk, QIC 2003).  Taken from psi, it avoids the square roots of the
    flushed eigenvalues that ``wootters_lambdas`` takes.
    """
    v = psi.amplitudes.reshape(4, 2)
    return v.T @ SIGMA_YY @ v


def _takagi_basis(tau: np.ndarray) -> np.ndarray:
    """Charlie basis reaching C_a = ||tau||_1: the columns of C H, where
    tau = C S C^T (Takagi) and H is the Hadamard.  Outcome k leaves AB with
    weighted concurrence |e_k^dag tau conj(e_k)| = (s_1 + s_2) / 2, since H
    is real with entries of square 1/2."""
    cols, _ = _takagi(tau)
    return cols @ _HADAMARD


# Value tolerance of the POVM search: the least gain of an accepted ascent
# step, and the distance from the bound at which a candidate counts as optimal.
_SEARCH_FATOL = 1e-12


def _eoa_search(
    psi: PureState, m: MonotoneSpec, budget: SearchBudget, theorem1, bound: float, certificates=()
):
    """The search of ``eoa_numeric`` from a given Theorem-1 candidate (see
    ``_theorem1_candidate``); ``analyze`` passes the one it has already built.

    ``bound`` is ``_min_cut(psi, m)``; under ``concurrence`` with a qubit
    Charlie it is lowered to C_a and the Takagi basis joins the
    ``certificates``, Charlie bases worth trying before any search.  A
    Theorem-1 candidate within ``_SEARCH_FATOL`` of the bound is returned at
    once.  Otherwise the best certificate that gets that close is taken and
    the search is skipped; without one the search runs, and stops once any
    start gets that close: the other starts could add at most
    ``_SEARCH_FATOL``.  Certificates and starts are scored by the search's
    objective; the Theorem-1 candidate wins every tie.
    """
    certificates = list(certificates)
    if m.kind == "concurrence" and psi.dims[2] == 2:
        tau = _assistance_tau(psi)
        bound = min(bound, float(np.linalg.svd(tau, compute_uv=False).sum()))
        try:
            certificates.append(_takagi_basis(tau))
        except ArithmeticError:
            pass
    if theorem1 is not None and theorem1[0] >= bound - _SEARCH_FATOL:
        return theorem1[:2]
    n_c = psi.dims[2]
    psi_mat = psi.amplitudes.reshape(4, n_c)
    candidates = _isometries(certificates, n_c)
    values = _povm_value_grad(candidates, psi_mat, m)[0]
    if values.max(initial=-np.inf) < bound - _SEARCH_FATOL:
        # Each random start is the polar factor of a Gaussian (n_c, 4) block
        # drawn as its real parts, then its imaginary parts.
        draws = np.random.default_rng(budget.seed).standard_normal((budget.random_starts, 8 * n_c))
        randoms = _polar((draws[:, : 4 * n_c] + 1j * draws[:, 4 * n_c :]).reshape(-1, n_c, 4))
        w0 = np.concatenate([_isometries(_informed_starts(psi, theorem1), n_c), randoms])
        w_end = _stiefel_ascent(
            lambda w: _povm_value_grad(w, psi_mat, m), w0, budget.max_evals, _SEARCH_FATOL, bound - _SEARCH_FATOL
        )
        # Each start, then its end point, so the first maximum is the first best POVM.
        candidates = np.stack([w0, w_end], axis=1).reshape(-1, n_c, 4)
        values = _povm_value_grad(candidates, psi_mat, m)[0]
    best = int(np.argmax(values))
    best_val = float(values[best])
    if theorem1 is not None and theorem1[0] >= best_val:
        return theorem1[:2]
    return best_val, _povm_measurement(candidates[best])


def _povm_measurement(w: np.ndarray) -> Measurement:
    """The rank-1 POVM on Charlie whose vectors are the columns of the isometry w, its zero outcomes dropped."""
    n_c = w.shape[0]
    keep = [k for k in range(4) if np.vdot(w[:, k], w[:, k]).real > 1e-14]
    elems = [np.outer(np.eye(n_c, dtype=complex)[:, 0], w[:, k].conj()) for k in keep]
    # Restore exact completeness over the kept columns.
    total = sum(e.conj().T @ e for e in elems)
    evals, evecs = np.linalg.eigh(total)
    fix = (evecs / np.sqrt(np.clip(evals, 1e-300, None))) @ evecs.conj().T
    return Measurement(elements=tuple(e @ fix for e in elems))


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
    _, avg, cut_a, cut_b, _ = _theorem1(psi)
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
    rho_ab = reduced_density(psi, (0, 1))
    if rho_ab.purity() > 1.0 - _AB_PURE_TOL:
        return LosslessVerdict(kind="decoupled", certificate={}, objective=0.0)
    lam_side = min(_schmidt_min(psi, (party,)), 0.5)
    lam_other = min(_schmidt_min(psi, (1 - party,)), 0.5)
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
    target = reduced_density(psi, (party,)).entries
    obj, probs, branches = _marginal_preservation_objective(psi, basis, side, target)
    if obj <= tol and probs.min() > 1e-9:
        cert = _lossless_certificate(basis, probs, branches, lam_side)
        return LosslessVerdict(kind="lossless", certificate=cert, objective=obj)
    return LosslessVerdict(kind="lossy", certificate={"basis": basis}, objective=obj)


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
    measurement: Measurement
    lossless_verdict: LosslessVerdict
    monotone: MonotoneSpec

    def to_dict(self) -> dict:
        return {
            "cutA": self.cut_a,
            "cutB": self.cut_b,
            "eoaConstructive": self.eoa_constructive,
            "eoaNumeric": self.eoa_numeric,
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


def analyze(psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None) -> AssistanceReport:
    cut_a = cut_entanglement(psi, "A|BC", m)
    cut_b = cut_entanglement(psi, "B|AC", m)
    meas, _, _, _, bases = _theorem1(psi)
    constructive = average_post_measurement(psi, meas, m)
    cut = "A|BC" if cut_a <= cut_b else "B|AC"
    verdict = lossless_classifier(psi, cut, tol=1e-7)
    # The marginal-preserving basis reaches the min-cut (every branch keeps
    # the cut party's marginal), so it certifies a lossless report.
    certificates = []
    if verdict.kind == "lossless" and "basis" in verdict.certificate:
        certificates.append(verdict.certificate["basis"])
    theorem1 = (constructive, meas, bases)
    numeric, _ = _eoa_search(psi, m, budget or SMALL_BUDGET, theorem1, min(cut_a, cut_b), certificates)
    return AssistanceReport(
        cut_a=cut_a,
        cut_b=cut_b,
        eoa_constructive=constructive,
        eoa_numeric=numeric,
        measurement=meas,
        lossless_verdict=verdict,
        monotone=m,
    )
