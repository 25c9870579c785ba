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

* the conditional marginals commute iff a x (T n) = 0 (``_commuting_stack``
  solves it in closed form in the Schmidt frame of X);
* both conditional marginals equal the global marginal iff (T - a b^T) n = 0,
  so the marginal-preserving basis of the lossless classifier is a null
  vector of that 3x3 matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ensembles import _pure_branches, _takagi
from .monotones import E2, MonotoneSpec, _cut_minima, _pair_taus, pair_concurrences
from .qcore import (
    PAULI_BASIS,
    DensityMatrix,
    InputError,
    PureState,
    _GRAD_TOL,
    _block_diagonal,
    _complex_pairs,
    _density_factors,
    _polar,
    _stiefel_ascent,
    _unchecked_states,
    min_marginal_eigenvalue,
    pauli_coefficients,
    reduced_stack,
    three_qubit_stack,
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
    def trivial() -> "Measurement":
        """The one-outcome measurement of a qubit, which leaves the state as it is."""
        return Measurement(elements=(np.eye(2, dtype=complex),))


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
# Side-A ||beta_1^dag beta_0||_F (see ``_commuting_stack``) at or below which
# a state counts as an Eq. 21 state.
_EQ21_OVERLAP = 1e-10


def _ab_purities(t: np.ndarray) -> np.ndarray:
    """tr(rho_AB^2) of each state in the stack t (N, 2, 2, 2)."""
    rho = reduced_stack(t, (0, 1))
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def _pauli_stack(t: np.ndarray, side: str):
    """(a, b, T) of the two-qubit reductions rho^{XC}, X = A or B, of each
    state in the stack t (N, 2, 2, 2): (N, 3), (N, 3) and (N, 3, 3)."""
    r = pauli_coefficients(reduced_stack(t, (0, 2) if side == "A" else (1, 2)))
    return r[:, 1:, 0], r[:, 0, 1:], r[:, 1:, 1:]


def _antipodal_bases(n: np.ndarray) -> np.ndarray:
    """Charlie bases (..., 2, 2) for the directions n (..., 3): the first column
    has Bloch vector n / |n|, the second its antipode.  The ket is (1 + z, x + iy)
    or, in the southern hemisphere, (x - iy, 1 - z), normalized; unlike angles
    through arccos(z), both keep the O(delta) tilt of a direction near the poles."""
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    north = z >= 0.0
    basis = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    basis[..., 0, 0] = np.where(north, 1.0 + z, x - 1j * y)
    basis[..., 1, 0] = np.where(north, x + 1j * y, 1.0 - z)
    basis[..., 0] /= np.sqrt(np.einsum("...i,...i->...", basis[..., 0], basis[..., 0].conj()).real)[..., None]
    basis[..., 0, 1] = -basis[..., 1, 0].conj()
    basis[..., 1, 1] = basis[..., 0, 0].conj()
    return basis


def _branch_data(t: np.ndarray, bases: np.ndarray, side: str):
    """Measuring C in each basis of the stack bases (N, 2, 2) on the matching
    state of t (N, 2, 2, 2): per outcome x, the unnormalized branch matrices
    M_x (A row, B column) (N, 2, 2, 2), their probabilities and the mask
    p >= 1e-14 (N, 2), and the normalized conditional marginals on ``side``,
    I/2 where p < 1e-14 (N, 2, 2, 2)."""
    mats = np.einsum("nabc,ncx->nxab", t, bases.conj())
    probs = (mats.real**2 + mats.imag**2).sum(axis=(-2, -1))
    if side == "A":
        rho = mats @ mats.conj().swapaxes(-1, -2)
    else:
        rho = mats.swapaxes(-1, -2) @ mats.conj()
    live = probs >= 1e-14
    conds = np.where(
        live[..., None, None], rho / np.where(live, probs, 1.0)[..., None, None], 0.5 * np.eye(2)
    )
    return mats, probs, live, conds


@dataclass
class _CommutingStack:
    """Side-A Charlie bases and their branch geometry for a stack of states:
    the fields of ``CommutingBasisResult`` as arrays whose leading axis
    indexes the states; ``overlap``, ||beta_1^dag beta_0||_F of
    ``_commuting_stack``, which vanishes on the Eq. 21 states; and
    ``minimum``, the smaller squared Schmidt coefficient across A|BC."""

    basis: np.ndarray
    probabilities: np.ndarray
    conditional_states: np.ndarray
    operators: np.ndarray
    bloch_vectors: np.ndarray
    antiparallel: np.ndarray
    residual: np.ndarray
    overlap: np.ndarray
    minimum: np.ndarray

    def take(self, index) -> "_CommutingStack":
        return _CommutingStack(*(x[index] for x in vars(self).values()))

    def result(self, row: int, side: str, decoupled: bool) -> CommutingBasisResult:
        return CommutingBasisResult(
            side=side,
            basis=self.basis[row],
            probabilities=self.probabilities[row],
            conditional_states=tuple(self.conditional_states[row]),
            operators=tuple(self.operators[row]),
            bloch_vectors=tuple(self.bloch_vectors[row]),
            alignment="antiparallel" if self.antiparallel[row] else "parallel",
            residual=float(self.residual[row]),
            decoupled=decoupled,
        )


def commuting_charlie_basis(psi: PureState, side: str) -> CommutingBasisResult:
    """Find an orthonormal Charlie basis with commuting conditional marginals."""
    if side not in ("A", "B"):
        raise InputError("side must be 'A' or 'B'")
    t = three_qubit_stack([psi])
    decoupled = bool(_ab_purities(t)[0] > 1.0 - _AB_PURE_TOL)
    return _commuting_stack(t if side == "A" else t.transpose(0, 2, 1, 3)).result(0, side, decoupled)


def _commuting_stack(t: np.ndarray) -> _CommutingStack:
    """``commuting_charlie_basis`` on side A for every state of the validated
    stack t (N, 2, 2, 2), in closed form, with the branch matrices, conditional
    marginals on A, their commutator residual and Bloch alignment (zero Bloch
    vectors count as parallel), and the Schmidt minimum across A|BC.  Side B
    of a state is side A of its A <-> B swap t.transpose(0, 2, 1, 3).

    The A marginals of the two outcomes sum to rho_A, so they commute iff the
    first one does with rho_A, i.e. is diagonal in the Schmidt frame
    psi = sum_k sqrt(lam_k) |alpha_k>_A |beta_k>_{BC}.  With v the conjugate
    of the first Charlie ket, the off-diagonal entry is sqrt(lam_0 lam_1)
    v^dag H v for H = beta_1^dag beta_0 (the beta_k as B x C matrices); as
    tr H = <beta_1|beta_0> = 0, it vanishes iff the Bloch vector of v is
    orthogonal to Re and Im of h_i = tr(H sigma_i).  Unlike T^-1 a, this
    takes no difference of nearly equal Pauli data on near-product states.
    The first outcome is the one whose marginal leans further towards
    alpha_0, v^dag D v >= v_perp^dag D v_perp for D = lam_0 beta_0^dag beta_0
    - lam_1 beta_1^dag beta_1, as it is for n parallel to T^-1 a.  The
    ``overlap`` ||H||_F vanishes on the Eq. 21 states, where the beta_k are
    |k>|eta_k>, so every Charlie basis commutes.  The Schmidt frame's SVD
    also gives ``minimum``, bit for bit the ``cut_entanglement`` minimum.
    """
    _, s, vh = np.linalg.svd(t.reshape(-1, 2, 4), full_matrices=False)
    beta = vh.reshape(-1, 2, 2, 2)
    h = beta[:, 1].conj().swapaxes(-1, -2) @ beta[:, 0]
    # Re h and Im h as Re tr(H sigma_i) and Re tr(-iH sigma_i); v's Bloch
    # vector spans their common null space.
    n = np.linalg.svd(pauli_coefficients(np.stack([h, -1j * h], axis=1))[..., 1:])[2][:, 2]
    lean = pauli_coefficients(np.einsum("nk,nkyc,nkyd->ncd", s**2 * (1.0, -1.0), beta.conj(), beta))[:, 1:]
    n = np.where(np.einsum("ni,ni->n", n, lean)[:, None] < 0.0, -n, n)
    # Conjugation flips the y part of the Bloch vector.
    bases = _antipodal_bases(n * (1.0, -1.0, 1.0))
    mats, probs, _, conds = _branch_data(t, bases, "A")
    blochs = pauli_coefficients(conds)[..., 1:]
    comm = conds[:, 0] @ conds[:, 1]
    comm -= comm.conj().swapaxes(-1, -2)  # c1 c0 = (c0 c1)^dag for Hermitian c0, c1
    residual = np.sqrt(np.einsum("...ab,...ab->...", comm, comm.conj()).real)
    grams = np.einsum("...xi,...yi->...xy", blochs, blochs)
    tiny = np.minimum(grams[..., 0, 0], grams[..., 1, 1]) < 1e-22
    anti = ~tiny & (grams[..., 0, 1] < 0.0)
    overlap = np.sqrt(np.einsum("nab,nab->n", h, h.conj()).real)
    return _CommutingStack(bases, probs, conds, mats, blochs, anti, residual, overlap, s[:, -1] ** 2)


def _e_bases(eta0: np.ndarray, eta1: np.ndarray):
    """``e_basis_from_etas`` for stacks of ket pairs (N, 2): (eta1 rephased,
    theta, e0, e1)."""
    g = np.sum(eta0.conj() * eta1, axis=-1)
    overlap = np.abs(g)
    phased = overlap > 1e-14
    eta1 = np.where(phased[:, None], eta1 * (g.conj() / np.where(phased, overlap, 1.0))[:, None], eta1)
    theta = 0.5 * np.arccos(np.clip(overlap, 0.0, 1.0))
    e0 = eta0 + eta1
    e0 = e0 / np.linalg.norm(e0, axis=-1, keepdims=True)
    diff = eta0 - eta1
    nd = np.linalg.norm(diff, axis=-1, keepdims=True)
    # Where the kets coincide, any orthogonal completion of e0 will do.
    completion = np.stack([-e0[:, 1].conj(), e0[:, 0].conj()], axis=-1)
    e1 = np.where(nd < 1e-12, completion, diff / np.where(nd < 1e-12, 1.0, nd))
    return eta1, theta, e0, e1


def e_basis_from_etas(eta0: np.ndarray, eta1: np.ndarray, p: float) -> EBasisResult:
    """Split two normalized (not necessarily orthogonal) kets symmetrically.

    The relative phase of eta1 is absorbed so the overlap is real in [0, 1];
    then eta0 = cos(theta) e0 + sin(theta) e1 and eta1 = cos(theta) e0 -
    sin(theta) e1 for theta = arccos(overlap)/2.
    """
    eta1, theta, e0, e1 = (x[0] for x in _e_bases(eta0[None], eta1[None]))
    return EBasisResult(eta0=eta0, eta1=eta1, theta=float(theta), e0=e0, e1=e1, p=p)


def _eq21_bases(res_a: _CommutingStack) -> np.ndarray:
    """Charlie bases for Eq. 21 states, detected or doubly anti-parallel,
    given their side-A commuting bases.

    Rotates both branches into the shared Schmidt frame of the branch with the
    larger Bloch vector (its SVD frame is non-degenerate), where the state takes
    the form sqrt(p)|00>|eta0> + sqrt(1-p)|11>|eta1>, then measures the
    symmetric/antisymmetric combination basis of the etas.  The AB purity of
    that form falls 2 p (1 - p) (1 - |<eta0|eta1>|^2) short of 1, so on a
    state that is not decoupled both weights exceed 5e-13.
    """
    mats = res_a.operators  # on side A, the branch matrices
    norms = np.linalg.norm(res_a.bloch_vectors, axis=-1)
    ref = (norms[:, 1] > norms[:, 0]).astype(int)
    u, _, vh = np.linalg.svd(mats[np.arange(len(mats)), ref])
    rotated = u.conj().swapaxes(-1, -2)[:, None] @ mats @ vh.conj().swapaxes(-1, -2)[:, None]
    eta0, eta1 = rotated[:, :, 0, 0], rotated[:, :, 1, 1]
    _, _, e0, e1 = _e_bases(*(eta / np.linalg.norm(eta, axis=1, keepdims=True) for eta in (eta0, eta1)))
    # e-basis coefficients are in the commuting Charlie basis; map back.
    return res_a.basis @ np.stack([e0, e1], axis=-1)


# ``Theorem1Stack.branch`` labels by the branch code ``theorem1_stack`` computes.
_BRANCHES = np.array(["A", "B", "eq21", "trivial"])


@dataclass(frozen=True)
class Theorem1Stack:
    """The Theorem-1 construction for a stack of three-qubit states.

    Per state: the Charlie basis measured (N, 2, 2), the computational basis
    where Charlie measures nothing; the ``branch`` (N,) that chose it, "A" or
    "B" for a commuting side, "eq21" for the Eq. 21 e-basis, "trivial" for
    none; its average post-measurement E2 ``average`` as ``_basis_values``
    scores it; the smallest squared Schmidt coefficients ``minima`` (N, 2)
    across A|BC and B|AC; and the commuting bases ``sides`` (N, 2, 2, 2) of
    side A and side B.
    """

    basis: np.ndarray
    branch: np.ndarray
    average: np.ndarray
    minima: np.ndarray
    sides: np.ndarray


def theorem1_stack(states) -> Theorem1Stack:
    """``theorem1_measurement`` for a sequence of three-qubit states (or their
    (N, 8) amplitude rows), all in one pass over the stack.

    One ``_commuting_stack`` call on the 2N stack of every state and its
    A <-> B swap builds both commuting sides of every state, and its SVD
    gives both cut minima.  Decoupled states (AB purity above 1 - 1e-12)
    measure nothing.  The others whose side-A ``overlap`` is at most
    ``_EQ21_OVERLAP`` are Eq. 21 states and measure the Eq. 21 e-basis.  The
    rest measure their side-A commuting basis when its conditional Bloch
    vectors are parallel; else their side-B basis when its vectors are
    parallel; else the Eq. 21 e-basis.
    """
    t = three_qubit_stack(states)
    n = len(t)
    both = _commuting_stack(np.concatenate([t, t.transpose(0, 2, 1, 3)]))
    anti_a, anti_b = both.antiparallel[:n], both.antiparallel[n:]
    trivial = _ab_purities(t) > 1.0 - _AB_PURE_TOL
    eq21 = ~trivial & ((both.overlap[:n] <= _EQ21_OVERLAP) | (anti_a & anti_b))
    code = np.where(trivial, 3, np.where(eq21, 2, anti_a.astype(int)))
    sides = both.basis.reshape(2, n, 2, 2).swapaxes(0, 1)
    basis = np.where((code == 1)[:, None, None], sides[:, 1], sides[:, 0])
    # Where Charlie measures nothing every basis leaves AB as it is, so the computational one scores it.
    basis[trivial] = np.eye(2)
    if eq21.any():
        basis[eq21] = _eq21_bases(both.take(np.flatnonzero(eq21)))
    average = _basis_values(t.reshape(-1, 4, 2), basis, E2)
    return Theorem1Stack(basis, _BRANCHES[code], average, both.minimum.reshape(2, n).T, sides)


def theorem1_measurement(psi: PureState):
    """Constructive measurement on Charlie that is optimal for the E2 measure.

    Returns the measurement and its achieved average post-measurement E2,
    which equals min(E2 across A|BC, E2 across B|AC).
    """
    meas, th = _theorem1(psi)
    return meas, float(th.average[0])


def _theorem1(psi: PureState):
    """The measurement of ``theorem1_stack`` on one state, and that stack."""
    th = theorem1_stack([psi])
    return (Measurement.trivial() if th.branch[0] == "trivial" else Measurement.projective(th.basis[0])), th


def average_post_measurement(psi: PureState, meas: Measurement, m: MonotoneSpec) -> float:
    """Sum_x p_x E(phi_x) over the normalized post-measurement AB states.

    The branches are those of ``_pure_branches``, scored as the outcomes of
    one POVM by the search's kernel.  Branches whose AB reduction is not pure
    (the measurement element leaves C correlated) raise rather than silently
    evaluating a pure-state monotone.
    """
    if meas.dim != psi.dims[2]:
        raise InputError("measurement dimension does not match Charlie's system")
    rows = _pure_branches(psi.amplitudes.reshape(4, meas.dim), meas.elements)
    return float(_outcome_value_grad(rows.conj().T[None], m, grad=False)[0][0])


# ---------------------------------------------------------------------------
# Numeric EoA oracle


def _isometries(bases, n_c: int) -> np.ndarray:
    """Charlie bases as a (K, n_c, 4) stack of POVMs: each basis fills the
    first columns of a zero block, so the other outcomes never occur."""
    w = np.zeros((len(bases), n_c, 4), dtype=complex)
    for block, basis in zip(w, bases):
        block[:, : basis.shape[1]] = basis
    return w


def _basis_values(psi_mat: np.ndarray, bases: np.ndarray, m: MonotoneSpec) -> np.ndarray:
    """Average post-measurement entanglement under ``m`` of measuring each
    qubit-Charlie basis of bases (K, 2, 2) on psi_mat (4, 2), or on the
    matching state of a stack (K, 4, 2).  Each basis is scored as the search
    scores its rows, padded by ``_isometries``: the kernel's last bit depends
    on that shape, and the search's tie rule compares the two values."""
    return _outcome_value_grad(psi_mat.conj() @ _isometries(bases, 2), m, grad=False)[0]


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
    measures stays finite.  The gradient pulls back through psi_mat^T;
    psi_mat may also be a stack (K, 4, n_c), one per POVM.
    """
    total, g = _outcome_value_grad(psi_mat.conj() @ w, m)
    return total, psi_mat.swapaxes(-1, -2) @ g


def _outcome_value_grad(u: np.ndarray, m: MonotoneSpec, grad: bool = True):
    """``_povm_value_grad`` in terms of u = conj(psi_mat) @ w (K, 4, n_x),
    n_x outcomes per row: the values, and their Euclidean gradients with
    respect to u (K, 4, n_x), or None unless ``grad``."""
    shape = u.shape
    # conj(M) for every row and outcome, indexed [k, a, b, x]; conjugation
    # leaves p, gap and |det M| unchanged.
    u = u.reshape(len(u), 2, 2, shape[-1])
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
    if not grad:
        return total, None
    slope = np.where(live, m.eigenvalue_slopes(lam), 0.0)
    per_gap = slope / np.where(gap > 0.0, gap, 1.0)
    c_u = np.where(live, f - lam * slope, 0.0) - per_gap * lam * p_live
    adj_h = u[:, ::-1, ::-1].conj() * np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]  # adj(U)^dag
    g = 2.0 * (c_u[:, None, None] * u + (per_gap * det)[:, None, None] * adj_h)
    return total, g.reshape(shape)


def _theorem1_candidate(psi: PureState, m: MonotoneSpec):
    """The Theorem-1 measurement as (its value under ``m``, measurement, the
    ``Theorem1Stack`` of the state, the cuts E(A|BC) and E(B|AC) under ``m``
    (2,)), or None where that construction does not apply."""
    if psi.dims[2] != 2:
        return None
    meas, th = _theorem1(psi)
    value = float(_basis_values(psi.amplitudes.reshape(4, 2), th.basis, m)[0])
    return value, meas, th, m.eigenvalue_values(th.minima[0])


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _informed_starts(psi: PureState, theorem1):
    """Projective bases worth seeding the POVM search with, given the
    Theorem-1 candidate: the computational basis, and with a qubit Charlie
    the Hadamard basis, the Eq. 21 e-basis where the Theorem-1 pass chose
    it, and the side-A and side-B commuting bases the candidate carries.  On
    branches A and B the Theorem-1 basis is one of those two, so it is not
    added again."""
    if theorem1 is None:
        return [np.eye(psi.dims[2], dtype=complex)]
    th = theorem1[2]
    return [np.eye(2, dtype=complex), _HADAMARD, *(th.basis if th.branch[0] == "eq21" else []), *th.sides[0]]


def eoa_numeric(psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None):
    """Best found average entanglement over rank-1 POVMs on Charlie (<= 4 outcomes).

    Multi-start Riemannian gradient ascent over the isometries W (W W^dag = I)
    whose columns are the POVM vectors, seeded with the constructive bases
    and ``budget.random_starts`` random ones; the result is a certified lower
    bound on the entanglement of assistance.  The Theorem-1 basis counts at
    the value the search's own kernel gives it (``_basis_values``), so the
    result is never below the constructive value ``analyze`` reports.  The search
    stops once a measurement comes within 1e-12 of the min-cut upper bound;
    under ``concurrence`` with a qubit Charlie the Takagi basis reaches the
    exact concurrence of assistance, and the search is skipped.  With a
    qubit Charlie the constructive bases first climb the Bloch sphere by
    Newton steps (``_bloch_newton``), and stop as soon as the weak-duality
    bound of ``_dual_bound`` proves the first of them to become stationary
    optimal among all POVMs to within 1e-12; failing that, the bound is
    taken again at the best Newton end unless that is the basis already
    bounded.  Only if no bound certifies are the random starts drawn, and
    they climb the ascent with the Newton ends; a certified solve draws
    none.  With a qubit Charlie the min-cut comes from the cut minima of the
    Theorem-1 pass, not from factorizations of its own.
    """
    if psi.dims[:2] != (2, 2) or psi.dims[2] > 4:
        raise InputError("supported layouts are 2 x 2 x n with n <= 4")
    theorem1 = _theorem1_candidate(psi, m)
    bound = _min_cut(psi, m) if theorem1 is None else float(theorem1[3].min())
    return _eoa_search(psi, m, budget or SearchBudget(), theorem1, bound)


def _min_cut(psi: PureState, m: MonotoneSpec) -> float:
    """min(E(A|BC), E(B|AC)) under ``m``: Charlie's measurement is LOCC across
    both cuts, so no POVM on Charlie scores above it."""
    return float(m.eigenvalue_values(_cut_minima(psi.tensor_view()[None])[0]).min())


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


# The dual bound's Fibonacci grid of the Bloch sphere, the neighbours a grid
# point must top to seed a climb, the radii of the climb's successive
# stencils in the chart c + z c_perp of Charlie kets, and the Bloch angle (rad)
# of the caps around the touching directions outside which h must stay
# below -_DUAL_DEPTH.  Near-ties on perturbed W, GHZ and eq21 states keep h
# within 1.2e-8 of 0 there; on 600 lossy Haar states it stayed at most -5e-8.
_DUAL_GRID_POINTS = 600
_DUAL_NEIGHBOURS = 12
_DUAL_RADII = (0.035, 2e-3, 1.2e-4)
_DUAL_CAP = 0.35
_DUAL_DEPTH = 1e-7


@functools.cache
def _dual_grid():
    """The Fibonacci grid of the Bloch sphere as Charlie kets (N, 2), and the
    indices of each point and its nearest neighbours as the columns of a
    (1 + ``_DUAL_NEIGHBOURS``, N) table."""
    k = np.arange(_DUAL_GRID_POINTS) + 0.5
    z = 1.0 - 2.0 * k / _DUAL_GRID_POINTS
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    dirs = np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=1)
    near = np.empty((_DUAL_NEIGHBOURS + 1, _DUAL_GRID_POINTS), dtype=int)
    # Fifty rows of cosines at a time keep the N x N matrix out of memory.
    for rows in np.split(np.arange(_DUAL_GRID_POINTS), 12):
        near[:, rows] = np.argpartition(-dirs[rows] @ dirs.T, _DUAL_NEIGHBOURS, axis=1)[:, : _DUAL_NEIGHBOURS + 1].T
    return _antipodal_bases(dirs)[..., 0], near


# The centre and the corners of a unit hexagon in the complex plane.
_HEXAGON = np.concatenate([[0.0], np.exp(1j * np.pi * np.arange(6) / 3)])


def _climb_slack(centers: np.ndarray, slack):
    """The kets (M, 2) and values (M,) of ``slack`` on the stencils of a Newton
    climb from each unit ket of centers (K, 2).

    Around a ket c the kets c + z c_perp, normalized, chart the Bloch sphere.
    Each stage evaluates ``_HEXAGON`` scaled by the next radius of
    ``_DUAL_RADII`` around each centre, with values h_0 at the centre and h_k
    at the corners z_k, and fits the quadratic h_0 + Re(conj(g) z) +
    L |z|^2 / 4 + Re(conj(q) z^2) / 2 to them: g = sum_k (h_k - h_0) z_k / 3,
    L = 2 sum_k (h_k - h_0) / 3 and q = 2 sum_k (h_k - h_0) z_k^2 / 3 (the
    least-squares fit; sum_k z_k = sum_k z_k^2 = 0).  The next stage is
    centred at the fit's maximum z = 2 (2 q conj(g) - L g) / (L^2 - 4 |q|^2)
    where the fit is concave and that lies within two radii, elsewhere at
    the best point of the stencil."""
    kets, values = [], []
    for radius in _DUAL_RADII:
        perp = centers[:, ::-1].conj() * (-1.0, 1.0)
        points = centers[:, None] + (radius * _HEXAGON)[:, None] * perp[:, None]
        points = (points / np.sqrt((points.real**2 + points.imag**2).sum(axis=2, keepdims=True))).reshape(-1, 2)
        h = slack(points)
        kets.append(points)
        values.append(h)
        h = h.reshape(-1, 7)
        rise = h[:, 1:] - h[:, :1]
        g = rise @ _HEXAGON[1:] / 3.0
        lap = 2.0 * rise.sum(axis=1) / 3.0
        q = 2.0 * rise @ _HEXAGON[1:] ** 2 / 3.0
        det = lap * lap - 4.0 * (q * q.conj()).real
        concave = (det > 0.0) & (lap < 0.0)
        step = 2.0 * (2.0 * q * g.conj() - lap * g) / np.where(concave, det, 1.0)
        step = np.where(concave & (np.abs(step) <= 2.0), step, _HEXAGON[np.argmax(h, axis=1)])
        centers = centers + radius * step[:, None] * perp
        centers /= np.sqrt((centers.real**2 + centers.imag**2).sum(axis=1, keepdims=True))
    return np.concatenate(kets), np.concatenate(values)


def _dual_bound(w: np.ndarray, g: np.ndarray, psi_mat: np.ndarray, m: MonotoneSpec) -> float:
    """An upper bound U on the value of every rank-1 POVM on a qubit Charlie,
    with the multiplier read off the POVM w (2, 4) and its gradient g (2, 4),
    or inf where the maximum of h below is not isolated.

    One outcome's value phi(w) = p f(lam) is homogeneous of degree 2.  So for
    every Hermitian Lam and every POVM, sum_x w_x w_x^dag = I,

        sum_x phi(w_x) = tr Lam + sum_x |w_x|^2 h(w_x / |w_x|)
                      <= tr Lam + 2 max_{|c| = 1} h(c) = U,

    with h(c) = phi(c) - c^dag Lam c, since the weights |w_x|^2 sum to tr I = 2
    (weak duality, as in the optimality conditions of Yuen, Kennedy & Lax,
    IEEE Trans. Inf. Theory 1975).  Lam = (G W^dag + W G^dag) / 4 for G the
    gradient at W: tr Lam = Re tr(G^dag W) / 2 = F(W) by Euler's identity,
    and at a stationary W, G = 2 Lam W, so h and its gradient vanish at the
    normalized columns of W, the touching directions; U = F(W) iff h peaks
    there.

    The maximum is read on ``_dual_grid`` and at the touching directions in
    one kernel call, then climbed by ``_climb_slack`` from the grid's local
    maxima and the touching directions.  Where h comes within ``_DUAL_DEPTH``
    of 0 farther than ``_DUAL_CAP`` from every touching direction, another
    POVM nearly ties with w (near W, GHZ and eq21 states a ring of them does,
    near product states nearly every POVM does), and a climb cannot settle
    which is best: the bound is inf.
    """
    lam = (g @ w.conj().T + w @ g.conj().T) / 4.0
    norms = np.linalg.norm(w, axis=0)
    touching = (w[:, norms > 1e-7] / norms[norms > 1e-7]).T
    grid, near = _dual_grid()

    def slack(c):
        """h at each unit ket of the stack c (K, 2); phi(c) is the value of the one-outcome POVM c."""
        phi = _outcome_value_grad((c @ psi_mat.conj().T)[:, :, None], m, grad=False)[0]
        return phi - np.sum(c.conj() * (c @ lam.T), axis=1).real

    h = slack(np.concatenate([grid, touching]))
    seeds = np.concatenate([grid[h[: len(grid)] >= h[near].max(axis=0)], touching])
    climbed, h_climbed = _climb_slack(seeds, slack)
    kets = np.concatenate([grid, touching, climbed])
    h = np.concatenate([h, h_climbed])
    # The Bloch angle theta between unit kets a and b has cos(theta) = 2 |<a|b>|^2 - 1.
    away = (np.abs(kets @ touching.conj().T) ** 2).max(axis=1) < (1.0 + np.cos(_DUAL_CAP)) / 2.0
    if h.max(where=away, initial=-np.inf) >= -_DUAL_DEPTH:
        return np.inf
    return float(np.trace(lam).real + 2.0 * h.max())


# The Bloch chart of qubit-Charlie bases: around a basis W the bases W R(z),
# R(z) = [[1, -conj z], [z, 1]] / sqrt(1 + |z|^2), cover every basis but the
# swap of W's.  _CHART_Z are the points where ``_chart_derivatives`` reads
# the gradient: at 0, and at the steps along x and y of the forward
# differences that give the Hessian.  _TRUST_RADIUS is the initial bound on
# |z| of a step of ``_bloch_newton``.
_CHART_STEP = 1e-5
_TRUST_RADIUS = 0.5


def _rotations(z: np.ndarray) -> np.ndarray:
    """R(z) for each entry of the complex array z, as z.shape + (2, 2)."""
    scale = 1.0 / np.sqrt(1.0 + z.real**2 + z.imag**2)
    r = np.empty(z.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = scale
    r[..., 1, 0] = scale * z
    r[..., 0, 1] = -scale * z.conj()
    return r


_CHART_Z = np.array([0.0, _CHART_STEP, 1j * _CHART_STEP])
_CHART_R = _rotations(_CHART_Z)
# dR/dx and dR/dy at each point of _CHART_Z, indexed [point, axis, i, j]:
# R = N A for N = 1 / sqrt(1 + |z|^2) = R_00, so dR = N dA - (x dx + y dy)
# N^2 R, with dA/dx = [[0, -1], [1, 0]] and dA/dy = [[0, i], [i, 0]].
_CHART_D = (
    (_CHART_R[:, 0, 0, None, None, None] * np.array([[[0, -1], [1, 0]], [[0, 1j], [1j, 0]]]))
    - (np.stack([_CHART_Z.real, _CHART_Z.imag], axis=1) * _CHART_R[:, 0, 0, None].real ** 2)[:, :, None, None]
    * _CHART_R[:, None]
)


def _chart_derivatives(psi_mat: np.ndarray, bases: np.ndarray, m: MonotoneSpec):
    """The value under ``m`` of measuring each qubit-Charlie basis W of bases
    (K, 2, 2) on psi_mat (4, 2), and the gradient (K, 2) and Hessian (K, 2, 2)
    of z -> F(W R(z)) at z = 0, in the coordinates (Re z, Im z).

    With V = conj(psi_mat) W, the outcomes of W R(z) leave AB in the columns
    of V R(z), so dF = Re tr((V^dag G)^dag dR) for G the gradient of
    ``_outcome_value_grad`` there.  The Hessian is the forward difference of
    that gradient between z = 0 and the steps of ``_CHART_Z``, symmetrized;
    a basis takes three rows of one kernel call.
    """
    v = psi_mat.conj() @ bases
    u = v[:, None] @ _CHART_R
    values, g = _outcome_value_grad(u.reshape(-1, 4, 2), m)
    pulled = v.conj().swapaxes(1, 2)[:, None] @ g.reshape(u.shape)
    grads = np.einsum("kpij,paij->kpa", pulled.conj(), _CHART_D).real
    hess = (grads[:, 1:] - grads[:, :1]) / _CHART_STEP
    return values[::3], grads[:, 0], (hess + hess.swapaxes(1, 2)) / 2.0


def _bloch_newton(psi_mat: np.ndarray, m: MonotoneSpec, bases: np.ndarray, max_evals: int, target: float):
    """Climb the value of each qubit-Charlie basis of bases (K, 2, 2) on
    psi_mat (4, 2) over the Bloch sphere; return the end bases, whether the
    dual bound certified one of them, and the basis (2, 2) it was taken at,
    None where it was not taken.

    Each round moves every basis W to W R(z), with the gradient g and
    Hessian H of ``_chart_derivatives``: z is the Newton step -H^-1 g where H
    is negative definite, and elsewhere a step along g, to the maximum of
    the quadratic model where that is nearer than the basis's trust radius.
    A step is cut to the radius; after a gain the radius doubles, up to
    ``_TRUST_RADIUS``, and a step that loses value is undone and the radius
    quartered.  A basis stops when its gradient norm falls below
    ``_GRAD_TOL`` times its value (the test ``_stiefel_ascent`` applies to
    the same point), when its radius times that norm is at most
    ``_SEARCH_FATOL``, or after ``max_evals`` evaluations; all stop once
    one scores ``target``.  In the first evaluation where a basis is
    stationary below ``target``, ``_dual_bound`` is taken at the best such
    basis, and if it certifies that basis every basis ends where it is.
    """
    ends = bases.copy()
    if max_evals < 1:
        return ends, False, None
    w = bases
    value, grad, hess = _chart_derivatives(psi_mat, w, m)
    radius = np.full(len(w), _TRUST_RADIUS)
    ids = np.arange(len(w))
    bounded = None
    for evals in range(1, max_evals + 1):
        norm2 = (grad * grad).sum(axis=1)
        stationary = norm2 <= 2.0 * (_GRAD_TOL * value) ** 2
        if value.max() >= target:
            break
        if bounded is None and stationary.any():
            k = np.flatnonzero(stationary)[np.argmax(value[stationary])]
            bounded = w[k]
            best = _isometries(w[k : k + 1], 2)
            best_value, best_grad = _povm_value_grad(best, psi_mat, m)
            if _dual_bound(best[0], best_grad[0], psi_mat, m) <= best_value[0] + _SEARCH_FATOL:
                ends[ids] = w
                return ends, True, bounded
        going = ~stationary & (radius * radius * norm2 > _SEARCH_FATOL**2)
        if evals == max_evals or not going.any():
            break
        if not going.all():
            ends[ids[~going]] = w[~going]
            ids, w, value, grad, hess, radius, norm2 = (x[going] for x in (ids, w, value, grad, hess, radius, norm2))
        # -H^-1 g in closed form where H = [[a, b], [b, c]] is negative
        # definite; elsewhere the maximum of the model along g, where it has
        # one within the radius, else the step along g to the radius.
        a, b, c = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
        gx, gy = grad[:, 0], grad[:, 1]
        det = a * c - b * b
        concave = (a < 0.0) & (det > 0.0)
        newton = ((b * gy - c * gx) + 1j * (b * gx - a * gy)) / np.where(concave, det, 1.0)
        curv = a * gx * gx + 2.0 * b * gx * gy + c * gy * gy
        along = (gx + 1j * gy) * (norm2 / np.maximum(-curv, norm2 * np.sqrt(norm2) / radius))
        step = np.where(concave, newton, along)
        step *= np.minimum(1.0, radius / np.abs(step))
        trial = w @ _rotations(step)
        t_value, t_grad, t_hess = _chart_derivatives(psi_mat, trial, m)
        ok = t_value >= value
        w, hess = np.where(ok[:, None, None], trial, w), np.where(ok[:, None, None], t_hess, hess)
        value, grad = np.where(ok, t_value, value), np.where(ok[:, None], t_grad, grad)
        radius = np.where(ok, np.minimum(2.0 * radius, _TRUST_RADIUS), radius / 4.0)
    ends[ids] = w
    return ends, False, bounded


def _eoa_search(
    psi: PureState, m: MonotoneSpec, budget: SearchBudget, theorem1, bound: float, certificates=()
):
    """The search of ``eoa_numeric`` and ``analyze`` from a Theorem-1
    candidate (see ``_theorem1_candidate``).

    ``bound`` is the min-cut min(E(A|BC), E(B|AC)) under ``m``, as
    ``_min_cut`` gives it; under ``concurrence`` with a qubit
    Charlie it is lowered to C_a and the Takagi basis joins the
    ``certificates``, Charlie bases worth trying before any search.  A
    Theorem-1 candidate within ``_SEARCH_FATOL`` of the bound is returned at
    once.  Otherwise the best certificate that gets that close is taken and
    ``_povm_search`` is skipped; without one it runs, from the informed
    starts, and stops once any start gets that close: the other starts could
    add at most ``_SEARCH_FATOL``.  Certificates, starts, ends and the
    Theorem-1 candidate are all scored by one kernel, ``_outcome_value_grad``,
    in one (K, n_c, 4) shape; the Theorem-1 candidate wins every tie.
    """
    certificates = list(certificates)
    if m.kind == "concurrence" and psi.dims[2] == 2:
        # The AB form of psi: its trace norm is the concurrence of assistance
        # C_a (Laustsen, Verstraete & van Enk, QIC 2003).
        tau = _pair_taus(psi.tensor_view()[None])[0, 0]
        bound = min(bound, float(np.linalg.svd(tau, compute_uv=False).sum()))
        certificates.append(_takagi_basis(tau))
    if theorem1 is not None and theorem1[0] >= bound - _SEARCH_FATOL:
        return theorem1[:2]
    n_c = psi.dims[2]
    psi_mat = psi.amplitudes.reshape(4, n_c)
    candidates = _isometries(certificates, n_c)
    values = _povm_value_grad(candidates, psi_mat, m)[0]
    target = bound - _SEARCH_FATOL
    if values.max(initial=-np.inf) < target:
        candidates, values = _povm_search(psi_mat, m, budget, _informed_starts(psi, theorem1), target)
    best = int(np.argmax(values))
    best_val = float(values[best])
    if theorem1 is not None and theorem1[0] >= best_val:
        return theorem1[:2]
    return best_val, _povm_measurement(candidates[best])


def _povm_search(psi_mat: np.ndarray, m: MonotoneSpec, budget: SearchBudget, informed, target: float):
    """The POVMs (K, n_c, 4) that the search of ``_eoa_search`` scores on
    psi_mat (4, n_c), and their values: each start, then its end, so the
    first maximum is the first best POVM.  Every climb stops once a POVM
    scores ``target``.

    With a qubit Charlie the informed bases climb the Bloch sphere by
    ``_bloch_newton``, which takes the weak-duality bound of
    ``_dual_bound``, over every POVM, at the first of them to become
    stationary, and stops there if it certifies.  Failing that, the bound
    is taken again at the best Newton end, unless that end is the basis
    already bounded, whose bound would refuse again.  A solve that reaches
    ``target`` or is certified returns the Newton starts and ends alone;
    otherwise the Newton ends and ``budget.random_starts`` random
    isometries climb ``_stiefel_ascent`` together.
    With a larger Charlie the informed bases and the random isometries, from
    the same draws, climb ``_stiefel_ascent`` together.
    """
    n_c = psi_mat.shape[1]

    def climbed(w0):
        # Each random start is the polar factor of a Gaussian (n_c, 4) block
        # drawn as its real parts, then its imaginary parts.
        draws = np.random.default_rng(budget.seed).standard_normal((budget.random_starts, 8 * n_c))
        w0 = np.concatenate([w0, _polar((draws[:, : 4 * n_c] + 1j * draws[:, 4 * n_c :]).reshape(-1, n_c, 4))])
        ends = _stiefel_ascent(lambda x: _povm_value_grad(x, psi_mat, m), w0, budget.max_evals, _SEARCH_FATOL, target)
        return np.stack([w0, ends], axis=1).reshape(-1, n_c, 4)

    if n_c != 2:
        candidates = climbed(_isometries(informed, n_c))
        return candidates, _povm_value_grad(candidates, psi_mat, m)[0]
    starts = np.array(informed)
    ends, certified, bounded = _bloch_newton(psi_mat, m, starts, budget.max_evals, target)
    candidates = _isometries(np.stack([starts, ends], axis=1).reshape(-1, 2, 2), 2)
    values, grads = _povm_value_grad(candidates, psi_mat, m)
    best = int(np.argmax(values))
    settled = values[best] >= target or certified
    if not settled and (bounded is None or not np.array_equal(candidates[best, :, :2], bounded)):
        settled = _dual_bound(candidates[best], grads[best], psi_mat, m) <= values[best] + _SEARCH_FATOL
    if settled:
        return candidates, values
    tail = climbed(candidates[1::2])
    return np.concatenate([candidates, tail]), np.concatenate([values, _povm_value_grad(tail, psi_mat, m)[0]])


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
    _, th = _theorem1(psi)
    avg = float(th.average[0])
    cut_a, cut_b = (float(c) for c in E2.eigenvalue_values(th.minima[0]))
    mincut = min(cut_a, cut_b)
    gap = abs(avg - mincut)
    if gap > tol:
        raise VerificationError(
            f"constructive average {avg} misses min-cut {mincut} by {gap:.3e}",
            state=psi,
            gap=gap,
        )
    return Theorem1Report(cut_a=cut_a, cut_b=cut_b, constructive=avg, gap=gap)


@dataclass(frozen=True)
class LosslessStack:
    """``lossless_classifier`` for a stack of states, one entry per state.

    ``kinds`` holds the verdicts and ``objectives`` their objectives (0 for
    decoupled and maximally mixed states, inf where a marginal near 1/2 ends
    the test early).  ``tested`` marks the states that reached the
    marginal-preservation test; for those, ``bases`` is the candidate Charlie
    basis and ``probabilities`` its outcome weights (zero for the other
    states).  ``lambda_min`` is the cut party's smaller marginal
    eigenvalue, capped at 1/2.
    """

    kinds: np.ndarray
    objectives: np.ndarray
    tested: np.ndarray
    bases: np.ndarray
    probabilities: np.ndarray
    lambda_min: np.ndarray


def lossless_classifiers(states, cut: str, tol: float = 1e-9) -> LosslessStack:
    """``lossless_classifier`` for a sequence of three-qubit states (or their
    (N, 8) amplitude rows), all in one pass over the stack.

    The classifier's exits are masks: decoupled (AB purity above 1 - 1e-12),
    maximally mixed (both marginal minima within ``tol`` of 1/2), lossy early
    (the cut party's minimum alone that close), and otherwise the branch test
    on the null direction of T - a b^T: lossless iff the objective is at most
    ``tol`` and both outcomes have probability above 1e-9.  Only the states
    that reach the branch test compute it.
    """
    if cut not in ("A|BC", "B|AC"):
        raise InputError("cut must be 'A|BC' or 'B|AC'")
    t = three_qubit_stack(states)
    return _classify(t, cut, tol, _ab_purities(t) > 1.0 - _AB_PURE_TOL, _cut_minima(t))


def _classify(t: np.ndarray, cut: str, tol: float, decoupled: np.ndarray, minima: np.ndarray) -> LosslessStack:
    """``lossless_classifiers`` on the validated stack t, given its decoupled
    mask (AB purity above 1 - 1e-12) and its cut minima (N, 2), as
    ``theorem1_stack`` also computes them."""
    side, party = ("A", 0) if cut == "A|BC" else ("B", 1)
    lam = np.minimum(minima, 0.5)
    lam_side, lam_other = lam[:, party], lam[:, 1 - party]
    mixed = ~decoupled & (np.abs(lam_side - 0.5) <= tol) & (np.abs(lam_other - 0.5) <= tol)
    early = ~decoupled & ~mixed & (lam_side >= 0.5 - tol)
    tested = ~(decoupled | mixed | early)
    objectives = np.where(early, np.inf, 0.0)
    lossless = mixed.copy()
    bases = np.zeros((len(t), 2, 2), dtype=complex)
    probs = np.zeros((len(t), 2))
    rows = np.flatnonzero(tested)
    if rows.size:
        tr = t[rows]
        a, b, T = _pauli_stack(tr, side)
        bases[rows] = _antipodal_bases(np.linalg.svd(T - a[:, :, None] * b[:, None, :])[2][:, 2])
        _, probs[rows], live, conds = _branch_data(tr, bases[rows], side)
        diff = conds - reduced_stack(tr, (party,))[:, None]
        dist = np.sum(diff.real**2 + diff.imag**2, axis=(-2, -1))
        objectives[rows] = np.sum(probs[rows] * dist, axis=1, where=live)
        lossless[rows] = (objectives[rows] <= tol) & (probs[rows].min(axis=1) > 1e-9)
    kinds = np.where(decoupled, "decoupled", np.where(lossless, "lossless", "lossy"))
    return LosslessStack(kinds, objectives, tested, bases, probs, lam_side)


def lossless_classifier(psi: PureState, cut: str, tol: float = 1e-9) -> LosslessVerdict:
    """Decide whether helper decoupling can be lossless for strictly concave measures.

    Lossless requires either both marginals maximally mixed (every ensemble
    element maximally entangled; for qubits, unital channels are mixed-unitary
    so such a decomposition exists) or a two-outcome Charlie basis whose
    conditional states preserve the cut party's marginal.  The N = 1 call of
    ``lossless_classifiers``.
    """
    return _verdict(lossless_classifiers([psi], cut, tol))


def _verdict(c: LosslessStack) -> LosslessVerdict:
    """The ``LosslessVerdict`` of the first row of a classifier stack."""
    kind, objective = str(c.kinds[0]), float(c.objectives[0])
    if not c.tested[0]:
        cert = {"branch": "maximally-mixed", "lambda_min": float(c.lambda_min[0])} if kind == "lossless" else {}
    elif kind == "lossless":
        cert = {
            "branch": "marginal-preserving",
            "basis": c.bases[0],
            "weights": c.probabilities[0],
            "lambda_min": float(c.lambda_min[0]),
        }
    else:
        cert = {"basis": c.bases[0]}
    return LosslessVerdict(kind=kind, certificate=cert, objective=objective)


def unital_fixed_point_check(h: np.ndarray, probs, unitaries):
    """(preserved, commutes) for lambda_min under the random-unitary mixture;
    the N = 1 call of ``unital_fixed_point_checks``."""
    preserved, commutes = unital_fixed_point_checks(
        np.asarray(h, dtype=complex)[None],
        np.asarray(probs, dtype=float)[None],
        np.asarray(unitaries, dtype=complex)[None],
    )
    return bool(preserved[0]), bool(commutes[0])


def unital_fixed_point_checks(h: np.ndarray, probs: np.ndarray, unitaries: np.ndarray):
    """``unital_fixed_point_check`` for a stack of k mixtures of one size n:
    Hermitian H (k, 2, 2), probabilities (k, n) and unitaries (k, n, 2, 2),
    each mixture's first unitary I.  Returns the masks (preserved, commutes),
    each (k,): whether lambda_min(sum_i p_i U_i H U_i^dag) equals
    lambda_min(H) within 1e-10, and whether every U_i commutes with H within
    1e-10 in Frobenius norm."""
    if np.any(probs <= 0.0):
        raise InputError("all mixture probabilities must be positive")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-10):
        raise InputError("mixture probabilities must sum to 1")
    if np.max(np.abs(unitaries[:, 0] - np.eye(2)), initial=0.0) > 1e-10:
        raise InputError("the first unitary must be the identity")
    hs = h[:, None]
    mixed = np.sum(probs[..., None, None] * unitaries @ hs @ unitaries.conj().swapaxes(-1, -2), axis=1)
    preserved = np.abs(np.linalg.eigvalsh(h)[:, 0] - np.linalg.eigvalsh(mixed)[:, 0]) <= 1e-10
    comm = np.linalg.norm(hs @ unitaries - unitaries @ hs, axis=(-2, -1)).max(axis=1)
    return preserved, comm <= 1e-10


# ---------------------------------------------------------------------------
# Corollary checks


# The random starts of ``swap_infidelity`` and the evaluations of each.
_SWAP_STARTS = 24
_SWAP_EVALS = 600


def swap_infidelity(psi: PureState) -> float:
    """Best found infidelity between SWAP_AB |psi> and (U x V x W)|psi>.

    The identity is tried first.  Failing it, ``_stiefel_ascent`` climbs the
    fidelity over (U, V, W) in U(2)^3, held as one 6x6 block-diagonal unitary
    (``_swap_fidelity_grad``), from the identity and ``_SWAP_STARTS`` random
    points exp(i x.sigma), x uniform in [-pi, pi]^3 per factor, drawn with
    seed 0; ``_SWAP_EVALS`` evaluations each, and all stop once one is
    within 1e-10 of fidelity 1.
    """
    t = psi.tensor_view()
    target = t.transpose(1, 0, 2)
    best = 1.0 - abs(np.vdot(target, t)) ** 2
    if best < 1e-10:
        return float(max(best, 0.0))
    x = np.random.default_rng(0).uniform(-np.pi, np.pi, (_SWAP_STARTS, 3, 3))
    angle = np.linalg.norm(x, axis=-1)[..., None, None]
    # exp(i x.sigma) = cos|x| I + i sin|x| (x.sigma) / |x|
    factors = np.cos(angle) * np.eye(2) + 1j * np.sinc(angle / np.pi) * np.einsum("sfi,ijk->sfjk", x, PAULI_BASIS[1:])
    z0 = np.concatenate([np.eye(6)[None], _block_diagonal([factors[:, f] for f in range(3)])])
    z_end = _stiefel_ascent(lambda z: _swap_fidelity_grad(z, t, target), z0, _SWAP_EVALS, 1e-12, 1.0 - 1e-10)
    fidelity = _swap_fidelity_grad(np.concatenate([z0, z_end]), t, target)[0]
    return float(max(min(best, 1.0 - fidelity.max()), 0.0))


def _swap_fidelity_grad(z: np.ndarray, t: np.ndarray, target: np.ndarray):
    """F = |a|^2, a = <target|U x V x W|t>, for each block-diagonal unitary
    U + V + W of the stack z (K, 6, 6), and its Euclidean gradient (K, 6, 6),
    dF = Re tr(G^dag dZ): 2 a conj(da/dX) in the block of each factor X, zero
    off the blocks."""
    u, v, w = (z[:, 2 * f : 2 * f + 2, 2 * f : 2 * f + 2] for f in range(3))
    tc = target.conj()
    da_du = np.einsum("abc,sbj,scl,ijl->sai", tc, v, w, t)
    da_dv = np.einsum("abc,sai,scl,ijl->sbj", tc, u, w, t)
    da_dw = np.einsum("abc,sai,sbj,ijl->scl", tc, u, v, t)
    a = np.einsum("sai,sai->s", da_du, u)
    grad = np.zeros_like(z)
    for f, da in enumerate((da_du, da_dv, da_dw)):
        grad[:, 2 * f : 2 * f + 2, 2 * f : 2 * f + 2] = 2.0 * a[:, None, None] * da.conj()
    return (a * a.conj()).real, grad


@dataclass(frozen=True)
class CorollaryReport:
    i: bool
    ii: bool | None
    iii: bool
    swap_infidelity: float | None


def corollary_check(psi: PureState, tol: float, check_swap: bool = True) -> CorollaryReport:
    """Check the cut-symmetry equivalences on a three-qubit state."""
    return corollary_checks([psi], tol, check_swap)[0]


def corollary_checks(states, tol: float, check_swap: bool = True) -> list:
    """``corollary_check`` for each of a sequence of three-qubit states (or
    their (N, 8) amplitude rows): (i) equal E2 across A|BC and B|AC, (ii) a
    local-unitary SWAP symmetry, searched state by state, (iii) equal AC and
    BC concurrences, each within ``tol``."""
    t = three_qubit_stack(states)
    cuts, pairs = _corollary_values(t)
    psis = _unchecked_states(t) if check_swap else []
    reports = []
    for row in range(len(t)):
        infid = swap_infidelity(psis[row]) if check_swap else None
        reports.append(
            CorollaryReport(
                i=bool(abs(cuts[row, 0] - cuts[row, 1]) <= tol),
                ii=None if infid is None else infid <= tol,
                iii=bool(abs(pairs[row, 0] - pairs[row, 1]) <= tol),
                swap_infidelity=infid,
            )
        )
    return reports


def _corollary_values(t: np.ndarray):
    """The E2 cuts across A|BC and B|AC (N, 2) and the AC and BC concurrences
    (N, 2) of each state in the validated stack t: one factorization per cut
    and one ``pair_concurrences`` call."""
    return E2.eigenvalue_values(_cut_minima(t)), pair_concurrences(t)[:, 1:]


# ---------------------------------------------------------------------------
# Density-matrix restatement


def purify_with_qubit(rho: DensityMatrix) -> PureState:
    """Canonical purification of a rank-<=2 two-qubit state with a qubit helper."""
    if rho.dim != 4:
        raise InputError("expected a two-qubit density matrix")
    return PureState((2, 2, 2), _purifications(rho.entries[None])[0])


def _purifications(rho: np.ndarray) -> np.ndarray:
    """``purify_with_qubit`` for a stack (N, 4, 4) of rank-<=2 two-qubit
    density matrices, checked as ``DensityMatrix`` checks one: the (N, 8)
    amplitude rows sum_c sqrt(lam_c) |v_c>|c> over the two leading columns of
    the ``_density_factors`` factor."""
    v = _density_factors(rho)
    if np.any((np.abs(v[:, :, 2]) ** 2).sum(axis=1) > 1e-9):
        raise InputError("density matrix has rank greater than 2")
    amps = v[:, :, :2].reshape(len(rho), 8)
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def eoa_densities(rhos) -> tuple:
    """Assistance values of a stack (N, 4, 4) of rank-2 two-qubit density
    matrices, checked as ``DensityMatrix`` checks one, via purification, and
    twice the smaller of the two marginal minimum eigenvalues of each, which
    the values equal (Eq. 37)."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise InputError(f"expected a stack of 4x4 density matrices, got shape {rhos.shape}")
    th = theorem1_stack(_purifications(rhos))
    return th.average, 2.0 * min_marginal_eigenvalue(rhos)


def eoa_density(rho: DensityMatrix) -> float:
    """Assistance value of a rank-2 two-qubit state via purification.

    Equals twice the smaller of the two marginal minimum eigenvalues; the
    identity is asserted against the constructive measurement.
    """
    if rho.dim != 4:
        raise InputError("expected a two-qubit density matrix")
    avg, expected = (float(x[0]) for x in eoa_densities(rho.entries[None]))
    if abs(avg - expected) > 1e-8:
        raise VerificationError(
            f"assistance value {avg} misses 2*min marginal eigenvalue {expected}",
            state=purify_with_qubit(rho),
            gap=abs(avg - expected),
        )
    return avg


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
            "measurement": [_complex_pairs(elem) for elem in self.measurement.elements],
            "certificate": {
                k: v
                for k, v in self.lossless_verdict.certificate.items()
                if isinstance(v, (int, float, str))
            },
        }


def analyze(psi: PureState, m: MonotoneSpec, budget: SearchBudget | None = None) -> AssistanceReport:
    if psi.dims != (2, 2, 2):
        raise InputError("expected a three-qubit state")
    constructive, meas, th, cuts = theorem1 = _theorem1_candidate(psi, m)
    cut_a, cut_b = (float(c) for c in cuts)
    cut = "A|BC" if cut_a <= cut_b else "B|AC"
    # The classifier takes the decoupled mask and cut minima of the Theorem-1 pass.
    verdict = _verdict(_classify(psi.tensor_view()[None], cut, 1e-7, th.branch == "trivial", th.minima))
    # The marginal-preserving basis reaches the min-cut (every branch keeps
    # the cut party's marginal), so it certifies a lossless report.
    certificates = []
    if verdict.kind == "lossless" and "basis" in verdict.certificate:
        certificates.append(verdict.certificate["basis"])
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
