"""Small dense complex linear algebra and state-geometry kernels.

Everything in this module is a pure function on immutable values.  States are
indexed with the first subsystem most significant (index = 4a + 2b + c for
three qubits), and amplitudes are stored as flat complex vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


# A state whose norm is off by more than this is renormalized on construction.
NORM_TOL = 1e-12


def _frozen_array(a, dtype=complex) -> np.ndarray:
    out = np.asarray(a, dtype=dtype).copy()
    out.setflags(write=False)
    return out


# Pauli matrices, used throughout for qubit geometry: sigma_0 = I and
# sigma_1..3 = X, Y, Z as one read-only (4, 2, 2) stack, the two-qubit products
# PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu, and the spin flip sigma_y (x) sigma_y.
PAULI_BASIS = _frozen_array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
SIGMA_X, SIGMA_Y, SIGMA_Z = PAULI_BASIS[1:]
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_PRODUCTS = _frozen_array(np.einsum("mac,nbd->mnabcd", PAULI_BASIS, PAULI_BASIS).reshape(4, 4, 4, 4))
SIGMA_YY = PAULI_PRODUCTS[2, 2]


@dataclass(frozen=True)
class PureState:
    """Normalized pure state over an ordered list of subsystem dimensions."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 2 for d in dims):
            raise InputError(f"subsystem dimensions must be >= 2, got {dims}")
        amps = _frozen_array(self.amplitudes)
        if amps.ndim != 1 or amps.size != math.prod(dims):
            raise InputError(
                f"amplitude vector length {amps.size} does not match dims {dims}"
            )
        nrm = np.linalg.norm(amps)
        if not math.isfinite(nrm):  # a NaN or infinite amplitude makes the norm so
            raise InputError("state amplitudes must be finite")
        if abs(nrm - 1.0) > 1e-10:
            raise InputError(f"state norm {nrm} is not 1")
        if abs(nrm - 1.0) > NORM_TOL:
            amps = _frozen_array(amps / nrm)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)

    def density(self) -> "DensityMatrix":
        return DensityMatrix.from_matrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.entries)
        if m.shape != (self.dim, self.dim):
            raise InputError(f"entries shape {m.shape} does not match dim {self.dim}")
        check_densities(m[None])
        object.__setattr__(self, "entries", m)

    @staticmethod
    def from_matrix(m) -> "DensityMatrix":
        m = np.asarray(m, dtype=complex)
        return DensityMatrix(dim=m.shape[0], entries=m)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True)
class BlochVector:
    """3-vector representation of a qubit density matrix, rho = (I + r.sigma)/2."""

    r: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.r, dtype=float)
        if v.shape != (3,):
            raise InputError("Bloch vector must have 3 real components")
        object.__setattr__(self, "r", v)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.r))


@dataclass(frozen=True)
class SchmidtForm:
    """Squared Schmidt coefficients (non-increasing) with the local bases.

    ``coefficients[k]`` is the squared coefficient of the k-th Schmidt term;
    ``left_basis[:, k]`` / ``right_basis[:, k]`` are the corresponding local
    vectors.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Flat amplitude vector (left subsystem most significant)."""
        mat = (self.left_basis * np.sqrt(self.coefficients)) @ self.right_basis.conj().T
        return mat.reshape(-1)


# ---------------------------------------------------------------------------
# Operations


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def reduced_density(psi: PureState, keep) -> DensityMatrix:
    """Partial trace of |psi><psi| keeping the listed subsystems."""
    keep = tuple(sorted(int(k) for k in keep))
    if any(k < 0 or k >= psi.num_subsystems for k in keep):
        raise InputError(f"keep indices {keep} out of range")
    return DensityMatrix.from_matrix(reduced_stack(psi.tensor_view()[None], keep)[0])


def reduced_stack(t: np.ndarray, keep) -> np.ndarray:
    """Partial traces keeping the listed subsystems of the pure states in the
    stack t (N, *dims), as an (N, d, d) array; the caller has validated t."""
    keep = tuple(sorted(int(k) for k in keep))
    drop = tuple(i for i in range(t.ndim - 1) if i not in keep)
    d_keep = int(np.prod([t.shape[1 + k] for k in keep]))
    mat = t.transpose((0,) + tuple(1 + i for i in keep + drop)).reshape(len(t), d_keep, -1)
    return mat @ mat.conj().swapaxes(-1, -2)


def three_qubit_stack(states) -> np.ndarray:
    """The (N, 2, 2, 2) amplitude stack of a sequence of three-qubit ``PureState``s,
    or of an (N, 8) or (N, 2, 2, 2) complex array, which is checked as
    ``PureState`` checks one state: finite, unit norm within 1e-10, and
    renormalized where the norm is off by more than ``NORM_TOL``."""
    if isinstance(states, np.ndarray):
        t = np.asarray(states, dtype=complex).reshape(len(states), -1)
        if t.shape[1] != 8:
            raise InputError(f"expected three-qubit amplitude rows, got shape {states.shape}")
        nrm = np.linalg.norm(t, axis=1)
        if not np.isfinite(nrm).all():
            raise InputError("state amplitudes must be finite")
        if np.any(np.abs(nrm - 1.0) > 1e-10):
            raise InputError("state norms are not 1")
        off = np.abs(nrm - 1.0) > NORM_TOL
        t = np.where(off[:, None], t / nrm[:, None], t)
    else:
        states = list(states)
        if any(psi.dims != (2, 2, 2) for psi in states):
            raise InputError("expected a three-qubit state")
        t = np.array([psi.amplitudes for psi in states], dtype=complex).reshape(len(states), 8)
    return t.reshape(-1, 2, 2, 2)


def check_densities(m: np.ndarray) -> np.ndarray:
    """Check each matrix of the stack m (N, d, d) as ``DensityMatrix`` checks
    one: finite, Hermitian and of unit trace within 1e-10, no eigenvalue below
    -1e-10.  Returns m."""
    _check_spectra(np.linalg.eigvalsh(_check_entries(m)))
    return m


def _check_entries(m: np.ndarray) -> np.ndarray:
    """The checks of ``check_densities`` that need no eigenvalues; returns m."""
    asymmetry = np.abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not math.isfinite(asymmetry):  # a NaN or infinite entry makes it so
        raise InputError("matrix entries must be finite")
    if asymmetry > 1e-10:
        raise InputError("matrix is not Hermitian")
    trace = np.trace(m, axis1=-2, axis2=-1)
    if np.abs(trace.real - 1.0).max(initial=0.0) > 1e-10 or np.abs(trace.imag).max(initial=0.0) > 1e-10:
        raise InputError("matrix trace is not 1")
    return m


def _check_spectra(evals: np.ndarray) -> None:
    """Raise where a spectrum of the stack evals (N, d), ascending, has an
    eigenvalue below -1e-10."""
    low = evals[:, 0].min(initial=np.inf)
    if low < -1e-10:
        raise InputError(f"matrix has negative eigenvalue {low}")


def _density_factors(m: np.ndarray) -> np.ndarray:
    """A factor V (N, d, d) with V V^dag = rho for each matrix rho of the stack
    m (N, d, d), checked as ``check_densities`` checks it, from one ``eigh``:
    column k is sqrt(lam_k) v_k with the eigenvalues descending, and
    eigenvalues <= 1e-12 are flushed to 0, so the nonzero columns are a prefix
    spanning the support."""
    evals, evecs = np.linalg.eigh(_check_entries(m))
    _check_spectra(evals)
    evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
    return evecs * np.sqrt(np.where(evals > 1e-12, evals, 0.0))[:, None, :]


def _unchecked_states(t: np.ndarray) -> list:
    """The rows of a stack t (N, *dims) that the caller has validated (as
    ``three_qubit_stack`` does) as ``PureState``s, without validating them
    again."""
    dims = tuple(t.shape[1:])
    states = []
    for row in _frozen_array(t.reshape(len(t), -1)):
        psi = object.__new__(PureState)
        object.__setattr__(psi, "dims", dims)
        object.__setattr__(psi, "amplitudes", row)
        states.append(psi)
    return states


def min_marginal_eigenvalue(entries: np.ndarray):
    """Smaller of the two single-qubit marginals' minimum eigenvalues of a 4x4
    two-qubit matrix, over any leading stack axes (a float for one matrix)."""
    t = entries.reshape(entries.shape[:-2] + (2, 2, 2, 2))
    red_a = np.trace(t, axis1=-3, axis2=-1)
    red_b = np.trace(t, axis1=-4, axis2=-2)
    lam = np.minimum(np.linalg.eigvalsh(red_a)[..., 0], np.linalg.eigvalsh(red_b)[..., 0])
    return float(lam) if lam.ndim == 0 else lam


def schmidt_decompose(psi: PureState, cut) -> SchmidtForm:
    """SVD of the amplitude matrix across the bipartition ``cut | rest``."""
    if psi.num_subsystems < 2:
        raise InputError("Schmidt decomposition needs at least 2 subsystems")
    left = tuple(sorted(int(k) for k in cut))
    right = tuple(i for i in range(psi.num_subsystems) if i not in left)
    if not left or not right:
        raise InputError("cut must be a proper bipartition")
    t = psi.tensor_view().transpose(left + right)
    d_left = int(np.prod([psi.dims[k] for k in left]))
    mat = t.reshape(d_left, -1)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtForm(
        coefficients=_frozen_array(s**2, dtype=float),
        left_basis=_frozen_array(u),
        right_basis=_frozen_array(vh.conj().T),
    )


def pauli_coefficients(entries: np.ndarray) -> np.ndarray:
    """Re tr(rho sigma_mu (x) sigma_nu) as a 4x4 matrix R for each 4x4 rho (Bloch
    vectors R[1:, 0] and R[0, 1:], correlations R[1:, 1:]), Re tr(rho sigma_mu)
    as a 4-vector for each 2x2 rho; leading axes are a stack of inputs."""
    if entries.shape[-2:] == (4, 4):
        return np.einsum("...ij,mnji->...mn", entries, PAULI_PRODUCTS).real
    if entries.shape[-2:] == (2, 2):
        return np.einsum("...ij,mji->...m", entries, PAULI_BASIS).real
    raise InputError(f"Pauli expansion needs 2x2 or 4x4 matrices, got {entries.shape}")


def bloch_vector(rho: DensityMatrix) -> BlochVector:
    if rho.dim != 2:
        raise InputError("Bloch vector is defined for qubits only")
    return BlochVector(pauli_coefficients(rho.entries)[1:])


def from_bloch(r: BlochVector) -> DensityMatrix:
    if r.length > 1.0 + 1e-12:
        raise InputError(f"Bloch vector length {r.length} exceeds 1")
    v = np.clip(r.r, -1.0, 1.0) if r.length <= 1.0 else r.r / r.length
    m = 0.5 * (np.eye(2, dtype=complex) + sum(v[i] * PAULIS[i] for i in range(3)))
    return DensityMatrix.from_matrix(m)


def haar_random_pure(dims, seed) -> PureState:
    """Unitarily-invariant random pure state, deterministic per seed; the N = 1
    call of ``haar_random_rows``."""
    dims = tuple(int(d) for d in dims)
    return PureState(dims, haar_random_rows(math.prod(dims), [seed])[0])


def haar_random_rows(n: int, seeds) -> np.ndarray:
    """The amplitude rows (N, n) of ``haar_random_pure`` over n amplitudes, one
    per seed, normalized.  Each norm is sqrt(Re z . Re z + Im z . Im z) as the
    1-D ``np.linalg.norm`` takes it, by row-by-column matmuls that numpy hands
    to the same BLAS dot (an axis-wise norm or sum adds in another order), so
    every row equals its one-seed draw bit for bit."""
    z = np.empty((len(seeds), n), dtype=complex)
    for row, seed in zip(z, seeds):
        rng = np.random.default_rng(seed)
        row[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    re, im = z.real[:, None], z.imag[:, None]
    return z / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0]


def random_density_matrix(dim, rank, seed) -> DensityMatrix:
    """Wishart-distributed density matrix of the requested rank; the N = 1 call
    of ``random_density_matrices``."""
    return DensityMatrix.from_matrix(random_density_matrices(dim, [rank], [seed])[0])


def random_density_matrices(dim: int, ranks, seeds) -> np.ndarray:
    """The entries (N, dim, dim) of ``random_density_matrix`` for each (rank,
    seed) pair, G G^dag / tr(G G^dag) for a complex Gaussian G (dim, rank).
    Rows of one rank share one stacked product and normalization, without
    padding G to a common width, so every row equals its N = 1 call bit for
    bit; validation is the caller's."""
    groups = {}  # rank -> (rows, Gaussian draws)
    for row, (rank, seed) in enumerate(zip(ranks, seeds)):
        if not 1 <= rank <= dim:
            raise InputError(f"rank must lie in [1, {dim}]")
        rng = np.random.default_rng(seed)
        rows, draws = groups.setdefault(int(rank), ([], []))
        rows.append(row)
        draws.append(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    out = np.empty((len(seeds), dim, dim), dtype=complex)
    for rows, draws in groups.values():
        g = np.array(draws)
        m = g @ g.conj().swapaxes(-1, -2)
        out[rows] = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return out


def haar_random_unitary(dim, seed) -> np.ndarray:
    """Haar-random unitary, deterministic per seed; the N = 1 call of
    ``haar_random_unitaries``."""
    return haar_random_unitaries(dim, [seed])[0]


def haar_random_unitaries(dim: int, seeds) -> np.ndarray:
    """The unitaries (N, dim, dim) of ``haar_random_unitary``, one per seed:
    Q of the QR factorization of a complex Gaussian matrix, its columns
    rephased by the phases of R's diagonal, with one stacked QR and phase fix."""
    z = np.empty((len(seeds), dim, dim), dtype=complex)
    for row, seed in zip(z, seeds):
        rng = np.random.default_rng(seed)
        row[:] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.dims != b.dims:
        raise InputError("states live on different subsystem layouts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# Gradient ascent over isometries (the POVM search and the convex roof)


def _polar(b: np.ndarray) -> np.ndarray:
    """The polar factor W = (B B^dag)^(-1/2) B of each block of the stack b (K, n, d),
    the nearest point with W W^dag = I; eigenvalues of B B^dag are floored at 1e-12."""
    evals, evecs = np.linalg.eigh(b @ b.conj().transpose(0, 2, 1))
    scale = 1.0 / np.sqrt(np.maximum(evals, 1e-12))
    inv_sqrt = (evecs * scale[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    return inv_sqrt @ b


def _riemannian_gradient(w: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """The tangent part G - sym(G W^dag) W of the Euclidean gradient G at W W^dag = I."""
    gw = egrad @ w.conj().transpose(0, 2, 1)
    return egrad - 0.5 * (gw + gw.conj().transpose(0, 2, 1)) @ w


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A^dag B) for each pair of the stacks."""
    return np.einsum("kij,kij->k", a.conj(), b).real


# Armijo's sufficient-increase fraction, the weight of the past in the moving
# average the ascent's steps must beat, the gradient norm, relative to the
# value, below which a start counts as stationary, and the least step gain.
_ARMIJO = 1e-4
_MEMORY = 0.85
_GRAD_TOL = 1e-9
_FATOL = 1e-12


def _stiefel_ascent(fun, w0: np.ndarray, max_evals: int, target: float) -> np.ndarray:
    """Maximize ``fun``, which maps a stack to its values and Euclidean gradients
    (dF = Re tr(G^dag dW)), from every point of the stack w0 (K, n, d),
    W W^dag = I; return the end points.

    Riemannian gradient ascent with the polar retraction: each start's step
    alternates the long and short Barzilai-Borwein lengths and is halved
    until it beats a moving average of the start's past values by Armijo's
    share (a nonmonotone search after Zhang & Hager, as in Wen & Yin, Math.
    Program. 2013).  A start stops when its gradient norm falls below
    ``_GRAD_TOL`` times its value, when a step too short to gain ``_FATOL``
    fails, or after ``max_evals`` evaluations, line-search trials included;
    all stop once one scores ``target``.  Zero columns of W stay zero.
    """
    end = w0.copy()
    if max_evals < 1:
        return end
    value, egrad = fun(w0)
    grad = _riemannian_gradient(w0, egrad)
    norm2 = _inner(grad, grad)
    top = value.max(initial=-np.inf)
    ids = np.flatnonzero(np.isfinite(value) & (norm2 > (_GRAD_TOL * value) ** 2))
    w, value, grad, norm2 = w0[ids], value[ids], grad[ids], norm2[ids]
    step = 1.0 / np.sqrt(np.maximum(norm2, 1e-300))
    ref = value.copy()
    long_step = np.ones(len(ids), dtype=bool)
    for _ in range(max_evals - 1):
        if top >= target or not ids.size:
            break
        trial = _polar(w + step[:, None, None] * grad)
        t_value, t_egrad = fun(trial)
        ok = t_value >= ref + _ARMIJO * step * norm2
        t_grad = _riemannian_gradient(trial, t_egrad)
        s, y = trial - w, grad - t_grad
        sy, t_norm2 = _inner(s, y), _inner(t_grad, t_grad)
        curved = sy > 0.0
        bb = np.where(long_step, _inner(s, s), sy) / np.where(curved, np.where(long_step, sy, _inner(y, y)), 1.0)
        okm = ok[:, None, None]
        w, grad = np.where(okm, trial, w), np.where(okm, t_grad, grad)
        value, norm2 = np.where(ok, t_value, value), np.where(ok, t_norm2, norm2)
        ref = np.where(ok, ref + (1.0 - _MEMORY) * (t_value - ref), ref)
        # Without positive curvature along the step, the next one is unit length.
        step = np.where(ok, np.where(curved, bb, 1.0 / np.sqrt(np.maximum(t_norm2, 1e-300))), 0.5 * step)
        long_step ^= ok
        top = max(top, value.max())
        going = np.where(ok, norm2 > (_GRAD_TOL * value) ** 2, step * norm2 > _FATOL)
        if not going.all():
            end[ids[~going]] = w[~going]
            ids, w, value, grad, norm2 = ids[going], w[going], value[going], grad[going], norm2[going]
            step, ref, long_step = step[going], ref[going], long_step[going]
    end[ids] = w
    return end


# ---------------------------------------------------------------------------
# JSON formats: a complex array is written as nested lists of [re, im] pairs


def _complex_pairs(a: np.ndarray) -> list:
    """The complex array a as nested lists whose innermost lists are [re, im]."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_complex_pairs(pairs) -> np.ndarray:
    """The complex array written by ``_complex_pairs``; raises ``ValueError`` on
    anything else."""
    parts = np.asarray(pairs)
    if parts.dtype.kind not in "iuf" or parts.shape[-1:] != (2,):
        raise ValueError("complex entries must be [re, im] pairs of numbers")
    return parts.astype(float).view(complex)[..., 0]


def _state_payload(psi: PureState) -> dict:
    return {"dims": list(psi.dims), "amplitudes": _complex_pairs(psi.amplitudes)}


def _state_parts(payload: dict) -> tuple:
    """The dims and amplitudes of a ``_state_payload``, unvalidated."""
    return tuple(int(d) for d in payload["dims"]), _from_complex_pairs(payload["amplitudes"])


def state_to_json(psi: PureState) -> str:
    return json.dumps(_state_payload(psi), sort_keys=True)


def state_from_json(text: str) -> PureState:
    try:
        dims, amps = _state_parts(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed state file: {exc}") from exc
    return PureState(dims, amps)


def density_to_json(rho: DensityMatrix) -> str:
    return json.dumps({"dim": rho.dim, "entries": _complex_pairs(rho.entries)}, sort_keys=True)


def density_from_json(text: str) -> DensityMatrix:
    try:
        entries = _from_complex_pairs(json.loads(text)["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed density-matrix file: {exc}") from exc
    return DensityMatrix.from_matrix(entries)
