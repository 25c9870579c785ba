"""Named three-qubit states and parametric families used by the verifiers.

Family conventions:

* ``eq21``: sqrt(p)|00>|eta0> + sqrt(1-p)|11>|eta1> with <eta0|eta1> equal to
  the requested overlap; eta0 = |0>, eta1 = overlap|0> + sqrt(1-|overlap|^2)|1>.
* ``thm2``: sum_x sqrt(p_x) (U_x x V_x)|lam> |x> with |lam> = sqrt(lam)|00> +
  sqrt(1-lam)|11>, U_x = diag(1, e^{i phi_x}) and |x> the computational basis
  of the helper qubit.
* ``corollary_symmetric``: sqrt(p)|Phi+>|0> + sqrt(1-p)|phi>|1> where phi is a
  two-qubit state satisfying SWAP|phi> = (U x U*)|phi>; such phi always exist
  because |Phi+> is a fixed point of (U^dag x U^T) SWAP for every unitary U.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    InputError,
    PureState,
    haar_random_pure,
    haar_random_unitaries,
    haar_random_unitary,
    schmidt_decompose,
)

_FAMILY_KINDS = (
    "haar",
    "ghz",
    "w",
    "product",
    "bell_c",
    "eq21",
    "thm2",
    "corollary_symmetric",
)

# SWAP of the two system qubits in the computational basis.
_SWAP4 = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


@dataclass(frozen=True)
class FamilySpec:
    """Tagged choice of a named state or a parametric family member."""

    kind: str
    seed: int = 0
    p: float | None = None
    overlap: complex | None = None
    lambda_min: float | None = None
    weights: tuple | None = None
    phases: tuple | None = None
    unitaries: tuple | None = None
    u_local: np.ndarray | None = None
    phi: PureState | None = None

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if self.kind == "eq21":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise InputError("eq21 family needs p in (0, 1)")
            if self.overlap is None or abs(self.overlap) > 1.0 + 1e-12:
                raise InputError("eq21 family needs |overlap| <= 1")
        if self.kind == "thm2":
            if self.lambda_min is not None and not 0.0 < self.lambda_min <= 0.5:
                raise InputError("thm2 family needs lambda_min in (0, 1/2]")
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=float)
                if len(w) != 2 or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
                    raise InputError(
                        "thm2 family needs two positive weights summing to 1"
                    )
        if self.kind == "corollary_symmetric":
            if self.p is not None and not 0.0 < self.p < 1.0:
                raise InputError("corollary family needs p in (0, 1)")


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    certificate: dict


def ghz_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return PureState((2, 2, 2), amps)


def w_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[2] = amps[4] = 1.0 / np.sqrt(3.0)
    return PureState((2, 2, 2), amps)


def product_state() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    return PureState((2, 2, 2), amps)


def bell_times_c() -> PureState:
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[6] = 1.0 / np.sqrt(2.0)  # (|00> + |11>)/sqrt(2) x |0>
    return PureState((2, 2, 2), amps)


def generate(spec: FamilySpec) -> PureState:
    """Produce the state described by a FamilySpec, deterministic per seed."""
    if spec.kind == "haar":
        return haar_random_pure((2, 2, 2), spec.seed)
    if spec.kind == "ghz":
        return ghz_state()
    if spec.kind == "w":
        return w_state()
    if spec.kind == "product":
        return product_state()
    if spec.kind == "bell_c":
        return bell_times_c()
    if spec.kind == "eq21":
        return PureState((2, 2, 2), eq21_rows([spec.p], [spec.overlap])[0])
    if spec.kind == "thm2":
        return PureState((2, 2, 2), thm2_rows([spec])[0])
    return _generate_corollary_symmetric(spec)


def eq21_rows(p, overlap) -> np.ndarray:
    """The amplitude rows (N, 8) of the eq21 members with weights p (N,) and
    overlaps <eta0|eta1> (N,), assembled in one pass; each row equals its
    N = 1 call of ``generate`` bit for bit."""
    p = np.asarray(p, dtype=float)
    o = np.asarray(overlap, dtype=complex)
    eta1 = np.stack([o, np.sqrt(np.maximum(0.0, 1.0 - np.abs(o) ** 2))], axis=-1)
    t = np.zeros((len(p), 2, 2, 2), dtype=complex)
    t[:, 0, 0, 0] = np.sqrt(p)  # eta0 = |0>
    t[:, 1, 1] = np.sqrt(1.0 - p)[:, None] * eta1
    return t.reshape(-1, 8)


def thm2_rows(specs) -> np.ndarray:
    """The amplitude rows (N, 8) of ``generate`` for a sequence of thm2 specs.

    Each spec's missing fields come from ``default_rng(spec.seed)`` in the
    one-state order: lambda_min, the first weight, the two phases, then one
    seed per local unitary V_x.  The unitaries, the products
    sqrt(p_x) U_x diag(sqrt(lam), sqrt(1 - lam)) V_x^T and the assembly run
    once over the stack, so every row equals its N = 1 call bit for bit.
    """
    n = len(specs)
    lam, weights, phases = np.empty(n), np.empty((n, 2)), np.empty((n, 2))
    vs = np.empty((n, 2, 2, 2), dtype=complex)
    drawn, unitary_seeds = [], []
    for i, spec in enumerate(specs):
        rng = np.random.default_rng(spec.seed)
        lam[i] = spec.lambda_min if spec.lambda_min is not None else rng.uniform(0.05, 0.5)
        if spec.weights is not None:
            weights[i] = spec.weights
        else:
            w0 = rng.uniform(0.1, 0.9)
            weights[i] = (w0, 1.0 - w0)
        phases[i] = spec.phases if spec.phases is not None else rng.uniform(0, 2 * np.pi, 2)
        if spec.unitaries is not None:
            vs[i] = spec.unitaries
        else:
            drawn.append(i)
            unitary_seeds += [rng.integers(2**32), rng.integers(2**32)]
    if drawn:
        vs[drawn] = haar_random_unitaries(2, unitary_seeds).reshape(-1, 2, 2, 2)
    lam_ket = np.zeros((n, 1, 2, 2), dtype=complex)
    lam_ket[:, 0, 0, 0], lam_ket[:, 0, 1, 1] = np.sqrt(lam), np.sqrt(1.0 - lam)
    u = np.zeros((n, 2, 2, 2), dtype=complex)
    u[..., 0, 0], u[..., 1, 1] = 1.0, np.exp(1j * phases)
    mats = np.sqrt(weights)[..., None, None] * (u @ lam_ket @ vs.swapaxes(-1, -2))
    # mats[:, x] is the AB block of helper outcome x: t[a, b, x].
    return mats.transpose(0, 2, 3, 1).reshape(n, 8)


def swap_symmetric_two_qubit(u: np.ndarray, seed: int) -> PureState:
    """Sample |phi> with SWAP|phi> = (U x U*)|phi> from the fixed subspace."""
    u = np.asarray(u, dtype=complex)
    m = np.kron(u.conj().T, u.T) @ _SWAP4
    evals, evecs = np.linalg.eig(m)
    fixed = evecs[:, np.abs(evals - 1.0) < 1e-8]
    if fixed.shape[1] == 0:
        raise ArithmeticError("fixed subspace unexpectedly empty")
    # Columns of eig output need not be orthonormal within a cluster; fix that.
    q, _ = np.linalg.qr(fixed)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(q.shape[1]) + 1j * rng.standard_normal(q.shape[1])
    vec = q @ c
    return PureState((2, 2), vec / np.linalg.norm(vec))


def _generate_corollary_symmetric(spec: FamilySpec) -> PureState:
    rng = np.random.default_rng(spec.seed)
    p = spec.p if spec.p is not None else rng.uniform(0.2, 0.8)
    u = (
        np.asarray(spec.u_local, dtype=complex)
        if spec.u_local is not None
        else haar_random_unitary(2, rng.integers(2**32))
    )
    if spec.phi is not None:
        phi = spec.phi.amplitudes
        mismatch = np.linalg.norm(_SWAP4 @ phi - np.kron(u, u.conj()) @ phi)
        if mismatch > 1e-8:
            raise InputError("phi does not satisfy the SWAP = U x U* symmetry")
    else:
        phi = swap_symmetric_two_qubit(u, int(rng.integers(2**32))).amplitudes
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    t = np.zeros((4, 2), dtype=complex)
    t[:, 0] = np.sqrt(p) * bell
    t[:, 1] = np.sqrt(1.0 - p) * phi
    return PureState((2, 2, 2), t.reshape(-1))


def verify_family_membership(psi: PureState, kind: str) -> MembershipResult:
    """Decide membership of psi in a family up to local unitaries."""
    if psi.dims != (2, 2, 2):
        raise InputError("expected a three-qubit state")
    if kind == "thm2":
        return _verify_thm2(psi)
    if kind == "eq21":
        return _verify_eq21(psi)
    raise InputError(f"membership checks support 'thm2' and 'eq21', not {kind!r}")


def _verify_thm2(psi: PureState) -> MembershipResult:
    from .assistance import lossless_classifier

    verdict = lossless_classifier(psi, "A|BC", tol=1e-8)
    member = verdict.kind in ("lossless", "decoupled")
    cert = {"verdict": verdict.kind}
    if verdict.kind == "lossless":
        cert.update(verdict.certificate)
    return MembershipResult(member=member, certificate=cert)


def _verify_eq21(psi: PureState) -> MembershipResult:
    """Membership iff the AB support is spanned by two locally orthogonal products."""
    sf = schmidt_decompose(psi, cut=(0, 1))
    if sf.coefficients[-1] < 1e-10:
        # Helper decoupled: the p -> {0, 1} or overlap -> 1 edge of the family.
        return MembershipResult(member=True, certificate={"degenerate_edge": True})
    m1 = sf.left_basis[:, 0].reshape(2, 2)
    m2 = sf.left_basis[:, 1].reshape(2, 2)
    products = _product_states_in_span(m1, m2)
    if len(products) != 2:
        return MembershipResult(member=False, certificate={"products_found": len(products)})
    (a1, b1), (a2, b2) = products
    ortho = abs(np.vdot(a1, a2)) < 1e-6 and abs(np.vdot(b1, b2)) < 1e-6
    return MembershipResult(
        member=bool(ortho),
        certificate={"products_found": 2, "locally_orthogonal": bool(ortho)},
    )


def _product_states_in_span(m1: np.ndarray, m2: np.ndarray):
    """Product states m1 + t m2 (including t = infinity), as (a, b) factor pairs.

    det(m1 + t m2) is quadratic in t, so the span of a rank-2 support holds at
    most two product states up to scale (or a continuum in degenerate cases,
    which still surfaces as two roots here).
    """
    d1 = np.linalg.det(m1)
    d2 = np.linalg.det(m2)
    c = np.linalg.det(m1 + m2) - d1 - d2
    candidates = []
    if abs(d2) < 1e-12:
        candidates.append(m2)  # t = infinity root
        if abs(c) > 1e-12:
            candidates.append(m1 + (-d1 / c) * m2)
        elif abs(d1) < 1e-12:
            candidates.append(m1)
    else:
        disc = np.sqrt(c * c - 4.0 * d1 * d2 + 0j)
        for root in ((-c + disc) / (2.0 * d2), (-c - disc) / (2.0 * d2)):
            candidate = m1 + root * m2
            if abs(np.linalg.det(candidate)) < 1e-8 * max(
                1.0, np.linalg.norm(candidate) ** 2
            ):
                candidates.append(candidate)
    pairs = []
    for mat in candidates:
        if np.linalg.norm(mat) < 1e-10:
            continue
        u, s, vh = np.linalg.svd(mat)
        if s[1] > 1e-6 * s[0]:
            continue  # not actually a product state
        pairs.append((u[:, 0], vh[0].conj()))
    # Deduplicate coinciding factor pairs.
    unique = []
    for a, b in pairs:
        if all(
            abs(np.vdot(a, a2)) * abs(np.vdot(b, b2)) < 1.0 - 1e-8
            for a2, b2 in unique
        ):
            unique.append((a, b))
    return unique


def parse_family(name: str, seed: int = 0) -> FamilySpec:
    """Resolve a CLI family name into a concrete spec (seeded where random)."""
    name = name.strip().lower()
    rng = np.random.default_rng(seed)
    if name in ("haar", "ghz", "w", "product", "bell_c"):
        return FamilySpec(kind=name, seed=seed)
    if name == "eq21":
        return FamilySpec(
            kind="eq21",
            seed=seed,
            p=float(rng.uniform(0.1, 0.9)),
            overlap=complex(rng.uniform(-0.9, 0.9)),
        )
    if name == "thm2":
        return FamilySpec(kind="thm2", seed=seed)
    if name in ("corollary", "corollary_symmetric"):
        return FamilySpec(kind="corollary_symmetric", seed=seed)
    raise InputError(f"unknown family name {name!r}")
