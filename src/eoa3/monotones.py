"""Bipartite entanglement measures used throughout the package.

All pure-state measures reduce to a function of the smallest squared Schmidt
coefficient ``f(lam)`` on [0, 1/2] in the two-level case.  Logarithms are base
2 so the Bell state carries one ebit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    SIGMA_YY,
    DensityMatrix,
    InputError,
    PureState,
    _density_factors,
    three_qubit_stack,
)

# Rank tolerance for the alpha = 0 step function: smaller eigenvalues count as 0.
S0_RANK_TOL = 1e-10


@dataclass(frozen=True)
class MonotoneSpec:
    """Tagged choice of entanglement monotone.

    kind is one of "e2", "kyfan", "entropy", "s0", "concurrence";
    ``k`` applies to Ky-Fan, ``alpha`` to the entropy family.  On two-level
    spectra the G-concurrence equals the concurrence, so ``parse`` reads
    "gconc" as "concurrence".
    """

    kind: str
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("e2", "kyfan", "entropy", "s0", "concurrence"):
            raise InputError(f"unknown monotone kind {self.kind!r}")
        if self.kind == "kyfan" and self.k not in (1, 2):
            raise InputError("Ky-Fan monotone needs k in {1, 2}, the Schmidt rank bound of a qubit")
        if self.kind == "entropy" and (
            self.alpha is None or not 0.0 <= self.alpha <= 1.0
        ):
            raise InputError("entropy monotone needs alpha in [0, 1]")

    @property
    def strictly_concave(self) -> bool:
        if self.kind == "entropy":
            return self.alpha > 0.0
        return self.kind == "concurrence"

    def eigenvalue_fn(self, lam: float) -> float:
        """f(lambda_min) for a two-level Schmidt spectrum (lam, 1 - lam)."""
        return float(self.eigenvalue_values(np.array([lam], dtype=float))[0])

    def eigenvalue_values(self, lam: np.ndarray) -> np.ndarray:
        """f elementwise over an array of two-level Schmidt minima, clipped to [0, 1/2]."""
        lam = np.minimum(np.maximum(lam, 0.0), 0.5)
        if self.kind == "e2":
            return 2.0 * lam
        if self.kind == "kyfan":
            if self.k == 1:
                return np.ones_like(lam)
            return lam
        if self.kind == "concurrence":
            return 2.0 * np.sqrt(lam * (1.0 - lam))
        if self.kind == "s0" or self.alpha < S0_RANK_TOL:
            return np.where(lam < S0_RANK_TOL, 0.0, 1.0)
        # Renyi-alpha entropy (base 2) of (lam, 1 - lam), with 0 log 0 = 0
        spectrum = np.stack([lam, 1.0 - lam])
        kept = spectrum > 0.0
        safe = np.where(kept, spectrum, 1.0)
        if abs(self.alpha - 1.0) < 1e-9:
            return -np.sum(np.where(kept, safe * np.log2(safe), 0.0), axis=0)
        return np.log2(np.sum(np.where(kept, safe**self.alpha, 0.0), axis=0)) / (1.0 - self.alpha)

    def eigenvalue_slopes(self, lam: np.ndarray) -> np.ndarray:
        """f' elementwise over lam clipped to [1e-300, 1/2], so slopes infinite at 0 stay finite."""
        lam = np.minimum(np.maximum(lam, 1e-300), 0.5)
        if self.kind in ("e2", "kyfan"):
            return np.full_like(lam, 2.0 if self.kind == "e2" else float(self.k != 1))
        if self.kind == "concurrence":
            return (1.0 - 2.0 * lam) / np.sqrt(lam * (1.0 - lam))
        if self.kind == "s0" or self.alpha < S0_RANK_TOL:
            return np.zeros_like(lam)
        if abs(self.alpha - 1.0) < 1e-9:
            return np.log2((1.0 - lam) / lam)
        a, q = self.alpha, 1.0 - lam
        return a * (lam ** (a - 1.0) - q ** (a - 1.0)) / ((1.0 - a) * np.log(2.0) * (lam**a + q**a))

    def label(self) -> str:
        if self.kind == "kyfan":
            return f"ek:{self.k}"
        if self.kind == "entropy":
            return f"entropy:{self.alpha:g}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "MonotoneSpec":
        text = text.strip().lower()
        if text == "e2":
            return MonotoneSpec("e2")
        if text == "s0":
            return MonotoneSpec("s0")
        if text in ("concurrence", "gconc"):
            return MonotoneSpec("concurrence")
        if text.startswith("ek:"):
            return MonotoneSpec("kyfan", k=_parameter(int, text))
        if text.startswith("entropy:"):
            return MonotoneSpec("entropy", alpha=_parameter(float, text))
        raise InputError(f"unknown monotone string {text!r}")


def _parameter(convert, text: str):
    """``convert`` of the number after the colon of a monotone string."""
    try:
        return convert(text.partition(":")[2])
    except ValueError:
        raise InputError(f"malformed number in monotone string {text!r}") from None


E2 = MonotoneSpec("e2")
ENTROPY_1 = MonotoneSpec("entropy", alpha=1.0)
CONCURRENCE = MonotoneSpec("concurrence")


def _two_qubit_value(phi: PureState, m: MonotoneSpec) -> float:
    """``m`` of a two-qubit pure state: f of the Schmidt minimum that
    ``_cut_minima`` reads off its 2 x 2 amplitude matrix."""
    if phi.dims != (2, 2):
        raise InputError("expected a two-qubit pure state")
    return m.eigenvalue_fn(_cut_minima(phi.amplitudes.reshape(1, 2, 2, 1))[0, 0])


def e2(phi: PureState) -> float:
    """Twice the smallest marginal eigenvalue; the optimal Bell-conversion probability."""
    return _two_qubit_value(phi, E2)


def ky_fan(phi: PureState, k: int) -> float:
    """Tail sum of the ordered squared Schmidt coefficients from index k, k in {1, 2}."""
    return _two_qubit_value(phi, MonotoneSpec("kyfan", k=k))


def entropy_alpha(phi: PureState, alpha: float) -> float:
    """Renyi-alpha entropy of the Schmidt spectrum, alpha in [0, 1]."""
    return _two_qubit_value(phi, MonotoneSpec("entropy", alpha=alpha))


def concurrence_pure(phi: PureState) -> float:
    """2 sqrt(lam_min (1 - lam_min)) of a two-qubit pure state."""
    return _two_qubit_value(phi, CONCURRENCE)


# The G-concurrence 2 sqrt(det rho_A) of a two-qubit pure state is its concurrence.
g_concurrence = concurrence_pure


def _preconcurrence_forms(v: np.ndarray) -> np.ndarray:
    """tau = V^T (sy x sy) V for each matrix V of the stack v (..., 4, r): entry
    (j, k) is the preconcurrence form of columns j and k, and where
    rho = V V^dag the singular values of tau are the Wootters lambdas of rho."""
    return v.swapaxes(-1, -2) @ SIGMA_YY @ v


def wootters_lambdas(rho: DensityMatrix) -> np.ndarray:
    """Square roots of the eigenvalues of rho * rho_tilde, non-increasing.

    They are the singular values of tau = V^T (sy x sy) V for any V with
    rho = V V^dag: rho rho_tilde = V (V^dag (sy x sy) V^*) V^T (sy x sy)
    shares its spectrum with tau^dag tau.  V is the factor of
    ``_density_factors``, which flushes eigenvalues <= 1e-12 to 0.  Unlike
    the square roots of the eigenvalues of sqrt(rho) rho_tilde sqrt(rho),
    this takes no square root of an eigenvalue that rounding leaves near 0
    after the product.
    """
    if rho.dim != 4:
        raise InputError("Wootters concurrence is defined for two qubits")
    return np.linalg.svd(_preconcurrence_forms(_density_factors(rho.entries[None])[0]), compute_uv=False)


def wootters_concurrence(rho: DensityMatrix) -> float:
    """max(0, l1 - l2 - l3 - l4) over ``wootters_lambdas``.

    C is not Lipschitz where rho loses rank: an eigenvalue eps of rho moves
    the lambdas by about sqrt(eps), so a true eigenvalue at or below the flush
    of ``wootters_lambdas`` moves C by up to about sqrt(1e-12) = 1e-6.
    """
    lam = wootters_lambdas(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


_CUTS = {"A|BC": 0, "B|AC": 1}


def cut_entanglement(psi: PureState, cut: str, m: MonotoneSpec) -> float:
    """Evaluate the monotone across a bipartite cut of a 2 x 2 x n pure state."""
    if cut not in _CUTS:
        raise InputError(f"cut must be one of {sorted(_CUTS)}")
    if psi.dims[:2] != (2, 2) or psi.num_subsystems != 3:
        raise InputError(f"cut entanglement is defined for 2 x 2 x n states, got dims {psi.dims}")
    return m.eigenvalue_fn(_cut_minima(psi.tensor_view()[None])[0, _CUTS[cut]])


def pure_cut_concurrence(psi: PureState, cut: str) -> float:
    """Concurrence of a single party versus the remaining two, 2 sqrt(det rho)."""
    return cut_entanglement(psi, cut, CONCURRENCE)


def _cut_minima(t: np.ndarray) -> np.ndarray:
    """Smallest squared Schmidt coefficients across A|BC and B|AC of each state
    in the stack t (N, 2, 2, n), as (N, 2); ``schmidt_decompose``'s SVD.  A
    two-qubit state is the n = 1 stack, both of whose cuts are A|B."""
    cuts = np.stack([t, t.transpose(0, 2, 1, 3)], axis=1).reshape(-1, 2, 2, 2 * t.shape[-1])
    return np.linalg.svd(cuts, full_matrices=False)[1][..., -1] ** 2


def cut_values(states, m: MonotoneSpec) -> np.ndarray:
    """``cut_entanglement`` across A|BC and B|AC of each three-qubit state, as (N, 2)."""
    return m.eigenvalue_values(_cut_minima(three_qubit_stack(states)))


def _pair_taus(t: np.ndarray) -> np.ndarray:
    """tau = V^T (sy x sy) V of the AB, AC and BC pairs of each state in the
    stack t (N, 2, 2, 2), as (N, 3, 2, 2); V is the (pair, third party)
    amplitude matrix, so rho_pair = V V^dag.

    The singular values of tau are the nonzero Wootters lambdas of the rank-2
    rho_pair: rho rho_tilde = V (V^dag (sy x sy) V^*) V^T (sy x sy) shares its
    nonzero spectrum with tau^dag tau.
    """
    v = np.stack([t, t.transpose(0, 1, 3, 2), t.transpose(0, 2, 3, 1)], axis=1).reshape(-1, 3, 4, 2)
    return _preconcurrence_forms(v)


def pair_concurrences(states) -> np.ndarray:
    """Concurrences of the AB, AC and BC reductions of each three-qubit pure
    state, as (N, 3): s1 - s2 of the singular values of ``_pair_taus``.

    Unlike ``wootters_concurrence`` of the reduced density matrix, this takes
    no square roots of eigenvalues that rounding leaves near zero, so it stays
    accurate to rounding near W.
    """
    s = np.linalg.svd(_pair_taus(three_qubit_stack(states)), compute_uv=False)
    return s[..., 0] - s[..., 1]


def three_tangles(states) -> np.ndarray:
    """Residual tripartite entanglement of each three-qubit pure state, from
    the monogamy relation; ``_tangles`` of its pair and cut concurrences."""
    t = three_qubit_stack(states)
    return _tangles(pair_concurrences(t), CONCURRENCE.eigenvalue_values(_cut_minima(t)))


def _tangles(pairs: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The three-tangles of states with pair concurrences ``pairs`` (N, 3) (AB,
    AC, BC) and cut concurrences ``cuts`` (N, 2) (A|BC, B|AC).

    Computes both the A-centered and B-centered forms and checks they agree;
    the difference identity between them is what makes the quantity party
    symmetric.
    """
    c_ab, c_ac, c_bc = pairs.T
    c_a, c_b = cuts.T
    tau_a = c_a**2 - c_ab**2 - c_ac**2
    tau_b = c_b**2 - c_ab**2 - c_bc**2
    apart = np.flatnonzero(np.abs(tau_a - tau_b) > 1e-8)
    if apart.size:
        i = apart[0]
        raise ArithmeticError(f"party-centered tangle forms disagree: {tau_a[i]} vs {tau_b[i]}")
    return 0.5 * (tau_a + tau_b)


def three_tangle(psi: PureState) -> float:
    """``three_tangles`` of one state."""
    if psi.dims != (2, 2, 2):
        raise InputError("three-tangle is defined for three qubits")
    return float(three_tangles([psi])[0])
