import mpmath
import numpy as np
import pytest

from eoa3.monotones import (
    CONCURRENCE,
    E2,
    MonotoneSpec,
    concurrence_pure,
    cut_entanglement,
    e2,
    entropy_alpha,
    g_concurrence,
    ky_fan,
    pair_concurrences,
    pure_cut_concurrence,
    three_tangle,
    three_tangles,
    wootters_concurrence,
)
from eoa3.qcore import (
    SIGMA_YY,
    DensityMatrix,
    InputError,
    PureState,
    haar_random_pure,
    haar_random_unitary,
    random_density_matrix,
    reduced_density,
    schmidt_decompose,
)
from eoa3.states import bell_times_c, ghz_state, product_state, w_state


def two_qubit(*amps):
    a = np.array(amps, dtype=complex)
    return PureState((2, 2), a / np.linalg.norm(a))


BELL = two_qubit(1, 0, 0, 1)
TILTED = two_qubit(np.sqrt(0.8), 0, 0, np.sqrt(0.2))


def test_e2_values():
    assert e2(BELL) == pytest.approx(1.0, abs=1e-12)
    assert e2(two_qubit(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert e2(TILTED) == pytest.approx(0.4, abs=1e-12)


def test_ky_fan_values():
    assert ky_fan(BELL, 1) == pytest.approx(1.0, abs=1e-12)
    assert ky_fan(BELL, 2) == pytest.approx(0.5, abs=1e-12)
    assert ky_fan(TILTED, 2) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(InputError):
        ky_fan(BELL, 3)


def test_entropy_alpha_values():
    assert entropy_alpha(BELL, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert entropy_alpha(two_qubit(1, 0, 0, 0), 0.5) == pytest.approx(0.0, abs=1e-12)
    assert entropy_alpha(TILTED, 0.0) == pytest.approx(1.0, abs=1e-12)
    # The entropy family is a monotone for alpha in [0, 1] only, MonotoneSpec's domain.
    for alpha in (-0.5, 2.0):
        with pytest.raises(InputError):
            entropy_alpha(TILTED, alpha)


def test_concurrence_values():
    assert concurrence_pure(BELL) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(two_qubit(0, 1, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_pure(TILTED) == pytest.approx(0.8, abs=1e-12)
    assert g_concurrence(TILTED) == pytest.approx(0.8, abs=1e-12)


def test_wootters_examples():
    assert wootters_concurrence(BELL.density()) == pytest.approx(1.0, abs=1e-10)
    assert wootters_concurrence(
        DensityMatrix.from_matrix(np.eye(4) / 4)
    ) == pytest.approx(0.0, abs=1e-12)
    mix = 0.5 * np.outer(BELL.amplitudes, BELL.amplitudes.conj()) + 0.5 * np.diag(
        [1.0, 0, 0, 0]
    )
    assert wootters_concurrence(DensityMatrix.from_matrix(mix)) == pytest.approx(
        0.5, abs=1e-10
    )


def test_wootters_matches_pure_concurrence():
    for seed in range(300):
        phi = haar_random_pure((2, 2), seed)
        cp = concurrence_pure(phi)
        assert abs(wootters_concurrence(phi.density()) - cp) <= 1e-10
        assert abs(g_concurrence(phi) - cp) <= 1e-10


def test_monotone_ordering():
    for seed in range(200):
        phi = haar_random_pure((2, 2), seed)
        assert e2(phi) <= concurrence_pure(phi) + 1e-10 <= 1 + 1e-10
        s = [entropy_alpha(phi, a) for a in (0.2, 0.5, 0.8, 1.0)]
        assert all(s[i] >= s[i + 1] - 1e-10 for i in range(3))


def test_cut_entanglement_values():
    assert cut_entanglement(ghz_state(), "A|BC", E2) == pytest.approx(1.0, abs=1e-12)
    assert cut_entanglement(w_state(), "A|BC", E2) == pytest.approx(2 / 3, abs=1e-12)
    bell_c = PureState(
        (2, 2, 2),
        np.array([1, 0, 0, 0, 0, 0, 1, 0]) / np.sqrt(2),
    )
    assert cut_entanglement(bell_c, "B|AC", E2) == pytest.approx(1.0, abs=1e-12)


def test_three_tangle_values():
    assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-9)
    assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-7)
    assert three_tangle(product_state()) == pytest.approx(0.0, abs=1e-12)


def test_three_tangle_nonnegative_and_difference_identity():
    from eoa3.qcore import reduced_density

    for seed in range(200):
        psi = haar_random_pure((2, 2, 2), seed)
        assert three_tangle(psi) >= -1e-9
        c_ac = wootters_concurrence(reduced_density(psi, (0, 2)))
        c_bc = wootters_concurrence(reduced_density(psi, (1, 2)))
        lhs = c_ac**2 - c_bc**2
        rhs = (
            pure_cut_concurrence(psi, "A|BC") ** 2
            - pure_cut_concurrence(psi, "B|AC") ** 2
        )
        assert abs(lhs - rhs) <= 1e-8


def _mp_wootters_concurrence(v):
    """Wootters' definition, max(0, l1 - l2 - l3 - l4) over the square roots of
    the eigenvalues of rho rho_tilde, rho = V V^dag, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        mat = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in v])
        rho = mat * mat.H
        yy = mpmath.matrix(SIGMA_YY.real.tolist())
        evals = mpmath.eig(rho * (yy * rho.conjugate() * yy), left=False, right=False)
        lam = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in evals), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


def _near_w_states(count):
    """The sampler of test_theorem1_answers_near_w: W + eps z, eps in [4e-10, 1.4e-8]."""
    rng = np.random.default_rng(0)
    psis = []
    for _ in range(count):
        eps = 10 ** rng.uniform(np.log10(4e-10), np.log10(1.4e-8))
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps = w_state().amplitudes + eps * z
        psis.append(PureState((2, 2, 2), amps / np.linalg.norm(amps)))
    return psis


def test_pair_concurrences_near_w_match_40_digit_wootters():
    psis = _near_w_states(300)
    got = pair_concurrences(psis)
    for psi, row in zip(psis, got):
        t = psi.tensor_view()
        for pair, c in zip((t, t.transpose(0, 2, 1), t.transpose(1, 2, 0)), row):
            assert abs(c - _mp_wootters_concurrence(pair.reshape(4, 2))) <= 1e-14


def test_wootters_concurrence_near_w_matches_40_digit_value():
    # The reduced density matrix has rank 2: a square root of an eigenvalue
    # that rounding leaves near zero would put C up to 3.0e-8 off here.
    for psi in _near_w_states(100):
        got = wootters_concurrence(reduced_density(psi, (0, 1)))
        assert abs(got - _mp_wootters_concurrence(psi.tensor_view().reshape(4, 2))) <= 1e-14


def test_three_tangle_is_the_stacked_kernel_and_rejects_disagreeing_forms():
    psis = [haar_random_pure((2, 2, 2), seed) for seed in range(50)] + [ghz_state(), w_state(), product_state()]
    np.testing.assert_array_equal(three_tangles(psis), [three_tangle(psi) for psi in psis])
    with pytest.raises(InputError):
        three_tangle(PureState((2, 2, 3), np.ones(12) / np.sqrt(12)))


def test_monotone_spec_parse_and_label():
    assert MonotoneSpec.parse("e2").kind == "e2"
    assert MonotoneSpec.parse("ek:2").k == 2
    assert MonotoneSpec.parse("entropy:0.5").alpha == 0.5
    assert MonotoneSpec.parse("s0").label() == "s0"
    assert MonotoneSpec.parse("concurrence").strictly_concave
    assert MonotoneSpec.parse("gconc").strictly_concave
    assert MonotoneSpec.parse("gconc") == CONCURRENCE
    assert MonotoneSpec.parse("gconc").label() == "concurrence"
    with pytest.raises(InputError):
        MonotoneSpec("gconc")
    assert not E2.strictly_concave
    with pytest.raises(InputError):
        MonotoneSpec.parse("nonsense")


@pytest.mark.parametrize("k", [0, 3, 7])
def test_ky_fan_index_beyond_the_qubit_schmidt_rank_is_rejected(k):
    # A two-level Schmidt spectrum has no third coefficient: ky_fan refuses
    # k = 3, so the spec must not read ek:3 as ek:2.
    with pytest.raises(InputError):
        MonotoneSpec("kyfan", k=k)
    with pytest.raises(InputError):
        MonotoneSpec.parse(f"ek:{k}")


def test_strict_concavity_of_flagged_monotones():
    grid = np.linspace(0.02, 0.5, 13)
    for spec in (CONCURRENCE, MonotoneSpec("entropy", alpha=0.5), MonotoneSpec("entropy", alpha=1.0)):
        f = spec.eigenvalue_fn
        for x in grid:
            for y in grid:
                if abs(x - y) < 1e-12:
                    continue
                assert f((x + y) / 2) > (f(x) + f(y)) / 2


def test_eigenvalue_fn_vanishes_at_zero():
    for spec in (E2, CONCURRENCE, MonotoneSpec("entropy", alpha=0.7), MonotoneSpec("s0"), MonotoneSpec("kyfan", k=2)):
        assert spec.eigenvalue_fn(0.0) == 0.0


def _reference_eigenvalue_fn(spec, lam):
    """The scalar f(lambda_min) formulas, one branch per monotone kind."""
    lam = float(np.clip(lam, 0.0, 0.5))
    if spec.kind == "e2":
        return 2.0 * lam
    if spec.kind == "kyfan":
        return 1.0 if spec.k == 1 else lam
    if spec.kind in ("concurrence", "gconc"):
        return 2.0 * np.sqrt(lam * (1.0 - lam))
    if spec.kind == "s0" or spec.alpha < 1e-10:
        return 0.0 if lam < 1e-10 else 1.0
    spectrum = np.array([lam, 1.0 - lam])
    spectrum = spectrum[spectrum > 0.0]  # 0 log 0 = 0
    if abs(spec.alpha - 1.0) < 1e-9:
        return float(-np.sum(spectrum * np.log2(spectrum)))
    return float(np.log2(np.sum(spectrum**spec.alpha)) / (1.0 - spec.alpha))


@pytest.mark.parametrize(
    "text", ["e2", "ek:1", "ek:2", "concurrence", "gconc", "s0", "entropy:0", "entropy:0.5", "entropy:1"]
)
def test_eigenvalue_values_equal_scalar_formulas(text):
    spec = MonotoneSpec.parse(text)
    grid = np.concatenate(
        [
            [0.0, 1e-16, 1e-15, 2e-15, 1e-10, 0.5, -1e-300, -1e-12, -0.25, 0.5 + 1e-12, 0.75, 1.0],
            np.geomspace(1e-18, 0.5, 200),
            np.linspace(0.0, 0.5, 201),
        ]
    )
    expected = np.array([_reference_eigenvalue_fn(spec, lam) for lam in grid])
    assert np.all(spec.eigenvalue_values(grid) == expected)
    assert all(spec.eigenvalue_fn(lam) == e for lam, e in zip(grid, expected))


def test_wootters_rejects_wrong_dimension():
    with pytest.raises(InputError):
        wootters_concurrence(random_density_matrix(2, 2, 0))


# Smallest squared Schmidt coefficient of the near-product test states.
NEAR_LAM = 1e-12


def _local_rotation(seed):
    return np.kron(haar_random_unitary(2, seed), haar_random_unitary(2, seed + 1))


def test_pure_monotones_match_old_formulas():
    """e2, concurrence_pure and g_concurrence against the per-function formulas they replaced."""
    near = np.array([np.sqrt(1 - NEAR_LAM), 0, 0, np.sqrt(NEAR_LAM)])
    states = [BELL, two_qubit(1, 0, 0, 0), PureState((2, 2), _local_rotation(3)[:, 0]), PureState((2, 2), near)]
    states += [haar_random_pure((2, 2), seed) for seed in range(500)]
    for phi in states:
        m = phi.amplitudes.reshape(2, 2)
        rho = m @ m.conj().T
        assert abs(e2(phi) - 2.0 * np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)[0]) <= 1e-14
        assert abs(concurrence_pure(phi) - 2.0 * abs(np.linalg.det(m))) <= 1e-14
        assert abs(g_concurrence(phi) - 2.0 * np.sqrt(max(np.linalg.det(rho).real, 0.0))) <= 1e-14


def test_pure_monotones_near_product_in_rotated_frame():
    # Locally rotated, the old 2 sqrt(det M M^dag) cancels to ~6e-11 here;
    # 2 |det M|, 2 lam_min(M M^dag) and the Schmidt path keep full precision.
    exact_c = 2.0 * np.sqrt(NEAR_LAM * (1 - NEAR_LAM))
    for seed in range(0, 40, 2):
        amps = _local_rotation(seed) @ np.array([np.sqrt(1 - NEAR_LAM), 0, 0, np.sqrt(NEAR_LAM)])
        phi = PureState((2, 2), amps)
        m = amps.reshape(2, 2)
        assert abs(e2(phi) - 2.0 * np.linalg.eigvalsh(m @ m.conj().T)[0]) <= 1e-14
        assert abs(e2(phi) - 2.0 * NEAR_LAM) <= 1e-14
        assert abs(concurrence_pure(phi) - 2.0 * abs(np.linalg.det(m))) <= 1e-14
        assert abs(concurrence_pure(phi) - exact_c) <= 1e-14
        assert abs(g_concurrence(phi) - exact_c) <= 1e-14


def test_pure_cut_concurrence_matches_old_formula():
    near = np.zeros(8)
    near[0], near[7] = np.sqrt(1 - NEAR_LAM), np.sqrt(NEAR_LAM)
    states = [bell_times_c(), product_state(), PureState((2, 2, 2), near), ghz_state(), w_state()]
    states += [haar_random_pure((2, 2, 2), seed) for seed in range(500)]
    for psi in states:
        for cut, party in (("A|BC", 0), ("B|AC", 1)):
            det = np.linalg.det(reduced_density(psi, (party,)).entries).real
            assert abs(pure_cut_concurrence(psi, cut) - 2.0 * np.sqrt(max(det, 0.0))) <= 1e-14


@pytest.mark.parametrize("psi", [BELL, haar_random_pure((3, 2, 2), 0), haar_random_pure((2, 2, 2, 2), 0)])
def test_cut_entanglement_rejects_states_that_are_not_2x2xn(psi):
    for cut in ("A|BC", "B|AC"):
        with pytest.raises(InputError):
            cut_entanglement(psi, cut, E2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cut_entanglement_is_schmidt_decompose_through_f(n):
    # The stacked kernel reads the same SVD as schmidt_decompose, bit for bit.
    monotones = [MonotoneSpec.parse(x) for x in ("e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2", "s0")]
    for seed in range(50):
        psi = haar_random_pure((2, 2, n), seed)
        for cut, party in (("A|BC", 0), ("B|AC", 1)):
            lam = schmidt_decompose(psi, cut=(party,)).coefficients[-1]
            for m in monotones:
                assert cut_entanglement(psi, cut, m) == m.eigenvalue_fn(lam)
