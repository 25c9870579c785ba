import numpy as np
import pytest

from eoa3.assistance import Measurement
from eoa3.ensembles import (
    Ensemble,
    _equalizing_angle,
    convex_roof_concurrence,
    ensemble_from_json,
    ensemble_to_json,
    entangled_decomposition,
    equal_concurrence_decomposition,
    hjw_ensemble,
    purification,
    s0_assistance,
)
from eoa3.monotones import MonotoneSpec, concurrence_pure, entropy_alpha, wootters_concurrence
from eoa3.qcore import (
    SIGMA_YY,
    DensityMatrix,
    InputError,
    PureState,
    random_density_matrix,
    reduced_density,
)
from eoa3.states import ghz_state, w_state

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def reconstruction_error(ens):
    mix = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in ens.elements)
    return float(np.max(np.abs(mix - ens.target.entries)))


def test_ensemble_invariant_enforced():
    bad = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(InputError):
        Ensemble(
            target=DensityMatrix.from_matrix(np.eye(4) / 4), elements=((1.0, bad),)
        )


def test_hjw_ghz_reduction():
    rho = reduced_density(ghz_state(), (0, 1))
    z = hjw_ensemble(rho, Measurement.projective(np.eye(2, dtype=complex)))
    weights = sorted(w for w, _ in z.elements)
    np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)
    for _, s in z.elements:
        assert concurrence_pure(s) == pytest.approx(0.0, abs=1e-10)
    x = hjw_ensemble(
        rho,
        Measurement.projective(
            np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ),
    )
    for w, s in x.elements:
        assert w == pytest.approx(0.5, abs=1e-12)
        assert concurrence_pure(s) == pytest.approx(1.0, abs=1e-10)


def test_hjw_reconstruction_random():
    basis = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)
    for seed in range(30):
        rho = random_density_matrix(4, 2, seed)
        ens = hjw_ensemble(rho, Measurement.projective(basis))
        assert reconstruction_error(ens) <= 1e-12


def test_hjw_reads_rank_one_kraus_elements_of_any_height():
    # Elements 2 x 2 and 1 x 2 leave the z-basis branches; a full-rank
    # element on a rank-2 purifier leaves a mixed one.
    rho = random_density_matrix(4, 2, 7)
    z = hjw_ensemble(rho, Measurement.projective(np.eye(2, dtype=complex)))
    got = hjw_ensemble(rho, Measurement(elements=(np.array([[1, 0], [0, 0]]), np.array([[0, 1]]))))
    for (w, s), (w_z, s_z) in zip(got.elements, z.elements, strict=True):
        assert w == pytest.approx(w_z, abs=1e-15)
        assert abs(np.vdot(s.amplitudes, s_z.amplitudes)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InputError):
        hjw_ensemble(rho, Measurement(elements=(np.eye(2),)))


def test_hjw_purifier_too_small():
    rho = random_density_matrix(4, 3, 0)
    with pytest.raises(InputError):
        hjw_ensemble(rho, Measurement.projective(np.eye(2, dtype=complex)))


def test_hjw_eigenbasis_returns_eigen_ensemble():
    rho = random_density_matrix(4, 2, 7)
    evals = np.sort(np.linalg.eigvalsh(rho.entries))[::-1][:2]
    ens = hjw_ensemble(rho, Measurement.projective(np.eye(2, dtype=complex)))
    weights = sorted((w for w, _ in ens.elements), reverse=True)
    np.testing.assert_allclose(weights, evals, atol=1e-12)


def test_equal_concurrence_pure_bell():
    ens = equal_concurrence_decomposition(
        DensityMatrix.from_matrix(np.outer(BELL, BELL.conj()))
    )
    assert len(ens.elements) == 1
    assert concurrence_pure(ens.elements[0][1]) == pytest.approx(1.0, abs=1e-10)


def test_equal_concurrence_maximally_mixed():
    ens = equal_concurrence_decomposition(DensityMatrix.from_matrix(np.eye(4) / 4))
    assert len(ens.elements) == 4
    for _, s in ens.elements:
        assert concurrence_pure(s) == pytest.approx(0.0, abs=1e-8)
    assert reconstruction_error(ens) <= 1e-10


def test_equal_concurrence_half_bell_half_product():
    mix = 0.5 * np.outer(BELL, BELL.conj()) + 0.5 * np.diag([1.0, 0, 0, 0])
    ens = equal_concurrence_decomposition(DensityMatrix.from_matrix(mix))
    for _, s in ens.elements:
        assert concurrence_pure(s) == pytest.approx(0.5, abs=1e-8)
    assert reconstruction_error(ens) <= 1e-10


def test_equal_concurrence_random_spread():
    for seed in range(200):
        rho = random_density_matrix(4, 2 + seed % 3, seed)
        c = wootters_concurrence(rho)
        ens = equal_concurrence_decomposition(rho)
        concs = [concurrence_pure(s) for _, s in ens.elements]
        assert max(concs) - min(concs) <= 1e-8
        assert abs(concs[0] - c) <= 1e-8
        assert len(ens.elements) <= 4
        assert reconstruction_error(ens) <= 1e-10


def test_equal_concurrence_spread_at_round_off():
    # The closed-form mixing angle leaves every element at the Wootters
    # concurrence to within round-off.
    for seed in range(400):
        rho = random_density_matrix(4, 2 + seed % 3, seed)
        c = wootters_concurrence(rho)
        concs = [concurrence_pure(s) for _, s in equal_concurrence_decomposition(rho).elements]
        assert max(concs) - min(concs) <= 1e-13
        assert max(abs(x - c) for x in concs) <= 1e-13


def _signed_ratio(y):
    return float(np.real(y @ SIGMA_YY @ y)) / float(np.real(np.vdot(y, y)))


def test_equalizing_angle_at_the_ends():
    rng = np.random.default_rng(5)
    yb = rng.normal(size=4) + 1j * rng.normal(size=4)
    # ya = i(|00> + |11>) has preconcurrence 2 and weight 2: its ratio is
    # exactly 1, so at target 1 no rotation is needed, whatever yb's sign.
    ya = np.array([1j, 0, 0, 1j])
    assert _signed_ratio(ya) == 1.0
    for sign in (1.0, -1.0):
        assert _equalizing_angle(ya, sign * yb, 1.0) == 0.0
    # With yb itself at the target (C = 0), the angle is a root in [0, pi/2]
    # for either sign of the cross term B.
    ya = rng.normal(size=4) + 1j * rng.normal(size=4)
    ya, yb = (ya, yb) if _signed_ratio(ya) > _signed_ratio(yb) else (yb, ya)
    target = _signed_ratio(yb)
    for sign in (1.0, -1.0):
        theta = _equalizing_angle(ya, sign * yb, target)
        assert 0.0 <= theta <= np.pi / 2
        assert abs(_signed_ratio(np.cos(theta) * ya + sign * np.sin(theta) * yb) - target) <= 1e-14


def test_entangled_decomposition_two_products():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    ens = entangled_decomposition(rho)
    for w, s in ens.elements:
        assert w == pytest.approx(0.5, abs=1e-12)
        assert concurrence_pure(s) == pytest.approx(1.0, abs=1e-10)


def test_entangled_decomposition_tilted_products():
    v = np.zeros(4, dtype=complex)
    v[2] = v[3] = 1 / np.sqrt(2)  # |1+>
    mix = 0.5 * np.diag([1.0, 0, 0, 0]) + 0.5 * np.outer(v, v.conj())
    ens = entangled_decomposition(DensityMatrix.from_matrix(mix))
    assert all(concurrence_pure(s) > 1e-6 for _, s in ens.elements)
    assert reconstruction_error(ens) <= 1e-10


def test_entangled_decomposition_pure_marginal_rejected():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))
    with pytest.raises(InputError):
        entangled_decomposition(rho)


@pytest.mark.parametrize("amps, concurrence", [((1, 0, 0, 1), 1.0), ((0.8, 0, 0, 0.6), 0.96)])
def test_entangled_decomposition_of_a_pure_entangled_state_is_the_state(amps, concurrence):
    phi = PureState((2, 2), np.array(amps, dtype=complex) / np.linalg.norm(amps))
    ens = entangled_decomposition(phi.density())
    assert len(ens.elements) == 1
    (w, s), = ens.elements
    assert w == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(s.amplitudes, phi.amplitudes)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_pure(s) == pytest.approx(concurrence, abs=1e-12)
    assert s0_assistance(phi.density()) == 1.0


@pytest.mark.parametrize("lam", [5e-11, 1e-12, 1e-16, 2e-10, 1e-3])
def test_s0_assistance_of_a_pure_state_is_its_s0_value(lam):
    # A pure state's only ensemble is itself, so its assisted s0 value is the
    # s0 measure of the state, 0 below the rank tolerance 1e-10.
    phi = PureState((2, 2), np.array([np.sqrt(1.0 - lam), 0, 0, np.sqrt(lam)], dtype=complex))
    expected = entropy_alpha(phi, 0.0)
    assert expected == MonotoneSpec("s0").eigenvalue_fn(lam) == float(lam >= 1e-10)
    assert s0_assistance(phi.density()) == expected


def test_s0_assistance_examples():
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1
    assert s0_assistance(DensityMatrix.from_matrix(np.outer(zero, zero.conj()))) == 0.0
    assert s0_assistance(reduced_density(w_state(), (0, 1))) == 1.0
    assert s0_assistance(DensityMatrix.from_matrix(np.outer(BELL, BELL.conj()))) == 1.0
    assert s0_assistance(DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0, 0]).astype(complex))) == 0.0


def test_ensemble_json_round_trip():
    rho = random_density_matrix(4, 2, 3)
    ens = equal_concurrence_decomposition(rho)
    again = ensemble_from_json(ensemble_to_json(ens))
    assert len(again.elements) == len(ens.elements)
    assert np.max(np.abs(again.target.entries - ens.target.entries)) <= 1e-12


def test_convex_roof_without_random_starts_scores_the_eigenbasis():
    # With no starts, the roof is the total concurrence of the purifier's
    # eigenbasis ensemble: the subnormalized eigenvectors of rho.
    rho = random_density_matrix(4, 2, 7)
    expected = sum(abs(y @ SIGMA_YY @ y) for y in purification(rho, 2).T)
    assert convex_roof_concurrence(rho, starts=0) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_convex_roof_matches_wootters(rank):
    # Criterion 10's starts, budget and tolerance at every rank.  No
    # decomposition scores below the closed form.
    for seed in range(40):
        rho = random_density_matrix(4, rank, 8000 + seed)
        closed = wootters_concurrence(rho)
        brute = convex_roof_concurrence(rho, starts=6, max_evals=4000, seed=seed)
        assert closed - 1e-12 <= brute <= closed + 2e-3
