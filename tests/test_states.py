import numpy as np
import pytest

from eoa3.assistance import theorem1_stack
from eoa3.monotones import wootters_concurrence
from eoa3.qcore import InputError, PureState, fidelity, haar_random_pure, haar_random_unitary, reduced_density
from eoa3.states import (
    FamilySpec,
    bell_times_c,
    generate,
    ghz_state,
    parse_family,
    product_state,
    verify_family_membership,
    w_state,
)


def test_ghz_definition():
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(generate(FamilySpec(kind="ghz")).amplitudes, expected)


def test_named_states_normalized():
    for psi in (ghz_state(), w_state(), product_state(), bell_times_c()):
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


def test_thm2_ghz_equivalent_member():
    sz = np.diag([1.0, -1.0]).astype(complex)
    psi = generate(
        FamilySpec(
            kind="thm2",
            lambda_min=0.5,
            weights=(0.5, 0.5),
            phases=(0.0, 0.0),
            unitaries=(np.eye(2), sz),
        )
    )
    expected = np.zeros(8, dtype=complex)
    # (|Phi+>|0> + |Phi->|1>)/sqrt(2)
    expected[0] = expected[6] = 0.5
    expected[1] = 0.5
    expected[7] = -0.5
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)


def test_thm2_lambda_min_invariant():
    for seed in range(30):
        lam = 0.05 + 0.015 * seed
        psi = generate(FamilySpec(kind="thm2", seed=seed, lambda_min=lam))
        got = np.linalg.eigvalsh(reduced_density(psi, (0,)).entries)[0]
        assert abs(got - lam) <= 1e-10


def test_eq21_overlap_one_decouples():
    psi = generate(FamilySpec(kind="eq21", p=0.8, overlap=1.0))
    expected = np.zeros(8)
    expected[0] = np.sqrt(0.8)
    expected[6] = np.sqrt(0.2)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)


def test_eq21_realizes_requested_overlap():
    psi = generate(FamilySpec(kind="eq21", p=0.6, overlap=0.3 + 0.2j))
    t = psi.tensor_view()
    eta0 = t[0, 0] / np.linalg.norm(t[0, 0])
    eta1 = t[1, 1] / np.linalg.norm(t[1, 1])
    assert abs(np.vdot(eta0, eta1) - (0.3 + 0.2j)) < 1e-12


def test_corollary_family_concurrence_symmetry():
    for seed in range(30):
        psi = generate(FamilySpec(kind="corollary_symmetric", seed=seed))
        c_ac = wootters_concurrence(reduced_density(psi, (0, 2)))
        c_bc = wootters_concurrence(reduced_density(psi, (1, 2)))
        assert abs(c_ac - c_bc) <= 1e-8


def test_corollary_family_rejects_asymmetric_phi():
    bad = PureState((2, 2), np.array([0, 1, 0, 0], dtype=complex))
    with pytest.raises(InputError):
        generate(
            FamilySpec(kind="corollary_symmetric", p=0.5, u_local=np.eye(2), phi=bad)
        )


def test_generators_deterministic_per_seed():
    for kind in ("haar", "thm2", "corollary_symmetric"):
        a = generate(FamilySpec(kind=kind, seed=11))
        b = generate(FamilySpec(kind=kind, seed=11))
        assert fidelity(a, b) > 1 - 1e-12


def test_family_spec_validation():
    with pytest.raises(InputError):
        FamilySpec(kind="eq21", p=1.5, overlap=0.0)
    with pytest.raises(InputError):
        FamilySpec(kind="eq21", p=0.5, overlap=2.0)
    with pytest.raises(InputError):
        FamilySpec(kind="thm2", lambda_min=0.7)
    with pytest.raises(InputError):
        FamilySpec(kind="thm2", weights=(0.5, 0.2))
    with pytest.raises(InputError):
        FamilySpec(kind="unknown")


def test_membership_examples():
    assert verify_family_membership(ghz_state(), "thm2").member
    assert not verify_family_membership(w_state(), "thm2").member
    res = verify_family_membership(product_state(), "eq21")
    assert res.member and abs(res.certificate["gap"]) <= 1e-15
    assert verify_family_membership(ghz_state(), "eq21").member
    assert not verify_family_membership(w_state(), "eq21").member


def _locally_moved(psi, seed):
    us = [haar_random_unitary(2, seed + f) for f in range(3)]
    return PureState((2, 2, 2), np.einsum("ai,bj,ck,ijk->abc", *us, psi.tensor_view()).reshape(8))


def test_eq21_membership_under_local_unitaries():
    # GHZ and the p = 1/2 members have I/2 marginals on A and B, where no
    # Schmidt frame is fixed; sigma_max(T) = 1 needs none.
    rng = np.random.default_rng(2)
    halves = [generate(FamilySpec(kind="eq21", p=0.5, overlap=complex(rng.uniform(-0.9, 0.9)))) for _ in range(50)]
    for k, psi in enumerate([ghz_state()] * 50 + halves):
        res = verify_family_membership(_locally_moved(psi, 100 + 3 * k), "eq21")
        assert res.member and abs(res.certificate["gap"]) <= 1e-14
    for k in range(20):
        res = verify_family_membership(_locally_moved(w_state(), 500 + 3 * k), "eq21")
        assert not res.member and res.certificate["gap"] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_eq21_membership_gap_grows_quadratically_off_the_family():
    rng = np.random.default_rng(4)
    psi = _locally_moved(generate(parse_family("eq21", 9)), 40)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        amps = psi.amplitudes + eps * z / np.linalg.norm(z)
        gaps.append(verify_family_membership(PureState((2, 2, 2), amps / np.linalg.norm(amps)), "eq21").certificate["gap"])
    assert gaps[2] > 1e-12
    assert 50.0 < gaps[0] / gaps[1] < 200.0 and 50.0 < gaps[1] / gaps[2] < 200.0


def test_theorem1_eq21_branch_implies_membership():
    psis = [_locally_moved(generate(parse_family("eq21", s)), 1_000 + 3 * s) for s in range(100)]
    psis += [_locally_moved(generate(parse_family("thm2", s)), 2_000 + 3 * s) for s in range(100)]
    psis += [haar_random_pure((2, 2, 2), 3_000 + s) for s in range(100)]
    branch = theorem1_stack(psis).branch
    assert np.sum(branch == "eq21") >= 100
    for psi, b in zip(psis, branch):
        if b == "eq21":
            assert verify_family_membership(psi, "eq21").member


def test_membership_round_trip_eq21():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = FamilySpec(
            kind="eq21",
            p=float(rng.uniform(0.1, 0.9)),
            overlap=complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)),
        )
        assert verify_family_membership(generate(spec), "eq21").member


def test_membership_round_trip_thm2():
    for seed in range(20):
        psi = generate(FamilySpec(kind="thm2", seed=seed))
        assert verify_family_membership(psi, "thm2").member


def test_parse_family_names():
    assert parse_family("ghz").kind == "ghz"
    assert parse_family("corollary").kind == "corollary_symmetric"
    assert parse_family("eq21", seed=3).kind == "eq21"
    with pytest.raises(InputError):
        parse_family("nosuch")
