import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eoa3 import assistance as assistance_module
from eoa3.assistance import (
    Measurement,
    SearchBudget,
    VerificationError,
    _eoa_search,
    _informed_starts,
    _isometries,
    _min_cut,
    _pauli_stack,
    _povm_value_grad,
    _su2,
    _theorem1_candidate,
    analyze,
    average_post_measurement,
    commuting_charlie_basis,
    corollary_check,
    corollary_checks,
    e_basis_from_etas,
    eoa_density,
    eoa_numeric,
    lossless_classifier,
    lossless_classifiers,
    swap_infidelity,
    theorem1_measurement,
    theorem1_stack,
    unital_fixed_point_check,
    verify_theorem1,
)
from eoa3.monotones import CONCURRENCE, E2, ENTROPY_1, MonotoneSpec, cut_entanglement
from eoa3.qcore import (
    PAULI_BASIS,
    PAULIS,
    DensityMatrix,
    InputError,
    PureState,
    _polar,
    haar_random_pure,
    haar_random_unitary,
    reduced_density,
    three_qubit_stack,
)
from eoa3.states import (
    FamilySpec,
    bell_times_c,
    generate,
    ghz_state,
    parse_family,
    product_state,
    swap_symmetric_two_qubit,
    w_state,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_measurement_completeness_enforced():
    with pytest.raises(InputError):
        Measurement(elements=(np.diag([1.0, 0.0]),))
    m = Measurement.projective(np.eye(2, dtype=complex))
    assert len(m.elements) == 2


def test_measurement_dim_is_the_column_count():
    # Elements of any height act on the dimension of their columns: 1 x 2
    # rows measure a qubit, and 2 x 3 and 1 x 3 elements a qutrit, each in
    # the computational basis.  Elements of unequal widths are refused.
    qutrit = ([[1, 0, 0], [0, 0, 0]], [[0, 1, 0]], [[0, 0, 0], [0, 0, 1]])
    for n_c, elements in ((2, ([[1, 0]], [[0, 1]])), (3, qutrit)):
        meas = Measurement(elements=tuple(np.array(e) for e in elements))
        assert meas.dim == n_c
        z = Measurement.projective(np.eye(n_c, dtype=complex))
        for seed in range(10):
            psi = haar_random_pure((2, 2, n_c), seed)
            for m in (E2, ENTROPY_1):
                assert average_post_measurement(psi, meas, m) == pytest.approx(average_post_measurement(psi, z, m), abs=1e-15)
    for elements in ((np.array([[1, 0]]), np.array([[0, 1, 0]])), (np.ones(2),), (np.zeros((2, 0)),)):
        with pytest.raises(InputError):
            Measurement(elements=elements)


def test_commuting_basis_ghz():
    res = commuting_charlie_basis(ghz_state(), "A")
    assert res.residual <= 1e-9
    assert res.alignment == "antiparallel"
    norms = sorted(np.linalg.norm(r) for r in res.bloch_vectors)
    np.testing.assert_allclose(norms, [1.0, 1.0], atol=1e-9)


def test_commuting_basis_w():
    res = commuting_charlie_basis(w_state(), "A")
    assert res.residual <= 1e-9
    assert res.alignment == "parallel"  # zero-vector rule
    norms = sorted(np.linalg.norm(r) for r in res.bloch_vectors)
    assert norms[0] <= 1e-9 and norms[1] == pytest.approx(1.0, abs=1e-9)


def test_commuting_basis_decoupled_flag():
    plus_c = PureState(
        (2, 2, 2), np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=complex) / 2
    )  # |Phi+> x |+>
    res = commuting_charlie_basis(plus_c, "A")
    assert res.decoupled
    assert res.residual <= 1e-9


def test_commuting_basis_random_invariants():
    for seed in range(50):
        psi = haar_random_pure((2, 2, 2), seed)
        for side in ("A", "B"):
            res = commuting_charlie_basis(psi, side)
            assert res.residual <= 1e-9
            assert abs(res.probabilities.sum() - 1) <= 1e-10
            # Mixing the conditionals reproduces the global marginal.
            mix = sum(
                p * c for p, c in zip(res.probabilities, res.conditional_states)
            )
            target = reduced_density(psi, (0,) if side == "A" else (1,)).entries
            assert np.max(np.abs(mix - target)) <= 1e-10


def test_theorem1_golden_cases():
    _, avg = theorem1_measurement(ghz_state())
    assert avg == pytest.approx(1.0, abs=1e-9)
    _, avg = theorem1_measurement(w_state())
    assert avg == pytest.approx(2 / 3, abs=1e-8)
    meas, avg = theorem1_measurement(bell_times_c())
    assert len(meas.elements) == 1
    assert avg == pytest.approx(1.0, abs=1e-9)
    _, avg = theorem1_measurement(product_state())
    assert avg == pytest.approx(0.0, abs=1e-12)


def _perturbed(base, eps, z):
    amps = base.amplitudes + eps * z
    return PureState((2, 2, 2), amps / np.linalg.norm(amps))


def test_theorem1_answers_near_w():
    # Near W the commuting direction sits within O(eps) of a pole.  A ket
    # built through arccos(n_z) loses that tilt, and on 121 of these 300
    # states the basis then misses its 1e-9 residual.
    rng = np.random.default_rng(0)
    for _ in range(300):
        eps = 10 ** rng.uniform(np.log10(4e-10), np.log10(1.4e-8))
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        verify_theorem1(_perturbed(w_state(), eps, z), 1e-7)


_NEAR = {
    "w": lambda seed: w_state(),
    "ghz": lambda seed: ghz_state(),
    "product": lambda seed: product_state(),
    "decoupled": lambda seed: bell_times_c(),
    "eq21": lambda seed: generate(parse_family("eq21", seed)),
    "thm2": lambda seed: generate(parse_family("thm2", seed)),
}


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(_NEAR)),
    seed=st.integers(0, 50),
    log_eps=st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
    z_seed=st.integers(0, 2**32 - 1),
)
# Read off a nearly pure branch's leading singular vector, the constructive
# value rose 1.28e-13 above the min-cut here.  Scored as the measurement it
# is, it stays below that bound up to rounding.
@example(family="decoupled", seed=0, log_eps=-7.0, z_seed=369)
def test_theorem1_holds_near_special_states(family, seed, log_eps, z_seed):
    rng = np.random.default_rng(z_seed)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    rep = verify_theorem1(_perturbed(_NEAR[family](seed), 10.0**log_eps, z), 1e-7)
    assert rep.constructive <= min(rep.cut_a, rep.cut_b) + 4e-15


# Rows of parse_family(f, s), s < 200, that theorem1_stack measures in the
# side-A commuting basis, the side-B one, the Eq. 21 e-basis, or not at all.
# Under the other monotones the constructive value depends on which basis is
# picked: every eq21 state has ||beta_1^dag beta_0|| = 0 on side A, so it
# takes the Eq. 21 e-basis, and every corollary state is Bell_AB x |c>, so it
# is decoupled.
_THEOREM1_BRANCHES = {
    "haar": (89, 111, 0, 0),
    "w": (200, 0, 0, 0),
    "ghz": (0, 0, 200, 0),
    "product": (0, 0, 0, 200),
    "bell_c": (0, 0, 0, 200),
    "eq21": (0, 0, 200, 0),
    "thm2": (200, 0, 0, 0),
    "corollary": (0, 0, 0, 200),
}


def test_theorem1_branch_per_family():
    counts = {}
    for family in _THEOREM1_BRANCHES:
        # Both commuting sides are built on every row, decoupled and Eq. 21 rows too.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            th = theorem1_stack([generate(parse_family(family, s)) for s in range(200)])
        assert np.isfinite(th.sides).all() and np.isfinite(th.minima).all()
        counts[family] = tuple(int(np.sum(th.branch == b)) for b in ("A", "B", "eq21", "trivial"))
    assert counts == _THEOREM1_BRANCHES


_MONOTONES = [MonotoneSpec.parse(label) for label in ("e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2")]


def test_theorem1_cut_minima_match_cut_entanglement():
    # eoa_numeric and analyze take their cuts from theorem1_stack's minima;
    # they must be the very values cut_entanglement gives, on the eight
    # families and on perturbed near-special states.
    psis = [generate(parse_family(family, s)) for family in _THEOREM1_BRANCHES for s in range(25)]
    rng = np.random.default_rng(7)
    for family in sorted(_NEAR):
        for seed in range(3):
            for log_eps in [-np.inf, *range(-16, 0)]:
                z = rng.normal(size=8) + 1j * rng.normal(size=8)
                psis.append(_perturbed(_NEAR[family](seed), 10.0**log_eps, z))
    th = theorem1_stack(psis)
    for m in _MONOTONES:
        for psi, cuts in zip(psis, m.eigenvalue_values(th.minima)):
            assert cuts.tolist() == [cut_entanglement(psi, "A|BC", m), cut_entanglement(psi, "B|AC", m)]


def test_constructive_reaches_min_cut_on_lossless_families():
    # Eq. 21 and Theorem-2 states decouple losslessly for every monotone, so
    # the constructive measurement must reach the min-cut under each, in any
    # local frame.  With p = 1/2, and on GHZ, rho_A is I/2 and the Schmidt
    # frame of the side-A detector is arbitrary.
    plain = [generate(parse_family("eq21", s)) for s in range(60)]
    plain += [generate(FamilySpec(kind="eq21", p=0.5, overlap=o)) for o in np.linspace(-0.9, 0.9, 10)]
    plain += [generate(parse_family("thm2", s)) for s in range(20)] + [ghz_state()]
    psis = plain + [_locally_moved(psi, 10 * k + 1) for k, psi in enumerate(plain)]
    psis += [_locally_moved(ghz_state(), 10 * k + 2) for k in range(10)]
    for psi in psis:
        for m in _MONOTONES:
            rep = analyze(psi, m)
            assert abs(rep.eoa_constructive - min(rep.cut_a, rep.cut_b)) <= 1e-12


def _product_across_one_cut(phi, side):
    """|0> on ``side`` times the two-qubit amplitudes phi (2, 2) on the other
    party and C."""
    t = np.zeros((2, 2, 2), dtype=complex)
    if side == "A":
        t[0] = phi
    else:
        t[:, 0] = phi
    return PureState((2, 2, 2), t.reshape(8))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("angle", [np.pi / 4, 0.3, 1e-3])
def test_theorem1_measures_states_product_across_one_cut(side, angle):
    # sqrt(lam_0 lam_1) ||beta_1^dag beta_0|| is 0 here although Charlie is
    # not decoupled; ||beta_1^dag beta_0|| is at least min(cos, sin).
    psi = _product_across_one_cut(np.diag([np.cos(angle), np.sin(angle)]), side)
    meas, avg = theorem1_measurement(psi)
    assert len(meas.elements) == 2
    assert abs(avg - min(cut_entanglement(psi, "A|BC", E2), cut_entanglement(psi, "B|AC", E2))) <= 1e-12
    for m in _MONOTONES:
        average_post_measurement(psi, meas, m)


def _swap_symmetric_state(seed):
    """sqrt(p)|Phi+>|0> + sqrt(1-p)|phi>|1> with phi drawn from the symmetric
    subspace, the fixed space for U = I.  For the Haar U of the corollary
    family that space is spanned by |Phi+> alone, so those states are
    decoupled; these are not."""
    phi = swap_symmetric_two_qubit(np.eye(2), seed)
    return generate(FamilySpec(kind="corollary_symmetric", seed=seed, u_local=np.eye(2), phi=phi))


def test_corollary_holds_on_swap_symmetric_states():
    psis = [_swap_symmetric_state(s) for s in range(40)]
    th = theorem1_stack(psis)
    assert not np.any(th.branch == "trivial")
    assert np.max(np.abs(th.average - E2.eigenvalue_values(th.minima).min(axis=1))) <= 1e-12
    for rep in corollary_checks(psis, 1e-9):
        assert rep.i and rep.ii and rep.iii


def test_anti_parallel_balance():
    for seed in range(100):
        psi = haar_random_pure((2, 2, 2), seed)
        res_a = commuting_charlie_basis(psi, "A")
        res_b = commuting_charlie_basis(psi, "B")
        if res_a.alignment == "antiparallel" and res_b.alignment == "antiparallel":
            r = np.linalg.norm(
                sum(p * v for p, v in zip(res_a.probabilities, res_a.bloch_vectors))
            )
            s = np.linalg.norm(
                sum(p * v for p, v in zip(res_b.probabilities, res_b.bloch_vectors))
            )
            assert abs(r - s) <= 1e-8


def test_average_post_measurement_ghz_bases():
    z_meas = Measurement.projective(np.eye(2, dtype=complex))
    x_meas = Measurement.projective(
        np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    )
    assert average_post_measurement(ghz_state(), z_meas, E2) == pytest.approx(0.0, abs=1e-12)
    assert average_post_measurement(ghz_state(), x_meas, E2) == pytest.approx(1.0, abs=1e-12)


def test_average_post_measurement_mixed_branch_error():
    trivial = Measurement.trivial()
    with pytest.raises(InputError):
        average_post_measurement(ghz_state(), trivial, E2)
    # but a decoupled state is fine under the trivial measurement
    assert average_post_measurement(bell_times_c(), trivial, E2) == pytest.approx(1.0, abs=1e-12)


def test_upper_bound_soundness():
    x_meas = Measurement.projective(
        np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    )
    for seed in range(50):
        psi = haar_random_pure((2, 2, 2), seed)
        for m in (E2, ENTROPY_1, CONCURRENCE):
            avg = average_post_measurement(psi, x_meas, m)
            assert avg <= cut_entanglement(psi, "A|BC", m) + 1e-9
            assert avg <= cut_entanglement(psi, "B|AC", m) + 1e-9


def test_e_basis_reconstruction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        eta0 = z[0] / np.linalg.norm(z[0])
        eta1 = z[1] / np.linalg.norm(z[1])
        res = e_basis_from_etas(eta0, eta1, 0.5)
        c, s = np.cos(res.theta), np.sin(res.theta)
        np.testing.assert_allclose(res.eta0, c * res.e0 + s * res.e1, atol=1e-10)
        np.testing.assert_allclose(res.eta1, c * res.e0 - s * res.e1, atol=1e-10)


def test_eoa_numeric_matches_constructive():
    val, _ = eoa_numeric(ghz_state(), E2, SearchBudget(random_starts=1, max_evals=300))
    assert val == pytest.approx(1.0, abs=1e-6)
    val, _ = eoa_numeric(w_state(), E2, SearchBudget(random_starts=1, max_evals=300))
    assert val == pytest.approx(2 / 3, abs=1e-5)


def _random_isometries(rng, k, n_c):
    return _polar(rng.standard_normal((k, n_c, 4)) + 1j * rng.standard_normal((k, n_c, 4)))


def _reference_povm_value(w, psi_mat, m):
    """The per-column loop the batched kernel replaces, on one isometry."""
    total = 0.0
    for col in range(w.shape[1]):
        v = psi_mat @ w[:, col].conj()
        p = float(np.real(np.vdot(v, v)))
        if p < 1e-14:
            continue
        det = abs(np.linalg.det(v.reshape(2, 2))) ** 2
        disc = max(0.0, 1.0 - 4.0 * det / (p * p))
        lam = 0.5 * (1.0 - np.sqrt(disc))
        total += p * m.eigenvalue_fn(lam)
    return total


MONOTONE_KINDS = ("e2", "ek:1", "ek:2", "concurrence", "gconc", "s0", "entropy:0", "entropy:0.5", "entropy:1")


@pytest.mark.parametrize(
    "psi",
    [haar_random_pure((2, 2, 2), seed) for seed in range(5)]
    + [ghz_state(), product_state(), haar_random_pure((2, 2, 3), 0), haar_random_pure((2, 2, 4), 0)],
)
def test_povm_objective_batch_matches_loop(psi):
    # Random isometries and the informed starts (on the product state their
    # empty columns take the p < 1e-14 branch).  The loop's
    # (1 - sqrt(1 - 4|det|^2/p^2)) / 2 rounds differently from the kernel's
    # form (up to 3e-15 apart on these stacks, and the loop itself sits up to
    # 2.9e-15 from a 40-digit evaluation on GHZ), so the two must agree to
    # 64 ulp of 1.
    n_c = psi.dims[2]
    psi_mat = psi.amplitudes.reshape(4, n_c)
    cands = _informed_starts(psi, _theorem1_candidate(psi, E2))
    w = np.concatenate([_random_isometries(np.random.default_rng(0), 20, n_c), _isometries(cands, n_c)])
    for kind in MONOTONE_KINDS:
        m = MonotoneSpec.parse(kind)
        got = _povm_value_grad(w, psi_mat, m)[0]
        expected = [_reference_povm_value(x, psi_mat, m) for x in w]
        np.testing.assert_allclose(got, expected, rtol=0, atol=64 * np.finfo(float).eps)


def test_povm_objective_batch_full_precision_at_half():
    # |Phi+>|0>: every POVM outcome leaves a Bell pair, so every POVM scores
    # exactly f(1/2).  The loop's formula misses E2 = 1 here by up to 2.5e-8.
    psi_mat = bell_times_c().amplitudes.reshape(4, 2)
    w = _random_isometries(np.random.default_rng(5), 200, 2)
    for kind in ("e2", "ek:2", "concurrence", "entropy:1"):
        m = MonotoneSpec.parse(kind)
        got = _povm_value_grad(w, psi_mat, m)[0]
        np.testing.assert_allclose(got, m.eigenvalue_fn(0.5), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_c", [3, 4])
def test_eoa_numeric_qudit_helper_below_min_cut(n_c):
    for seed in range(3):
        psi = haar_random_pure((2, 2, n_c), seed)
        val, meas = eoa_numeric(psi, E2, SearchBudget(random_starts=1, max_evals=400, seed=seed))
        mincut = min(cut_entanglement(psi, "A|BC", E2), cut_entanglement(psi, "B|AC", E2))
        assert 0.0 < val <= mincut + 1e-6
        assert meas.dim == n_c


def test_search_budget_rejects_negative_values():
    with pytest.raises(InputError):
        SearchBudget(random_starts=-1)
    with pytest.raises(InputError):
        SearchBudget(max_evals=-3)
    assert SearchBudget(random_starts=0, max_evals=0).max_evals == 0
    # Fractions and negative seeds are refused up front, not where a
    # fallback first draws or counts with them.
    for fields in ({"max_evals": 2.5}, {"random_starts": 1.5}, {"seed": -1}):
        with pytest.raises(InputError):
            SearchBudget(**fields)


def test_eoa_numeric_w_entropy_gap():
    val, _ = eoa_numeric(w_state(), ENTROPY_1, SearchBudget(random_starts=2, max_evals=500))
    h13 = -(1 / 3) * np.log2(1 / 3) - (2 / 3) * np.log2(2 / 3)
    assert val < h13 - 1e-3


def test_verify_theorem1_examples():
    rep = verify_theorem1(ghz_state(), 1e-8)
    assert rep.gap <= 1e-8
    rep = verify_theorem1(product_state(), 1e-8)
    assert rep.constructive == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(VerificationError):
        verify_theorem1(haar_random_pure((2, 2, 2), 0), 1e-30)


def test_lossless_classifier_examples():
    assert lossless_classifier(ghz_state(), "A|BC", 1e-7).kind == "lossless"
    assert lossless_classifier(w_state(), "A|BC", 1e-7).kind == "lossy"
    assert lossless_classifier(bell_times_c(), "A|BC", 1e-7).kind == "decoupled"
    for seed in range(30):
        psi = generate(FamilySpec(kind="thm2", seed=seed))
        verdict = lossless_classifier(psi, "A|BC", 1e-8)
        assert verdict.kind == "lossless"
        if verdict.certificate.get("branch") == "marginal-preserving":
            lam = np.linalg.eigvalsh(reduced_density(psi, (0,)).entries)[0]
            assert abs(verdict.certificate["lambda_min"] - lam) <= 1e-8


def test_unital_fixed_point_examples():
    eye = np.eye(2, dtype=complex)
    assert unital_fixed_point_check(eye, [0.5, 0.5], [eye, SX]) == (True, True)
    h = np.diag([1.0, 0.0]).astype(complex)
    assert unital_fixed_point_check(h, [0.5, 0.5], [eye, SZ]) == (True, True)
    assert unital_fixed_point_check(h, [0.5, 0.5], [eye, SX]) == (False, False)
    with pytest.raises(InputError):
        unital_fixed_point_check(h, [0.0, 1.0], [eye, SZ])
    with pytest.raises(InputError):
        unital_fixed_point_check(h, [0.5, 0.5], [SX, SX])


def test_corollary_examples():
    psi = generate(FamilySpec(kind="eq21", p=0.8, overlap=0.4))
    rep = corollary_check(psi, 1e-6)
    assert rep.i and rep.ii and rep.iii
    rep = corollary_check(haar_random_pure((2, 2, 2), 3), 1e-6)
    assert not rep.i and not rep.iii
    rep = corollary_check(ghz_state(), 1e-6)
    assert rep.i and rep.ii and rep.iii


def _locally_moved(psi, seed):
    us = [haar_random_unitary(2, seed + f) for f in range(3)]
    return PureState((2, 2, 2), np.einsum("ai,bj,ck,ijk->abc", *us, psi.tensor_view()).reshape(8))


def test_swap_search_stays_below_the_identity_on_haar_states():
    for seed in range(80_000, 80_200):
        psi = haar_random_pure((2, 2, 2), seed)
        t = psi.tensor_view()
        assert 0.0 <= swap_infidelity(psi) <= 1.0 - abs(np.vdot(t.transpose(1, 0, 2), t)) ** 2


def _symmetric_or_antisymmetric_state(seed):
    """A random state whose C = |0> branch is SWAP_AB-symmetric and whose
    C = |1> branch is the antisymmetric singlet, so SWAP_AB psi = (I x I x Z)
    psi; the singlet's weight is uniform in [0, 1/2]."""
    rng = np.random.default_rng(seed)
    t = np.zeros((2, 2, 2), dtype=complex)
    sym = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t[:, :, 0] = (sym + sym.T) / np.linalg.norm(sym + sym.T)
    t[:, :, 1] = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
    weight = rng.uniform(0, 0.5)
    t *= np.sqrt([1.0 - weight, weight])
    return PureState((2, 2, 2), (t / np.linalg.norm(t)).reshape(8))


def _near_degenerate_states(delta):
    """W and GHZ plus delta times a SWAP_AB-symmetric tensor, normalized and
    moved by random local unitaries: marginals and T within delta of
    degenerate."""
    out = []
    for k, base in enumerate([w_state(), ghz_state()]):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            amps = base.tensor_view() + delta * (z + z.transpose(1, 0, 2))
            out.append(_locally_moved(PureState((2, 2, 2), (amps / np.linalg.norm(amps)).reshape(8)), 900 + 3 * seed + k))
    return out


def _hidden_symmetry_sets():
    named = [ghz_state(), w_state(), product_state(), bell_times_c()]
    sets = {
        "eq21": [_locally_moved(generate(parse_family("eq21", s)), 100 + 3 * s) for s in range(200)],
        "p = 1/2": [
            _locally_moved(generate(FamilySpec(kind="eq21", p=0.5, overlap=0.9 * np.cos(s))), 2_000 + 3 * s)
            for s in range(50)
        ],
        "swap-symmetric": [_swap_symmetric_state(s) for s in range(100)],
        "swap-symmetric moved": [_locally_moved(_swap_symmetric_state(s), 3_000 + 3 * s) for s in range(100)],
        "(anti)symmetric moved": [
            _locally_moved(_symmetric_or_antisymmetric_state(s), 4_000 + 3 * s) for s in range(500)
        ],
        "named moved": [_locally_moved(psi, 6_000 + 3 * k) for k, psi in enumerate(named * 5)],
    }
    sets.update({f"W/GHZ + {d:g}": _near_degenerate_states(d) for d in (1e-3, 1e-6, 1e-9, 1e-12)})
    return sets


def test_swap_search_finds_hidden_symmetry():
    # Eq. 21 and swap-symmetric states are SWAP_AB-symmetric; random local
    # unitaries hide that from the identity, and the Pauli normal form of
    # rho_AB finds it again to rounding, near-degenerate marginals and T
    # included.
    for name, psis in _hidden_symmetry_sets().items():
        t = three_qubit_stack(psis)
        identity = 1.0 - np.abs(np.einsum("nbac,nabc->n", t.conj(), t)) ** 2
        if name != "swap-symmetric":
            assert np.median(identity) > 1e-3, name
        reps = corollary_checks(psis, 1e-13)
        assert max(rep.swap_infidelity for rep in reps) <= 1e-13, name
        assert all(rep.ii for rep in reps), name
        assert swap_infidelity(psis[0]) <= 1e-13


def _purity_gap(amps):
    """tr rho_A^2 - tr rho_B^2 of a three-qubit amplitude vector."""
    t = amps.reshape(2, 2, 2)
    ra, rb = np.einsum("abc,dbc->ad", t, t.conj()), np.einsum("abc,adc->bd", t, t.conj())
    return float(np.vdot(ra, ra).real - np.vdot(rb, rb).real)


def _equal_cut_state(seed):
    """A state with equal A and B marginal spectra: the root, by bisection
    in the angle, of the purity gap on the great circle from Haar state
    ``seed`` to the first Haar state of the opposite sign."""
    a0 = haar_random_pure((2, 2, 2), seed).amplitudes
    k = 1
    while _purity_gap(a0) * _purity_gap(a1 := haar_random_pure((2, 2, 2), seed + 10**6 * k).amplitudes) >= 0:
        k += 1
    lo, hi = 0.0, np.pi / 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        amps = np.cos(mid) * a0 + np.sin(mid) * a1
        amps /= np.linalg.norm(amps)
        if (_purity_gap(amps) > 0) == (_purity_gap(a0) > 0):
            lo = mid
        else:
            hi = mid
    return PureState((2, 2, 2), amps)


def test_equal_cuts_imply_swap_symmetry():
    # Corollary, (i) => (ii), beyond any family: generic states with equal
    # cuts are LU-equivalent to their A <-> B swap.
    psis = [_equal_cut_state(seed) for seed in range(100)]
    reps = corollary_checks(psis, 1e-12)
    assert all(rep.i and rep.iii for rep in reps)
    assert max(rep.swap_infidelity for rep in reps) <= 1e-13


def test_corollary_checks_neither_search_nor_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the corollary path must not search or draw")

    psis = [haar_random_pure((2, 2, 2), s) for s in range(3)]
    psis += [_locally_moved(generate(parse_family("eq21", 1)), 7)]
    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(assistance_module, "_stiefel_ascent", refuse)
    reps = corollary_checks(psis, 1e-9)
    assert [rep.ii for rep in reps] == [False, False, False, True]


def test_su2_lift_rotates_the_paulis():
    rng = np.random.default_rng(3)
    o = np.linalg.qr(rng.standard_normal((50, 3, 3)))[0]
    o *= np.sign(np.linalg.det(o))[:, None, None]
    o = np.concatenate([o, np.eye(3)[None], np.diag([1.0, -1.0, -1.0])[None], np.diag([-1.0, -1.0, 1.0])[None]])
    u = _su2(o)
    np.testing.assert_allclose(u @ u.conj().swapaxes(1, 2), np.broadcast_to(np.eye(2), u.shape), atol=1e-14)
    turned = np.einsum("nab,jbc,ndc->njad", u, PAULI_BASIS[1:], u.conj())
    np.testing.assert_allclose(turned, np.einsum("nij,iad->njad", o, PAULI_BASIS[1:]), atol=1e-14)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12, "1e-9", None])
def test_public_checks_reject_a_bad_tol(tol):
    psi = ghz_state()
    for check in (
        lambda: verify_theorem1(psi, tol),
        lambda: lossless_classifier(psi, "A|BC", tol),
        lambda: lossless_classifiers([psi], "B|AC", tol),
        lambda: corollary_check(psi, tol),
        lambda: corollary_checks([psi], tol),
    ):
        with pytest.raises(InputError):
            check()


def test_public_checks_take_a_zero_tol():
    assert verify_theorem1(product_state(), 0.0).gap == 0.0
    assert lossless_classifier(bell_times_c(), "A|BC", 0.0).kind == "decoupled"
    assert corollary_check(product_state(), 0.0).i


@pytest.mark.parametrize("family", ["ghz", "thm2", "eq21", "product", "bell_c"])
def test_numeric_reaches_min_cut_on_lossless_families(family):
    # On these families some measurement reaches the min-cut bound for every
    # monotone: Theorem 1's, which the search then returns at once, or (eq21
    # under the strictly concave monotones) one the search stops on.
    for seed in range(3):
        psi = generate(parse_family(family, seed=seed))
        for kind in ("e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2"):
            rep = analyze(psi, MonotoneSpec.parse(kind), SearchBudget(random_starts=2, max_evals=2000, seed=seed))
            assert abs(rep.eoa_numeric - min(rep.cut_a, rep.cut_b)) <= 1e-12
            assert rep.eoa_numeric >= rep.eoa_constructive


def test_search_skips_optimizer_at_min_cut(monkeypatch):
    from eoa3 import assistance

    calls = []

    def counted(w, *args):
        calls.append(len(w))
        return _povm_value_grad(w, *args)

    monkeypatch.setattr(assistance, "_povm_value_grad", counted)
    budget = SearchBudget(random_starts=2, max_evals=2000, seed=3)
    for seed in range(5):
        psi = haar_random_pure((2, 2, 2), seed)
        val, _ = eoa_numeric(psi, E2, budget)
        assert abs(val - _min_cut(psi, E2)) <= 1e-12
    assert calls == []
    # A lossy solve never reaches the bound; it is the search without a target.
    psi = haar_random_pure((2, 2, 2), 7)
    val, meas = eoa_numeric(psi, ENTROPY_1, budget)
    assert calls
    assert val < _min_cut(psi, ENTROPY_1) - 1e-3
    ref_val, ref_meas = _eoa_search(psi, ENTROPY_1, budget, _theorem1_candidate(psi, ENTROPY_1), np.inf)
    assert val == ref_val
    for got, ref in zip(meas.elements, ref_meas.elements, strict=True):
        np.testing.assert_array_equal(got, ref)


def test_eoa_density_examples():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert eoa_density(
        DensityMatrix.from_matrix(np.outer(bell, bell.conj()))
    ) == pytest.approx(1.0, abs=1e-9)
    assert eoa_density(
        DensityMatrix.from_matrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    ) == pytest.approx(1.0, abs=1e-8)
    w_red = reduced_density(w_state(), (0, 1))
    assert eoa_density(w_red) == pytest.approx(2 / 3, abs=1e-8)
    with pytest.raises(InputError):
        eoa_density(DensityMatrix.from_matrix(np.eye(4) / 4))


def test_report_hierarchy_invariant():
    from eoa3.assistance import analyze

    for seed in range(5):
        psi = haar_random_pure((2, 2, 2), seed)
        rep = analyze(psi, E2, SearchBudget(random_starts=1, max_evals=200))
        assert rep.eoa_numeric <= min(rep.cut_a, rep.cut_b) + 1e-6
        d = rep.to_dict()
        assert set(d) == {
            "cutA",
            "cutB",
            "eoaConstructive",
            "eoaNumeric",
            "monotone",
            "verdict",
            "measurement",
            "certificate",
        }


def test_analyze_builds_and_scores_theorem1_once(monkeypatch, capsys):
    import json

    from eoa3 import assistance
    from eoa3.cli import main

    calls = dict.fromkeys(("_theorem1", "average_post_measurement", "_basis_values"), 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(assistance, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(assistance, name, counted)
    stacks = []
    commuting_stack = assistance._commuting_stack

    def recorded(t):
        stacks.append(t)
        return commuting_stack(t)

    monkeypatch.setattr(assistance, "_commuting_stack", recorded)
    assert main(["analyze", "--family", "haar", "--monotone", "entropy:1", "--seed", "5"]) == 0
    # Theorem 1 scores its basis under E2 in the search's kernel, and analyze
    # scores it once more there under the report's monotone.
    assert calls == {"_theorem1": 1, "average_post_measurement": 0, "_basis_values": 2}
    # One commuting-basis call builds both sides, on the state and its A <-> B
    # swap; the search seeds with those bases and builds none itself.
    (t,) = stacks
    psi = generate(FamilySpec(kind="haar", seed=5))
    np.testing.assert_array_equal(t, [psi.tensor_view(), psi.tensor_view().transpose(1, 0, 2)])
    monkeypatch.undo()
    # The report's numeric value is the one eoa_numeric finds with the CLI's budget.
    budget = SearchBudget(random_starts=2, max_evals=2000, seed=5)
    assert json.loads(capsys.readouterr().out)["eoaNumeric"] == eoa_numeric(psi, ENTROPY_1, budget)[0]


def test_analyze_classifies_from_the_theorem1_pass(monkeypatch):
    from eoa3 import assistance

    calls = dict.fromkeys(("_cut_minima", "_ab_purities"), 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(assistance, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(assistance, name, counted)
    for k, family in enumerate(("haar", "w", "ghz", "product", "bell_c", "eq21", "thm2", "corollary")):
        psi = generate(parse_family(family, k))
        report = analyze(psi, ENTROPY_1, SearchBudget(random_starts=1, max_evals=200, seed=k))
        # Theorem 1's pass takes the AB purities once; the classifier reuses
        # them and the cut minima and factorizes nothing of its own.
        assert calls == {"_cut_minima": 0, "_ab_purities": 1}
        calls.update(dict.fromkeys(calls, 0))
        cut = "A|BC" if report.cut_a <= report.cut_b else "B|AC"
        verdict = lossless_classifier(psi, cut, tol=1e-7)
        assert report.lossless_verdict.kind == verdict.kind
        assert report.lossless_verdict.objective == verdict.objective
        got, want = report.lossless_verdict.certificate, verdict.certificate
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])
        calls.update(dict.fromkeys(calls, 0))


def _kron_pauli_data(psi, side):
    """(a, b, T) of rho^{XC} by the explicit traces tr(rho sigma_i (x) sigma_j)."""
    rho = reduced_density(psi, (0, 2) if side == "A" else (1, 2)).entries
    eye = np.eye(2)
    a = np.array([np.real(np.trace(rho @ np.kron(s, eye))) for s in PAULIS])
    b = np.array([np.real(np.trace(rho @ np.kron(eye, s))) for s in PAULIS])
    t = np.array([[np.real(np.trace(rho @ np.kron(si, sj))) for sj in PAULIS] for si in PAULIS])
    return a, b, t


@pytest.mark.parametrize("side", ["A", "B"])
def test_pauli_data_matches_kron_traces(side):
    lam = 1e-12  # smallest squared Schmidt coefficient of the near-product states
    near = np.zeros(8, dtype=complex)
    near[0], near[7] = np.sqrt(1 - lam), np.sqrt(lam)
    rotation = np.kron(np.kron(haar_random_unitary(2, 1), haar_random_unitary(2, 2)), haar_random_unitary(2, 3))
    states = [ghz_state(), w_state(), product_state(), bell_times_c()]
    states += [PureState((2, 2, 2), near), PureState((2, 2, 2), rotation @ near)]
    states += [haar_random_pure((2, 2, 2), seed) for seed in range(500)]
    stack = _pauli_stack(three_qubit_stack(states), side)
    for i, psi in enumerate(states):
        for got, ref in zip(stack, _kron_pauli_data(psi, side)):
            assert got[i].shape == ref.shape
            assert np.max(np.abs(got[i] - ref)) <= 1e-15


def test_verify_theorem1_reports_theorem1_measurement_and_cuts():
    for psi in [w_state(), ghz_state(), product_state(), haar_random_pure((2, 2, 2), 11)]:
        rep = verify_theorem1(psi, 1e-7)
        _, avg = theorem1_measurement(psi)
        assert rep.constructive == avg
        assert rep.cut_a == cut_entanglement(psi, "A|BC", E2)
        assert rep.cut_b == cut_entanglement(psi, "B|AC", E2)
