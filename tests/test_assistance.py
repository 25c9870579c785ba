import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from eoa3.assistance import (
    Measurement,
    SearchBudget,
    VerificationError,
    _eoa_search,
    _informed_starts,
    _lockstep_nelder_mead,
    _min_cut,
    _pauli_data,
    _params_from_vectors,
    _povm_objective_batch,
    _theorem1_candidate,
    analyze,
    average_post_measurement,
    commuting_charlie_basis,
    corollary_check,
    e_basis_from_etas,
    eoa_density,
    eoa_numeric,
    eoc_lower_bound_search,
    lossless_classifier,
    theorem1_measurement,
    unital_fixed_point_check,
    verify_theorem1,
)
from eoa3.monotones import CONCURRENCE, E2, ENTROPY_1, MonotoneSpec, cut_entanglement
from eoa3.qcore import (
    PAULIS,
    DensityMatrix,
    InputError,
    PureState,
    haar_random_pure,
    haar_random_unitary,
    reduced_density,
)
from eoa3.states import FamilySpec, bell_times_c, generate, ghz_state, parse_family, product_state, w_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_measurement_completeness_enforced():
    with pytest.raises(InputError):
        Measurement(subsystem=2, elements=(np.diag([1.0, 0.0]),))
    m = Measurement.projective(np.eye(2, dtype=complex))
    assert len(m.elements) == 2


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


def _rosen_rows(x):
    return np.array([rosen(row) for row in x])


@pytest.mark.parametrize("maxfev", [0, 3, 6, 40, 400, 5000])
def test_lockstep_nelder_mead_matches_scipy(maxfev):
    # Start 0 sits on the minimum and converges long before the others; the
    # all-zero start takes the 0.00025 initial steps.  maxfev 0 and 3 end
    # inside the initial simplex (N + 1 = 6).
    x0 = np.vstack(
        [np.ones(5), np.zeros(5), np.random.default_rng(4).standard_normal((4, 5))]
    )
    got = _lockstep_nelder_mead(_rosen_rows, x0, maxfev, xatol=1e-10, fatol=1e-12)
    options = {"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-12}
    for k, start in enumerate(x0):
        expected = minimize(rosen, start, method="Nelder-Mead", options=options).x
        np.testing.assert_array_equal(got[k], expected)


@pytest.mark.parametrize("maxfev", [0, 3, 6, 40, 400, 5000])
def test_lockstep_nelder_mead_unreachable_target_matches_scipy(maxfev):
    # Rosenbrock is never negative, so a target of -1 never stops the search.
    x0 = np.vstack(
        [np.ones(5), np.zeros(5), np.random.default_rng(4).standard_normal((4, 5))]
    )
    got = _lockstep_nelder_mead(_rosen_rows, x0, maxfev, xatol=1e-10, fatol=1e-12, target=-1.0)
    options = {"maxfev": maxfev, "xatol": 1e-10, "fatol": 1e-12}
    for k, start in enumerate(x0):
        expected = minimize(rosen, start, method="Nelder-Mead", options=options).x
        np.testing.assert_array_equal(got[k], expected)


def test_lockstep_nelder_mead_stops_at_first_iteration_reaching_target():
    # scipy's callback sees each start's best vertex after every iteration; the
    # lockstep search must stop every start after the first iteration in which
    # any start's best value reaches the target, at scipy's vertex for that
    # iteration (or at its end point if it finished earlier).
    x0 = np.vstack([np.zeros(5), np.random.default_rng(4).standard_normal((4, 5))])
    options = {"maxfev": 5000, "xatol": 1e-10, "fatol": 1e-12}
    target = 1e-3

    def first_hit(start):
        history = []

        def record(intermediate_result):
            history.append(intermediate_result.fun)

        minimize(rosen, start, method="Nelder-Mead", options=options, callback=record)
        return next((i + 1 for i, f in enumerate(history) if f <= target), np.inf)

    stop = min(first_hit(start) for start in x0)
    assert 0 < stop < np.inf

    def run_until_stop(start):
        iterations = []

        def halt(intermediate_result):
            iterations.append(intermediate_result.fun)
            if len(iterations) == stop:
                raise StopIteration

        return minimize(rosen, start, method="Nelder-Mead", options=options, callback=halt).x

    got = _lockstep_nelder_mead(_rosen_rows, x0, 5000, xatol=1e-10, fatol=1e-12, target=target)
    for k, start in enumerate(x0):
        np.testing.assert_array_equal(got[k], run_until_stop(start))
    assert min(rosen(row) for row in got) <= target
    untargeted = _lockstep_nelder_mead(_rosen_rows, x0, 5000, xatol=1e-10, fatol=1e-12)
    assert not np.array_equal(got, untargeted)
    # A start already on the target stops every start at its initial simplex.
    x0[0] = 1.0
    got = _lockstep_nelder_mead(_rosen_rows, x0, 5000, xatol=1e-10, fatol=1e-12, target=target)
    np.testing.assert_array_equal(got, _lockstep_nelder_mead(_rosen_rows, x0, 6, xatol=1e-10, fatol=1e-12))


def _reference_povm_from_params(x, n_c):
    b = x[: x.size // 2] + 1j * x[x.size // 2 :]
    b = b.reshape(n_c, 4)
    sigma = b @ b.conj().T
    evals, evecs = np.linalg.eigh(sigma)
    if evals[0] < 1e-12:
        return None
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return inv_sqrt @ b


def _reference_povm_objective(x, psi_mat, m):
    """The per-column loop the batched kernel replaces, with its 1.0 penalty."""
    w = _reference_povm_from_params(x, psi_mat.shape[1])
    if w is None:
        return 1.0
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
    return -total


MONOTONE_KINDS = ("e2", "ek:1", "ek:2", "concurrence", "gconc", "s0", "entropy:0", "entropy:0.5", "entropy:1")


@pytest.mark.parametrize(
    "psi",
    [haar_random_pure((2, 2, 2), seed) for seed in range(5)]
    + [ghz_state(), product_state(), haar_random_pure((2, 2, 3), 0), haar_random_pure((2, 2, 4), 0)],
)
def test_povm_objective_batch_matches_loop(psi):
    # Random rows, the informed starts (on the product state their empty
    # columns take the p < 1e-14 branch) and an all-zero, singular block.
    # The loop's (1 - sqrt(1 - 4|det|^2/p^2)) / 2 rounds differently from the
    # kernel's form (up to 3e-15 apart on these rows, and the loop itself
    # sits up to 2.9e-15 from a 40-digit evaluation on GHZ), so the two must
    # agree to 64 ulp of 1.
    n_c = psi.dims[2]
    psi_mat = psi.amplitudes.reshape(4, n_c)
    cands = _informed_starts(psi, _theorem1_candidate(psi, E2))
    rows = np.vstack(
        [np.random.default_rng(0).standard_normal((20, 8 * n_c))]
        + [_params_from_vectors(c, n_c) for c in cands]
        + [np.zeros(8 * n_c)]
    )
    for kind in MONOTONE_KINDS:
        m = MonotoneSpec.parse(kind)
        got = _povm_objective_batch(rows, psi_mat, m)
        expected = [_reference_povm_objective(x, psi_mat, m) for x in rows]
        np.testing.assert_allclose(got, expected, rtol=0, atol=64 * np.finfo(float).eps)
        assert got[-1] == 1.0


def test_povm_objective_batch_full_precision_at_half():
    # |Phi+>|0>: every POVM outcome leaves a Bell pair, so every row scores
    # exactly f(1/2).  The loop's formula misses E2 = 1 here by up to 2.5e-8.
    psi_mat = bell_times_c().amplitudes.reshape(4, 2)
    rows = np.random.default_rng(5).standard_normal((200, 16))
    for kind in ("e2", "ek:2", "concurrence", "entropy:1"):
        m = MonotoneSpec.parse(kind)
        got = -_povm_objective_batch(rows, psi_mat, m)
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
    assert rep.i and rep.ii and rep.iii and rep.applicable
    rep = corollary_check(haar_random_pure((2, 2, 2), 3), 1e-6)
    assert not rep.i and not rep.iii and rep.applicable
    rep = corollary_check(ghz_state(), 1e-6)
    assert rep.i and rep.ii and rep.iii and rep.applicable


def test_eoc_lower_bound():
    val = eoc_lower_bound_search(ghz_state(), E2, SearchBudget(random_starts=1, max_evals=100))
    assert val == pytest.approx(1.0, abs=1e-6)
    psi = haar_random_pure((2, 2, 2), 5)
    val = eoc_lower_bound_search(psi, E2, SearchBudget(random_starts=1, max_evals=100))
    mincut = min(
        cut_entanglement(psi, "A|BC", E2), cut_entanglement(psi, "B|AC", E2)
    )
    assert val <= mincut + 1e-6


def test_eoc_collapse_on_lossless_states():
    psi = generate(FamilySpec(kind="thm2", seed=2))
    numeric, _ = eoa_numeric(psi, ENTROPY_1, SearchBudget(random_starts=1, max_evals=300))
    eoc = eoc_lower_bound_search(psi, ENTROPY_1, SearchBudget(random_starts=1, max_evals=150))
    assert abs(eoc - numeric) <= 2e-4


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

    def counted(x, *args):
        calls.append(len(x))
        return _povm_objective_batch(x, *args)

    monkeypatch.setattr(assistance, "_povm_objective_batch", counted)
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
            "eocLowerBound",
            "monotone",
            "verdict",
            "measurement",
            "certificate",
        }


def test_analyze_builds_and_scores_theorem1_once(monkeypatch, capsys):
    import json

    from eoa3 import assistance
    from eoa3.cli import main

    calls = dict.fromkeys(("theorem1_measurement", "average_post_measurement"), 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(assistance, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(assistance, name, counted)
    assert main(["analyze", "--family", "haar", "--monotone", "entropy:1", "--seed", "5"]) == 0
    assert calls == {"theorem1_measurement": 1, "average_post_measurement": 2}
    monkeypatch.undo()
    # The report's numeric value is the one eoa_numeric finds with the CLI's budget.
    psi = generate(FamilySpec(kind="haar", seed=5))
    budget = SearchBudget(random_starts=2, max_evals=2000, seed=5)
    assert json.loads(capsys.readouterr().out)["eoaNumeric"] == eoa_numeric(psi, ENTROPY_1, budget)[0]


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
    for psi in states:
        for got, ref in zip(_pauli_data(psi, side), _kron_pauli_data(psi, side)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15


def test_verify_theorem1_reports_theorem1_measurement_and_cuts():
    for psi in [w_state(), ghz_state(), product_state(), haar_random_pure((2, 2, 2), 11)]:
        rep = verify_theorem1(psi, 1e-7)
        _, avg = theorem1_measurement(psi)
        assert rep.constructive == avg
        assert rep.cut_a == cut_entanglement(psi, "A|BC", E2)
        assert rep.cut_b == cut_entanglement(psi, "B|AC", E2)
