"""Exact certificates the POVM search tries before its optimizer, and the
dual bound that lets it skip its random starts.

Under ``concurrence`` with a qubit Charlie the entanglement of assistance is
C_a = ||tau||_1, tau = V^T (sy x sy) V (Laustsen, Verstraete & van Enk, QIC
2003), and the Takagi basis of tau reaches it.  On lossless states the
classifier's marginal-preserving basis reaches the min-cut.  With a qubit
Charlie, weak duality bounds every POVM by tr Lam + 2 max_c (phi(c) -
c^dag Lam c), Lam read off the best informed POVM; where that bound meets the
informed value the random starts are scored but not climbed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eoa3 import assistance
from eoa3.assistance import (
    Measurement,
    SearchBudget,
    _SEARCH_FATOL,
    _eoa_search,
    _informed_starts,
    _isometries,
    _min_cut,
    _povm_value_grad,
    _takagi_basis,
    _theorem1_candidate,
    analyze,
    average_post_measurement,
    commuting_charlie_basis,
    eoa_numeric,
    theorem1_measurement,
)
from eoa3.monotones import CONCURRENCE, E2, ENTROPY_1, MonotoneSpec, _pair_taus, wootters_lambdas
from eoa3.qcore import PureState, _stiefel_ascent, haar_random_pure, reduced_density, reduced_stack
from eoa3.states import generate, ghz_state, parse_family, product_state, w_state


def _ab_tau(psi):
    """The AB preconcurrence form of psi, whose trace norm is C_a."""
    return _pair_taus(psi.tensor_view()[None])[0, 0]


def _trace_norm(psi):
    return float(np.linalg.svd(_ab_tau(psi), compute_uv=False).sum())


def _takagi_value(psi):
    """The Takagi basis scored as the search scores a certificate."""
    w = _isometries([_takagi_basis(_ab_tau(psi))], 2)
    return _povm_value_grad(w, psi.amplitudes.reshape(4, 2), CONCURRENCE)[0][0]


def _takagi_projective_value(psi):
    meas = Measurement.projective(_takagi_basis(_ab_tau(psi)))
    return average_post_measurement(psi, meas, CONCURRENCE)


def _perturbed(base, eps, z):
    amps = base.amplitudes + eps * z
    return PureState((2, 2, 2), amps / np.linalg.norm(amps))


def test_takagi_measurement_reaches_trace_norm_on_haar_states():
    for seed in range(2000):
        psi = haar_random_pure((2, 2, 2), seed)
        assert abs(_takagi_value(psi) - _trace_norm(psi)) <= 1e-14
        assert abs(_takagi_projective_value(psi) - _trace_norm(psi)) <= 1e-14


def test_trace_norm_matches_wootters_lambdas_on_haar_states():
    for seed in range(2000):
        psi = haar_random_pure((2, 2, 2), seed)
        lam = wootters_lambdas(reduced_density(psi, (0, 1)))
        assert abs(lam.sum() - _trace_norm(psi)) <= 1e-12


def test_takagi_measurement_reaches_trace_norm_near_w():
    # Rank-2 pair states close to W, where square roots of eigenvalues that
    # rounding leaves near zero would drift by up to 3.7e-8.
    rng = np.random.default_rng(0)
    for _ in range(300):
        eps = 10 ** rng.uniform(np.log10(4e-10), np.log10(1.4e-8))
        z = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = _perturbed(w_state(), eps, z)
        assert abs(_takagi_value(psi) - _trace_norm(psi)) <= 1e-14
        assert abs(_takagi_projective_value(psi) - _trace_norm(psi)) <= 1e-14


_BASES = {
    "ghz": lambda seed: ghz_state(),
    "w": lambda seed: w_state(),
    "product": lambda seed: product_state(),
    "eq21": lambda seed: generate(parse_family("eq21", seed)),
    "thm2": lambda seed: generate(parse_family("thm2", seed)),
}


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(_BASES)),
    seed=st.integers(0, 50),
    log_eps=st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
    z_seed=st.integers(0, 2**32 - 1),
)
# Near a product branch, 2 sqrt(lam (1 - lam)) amplifies the ~1e-17 noise of
# an eigh eigenvalue: taken that way, lam scores 4.3316e-07 here against
# ||tau||_1 = 4.3294e-07.  average_post_measurement takes lam in closed form,
# 2 |det M|^2 / (p (p + gap)), as the search's kernel does.
@example(family="product", seed=0, log_eps=-7.0, z_seed=0)
def test_concurrence_certificate_never_raises_or_exceeds_trace_norm(family, seed, log_eps, z_seed):
    rng = np.random.default_rng(z_seed)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = _perturbed(_BASES[family](seed), 10.0**log_eps, z)
    assert _takagi_value(psi) <= _trace_norm(psi) + 1e-14
    assert _takagi_projective_value(psi) <= _trace_norm(psi) + 1e-14


def _count_searches(monkeypatch):
    calls = []
    search = assistance._povm_search

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(assistance, "_povm_search", counted)
    return calls


@pytest.mark.parametrize(
    "family, kind",
    [("eq21", "entropy:1"), ("eq21", "entropy:0.5"), ("eq21", "concurrence"), ("haar", "concurrence"), ("w", "concurrence")],
)
def test_certified_reports_skip_the_optimizer(monkeypatch, family, kind):
    calls = _count_searches(monkeypatch)
    m = MonotoneSpec.parse(kind)
    for seed in range(3):
        psi = generate(parse_family(family, seed))
        rep = analyze(psi, m, SearchBudget(random_starts=2, max_evals=2000, seed=seed))
        bound = min(rep.cut_a, rep.cut_b)
        if kind == "concurrence":
            bound = min(bound, _trace_norm(psi))
        assert abs(rep.eoa_numeric - bound) <= 1e-12
        assert rep.eoa_numeric >= rep.eoa_constructive
    assert calls == []


def test_lossy_report_is_the_full_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    psi = haar_random_pure((2, 2, 2), 7)
    budget = SearchBudget(random_starts=2, max_evals=2000, seed=7)
    rep = analyze(psi, ENTROPY_1, budget)
    assert len(calls) == 1
    assert rep.lossless_verdict.kind == "lossy"
    # No min-cut stop and no certificate basis: the search with the bound at inf.
    ref_val, _ = _eoa_search(psi, ENTROPY_1, budget, _theorem1_candidate(psi, ENTROPY_1), np.inf)
    assert rep.eoa_numeric == ref_val
    meas, _ = theorem1_measurement(psi)
    for got, ref in zip(rep.measurement.elements, meas.elements, strict=True):
        np.testing.assert_array_equal(got, ref)


def test_takagi_spans_every_two_by_two_form():
    # The search calls _takagi_basis without a fallback: on a 2 x 2 tau the
    # first pick leaves three orthonormal eigenvectors e of the real
    # embedding with sum (J z1 . e)^2 = 1, so at most one of them is cut
    # below norm 0.5 and a second column is always found.
    specials = [ghz_state(), w_state(), product_state(), generate(parse_family("bell_c", 0))]
    taus = [np.zeros((2, 2), dtype=complex), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)]
    taus += [_ab_tau(psi) for psi in specials + [haar_random_pure((2, 2, 2), seed) for seed in range(200)]]
    taus += [1e-9 * tau for tau in taus]
    for tau in taus:
        basis = _takagi_basis(tau)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)


def test_lossy_solve_builds_each_reduction_once(monkeypatch):
    kept = []

    def counted_stack(t, keep):
        kept.extend([tuple(keep)] * len(t))
        return reduced_stack(t, keep)

    monkeypatch.setattr(assistance, "reduced_stack", counted_stack)
    psi = haar_random_pure((2, 2, 2), 5)
    eoa_numeric(psi, ENTROPY_1, SearchBudget(random_starts=1, max_evals=200))
    assert sorted(kept) == [(0, 1)]


def test_informed_starts_reuse_the_theorem1_bases():
    # The rows and their order are those the public commuting_charlie_basis
    # gives; a Haar state measures a commuting side, which is not added twice.
    for seed in range(20):
        psi = haar_random_pure((2, 2, 2), seed)
        got = _informed_starts(psi, _theorem1_candidate(psi, ENTROPY_1))
        assert len(got) == 4
        for g, side in zip(got[2:], ("A", "B")):
            np.testing.assert_array_equal(g, commuting_charlie_basis(psi, side).basis)


def _recorded_bounds(monkeypatch):
    """Record (U, value of the POVM U is read off) at each dual bound the search takes."""
    bounds = []
    dual_bound = assistance._dual_bound

    def recorded(w, g, psi_mat, m):
        u = dual_bound(w, g, psi_mat, m)
        bounds.append((u, _povm_value_grad(w[None], psi_mat, m)[0][0]))
        return u

    monkeypatch.setattr(assistance, "_dual_bound", recorded)
    return bounds


def _without_dual_bound(search):
    """``search()`` with the dual bound at +inf, so the random starts always climb."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assistance, "_dual_bound", lambda *args: np.inf)
        return search()


# The bases of test_search_near_special_states_is_finite_and_bounded, and Haar states.
_DUAL_BASES = {name: _BASES[name] for name in ("ghz", "w", "product", "eq21")}
_DUAL_BASES["haar"] = lambda seed: haar_random_pure((2, 2, 2), 300_000 + seed)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(sorted(_DUAL_BASES)),
    seed=st.integers(0, 50),
    kind=st.sampled_from(["e2", "ek:2", "entropy:0.5", "entropy:1"]),
    log_eps=st.one_of(st.just(-np.inf), st.floats(-14.0, -1.0)),
    z_seed=st.integers(0, 2**32 - 1),
)
def test_dual_bound_is_sound_near_special_states(family, seed, kind, log_eps, z_seed):
    # A search whose random starts always climb, with four of them and a
    # tenfold budget, never beats the dual bound; where the bound fires, it
    # does not beat the certified search either.
    rng = np.random.default_rng(z_seed)
    psi = _perturbed(_DUAL_BASES[family](seed), 10.0**log_eps, rng.normal(size=8) + 1j * rng.normal(size=8))
    m = MonotoneSpec.parse(kind)
    budget = SearchBudget(random_starts=4, max_evals=2000, seed=seed)

    def search():
        return _eoa_search(psi, m, budget, _theorem1_candidate(psi, m), _min_cut(psi, m))[0]

    with pytest.MonkeyPatch.context() as patch:
        bounds = _recorded_bounds(patch)
        certified = search()
    # One bound at the Newton climb's first stationary basis, one at its best end.
    assert len(bounds) <= 2
    climbed = _without_dual_bound(search)
    for u, informed in bounds:
        assert climbed <= u + 1e-12
        if u <= informed + _SEARCH_FATOL:
            assert abs(certified - climbed) <= 1e-12


def test_dual_bound_fires_on_lossy_haar_states(monkeypatch):
    # The first 100 lossy states of criterion 5 (seeds 40 000 + j with E2
    # min-cut above 0.1), at the acceptance gate's budget.
    budget = SearchBudget(random_starts=1, max_evals=200)
    bounds = _recorded_bounds(monkeypatch)
    fired = 0
    j = 0
    for _ in range(100):
        while _min_cut(psi := haar_random_pure((2, 2, 2), 40_000 + j), E2) <= 0.1:
            j += 1
        j += 1
        bounds.clear()
        val, _ = eoa_numeric(psi, ENTROPY_1, budget)
        ((u, informed),) = bounds
        fired += u <= informed + _SEARCH_FATOL
        climbed, _ = _without_dual_bound(lambda: eoa_numeric(psi, ENTROPY_1, budget))
        assert abs(val - climbed) <= 1e-14
    assert fired >= 95


def _lossy_haar_states(count):
    """The first lossy states of criterion 5: seeds 40 000 + j with E2 min-cut above 0.1."""
    states = []
    j = 0
    while len(states) < count:
        psi = haar_random_pure((2, 2, 2), 40_000 + j)
        j += 1
        if _min_cut(psi, E2) > 0.1:
            states.append(psi)
    return states


def test_certified_newton_evaluates_less_on_lossy_haar_states(monkeypatch):
    # The 100 states of test_dual_bound_fires_on_lossy_haar_states: the whole
    # certified search, Theorem-1 candidate and dual bound included, makes
    # fewer objective calls than the ascent of its informed starts alone.
    budget = SearchBudget(random_starts=1, max_evals=200)
    states = _lossy_haar_states(100)
    ascended = 0
    for psi in states:
        psi_mat = psi.amplitudes.reshape(4, 2)
        w0 = _isometries(_informed_starts(psi, _theorem1_candidate(psi, ENTROPY_1)), 2)
        calls = []
        _stiefel_ascent(
            lambda w: calls.append(1) or _povm_value_grad(w, psi_mat, ENTROPY_1),
            w0,
            budget.max_evals,
            _SEARCH_FATOL,
            _min_cut(psi, ENTROPY_1) - _SEARCH_FATOL,
        )
        ascended += len(calls)
    calls = []
    kernel = assistance._outcome_value_grad
    monkeypatch.setattr(assistance, "_outcome_value_grad", lambda *args, **kwargs: calls.append(1) or kernel(*args, **kwargs))
    for psi in states:
        eoa_numeric(psi, ENTROPY_1, budget)
    assert len(calls) < ascended


@pytest.mark.parametrize("kind", ["entropy:1", "entropy:0.5"])
def test_newton_certificates_hold_against_a_heavy_search(monkeypatch, kind):
    # Where the Newton path claims a certificate at the acceptance gate's
    # budget, a search with eight random starts, a tenfold budget and the
    # dual bound off finds nothing more than 1e-12 above it.
    m = MonotoneSpec.parse(kind)
    bounds = _recorded_bounds(monkeypatch)
    certified = 0
    for psi in _lossy_haar_states(100):
        bounds.clear()
        val, _ = eoa_numeric(psi, m, SearchBudget(random_starts=1, max_evals=200))
        if any(u <= informed + _SEARCH_FATOL for u, informed in bounds):
            certified += 1
            heavy, _ = _without_dual_bound(lambda: eoa_numeric(psi, m, SearchBudget(random_starts=8, max_evals=2000)))
            assert val >= heavy - 1e-12
    assert certified >= 95


def test_w_under_entropy_half_takes_the_fallback(monkeypatch):
    # A ring of near-ties surrounds the W state's optimum under entropy:0.5:
    # at the CLI budget the dual bound is inf on every seed, so no
    # certificate is claimed and the random starts climb.
    bounds = _recorded_bounds(monkeypatch)
    calls = []
    ascent = assistance._stiefel_ascent
    monkeypatch.setattr(assistance, "_stiefel_ascent", lambda *args: calls.append(1) or ascent(*args))
    m = MonotoneSpec.parse("entropy:0.5")
    for seed in range(100):
        bounds.clear()
        calls.clear()
        analyze(generate(parse_family("w", seed)), m, SearchBudget(random_starts=2, max_evals=2000, seed=seed))
        # One bound, at the first stationary basis: the best Newton end is
        # that basis, and a second bound there would refuse again.
        ((u, _),) = bounds
        assert np.isinf(u)
        assert len(calls) == 1
