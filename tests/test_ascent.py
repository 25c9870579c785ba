"""Riemannian gradient ascent on the Stiefel manifold, as the POVM search and
the convex roof use it.

A rank-1 POVM on Charlie is an isometry W (W W^dag = I) whose columns are the
POVM vectors; the search climbs the average post-measurement entanglement
over W with its analytic gradient and the polar retraction.  A 4-element
ensemble of a rank-r two-qubit state is an r x 4 isometry on its purifier,
and the convex roof climbs the negated total concurrence the same way.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eoa3 import assistance
from eoa3.assistance import (
    SearchBudget,
    _basis_values,
    _chart_derivatives,
    _eoa_search,
    _informed_starts,
    _isometries,
    _min_cut,
    _povm_value_grad,
    _rotations,
    _swap_fidelity_grad,
    _theorem1_candidate,
    average_post_measurement,
    eoa_numeric,
)
from eoa3.ensembles import _roof_value_grad, purification
from eoa3.monotones import E2, ENTROPY_1, MonotoneSpec
from eoa3.qcore import (
    PureState,
    _block_diagonal,
    _inner,
    _polar,
    _riemannian_gradient,
    _stiefel_ascent,
    haar_random_pure,
    random_density_matrix,
)
from eoa3.states import bell_times_c, generate, ghz_state, parse_family, product_state, w_state

GRADIENT_KINDS = ("e2", "ek:2", "concurrence", "entropy:0.5", "entropy:0.7", "entropy:1")
ALL_KINDS = ("e2", "ek:1", "ek:2", "concurrence", "s0", "entropy:0", "entropy:0.5", "entropy:0.7", "entropy:1")
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _random_isometries(rng, k, n_c):
    return _polar(rng.standard_normal((k, n_c, 4)) + 1j * rng.standard_normal((k, n_c, 4)))


def _value_grad(kind, n, seed):
    """A value-and-gradient function over (K, n, 4) isometries: the POVM
    objective of a 2x2xn Haar state under ``kind``, or for ``roof`` the
    convex-roof objective of a rank-n two-qubit density matrix."""
    if kind == "roof":
        psi = purification(random_density_matrix(4, n, seed), n)
        return lambda w: _roof_value_grad(w, psi)
    m = MonotoneSpec.parse(kind)
    psi_mat = haar_random_pure((2, 2, n), seed).amplitudes.reshape(4, n)
    return lambda w: _povm_value_grad(w, psi_mat, m)


@pytest.mark.parametrize("n_c", [2, 3, 4])
@pytest.mark.parametrize("kind", GRADIENT_KINDS + ("roof",))
def test_riemannian_gradient_matches_central_differences(kind, n_c):
    # d/dt F(R(W + t Z)) at t = 0 is <grad, Z> for a tangent Z; the polar
    # retraction R agrees with the manifold to second order.
    rng = np.random.default_rng(n_c)
    h = 1e-5
    for seed in range(4):
        fun = _value_grad(kind, n_c, seed)
        w = _random_isometries(rng, 1, n_c)
        grad = _riemannian_gradient(w, fun(w)[1])
        raw = rng.standard_normal((2,) + w.shape[1:]) + 1j * rng.standard_normal((2,) + w.shape[1:])
        for z in [grad, _riemannian_gradient(w, raw[:1]), _riemannian_gradient(w, raw[1:])]:
            up = fun(_polar(w + h * z))[0]
            down = fun(_polar(w - h * z))[0]
            numeric = (up - down) / (2 * h)
            scale = np.sqrt(_inner(grad, grad) * _inner(z, z))
            assert abs(numeric - _inner(grad, z))[0] <= 1e-6 * scale[0]


def _random_blocks(rng, shapes):
    """Four block-diagonal isometries with random blocks of the given shapes."""
    return _block_diagonal([_polar(rng.standard_normal((4,) + sh) + 1j * rng.standard_normal((4,) + sh)) for sh in shapes])


def _assert_gradient_matches_central_differences(fun, z, rng):
    h = 1e-5
    grad = _riemannian_gradient(z, fun(z)[1])
    on_blocks = z != 0
    raw = rng.standard_normal((2,) + z.shape) + 1j * rng.standard_normal((2,) + z.shape)
    for d in [grad, _riemannian_gradient(z, raw[0] * on_blocks), _riemannian_gradient(z, raw[1] * on_blocks)]:
        numeric = (fun(_polar(z + h * d))[0] - fun(_polar(z - h * d))[0]) / (2 * h)
        scale = np.sqrt(_inner(grad, grad) * _inner(d, d))
        assert np.all(np.abs(numeric - _inner(grad, d)) <= 1e-6 * scale)


def test_swap_fidelity_gradient_matches_central_differences():
    rng = np.random.default_rng(9)
    for seed in range(4):
        t = haar_random_pure((2, 2, 2), seed).tensor_view()
        z = _random_blocks(rng, [(2, 2), (2, 2), (2, 2)])
        _assert_gradient_matches_central_differences(lambda x: _swap_fidelity_grad(x, t, t.transpose(1, 0, 2)), z, rng)


@pytest.mark.parametrize("kind", ["e2", "entropy:1", "entropy:0.5", "concurrence", "ek:2"])
def test_chart_derivatives_match_central_differences(kind):
    # z -> F(W R(z)) about z = 0, read by _basis_values along the chart axes
    # 1 and i: the gradient against first central differences, and the
    # forward-difference Hessian against second central differences.
    rng = np.random.default_rng(5)
    m = MonotoneSpec.parse(kind)
    h1, h2 = 1e-5, 1e-4
    axes = (1.0, 1j)
    for seed in range(4):
        psi_mat = haar_random_pure((2, 2, 2), seed).amplitudes.reshape(4, 2)
        w = _polar(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
        value, grad, hess = _chart_derivatives(psi_mat, w, m)

        def f(z):
            return _basis_values(psi_mat, w @ _rotations(np.full(len(w), z)), m)

        np.testing.assert_allclose(value, f(0.0), rtol=0.0, atol=1e-15)
        numeric = np.stack([(f(h1 * a) - f(-h1 * a)) / (2 * h1) for a in axes], axis=1)
        assert np.all(np.abs(numeric - grad) <= 1e-6 * np.abs(grad).max(axis=1, keepdims=True))
        second = np.array(
            [
                [(f(h2 * (a + b)) - f(h2 * (a - b)) - f(h2 * (b - a)) + f(-h2 * (a + b))) / (4 * h2 * h2) for b in axes]
                for a in axes
            ]
        ).transpose(2, 0, 1)
        assert np.all(np.abs(second - hess) <= 1e-3 * np.abs(hess).max(axis=(1, 2), keepdims=True))


def test_riemannian_gradient_is_tangent():
    rng = np.random.default_rng(0)
    psi_mat = haar_random_pure((2, 2, 3), 0).amplitudes.reshape(4, 3)
    w = _random_isometries(rng, 5, 3)
    grad = _riemannian_gradient(w, _povm_value_grad(w, psi_mat, ENTROPY_1)[1])
    skew = grad @ w.conj().transpose(0, 2, 1)
    np.testing.assert_allclose(skew, -skew.conj().transpose(0, 2, 1), atol=1e-14)


def _edge_cases():
    """(state, isometry) pairs with a zero outcome, a branch at lam = 0 and a branch at lam = 1/2."""
    rng = np.random.default_rng(2)
    return [
        (haar_random_pure((2, 2, 2), 3), _isometries([np.eye(2)], 2)),  # two zero outcomes
        (ghz_state(), _isometries([np.eye(2)], 2)),  # branches |00>, |11>: lam = 0
        (product_state(), _random_isometries(rng, 1, 2)),  # every branch at lam = 0
        (ghz_state(), _isometries([HADAMARD], 2)),  # Bell branches: lam = 1/2
        (bell_times_c(), _random_isometries(rng, 1, 2)),  # every branch at lam = 1/2
        (haar_random_pure((2, 2, 2), 4), np.zeros((1, 2, 4), dtype=complex)),  # no live outcome
    ]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_value_and_gradient_finite_at_zero_outcomes_and_branch_ends(kind):
    m = MonotoneSpec.parse(kind)
    for psi, w in _edge_cases():
        psi_mat = psi.amplitudes.reshape(4, 2)
        with np.errstate(all="raise"):
            value, egrad = _povm_value_grad(w, psi_mat, m)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(egrad))
        # A zero column carries no probability, so its gradient vanishes.
        zero = np.all(w == 0, axis=1)
        assert np.all(egrad.transpose(0, 2, 1)[zero] == 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ascent_keeps_projective_starts_projective(kind):
    m = MonotoneSpec.parse(kind)
    for psi, w in _edge_cases()[:-1]:
        psi_mat = psi.amplitudes.reshape(4, 2)
        end = _stiefel_ascent(lambda x: _povm_value_grad(x, psi_mat, m), w, 200, 1e-12, np.inf)
        assert np.all(np.isfinite(end))
        np.testing.assert_allclose(end @ end.conj().transpose(0, 2, 1), np.eye(2)[None], atol=1e-12)
        assert np.all(end[np.broadcast_to(np.all(w == 0, axis=1, keepdims=True), w.shape)] == 0)
        assert _povm_value_grad(end, psi_mat, m)[0][0] >= _povm_value_grad(w, psi_mat, m)[0][0]


def test_budget_counts_evaluations_per_start():
    # Every line-search trial is an evaluation; a start is evaluated at most
    # max_evals times, and at most once per call.
    psi = haar_random_pure((2, 2, 2), 7)
    psi_mat = psi.amplitudes.reshape(4, 2)
    w0 = _random_isometries(np.random.default_rng(1), 4, 2)
    for max_evals in (0, 1, 2, 17):
        rows = []

        def counted(w):
            rows.append(len(w))
            return _povm_value_grad(w, psi_mat, ENTROPY_1)

        end = _stiefel_ascent(counted, w0, max_evals, 1e-12, np.inf)
        assert len(rows) == max_evals and all(r <= 4 for r in rows)
        if max_evals <= 1:
            np.testing.assert_array_equal(end, w0)


def test_ascent_stops_every_start_at_the_target():
    psi = haar_random_pure((2, 2, 2), 7)
    psi_mat = psi.amplitudes.reshape(4, 2)
    w0 = _random_isometries(np.random.default_rng(1), 3, 2)
    start = _povm_value_grad(w0, psi_mat, ENTROPY_1)[0]
    calls = []

    def counted(w):
        calls.append(1)
        return _povm_value_grad(w, psi_mat, ENTROPY_1)

    end = _stiefel_ascent(counted, w0, 200, 1e-12, start.max())
    assert len(calls) == 1
    np.testing.assert_array_equal(end, w0)


_BASES = {
    "product": lambda seed: product_state(),
    "w": lambda seed: w_state(),
    "ghz": lambda seed: ghz_state(),
    "eq21": lambda seed: generate(parse_family("eq21", seed)),
}
FAST_BUDGET = SearchBudget(random_starts=1, max_evals=200)


def _starts(psi, m, budget):
    """The search's starts, in its order: informed bases, then the polar
    factors of seeded Gaussian blocks, one draw of 16 normals per start."""
    rng = np.random.default_rng(budget.seed)
    cands = _informed_starts(psi, _theorem1_candidate(psi, m))
    draws = [rng.standard_normal(16) for _ in range(budget.random_starts)]
    blocks = np.array([(x[:8] + 1j * x[8:]).reshape(2, 4) for x in draws])
    return np.concatenate([_isometries(cands, 2), _polar(blocks)])


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(sorted(_BASES)),
    seed=st.integers(0, 50),
    kind=st.sampled_from(["entropy:1", "entropy:0.5", "concurrence", "e2", "ek:2"]),
    log_eps=st.one_of(st.just(-np.inf), st.floats(-14.0, -1.0)),
    z_seed=st.integers(0, 2**32 - 1),
)
# An entropy that drops Schmidt eigenvalues at or below 1e-15 reads a min-cut
# of -6.4e-16 here, below the 6.2e-8 that the search reaches.
@example(family="product", seed=0, kind="entropy:0.5", log_eps=-8.0, z_seed=0)
def test_search_near_special_states_is_finite_and_bounded(family, seed, kind, log_eps, z_seed):
    # Near product states every branch sits near lam = 0, where the concave
    # measures' slopes diverge.
    rng = np.random.default_rng(z_seed)
    amps = _BASES[family](seed).amplitudes + 10.0**log_eps * (rng.normal(size=8) + 1j * rng.normal(size=8))
    psi = PureState((2, 2, 2), amps / np.linalg.norm(amps))
    m = MonotoneSpec.parse(kind)
    bound = _min_cut(psi, m)
    val, _ = eoa_numeric(psi, m, FAST_BUDGET)
    assert np.isfinite(val) and val <= bound + 1e-12
    # Without the min-cut stop the search keeps the best start.  Under
    # concurrence it still stops within 1e-12 of C_a, which no start exceeds.
    searched, _ = _eoa_search(psi, m, FAST_BUDGET, _theorem1_candidate(psi, m), np.inf)
    best_start = _povm_value_grad(_starts(psi, m, FAST_BUDGET), psi.amplitudes.reshape(4, 2), m)[0].max()
    slack = 1e-12 if kind == "concurrence" else 0.0
    assert np.isfinite(searched) and best_start <= searched + slack
    assert searched <= bound + 1e-12


def test_fast_budget_matches_the_default_budget_on_lossy_states():
    # The first 40 of criterion 5's solves (seeds 40 000 + j with E2 min-cut
    # above 0.1): the budget the acceptance gate uses falls short of the
    # default budget by at most 1e-6.
    shortfalls = []
    j = 0
    while len(shortfalls) < 40:
        psi = haar_random_pure((2, 2, 2), 40_000 + j)
        j += 1
        if _min_cut(psi, E2) <= 0.1:
            continue
        fast, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
        full, _ = eoa_numeric(psi, ENTROPY_1, SearchBudget(random_starts=2, max_evals=2000))
        shortfalls.append(full - fast)
    assert max(shortfalls) <= 1e-6


def _recorded_climbs(monkeypatch):
    """Record (starts, ends) of every ``_bloch_newton`` and ``_stiefel_ascent`` the search runs."""
    runs = {"newton": [], "ascent": []}
    newton, ascent = assistance._bloch_newton, assistance._stiefel_ascent

    def recorded_newton(psi_mat, m, bases, *args):
        out = newton(psi_mat, m, bases, *args)
        runs["newton"].append((bases, out[0]))
        return out

    def recorded_ascent(fun, w0, *args):
        runs["ascent"].append((w0, ascent(fun, w0, *args)))
        return runs["ascent"][-1][1]

    monkeypatch.setattr(assistance, "_bloch_newton", recorded_newton)
    monkeypatch.setattr(assistance, "_stiefel_ascent", recorded_ascent)
    return runs


def test_search_scores_its_ends_with_the_objective(monkeypatch):
    # With the dual bound off, every start and end of the Newton climb and of
    # the ascent after it is scored by the search's objective, as the
    # certificates are; the reported value is the best of them.
    psi = haar_random_pure((2, 2, 2), 11)
    psi_mat = psi.amplitudes.reshape(4, 2)
    runs = _recorded_climbs(monkeypatch)
    monkeypatch.setattr(assistance, "_dual_bound", lambda *args: np.inf)
    val, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
    starts = _starts(psi, ENTROPY_1, FAST_BUDGET)
    ((bases, newton_ends),) = runs["newton"]
    ((climbed, ends),) = runs["ascent"]
    np.testing.assert_array_equal(_isometries(bases, 2), starts[:-1])
    # No basis is climbed twice: the Theorem-1 basis of a commuting side is
    # that side's basis, which the starts already hold.
    assert all(not np.array_equal(a, b) for i, a in enumerate(bases) for b in bases[i + 1 :])
    scored = np.concatenate([starts, _isometries(newton_ends, 2), climbed, ends])
    assert val == _povm_value_grad(scored, psi_mat, ENTROPY_1)[0].max()
    assert val < _min_cut(psi, ENTROPY_1) - 1e-3


def test_random_starts_climb_when_the_dual_bound_does_not_fire(monkeypatch):
    # With the dual bound off, the Newton ends and then the random starts,
    # from the same draws, climb as one ascent, to the ends a direct call
    # reaches from them.
    for seed in (11, 12, 13):
        psi = haar_random_pure((2, 2, 2), seed)
        psi_mat = psi.amplitudes.reshape(4, 2)
        runs = _recorded_climbs(monkeypatch)
        monkeypatch.setattr(assistance, "_dual_bound", lambda *args: np.inf)
        val, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
        starts = _starts(psi, ENTROPY_1, FAST_BUDGET)
        ((bases, newton_ends),) = runs["newton"]
        ((climbed, ends),) = runs["ascent"]
        np.testing.assert_array_equal(climbed, np.concatenate([_isometries(newton_ends, 2), starts[len(bases) :]]))
        monkeypatch.undo()
        joint = _stiefel_ascent(
            lambda w: _povm_value_grad(w, psi_mat, ENTROPY_1), climbed, FAST_BUDGET.max_evals, 1e-12, _min_cut(psi, ENTROPY_1) - 1e-12
        )
        np.testing.assert_array_equal(ends, joint)
        scored = np.concatenate([starts, climbed, joint])
        assert val == _povm_value_grad(scored, psi_mat, ENTROPY_1)[0].max()


def test_certified_solve_draws_no_random_starts(monkeypatch):
    # A lossy Haar solve that the dual bound certifies at its first
    # stationary Newton basis returns the Newton candidates alone: the random
    # starts are neither drawn nor polar-factored.
    psi = haar_random_pure((2, 2, 2), 5)
    certified, polars = [], []
    newton, polar = assistance._bloch_newton, assistance._polar

    def recorded_newton(*args):
        out = newton(*args)
        certified.append(out[1])
        return out

    monkeypatch.setattr(assistance, "_bloch_newton", recorded_newton)
    monkeypatch.setattr(assistance, "_polar", lambda b: polars.append(b) or polar(b))
    val, _ = eoa_numeric(psi, ENTROPY_1, FAST_BUDGET)
    assert val < _min_cut(psi, ENTROPY_1) - 1e-3
    assert certified == [True]
    assert polars == []


@pytest.mark.parametrize("n_c", [2, 3, 4])
def test_search_measurement_scores_its_value(n_c):
    # The measurement the search returns is the POVM it scored: measured
    # outcome by outcome, it gives the reported value.
    for kind in ("e2", "ek:2", "concurrence", "entropy:0.5", "entropy:1"):
        m = MonotoneSpec.parse(kind)
        for seed in range(15):
            psi = haar_random_pure((2, 2, n_c), seed)
            val, meas = eoa_numeric(psi, m, FAST_BUDGET)
            assert meas.dim == n_c
            assert abs(average_post_measurement(psi, meas, m) - val) <= 1e-12
