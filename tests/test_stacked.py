"""The stacked closed-form kernels against their one-state calls.

A stack row must not depend on the other rows: every row of a batch equals
the N = 1 call on that state, whichever Theorem-1 branch each row takes
(decoupled, side-A parallel, side-B parallel, Eq. 21 by its side-A detector
or after both sides are antiparallel), including near-product rows whose
Pauli data nearly cancel; whichever exit of the lossless classifier a row
takes; and whether or not a density matrix of an all-entangled
decomposition batch needs the product-elimination search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoa3 import ensembles
from eoa3.assistance import lossless_classifier, lossless_classifiers, theorem1_stack
from eoa3.ensembles import entangled_decomposition, entangled_stack
from eoa3.monotones import E2
from eoa3.qcore import DensityMatrix, PureState, haar_random_pure, random_density_matrix
from eoa3.states import bell_times_c, generate, ghz_state, parse_family, product_state, w_state
from eoa3.verify import TRIALS, mixed_marginal_density

_BASES = {
    "w": lambda seed: w_state(),
    "ghz": lambda seed: ghz_state(),
    "product": lambda seed: product_state(),
    "decoupled": lambda seed: bell_times_c(),
    "eq21": lambda seed: generate(parse_family("eq21", seed)),
    "thm2": lambda seed: generate(parse_family("thm2", seed)),
    "haar": lambda seed: haar_random_pure((2, 2, 2), seed),
}


def _perturbed(base, log_eps, z_seed):
    rng = np.random.default_rng(z_seed)
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps = base.amplitudes + 10.0**log_eps * z
    return PureState((2, 2, 2), amps / np.linalg.norm(amps))


def _assert_rows_equal_single_calls(psis):
    batch = theorem1_stack(psis)
    for i, psi in enumerate(psis):
        one = theorem1_stack([psi])
        assert batch.branch[i] == one.branch[0]
        for field in ("basis", "average", "sides"):
            assert np.max(np.abs(getattr(batch, field)[i] - getattr(one, field)[0])) <= 1e-15
        cuts = E2.eigenvalue_values(batch.minima[i])
        assert np.max(np.abs(cuts - E2.eigenvalue_values(one.minima[0]))) <= 1e-15
        # Theorem 1's gate, as criterion 1 applies it.
        assert abs(batch.average[i] - cuts.min()) <= 1e-7


_ROW = st.tuples(
    st.sampled_from(sorted(_BASES)),
    st.integers(0, 50),
    st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
    st.integers(0, 2**32 - 1),
)
# Perturbed products in this range: T^-1 a would take differences of nearly
# equal Pauli data here, which the Schmidt-frame closed form avoids.
_REFINED_ROW = st.tuples(
    st.just("product"),
    st.just(0),
    st.floats(np.log10(3.9e-7), np.log10(9.6e-5)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.one_of(_ROW, _REFINED_ROW), min_size=1, max_size=12))
def test_mixed_batches_equal_their_single_calls(rows):
    _assert_rows_equal_single_calls(
        [_perturbed(_BASES[family](seed), log_eps, z_seed) for family, seed, log_eps, z_seed in rows]
    )


def test_local_search_runs_inside_a_batch():
    rng = np.random.default_rng(0)
    psis = [haar_random_pure((2, 2, 2), 3), w_state(), bell_times_c(), ghz_state()]
    psis += [_perturbed(product_state(), rng.uniform(np.log10(3.9e-7), np.log10(9.6e-5)), k) for k in range(8)]
    psis += [generate(parse_family("eq21", 4)), haar_random_pure((2, 2, 2), 4)]
    _assert_rows_equal_single_calls(psis)


def _bell_ac_times_b():
    """A maximally entangled with C, B in |0>: A's marginal is I/2, B's is pure."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[5] = 1 / np.sqrt(2)  # |000> and |101>
    return PureState((2, 2, 2), amps)


# Each reaches one exit of the classifier across A|BC: decoupled, maximally
# mixed, lossy early (A's marginal near 1/2, B's not), lossless, lossy.
_CLASSIFIER_BASES = {
    "decoupled": lambda seed: bell_times_c(),
    "ghz": lambda seed: ghz_state(),
    "bell_ac": lambda seed: _bell_ac_times_b(),
    "thm2": lambda seed: generate(parse_family("thm2", seed)),
    "haar": lambda seed: haar_random_pure((2, 2, 2), seed),
    "w": lambda seed: w_state(),
}


def _assert_classifier_rows_equal_single_calls(psis, cut, tol):
    batch = lossless_classifiers(psis, cut, tol)
    for i, psi in enumerate(psis):
        one = lossless_classifier(psi, cut, tol)
        assert batch.kinds[i] == one.kind
        assert batch.objectives[i] == one.objective or abs(batch.objectives[i] - one.objective) <= 1e-15
    return batch


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(sorted(_CLASSIFIER_BASES)),
            st.integers(0, 50),
            st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=12,
    ),
    cut=st.sampled_from(["A|BC", "B|AC"]),
    tol=st.sampled_from([1e-9, 1e-8, 1e-7]),
)
def test_classifier_batches_equal_their_single_calls(rows, cut, tol):
    psis = [_perturbed(_CLASSIFIER_BASES[family](seed), log_eps, z_seed) for family, seed, log_eps, z_seed in rows]
    _assert_classifier_rows_equal_single_calls(psis, cut, tol)


def test_classifier_batch_reaches_every_exit():
    psis = [base(3) for base in _CLASSIFIER_BASES.values()]
    psis += [_perturbed(base(4), -9.0, k) for k, base in enumerate(_CLASSIFIER_BASES.values())]
    batch = _assert_classifier_rows_equal_single_calls(psis, "A|BC", 1e-7)
    exits = set(zip(batch.kinds.tolist(), batch.tested.tolist(), np.isinf(batch.objectives).tolist()))
    assert exits == {
        ("decoupled", False, False),
        ("lossless", False, False),
        ("lossy", False, True),
        ("lossless", True, False),
        ("lossy", True, False),
    }


def test_entangled_decomposition_eliminates_products_inside_a_batch(monkeypatch):
    eliminated = []
    eliminate = ensembles._eliminate_product

    def counted(ys, j):
        eliminated.append(j)
        return eliminate(ys, j)

    monkeypatch.setattr(ensembles, "_eliminate_product", counted)
    tilted = np.zeros(4, dtype=complex)
    tilted[2] = tilted[3] = 1 / np.sqrt(2)  # |1+>
    two_products = DensityMatrix.from_matrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    rhos = [random_density_matrix(4, 2 + k % 3, 7 + k) for k in range(3)]
    rhos += [two_products, mixed_marginal_density(120_000)]
    rhos += [DensityMatrix.from_matrix(0.5 * np.diag([1.0, 0, 0, 0]) + 0.5 * np.outer(tilted, tilted.conj()))]
    batch = entangled_stack(rhos)
    assert len(eliminated) >= 2  # both products of the two product matrices
    for rho, ys in zip(rhos, batch):
        np.testing.assert_array_equal(ys, entangled_stack([rho])[0])
        ens = entangled_decomposition(rho)
        kept = [y for y in ys if np.vdot(y, y).real >= 1e-14]
        assert len(kept) == len(ens.elements)
        for y, (w, s) in zip(kept, ens.elements):
            np.testing.assert_array_equal(y / np.sqrt(w), s.amplitudes)


def _assert_trial_rows_match(batch, singles):
    assert len(batch) == len(singles)
    for (ok, row, witness), (ok1, row1, witness1) in zip(batch, singles):
        assert ok == ok1
        assert row.keys() == row1.keys()
        for key in row:
            if isinstance(row[key], str):
                assert row[key] == row1[key]
            else:
                assert abs(row[key] - row1[key]) <= 1e-12
        if witness is None:
            assert witness1 is None
        else:
            np.testing.assert_array_equal(witness.amplitudes, witness1.amplitudes)


@pytest.mark.parametrize(
    "target, seeds",
    [
        ("thm1", range(10_000)),
        ("eq37", range(100_000, 101_000)),
        ("ckw", range(60_000, 70_000)),
        ("thm2", range(1000)),
        ("appendixB", range(120_000, 121_000)),
    ],
)
def test_batch_trials_match_single_trials_on_acceptance_seeds(target, seeds):
    # Criteria 1, 8, 4 and 9 and the CKW loop of criterion 7.
    singles = [TRIALS[target]([seed], 1e-7)[0] for seed in seeds]
    _assert_trial_rows_match(TRIALS[target](seeds, 1e-7), singles)
