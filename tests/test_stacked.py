"""The stacked closed-form kernels against their one-state calls.

A stack row must not depend on the other rows: every row of a batch equals
the N = 1 call on that state, whichever Theorem-1 branch each row takes
(decoupled, side-A parallel, side-B parallel, Eq. 21) and whether or not a
row falls back to the local commuting-basis search.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoa3 import assistance
from eoa3.assistance import theorem1_stack
from eoa3.qcore import PureState, haar_random_pure
from eoa3.states import bell_times_c, generate, ghz_state, parse_family, product_state, w_state
from eoa3.verify import TRIALS

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
        assert batch.trivial[i] == one.trivial[0]
        if not one.trivial[0]:
            assert np.max(np.abs(batch.basis[i] - one.basis[0])) <= 1e-15
        for field in ("average", "cut_a", "cut_b"):
            assert abs(getattr(batch, field)[i] - getattr(one, field)[0]) <= 1e-15
        for side, (rows, bases) in batch.commuting.items():
            built = side in one.commuting
            assert (i in rows) == built
            if built:
                assert np.max(np.abs(bases[list(rows).index(i)] - one.commuting[side][1][0])) <= 1e-15
        assert set(one.commuting) <= set(batch.commuting)
        # Theorem 1's gate, as criterion 1 applies it.
        assert abs(batch.average[i] - min(batch.cut_a[i], batch.cut_b[i])) <= 1e-7


_ROW = st.tuples(
    st.sampled_from(sorted(_BASES)),
    st.integers(0, 50),
    st.one_of(st.just(-np.inf), st.floats(-16.0, -1.0)),
    st.integers(0, 2**32 - 1),
)
# Perturbed products in this range send about half their rows to the local search.
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


def test_local_search_runs_inside_a_batch(monkeypatch):
    refined = []
    refine = assistance._refine_basis_residual

    def counted(t_row, side, basis):
        refined.append(side)
        return refine(t_row, side, basis)

    monkeypatch.setattr(assistance, "_refine_basis_residual", counted)
    rng = np.random.default_rng(0)
    psis = [haar_random_pure((2, 2, 2), 3), w_state(), bell_times_c(), ghz_state()]
    psis += [_perturbed(product_state(), rng.uniform(np.log10(3.9e-7), np.log10(9.6e-5)), k) for k in range(8)]
    psis += [generate(parse_family("eq21", 4)), haar_random_pure((2, 2, 2), 4)]
    _assert_rows_equal_single_calls(psis)
    assert refined


def _assert_trial_rows_match(batch, singles):
    assert len(batch) == len(singles)
    for (ok, row, witness), (ok1, row1, witness1) in zip(batch, singles):
        assert ok == ok1
        assert row.keys() == row1.keys()
        for key in row:
            assert abs(row[key] - row1[key]) <= 1e-12
        np.testing.assert_array_equal(witness.amplitudes, witness1.amplitudes)


@pytest.mark.parametrize(
    "target, seeds",
    [("thm1", range(10_000)), ("eq37", range(100_000, 101_000)), ("ckw", range(60_000, 70_000))],
)
def test_batch_trials_match_single_trials_on_acceptance_seeds(target, seeds):
    # Criteria 1 and 8 and the CKW loop of criterion 7.
    singles = [TRIALS[target]([seed], 1e-7)[0] for seed in seeds]
    _assert_trial_rows_match(TRIALS[target](seeds, 1e-7), singles)
