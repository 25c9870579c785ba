"""The stacked closed-form kernels and seeded builders against their one-state calls.

A stack row must not depend on the other rows: every row of a batch equals
the N = 1 call on that state, whichever Theorem-1 branch each row takes
(decoupled, side-A parallel, side-B parallel, Eq. 21 by its side-A detector
or after both sides are antiparallel), including near-product rows whose
Pauli data nearly cancel; whichever exit of the lossless classifier a row
takes; and whether or not a density matrix of an all-entangled
decomposition batch needs the product-elimination search.  Every row of a
seeded builder equals its one-seed draw bit for bit, whatever rank, mixture
size or redraw count its neighbours have.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoa3 import assistance, ensembles, monotones, qcore, verify
from eoa3.assistance import (
    lossless_classifier,
    lossless_classifiers,
    theorem1_stack,
    unital_fixed_point_check,
    unital_fixed_point_checks,
)
from eoa3.ensembles import entangled_decomposition, entangled_stack
from eoa3.monotones import E2
from eoa3.qcore import (
    DensityMatrix,
    PureState,
    haar_random_pure,
    haar_random_rows,
    haar_random_unitaries,
    haar_random_unitary,
    random_density_matrices,
    random_density_matrix,
)
from eoa3.states import (
    FamilySpec,
    bell_times_c,
    eq21_rows,
    generate,
    ghz_state,
    parse_family,
    product_state,
    thm2_rows,
    w_state,
)
from eoa3.verify import TRIALS, mixed_marginal_densities, mixed_marginal_density, prop2_instance, prop2_instances

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
        ("prop2", range(2000)),
        ("corollary", range(1000)),
    ],
)
def test_batch_trials_match_single_trials_on_acceptance_seeds(target, seeds):
    # Criteria 1, 8, 4, 9 and 6, the CKW loop of criterion 7, and the
    # corollary target on criterion 7's sample size.
    singles = [TRIALS[target]([seed], 1e-7)[0] for seed in seeds]
    _assert_trial_rows_match(TRIALS[target](seeds, 1e-7), singles)


def test_haar_builders_equal_their_single_draws():
    seeds = [3, 0, 2**40 + 7, 120_000, 3]
    for dims in ((2, 2, 2), (2, 2, 3), (2, 2)):
        rows = haar_random_rows(int(np.prod(dims)), seeds)
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(row, haar_random_pure(dims, seed).amplitudes)
    for dim in (2, 3, 4):
        us = haar_random_unitaries(dim, seeds)
        for u, seed in zip(us, seeds):
            np.testing.assert_array_equal(u, haar_random_unitary(dim, seed))


def test_wishart_builder_groups_every_rank():
    for dim in (2, 4):
        ranks = list(range(1, dim + 1)) * 2
        seeds = [40 + 7 * k for k in range(len(ranks))]
        batch = random_density_matrices(dim, ranks, seeds)
        for m, rank, seed in zip(batch, ranks, seeds):
            np.testing.assert_array_equal(m, random_density_matrix(dim, rank, seed).entries)
    with pytest.raises(qcore.InputError):
        random_density_matrices(4, [2, 5], [0, 1])


def test_family_builders_take_only_missing_fields_from_the_seed():
    specs = [
        FamilySpec(kind="thm2", seed=11),
        FamilySpec(kind="thm2", seed=12, lambda_min=0.3),
        FamilySpec(kind="thm2", seed=13, weights=(0.25, 0.75), phases=(0.1, 2.0)),
        FamilySpec(kind="thm2", seed=14, unitaries=(np.eye(2), haar_random_unitary(2, 5))),
        FamilySpec(kind="thm2", seed=11),
    ]
    for row, spec in zip(thm2_rows(specs), specs):
        np.testing.assert_array_equal(row, generate(spec).amplitudes)
    p, overlaps = [0.3, 0.5, 0.9, 0.2], [0.4, -0.95, 0.3 + 0.4j, 1.0]
    for row, pk, ok in zip(eq21_rows(p, overlaps), p, overlaps):
        np.testing.assert_array_equal(row, generate(FamilySpec(kind="eq21", p=pk, overlap=ok)).amplitudes)


def test_prop2_builder_groups_both_sizes_and_parities():
    seeds = list(range(200, 216))
    groups = prop2_instances(seeds)
    assert [probs.shape[1] for _, _, probs, _ in groups] == [2, 3]
    seen = set()
    for rows, h, probs, us in groups:
        for row, h_i, p_i, us_i in zip(rows, h, probs, us):
            seed = seeds[row]
            seen.add((len(p_i), seed % 2))
            h1, p1, us1 = prop2_instance(seed)
            np.testing.assert_array_equal(h_i, h1)
            np.testing.assert_array_equal(p_i, p1)
            np.testing.assert_array_equal(us_i, us1)
        preserved, commutes = unital_fixed_point_checks(h, probs, us)
        for h_i, p_i, us_i, pres, comm in zip(h, probs, us, preserved, commutes):
            assert unital_fixed_point_check(h_i, p_i, list(us_i)) == (pres, comm)
    assert seen == {(2, 0), (2, 1), (3, 0), (3, 1)}


# With the marginal floor raised by 0.15 (as the patch below does), the first
# draw of seed 120_022 (min marginal eigenvalue 0.098) fails and is redrawn.
_REDRAWN_SEED = 120_022


def test_mixed_marginal_builder_redraws_only_the_failing_rows(monkeypatch):
    floor = qcore.min_marginal_eigenvalue
    draws = []

    def raised(entries):
        draws.append(len(entries))
        return floor(entries) - 0.15

    monkeypatch.setattr(qcore, "min_marginal_eigenvalue", raised)
    seeds = list(range(120_000, 120_060))
    batch = mixed_marginal_densities(seeds)
    # Every round redraws fewer rows than the one before.
    assert draws[0] == len(seeds) and len(draws) > 1 and all(a > b for a, b in zip(draws, draws[1:]))
    assert floor(random_density_matrix(4, 2 + _REDRAWN_SEED % 3, _REDRAWN_SEED).entries) < 0.15
    draws.clear()
    np.testing.assert_array_equal(mixed_marginal_density(_REDRAWN_SEED).entries, batch[seeds.index(_REDRAWN_SEED)])
    assert len(draws) > 1
    for seed, rho in zip(seeds, batch):
        np.testing.assert_array_equal(rho, mixed_marginal_density(seed).entries)
        assert floor(rho) > 0.15


def _count_cut_factorizations(monkeypatch):
    """Patch in counters of ``pair_concurrences`` calls and of the cut matrices
    (2 x 4, A|BC or B|AC) that SVDs factorize."""
    counts = {"pair_concurrences": 0, "cut_matrices": 0}
    pair_concurrences, svd = monotones.pair_concurrences, np.linalg.svd

    def counted_pairs(states):
        counts["pair_concurrences"] += 1
        return pair_concurrences(states)

    def counted_svd(a, *args, **kwargs):
        if a.shape[-2:] == (2, 4):
            counts["cut_matrices"] += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    for module in (monotones, assistance):
        monkeypatch.setattr(module, "pair_concurrences", counted_pairs)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return counts


@pytest.mark.parametrize("target, stacks", [("ckw", 1), ("corollary", 2)])
def test_trials_factorize_each_cut_once_per_stack(monkeypatch, target, stacks):
    counts = _count_cut_factorizations(monkeypatch)
    TRIALS[target](range(1_500_000, 1_500_020), 1e-7)
    # Each stack of 20 states: one pair_concurrences call, and each state's
    # A|BC and B|AC matrices factorized once.
    assert counts == {"pair_concurrences": stacks, "cut_matrices": 2 * 20 * stacks}


def test_corollary_trial_builds_no_commuting_basis(monkeypatch):
    # The trial reads cuts and pair concurrences only; neither of its stacks
    # needs a Charlie basis.
    calls = []
    commuting_stack = assistance._commuting_stack
    monkeypatch.setattr(assistance, "_commuting_stack", lambda t: calls.append(len(t)) or commuting_stack(t))
    TRIALS["corollary"](range(1_500_000, 1_500_020), 1e-7)
    assert calls == []
