import numpy as np
import pytest

from eoa3.qcore import (
    PAULI_BASIS,
    PAULI_PRODUCTS,
    PAULIS,
    SIGMA_YY,
    BlochVector,
    DensityMatrix,
    InputError,
    PureState,
    bloch_vector,
    fidelity,
    from_bloch,
    haar_random_pure,
    pauli_coefficients,
    random_density_matrix,
    reduced_density,
    schmidt_decompose,
    state_from_json,
    state_to_json,
    tensor,
)


def ket(*amps):
    a = np.array(amps, dtype=complex)
    return a / np.linalg.norm(a)


def test_tensor_basis_product():
    zero = PureState((2,), ket(1, 0))
    out = tensor(zero, zero)
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_bell_with_qubit_indexing():
    bell = PureState((2, 2), ket(1, 0, 0, 1))
    out = tensor(bell, PureState((2,), ket(1, 0)))
    expected = np.zeros(8)
    expected[0] = expected[6] = 1 / np.sqrt(2)  # indices 000 and 110
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


def test_tensor_plus_plus_uniform():
    plus = PureState((2,), ket(1, 1))
    out = tensor(plus, plus)
    np.testing.assert_allclose(out.amplitudes, np.full(4, 0.5), atol=1e-15)


def test_partial_trace_bell():
    bell = PureState((2, 2), ket(1, 0, 0, 1))
    red = reduced_density(bell, (0,))
    np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    psi = PureState((2, 2, 2), ket(1, 0, 0, 0, 0, 0, 0, 0))
    red = reduced_density(psi, (0,))
    np.testing.assert_allclose(red.entries, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_w_marginal():
    w = PureState((2, 2, 2), ket(0, 1, 1, 0, 1, 0, 0, 0))
    red = reduced_density(w, (0,))
    np.testing.assert_allclose(red.entries, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_schmidt_ghz_and_product():
    ghz = PureState((2, 2, 2), ket(1, 0, 0, 0, 0, 0, 0, 1))
    sf = schmidt_decompose(ghz, cut=(0,))
    np.testing.assert_allclose(sf.coefficients, [0.5, 0.5], atol=1e-12)
    prod = PureState((2, 2, 2), ket(1, 0, 0, 0, 0, 0, 0, 0))
    sf = schmidt_decompose(prod, cut=(0,))
    np.testing.assert_allclose(sf.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_w_coefficients():
    w = PureState((2, 2, 2), ket(0, 1, 1, 0, 1, 0, 0, 0))
    sf = schmidt_decompose(w, cut=(0,))
    np.testing.assert_allclose(sf.coefficients, [2 / 3, 1 / 3], atol=1e-12)


def test_schmidt_reconstruction_fidelity():
    for seed in range(20):
        psi = haar_random_pure((2, 2, 2), seed)
        sf = schmidt_decompose(psi, cut=(0, 1))
        amps = sf.reconstruct()
        overlap = abs(np.vdot(amps, psi.amplitudes)) ** 2
        assert overlap >= 1 - 1e-12


def test_bloch_round_trip_and_conventions():
    mixed = DensityMatrix.from_matrix(np.eye(2) / 2)
    np.testing.assert_allclose(bloch_vector(mixed).r, [0, 0, 0], atol=1e-14)
    zero = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(bloch_vector(zero).r, [0, 0, 1], atol=1e-14)
    rho = from_bloch(BlochVector(np.array([0.5, 0.0, 0.0])))
    np.testing.assert_allclose(bloch_vector(rho).r, [0.5, 0, 0], atol=1e-14)


def test_from_bloch_rejects_long_vectors():
    with pytest.raises(InputError):
        from_bloch(BlochVector(np.array([1.5, 0.0, 0.0])))


def test_bloch_eigenvalue_identity():
    for seed in range(200):
        rho = random_density_matrix(2, 2, seed)
        r = bloch_vector(rho).length
        evals = np.linalg.eigvalsh(rho.entries)
        np.testing.assert_allclose(evals, [(1 - r) / 2, (1 + r) / 2], atol=1e-12)


def test_haar_reproducible_and_distinct():
    a = haar_random_pure((2, 2, 2), 42)
    b = haar_random_pure((2, 2, 2), 42)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes)
    c = haar_random_pure((2, 2, 2), 43)
    assert fidelity(a, c) < 1 - 1e-6


def test_haar_marginal_average():
    acc = np.zeros((2, 2), dtype=complex)
    n = 2000
    for seed in range(n):
        acc += reduced_density(haar_random_pure((2, 2, 2), seed), (0,)).entries
    np.testing.assert_allclose(acc / n, np.eye(2) / 2, atol=2e-2)


def test_schmidt_spectra_match_both_sides():
    for seed in range(20):
        psi = haar_random_pure((2, 2, 2), seed)
        left = np.sort(np.linalg.eigvalsh(reduced_density(psi, (0,)).entries))
        right = np.sort(np.linalg.eigvalsh(reduced_density(psi, (1, 2)).entries))[2:]
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_state_json_round_trip():
    psi = haar_random_pure((2, 2, 2), 5)
    again = state_from_json(state_to_json(psi))
    np.testing.assert_allclose(psi.amplitudes, again.amplitudes, atol=1e-15)


def test_state_json_malformed():
    with pytest.raises(InputError):
        state_from_json('{"dims": [2,2]}')


def test_pure_state_norm_validation():
    with pytest.raises(InputError):
        PureState((2,), np.array([1.0, 1.0]))


def test_density_matrix_validation():
    with pytest.raises(InputError):
        DensityMatrix.from_matrix(np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(InputError):
        DensityMatrix.from_matrix(np.diag([2.0, -1.0]).astype(complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    amps = np.array([bad, 0, 0, 1.0], dtype=complex)
    with pytest.raises(InputError, match="finite"):
        PureState((2, 2), amps)
    entries = np.diag([0.5, 0.5]).astype(complex)
    entries[0, 1] = bad
    with pytest.raises(InputError, match="finite"):
        DensityMatrix.from_matrix(entries)


def test_pauli_constants_are_the_kronecker_products():
    assert np.array_equal(PAULI_BASIS[0], np.eye(2))
    for mu in range(1, 4):
        assert np.array_equal(PAULI_BASIS[mu], PAULIS[mu - 1])
    for mu in range(4):
        for nu in range(4):
            assert np.array_equal(PAULI_PRODUCTS[mu, nu], np.kron(PAULI_BASIS[mu], PAULI_BASIS[nu]))
    assert np.array_equal(SIGMA_YY, np.kron(PAULIS[1], PAULIS[1]))


@pytest.mark.parametrize("name", ["PAULI_BASIS", "PAULI_PRODUCTS", "SIGMA_YY"])
def test_pauli_constants_are_read_only(name):
    from eoa3 import qcore

    const = getattr(qcore, name)
    with pytest.raises(ValueError):
        const[(0,) * const.ndim] = 2.0
    with pytest.raises(ValueError):
        const += 1.0


def test_bloch_vector_matches_trace_formula():
    rhos = [random_density_matrix(2, rank, seed) for seed in range(200) for rank in (1, 2)]
    for rho in rhos:
        ref = np.array([np.real(np.trace(rho.entries @ s)) for s in PAULIS])
        assert np.max(np.abs(bloch_vector(rho).r - ref)) <= 1e-15


def test_pauli_coefficients_stack_and_shapes():
    rhos = np.stack([random_density_matrix(4, 1 + seed % 4, seed).entries for seed in range(6)])
    stacked = pauli_coefficients(rhos)
    assert stacked.shape == (6, 4, 4)
    for rho, r in zip(rhos, stacked):
        assert np.array_equal(pauli_coefficients(rho), r)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-15)  # tr rho
    assert pauli_coefficients(rhos[:, :2, :2]).shape == (6, 4)
    with pytest.raises(InputError):
        pauli_coefficients(np.eye(3, dtype=complex))
