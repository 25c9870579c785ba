"""Entanglement of assistance for three-qubit pure states.

Computes cut entanglements and assisted entanglement for 2 x 2 x n pure
states, constructs the optimal helper measurement for the E2 measure,
classifies states admitting lossless helper decoupling under strictly concave
monotones, and provides ensemble decompositions (equal-concurrence and
all-entangled) for two-qubit density matrices.
"""

from .assistance import (
    AssistanceReport,
    CommutingBasisResult,
    EBasisResult,
    LosslessStack,
    Measurement,
    SearchBudget,
    Theorem1Stack,
    VerificationError,
    analyze,
    average_post_measurement,
    commuting_charlie_basis,
    corollary_check,
    corollary_checks,
    eoa_densities,
    eoa_density,
    eoa_numeric,
    lossless_classifier,
    lossless_classifiers,
    theorem1_measurement,
    theorem1_stack,
    unital_fixed_point_check,
    unital_fixed_point_checks,
    verify_theorem1,
)
from .ensembles import (
    Ensemble,
    entangled_decomposition,
    entangled_stack,
    equal_concurrence_decomposition,
    hjw_ensemble,
    s0_assistance,
)
from .monotones import (
    MonotoneSpec,
    concurrence_pure,
    cut_entanglement,
    cut_values,
    e2,
    entropy_alpha,
    g_concurrence,
    ky_fan,
    pair_concurrences,
    three_tangle,
    three_tangles,
    wootters_concurrence,
)
from .qcore import (
    BlochVector,
    DensityMatrix,
    InputError,
    PureState,
    SchmidtForm,
    bloch_vector,
    check_densities,
    density_from_json,
    density_to_json,
    fidelity,
    from_bloch,
    haar_random_pure,
    haar_random_rows,
    haar_random_unitaries,
    haar_random_unitary,
    random_density_matrices,
    random_density_matrix,
    reduced_density,
    reduced_stack,
    schmidt_decompose,
    state_from_json,
    state_to_json,
    tensor,
    three_qubit_stack,
)
from .states import FamilySpec, eq21_rows, generate, thm2_rows, verify_family_membership

__version__ = "0.1.0"
