"""commrange: numerical ranges and radii of small complex matrices, and
verification harnesses for commutator preserver maps on Hermitian matrices.
"""

from .matcore import (
    EigenDecomposition,
    MatrixError,
    commutator,
    commutator_spectrum,
    hermitian,
    hermitian_eigen,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    random_hermitian,
    random_rank_k_hermitian,
    random_unit_vector,
    random_unitary,
    rank_numeric,
    skew_hermitian_eigenvalues,
    substream,
)
from .nrange import (
    CommutatorInterval,
    RangeBoundary,
    commutator_interval,
    interval_symmetric,
    intervals_equal,
    numerical_radius,
    range_boundary,
    rank1_commutator_radius,
    support_value,
)
from .structure import (
    RadiusEquivalenceVerdict,
    TwoLevelDecomposition,
    WitnessSearchError,
    affine_sign_match,
    asymmetry_witness,
    classify_two_level,
    independence_vector,
    radius_equivalence_check,
    symmetry_witness_unitary,
)
from .pauli2 import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliVector,
    Rotation3,
    cross_commutator,
    from_pauli,
    psi,
    to_pauli,
    unitary_to_rotation,
)
from .maps import (
    MapConfigError,
    MapSpec,
    PreservationReport,
    apply_map,
    check_preservation,
)

__version__ = "0.1.0"
