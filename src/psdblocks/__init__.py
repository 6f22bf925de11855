"""Constructive decompositions and inequality checks for positive
semidefinite matrices partitioned into Hermitian blocks.

A PSD matrix with a small number of Hermitian blocks is an average of
isometry conjugates of its partial trace; this package builds those
averages explicitly, emits replayable certificates, and verifies the
norm, eigenvalue, trace and determinant inequalities that follow.
"""

from .blocks import (
    BlockMatrix,
    block_matrix_from_json,
    block_matrix_to_json,
    direct_sum,
    duplicate_blocks,
    get_block,
    partial_trace,
    validate_hermitian_blocks,
)
from .checks import (
    CONCAVE_IDS,
    Check,
    CheckReport,
    compare_eq,
    compare_le,
    det_sandwich,
    eigen_step_check,
    hiroshima_check,
    ky_fan_norm,
    operator_pair_check,
    report_to_json,
    run_inequality_suite,
    trace_concave_check,
    weak_majorization,
    weyl_check,
)
from .decompose import (
    CORNER_KINDS,
    KINDS,
    DecompositionCertificate,
    certificate_from_json,
    certificate_to_json,
    corner_decomposition_general,
    corner_unitary,
    measure_defects,
    quaternion_pipeline,
    quaternion_stage_defects,
    quaternion_units,
    two_block_isometries,
    two_corner_decomposition,
    verify_certificate,
)
from .errors import (
    DomainError,
    HypothesisError,
    MalformedCertificateError,
    NumericalError,
)
from .generate import (
    GeneratorSpec,
    equality_case_instance,
    geometric_mean_instance,
    nonhermitian_counterexample,
    random_block_psd,
    random_commuting_family,
    random_hermitian,
    random_psd,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    frobenius,
    hermitian_eigvalues,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    matrix_to_wire,
    psd_sqrt,
    singular_values,
    validate_hermitian_psd,
)

__version__ = "0.1.0"
