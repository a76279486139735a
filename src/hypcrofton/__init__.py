"""Distance kernels, Crofton Monte Carlo estimators and negative-type
analysis on hyperbolic, projective and spherical spaces."""

from .algebra import (
    COMPLEX,
    FIELD_DIM,
    FIELDS,
    QUATERNION,
    REAL,
    HermitianSpace,
    Quaternion,
    hermitian_form,
    quat_mul,
    scalar_modulus,
)
from .configurations import (
    SPLIT_COEFFICIENTS,
    cluster_sums,
    projective_six_points,
    quaternionic_cluster_points,
)
from .crofton import (
    CroftonEstimate,
    Horosphere,
    Hyperplane,
    OrientedHalfSpace,
    count_cosh_roots,
    count_horosphere_intersections,
    estimate_horosphere_crofton,
    estimate_m,
    halfspace_contains,
    halfspace_side,
    horosphere_crofton,
    horosphere_crofton_many,
    hyperplane_crofton,
    hyperplane_crofton_many,
    hyperplane_meets_segment,
    projective_crofton_estimate,
    projective_crofton_many,
    sample_horosphere,
    sample_hyperplane,
    sphere_halfspace_crofton,
    sphere_halfspace_crofton_many,
)
from .kernels import (
    EmbeddingResult,
    NotNegativeTypeError,
    build_distance_matrix,
    hypermetric_scan,
    negative_type_witness,
    quadratic_form,
    sqrt_embed,
    violation_search,
)
from .spaces import (
    GeodesicSegment,
    HPoint,
    Isometry,
    PPoint,
    base_point,
    geodesic_between,
    hyperbolic_distance,
    jordan_trace_distance,
    projective_distance,
    random_isometry,
    random_point,
    sphere_distance,
)

__version__ = "0.1.0"
