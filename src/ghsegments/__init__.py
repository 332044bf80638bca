"""Exact Gromov-Hausdorff distances and metric segments for finite spaces.

The package computes d_GH between finite metric spaces with certified
exact rational arithmetic, samples geodesics between them, and builds
families of segment members (star extensions and simplex grafts) whose
covering numbers grow without bound, witnessing that metric segments
need not be compact.
"""

from .correspondences import (
    Correspondence,
    distortion,
    full_product,
    identity_correspondence,
    image,
    is_correspondence,
    minimize_correspondence,
    preimage,
    transpose,
)
from .exceptions import (
    DomainError,
    HypothesisError,
    MalformedInputError,
    MetricValidationError,
    ResourceLimitError,
    ToolkitError,
)
from .formats import (
    load_space,
    save_space,
    space_from_csv,
    space_from_jsonable,
    space_to_csv,
    space_to_jsonable,
)
from .geodesics import (
    DEFAULT_GRID,
    InterpolatedSpace,
    endpoint_lifts,
    interpolate,
)
from .hausdorff import HausdorffResult, hausdorff_distance, point_set_distance
from .segments import (
    FamilyEntry,
    GraftParams,
    NoncompactnessReport,
    RationalInterval,
    SegmentCertificate,
    StarParams,
    admissible_delta,
    admissible_mu,
    build_segment_family,
    certify_by_lifts,
    geodesic_samples,
    lift_graft,
    lift_star,
    noncompactness_report,
    segment_membership,
    simplex_graft,
    star_extension,
)
from .solver import GhResult, SolverLimits, gh_exact, gh_lower_bound
from .spaces import (
    FiniteMetricSpace,
    PointSubset,
    ValidationReport,
    Violation,
    closed_ball,
    covering_number,
    diameter,
    isolation_radius,
    random_metric_space,
    simplex,
    validate_metric,
)

__version__ = "0.1.0"

__all__ = [
    "Correspondence",
    "distortion",
    "full_product",
    "identity_correspondence",
    "image",
    "is_correspondence",
    "minimize_correspondence",
    "preimage",
    "transpose",
    "DomainError",
    "HypothesisError",
    "MalformedInputError",
    "MetricValidationError",
    "ResourceLimitError",
    "ToolkitError",
    "load_space",
    "save_space",
    "space_from_csv",
    "space_from_jsonable",
    "space_to_csv",
    "space_to_jsonable",
    "DEFAULT_GRID",
    "InterpolatedSpace",
    "endpoint_lifts",
    "interpolate",
    "HausdorffResult",
    "hausdorff_distance",
    "point_set_distance",
    "FamilyEntry",
    "GraftParams",
    "NoncompactnessReport",
    "RationalInterval",
    "SegmentCertificate",
    "StarParams",
    "admissible_delta",
    "admissible_mu",
    "build_segment_family",
    "certify_by_lifts",
    "geodesic_samples",
    "lift_graft",
    "lift_star",
    "noncompactness_report",
    "segment_membership",
    "simplex_graft",
    "star_extension",
    "GhResult",
    "SolverLimits",
    "gh_exact",
    "gh_lower_bound",
    "FiniteMetricSpace",
    "PointSubset",
    "ValidationReport",
    "Violation",
    "closed_ball",
    "covering_number",
    "diameter",
    "isolation_radius",
    "random_metric_space",
    "simplex",
    "validate_metric",
]
