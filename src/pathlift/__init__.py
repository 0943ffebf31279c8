"""Horizontal path lifting and parallel transport for nonlinear connections.

The library represents a connection on a chart by the coefficient map whose
graph is its horizontal distribution, integrates the induced lift equation
with finite-time blow-up detection, realizes parallel transport and its
diffeomorphism diagnostics, and classifies connections by scanning the
minimum principal angle between horizontal and vertical spaces along fiber
rays.
"""

from .connections import (
    ConnectionField,
    ConnectionSpec,
    connection_from_json,
    gallery,
    gallery_members,
    make_linear_connection,
)
from .geometry import (
    ChartPoint,
    PathCurve,
    TangentVector,
    path_circle,
    path_from_json,
    path_polyline,
    path_reverse,
    path_segment,
)
from .integrate import (
    COMPLETE,
    ESCAPED,
    STEP_COLLAPSE,
    IntegrationResult,
    IntegratorOptions,
    integrate_adaptive,
    integrate_lanes,
)
from .lifting import (
    LiftTrajectory,
    TransportEscapedError,
    completion_threshold,
    holonomy,
    horizontal_lift,
    horizontal_lifts,
    horizontality_defect,
    parallel_transport,
    round_trip_defect,
    transport_jacobian,
)
from .uvb import (
    EUCLIDEAN,
    INCONCLUSIVE,
    NORMALIZED,
    NOT_UVB,
    UVB,
    AngleSpectrum,
    FiberScanReport,
    FiberWeight,
    cross_gram_angles,
    fiber_scan,
    fiber_weight,
    principal_angles,
    uvb_classify,
)

__version__ = "0.1.0"

__all__ = [
    "ChartPoint",
    "TangentVector",
    "PathCurve",
    "path_segment",
    "path_polyline",
    "path_circle",
    "path_reverse",
    "path_from_json",
    "ConnectionField",
    "ConnectionSpec",
    "make_linear_connection",
    "gallery",
    "gallery_members",
    "connection_from_json",
    "IntegratorOptions",
    "IntegrationResult",
    "integrate_adaptive",
    "integrate_lanes",
    "COMPLETE",
    "ESCAPED",
    "STEP_COLLAPSE",
    "LiftTrajectory",
    "TransportEscapedError",
    "horizontal_lift",
    "horizontal_lifts",
    "parallel_transport",
    "horizontality_defect",
    "round_trip_defect",
    "transport_jacobian",
    "holonomy",
    "completion_threshold",
    "FiberWeight",
    "EUCLIDEAN",
    "NORMALIZED",
    "fiber_weight",
    "AngleSpectrum",
    "FiberScanReport",
    "principal_angles",
    "cross_gram_angles",
    "fiber_scan",
    "uvb_classify",
    "UVB",
    "NOT_UVB",
    "INCONCLUSIVE",
    "__version__",
]
