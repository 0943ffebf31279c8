"""Principal angles between horizontal and vertical spaces, and fiber scans.

The angle between the horizontal graph H_(p,v) and the vertical space is
measured under an auxiliary fiber metric that rescales vertical components
by a weight w(v):

    <(u, a), (u', a')> = u . u' + w(v)^2 a . a'.

For a graph H = {(u, -Gamma u)} this reduces to a singular-value problem:
the principal angles are theta_i = arccot(s_i) with s_i the singular values
of w(v) Gamma(p, v).  A connection is *uniformly vertically bounded* when
the smallest angle theta_m stays bounded away from zero along every fiber
ray; the scan classifier estimates this from a geometric radius grid and
the fitted decay exponent of theta_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .connections import ConnectionField
from .geometry import as_coords

__all__ = [
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
    "default_radii",
    "axis_directions",
]

UVB = "UVB"
NOT_UVB = "NotUVB"
INCONCLUSIVE = "Inconclusive"

# Classifier defaults.  A scan reads as decaying (not vertically bounded)
# when theta_m at the largest radius falls below eps AND the fitted slope of
# log theta_m against log r over the top decade is at most BETA_DECAY.
# Boundary-growth connections approach slope -1/2 strictly from above, so
# the decay cutoff sits slightly inside -1/2; genuinely bounded members fit
# slopes within ~1e-9 of zero, far from the BETA_FLAT cutoff.
DEFAULT_EPS = 1e-3
BETA_DECAY = -0.45
BETA_FLAT = -0.1
_MIN_RADII = 4


@dataclass(frozen=True)
class FiberWeight:
    """Scalar rescaling of vertical directions defining the auxiliary metric.

    Modes: ``euclidean`` (w = 1), ``normalized`` (w = (1 + |v|^2)^(-1/2)),
    or ``custom`` with an explicit positive function of the fiber point.
    """

    mode: str
    func: Callable[[np.ndarray], float] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("euclidean", "normalized", "custom"):
            raise ValueError(f"unknown fiber weight mode {self.mode!r}")
        if self.mode == "custom" and self.func is None:
            raise ValueError("custom fiber weight needs a function")

    def __call__(self, v) -> float:
        vc = as_coords(v, "fiber point")
        if self.mode == "euclidean":
            return 1.0
        if self.mode == "normalized":
            return float(1.0 / np.sqrt(1.0 + vc @ vc))
        w = float(self.func(vc))
        if not (np.isfinite(w) and w > 0):
            raise ValueError(f"fiber weight must be positive and finite, got {w} at v={vc}")
        return w


EUCLIDEAN = FiberWeight("euclidean")
NORMALIZED = FiberWeight("normalized")


def fiber_weight(mode: str) -> FiberWeight:
    """Look up a named weight mode (euclidean | normalized)."""
    if mode == "euclidean":
        return EUCLIDEAN
    if mode == "normalized":
        return NORMALIZED
    raise ValueError(f"unknown fiber weight mode {mode!r}")


@dataclass(frozen=True)
class AngleSpectrum:
    """The n principal angles between horizontal and vertical, ascending."""

    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))

    @property
    def theta_min(self) -> float:
        return float(self.angles[0])


def principal_angles(conn: ConnectionField, p, v,
                     weight: FiberWeight = NORMALIZED) -> AngleSpectrum:
    """Principal angles between H_(p,v) and the vertical space under ``weight``.

    Uses the graph form: theta_i = arccot(s_i) with s_i the singular values
    of w(v) Gamma(p, v).  Angles lie in (0, pi/2] and come out ascending.
    """
    g = conn.coeff(p, v)
    w = weight(v)
    s = np.linalg.svd(w * g, compute_uv=False)  # descending
    return AngleSpectrum(np.arctan2(1.0, s))


def cross_gram_angles(conn: ConnectionField, p, v,
                      weight: FiberWeight = NORMALIZED) -> np.ndarray:
    """Reference angle computation via orthonormal bases and the cross Gram matrix.

    Orthonormalizes the horizontal and vertical bases under the weighted
    inner product and takes arccos of the singular values of Q_H^T G Q_V,
    clamped into [0, 1].  Ascending, for comparison with principal_angles.
    """
    n = conn.dimension
    H = conn.horizontal_basis(p, v)
    V = conn.vertical_basis()
    w = weight(v)
    # Scaling vertical components by w turns the weighted inner product into
    # the euclidean one.
    scale = np.concatenate([np.ones(n), np.full(n, w)])
    qh, rh = np.linalg.qr(scale[:, None] * H)
    qv, rv = np.linalg.qr(scale[:, None] * V)
    for r, label in ((rh, "horizontal"), (rv, "vertical")):
        if np.min(np.abs(np.diag(r))) < 1e-13 * max(1.0, np.max(np.abs(r))):
            raise ValueError(f"{label} basis is rank deficient; subspaces not complementary")
    sig = np.linalg.svd(qh.T @ qv, compute_uv=False)
    sig = np.clip(sig, 0.0, 1.0)
    return np.sort(np.arccos(sig))


@dataclass(frozen=True)
class FiberScanReport:
    """theta_min sampled along fiber rays, with fitted decay and a verdict."""

    point: np.ndarray
    weight_mode: str
    directions: np.ndarray
    radii: np.ndarray
    theta_min: np.ndarray
    beta: np.ndarray
    verdict: str
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "weight": self.weight_mode,
            "directions": self.directions.tolist(),
            "radii": self.radii.tolist(),
            "theta_min": self.theta_min.tolist(),
            "beta": self.beta.tolist(),
            "verdict": self.verdict,
            "epsilon": self.epsilon,
        }

    def rows(self):
        """CSV rows (direction_index, radius, theta_min) in deterministic order."""
        for i in range(self.directions.shape[0]):
            for k in range(self.radii.size):
                yield i, float(self.radii[k]), float(self.theta_min[i, k])


def default_radii() -> np.ndarray:
    """Geometric radius grid 1, 2, 4, ..., 2^20."""
    return 2.0 ** np.arange(21)


def axis_directions(n: int) -> np.ndarray:
    """Unit directions +e_1, -e_1, ..., +e_n, -e_n."""
    dirs = np.zeros((2 * n, n))
    for i in range(n):
        dirs[2 * i, i] = 1.0
        dirs[2 * i + 1, i] = -1.0
    return dirs


def _decade_fit(radii: np.ndarray, thetas: np.ndarray) -> float:
    # Least-squares slope of log theta vs log r over the largest decade.
    window = radii >= radii[-1] / 10.0
    if window.sum() < 2:
        window[-2:] = True
    return float(np.polyfit(np.log(radii[window]), np.log(thetas[window]), 1)[0])


def fiber_scan(conn: ConnectionField, p, directions=None, radii=None,
               weight: FiberWeight = NORMALIZED,
               eps: float = DEFAULT_EPS) -> FiberScanReport:
    """Sample theta_min at v = r * d over fiber rays and classify the decay.

    Defaults: signed coordinate-axis directions and the geometric radius
    grid from default_radii().  Directions must be unit vectors, and eps
    positive and finite.
    """
    eps = _check_eps(eps)
    pc = as_coords(p, "base point")
    dirs = axis_directions(conn.dimension) if directions is None else np.atleast_2d(
        np.asarray(directions, dtype=float)
    )
    if dirs.shape[1] != conn.dimension:
        raise ValueError(f"directions have length {dirs.shape[1]}, connection n={conn.dimension}")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError("scan directions must be unit vectors (to 1e-12)")
    rads = default_radii() if radii is None else np.asarray(radii, dtype=float)
    if rads.size < 2 or np.any(rads <= 0) or np.any(np.diff(rads) <= 0):
        raise ValueError("radii must be a strictly increasing positive grid")

    theta = np.empty((dirs.shape[0], rads.size))
    for i, d in enumerate(dirs):
        for k, r in enumerate(rads):
            try:
                theta[i, k] = principal_angles(conn, pc, r * d, weight).theta_min
            except Exception as e:
                raise RuntimeError(
                    f"angle computation failed at direction {i} ({d}), radius {r}: {e}"
                ) from e
    beta = np.array([_decade_fit(rads, theta[i]) for i in range(dirs.shape[0])])
    verdict = _classify(rads, theta, beta, eps)
    return FiberScanReport(
        point=pc,
        weight_mode=weight.mode,
        directions=dirs,
        radii=rads,
        theta_min=theta,
        beta=beta,
        verdict=verdict,
        epsilon=eps,
    )


def _check_eps(eps) -> float:
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return float(eps)


def _classify(radii: np.ndarray, theta: np.ndarray, beta: np.ndarray, eps: float) -> str:
    if radii.size < _MIN_RADII:
        return INCONCLUSIVE
    top_two = radii >= radii[-1] / 100.0
    for i in range(theta.shape[0]):
        decreasing = bool(np.all(np.diff(theta[i, top_two]) < 0))
        if decreasing and theta[i, -1] < eps and beta[i] <= BETA_DECAY:
            return NOT_UVB
    if float(theta.min()) >= eps and bool(np.all(beta >= BETA_FLAT)):
        return UVB
    return INCONCLUSIVE


def uvb_classify(report: FiberScanReport, eps: float = DEFAULT_EPS) -> str:
    """Classify a scan report as UVB / NotUVB / Inconclusive at margin ``eps``.

    NotUVB needs a direction whose theta_min decreases monotonically over
    the top two decades, ends below eps, and fits a decay slope of at most
    BETA_DECAY.  UVB needs every sample at or above eps with near-flat fits
    on every direction.  Anything else (including scans with fewer than 4
    radii) is Inconclusive.  Raises ValueError unless eps is positive and
    finite.
    """
    return _classify(report.radii, report.theta_min, report.beta, _check_eps(eps))
