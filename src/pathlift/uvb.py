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

import functools
import warnings
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
        return float(self.stack(as_coords(v, "fiber point")[None])[0])

    def stack(self, vs: np.ndarray) -> np.ndarray:
        """Weights at the rows of a finite (m, n) array; a call is the stack of one row."""
        if self.mode == "euclidean":
            return np.ones(vs.shape[0])
        if self.mode == "normalized":
            # A stacked matmul rounds like v @ v; einsum and (vs * vs).sum(1) do not.
            return 1.0 / np.sqrt(1.0 + (vs[:, None, :] @ vs[:, :, None]).ravel())
        w = np.array([float(self.func(v)) for v in vs])
        ok = np.isfinite(w) & (w > 0)
        if not ok.all():
            i = int(ok.argmin())  # the first row that fails
            raise ValueError(f"fiber weight must be positive and finite, got {w[i]} at v={vs[i]}")
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
    Raises ValueError when w(v) Gamma(p, v) is not finite.
    """
    g = conn.coeff(p, v)
    with np.errstate(over="ignore"):
        wg = weight(v) * g
    if not np.isfinite(wg).all():
        raise ValueError(f"weighted coefficient matrix is not finite at v={as_coords(v)}")
    return AngleSpectrum(_angle_stack(wg[None])[0])


def _angle_stack(WG: np.ndarray) -> np.ndarray:
    # Row j holds arccot of the singular values of the weighted WG[j] = w_j G_j,
    # ascending: |w Gamma| in 1-d, one batched SVD for n >= 2 (sorted descending).
    # LAPACK's dgesdd returns |x| for a 1x1 matrix bit for bit while |x| lies in
    # [6.7e-139, 1.49e138], and rescales outside it, up to 1 ulp off; below that
    # range both give pi/2, so the 1-d angles are the SVD's wherever |w Gamma| <=
    # 1.49e138, and exact beyond.  For n >= 2 a matrix whose entries are all zero
    # (-0.0 too) gets +0.0 without LAPACK, the bits dgesdd returns for it: the SVD
    # takes the nonzero matrices only, the whole stack when none is zero.
    if WG.shape[-1] == 1:
        return np.arctan2(1.0, np.abs(WG[:, :, 0]))
    nonzero = WG.any(axis=(1, 2))
    if nonzero.all():
        return np.arctan2(1.0, np.linalg.svd(WG, compute_uv=False))
    s = np.zeros(WG.shape[:2])
    if nonzero.any():
        s[nonzero] = np.linalg.svd(WG[nonzero], compute_uv=False)
    return np.arctan2(1.0, s)


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


def _top_two(radii: np.ndarray) -> int:
    # The first index of the top two decades, the classifier's window.
    return int(np.argmax(radii >= radii[-1] / 100.0))


def _grid(dirs: np.ndarray, rads: np.ndarray, plan: tuple | None = None) -> tuple:
    # A scan grid's fiber points, direction-major as a scan stacks them, and its fit
    # plan, unless given one already built for these radii: the classifier's window,
    # then np.polyfit's plan over the largest decade: the window's first index (two
    # radii or more), the scaled Vandermonde matrix of log r, its slope column's
    # scale and rcond.
    vs = (rads[None, :, None] * dirs[:, None, :]).reshape(-1, dirs.shape[1])
    if plan is None:
        start = min(int(np.argmax(rads >= rads[-1] / 10.0)), rads.size - 2)
        lhs = np.vander(np.log(rads[start:]), 2)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs /= scale
        lhs.flags.writeable = False
        plan = _top_two(rads), start, lhs, scale[0], len(lhs) * np.finfo(float).eps
    return vs, plan


@functools.lru_cache(maxsize=8)
def _default_layout(n: int) -> tuple:
    # The default grid in dimension n, built once: its directions, radii, fiber
    # points, normalized weights and fit plan, the arrays read-only and finite by
    # construction.  A process scans few dimensions; the bound keeps one that
    # scans many from growing.
    dirs, rads = axis_directions(n), default_radii()
    vs, plan = _grid(dirs, rads)
    layout = dirs, rads, vs, NORMALIZED.stack(vs)
    for a in layout:
        a.flags.writeable = False
    return *layout, plan


def _decade_fits(plan: tuple, theta: np.ndarray) -> np.ndarray:
    # np.polyfit's slopes with the rows of theta as the columns of y: one solve for
    # every direction, on one factorization of the plan's matrix.
    _, start, lhs, scale, rcond = plan
    coef, _, rank, _ = np.linalg.lstsq(lhs, np.log(theta[:, start:]).T, rcond)
    if rank < 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return coef[0] / scale


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fiber_scan(conn: ConnectionField, p, directions=None, radii=None,
               weight: FiberWeight = NORMALIZED,
               eps: float = DEFAULT_EPS) -> FiberScanReport:
    """Sample theta_min at v = r * d over fiber rays and classify the decay.

    Defaults: signed coordinate-axis directions and the geometric radius
    grid from default_radii(), generated and not checked.  The point must
    have the connection's dimension n (checked first), given directions a
    nonempty (m, n) array of finite unit vectors, given radii a strictly
    increasing, positive and finite grid of at least two, and eps positive
    and finite.

    All samples are evaluated as one stack under np.errstate(over/invalid/
    divide="ignore"): the weights first, then ``conn.stack`` (``gamma`` must not
    modify an array it returned earlier), then one finiteness check of the
    weighted stack w * Gamma, and its singular values: |w Gamma| in 1-d (the
    SVD's bits up to 1.49e138, exact beyond), one batched SVD of the nonzero
    matrices for n >= 2, where an all-zero matrix gets 0 without LAPACK.  The
    default grid is one record per dimension, built once: its directions,
    radii, fiber points, normalized weights and fit plan; each scan hands
    gamma a fresh copy of the fiber points and its report fresh copies of the
    grid.  On failure the samples are rerun in (direction, radius) order
    through principal_angles, and the first to fail raises a RuntimeError
    naming its direction and radius.  The decade fits are one least-squares
    solve with every direction as a column (np.polyfit's bits for a 2-d y),
    on the grid's fit plan, which also holds the classifier's window, and the
    verdict reads the whole stack.
    """
    eps = _check_eps(eps)
    pc = as_coords(p, "base point")
    n = conn.dimension
    if pc.size != n:  # before anything of size n is built
        raise ValueError(f"base point has length {pc.size}, connection n={n}")
    layout = directions is None and radii is None
    if layout:
        # Fresh copies: a report's grid is its own, and gamma (or a custom
        # weight) may write into its fiber argument.
        dirs, rads, vs, w, plan = _default_layout(n)
        dirs, rads, vs = dirs.copy(), rads.copy(), vs.copy()
    else:
        dirs = axis_directions(n) if directions is None else np.asarray(directions, dtype=float)
        if directions is not None:
            if dirs.ndim != 2 or dirs.shape[0] == 0:
                raise ValueError(
                    f"directions must be a nonempty (m, n) array, got shape {dirs.shape}")
            if dirs.shape[1] != n:
                raise ValueError(f"directions have length {dirs.shape[1]}, connection n={n}")
            # Checks in positive form, so that a NaN fails them.
            norms = np.linalg.norm(dirs, axis=1)
            if not (np.isfinite(dirs).all() and (np.abs(norms - 1.0) <= 1e-12).all()):
                raise ValueError("scan directions must be finite unit vectors (to 1e-12)")
        rads = default_radii() if radii is None else np.asarray(radii, dtype=float)
        if radii is not None and not (
                rads.ndim == 1 and rads.size >= 2 and np.isfinite(rads).all()
                and (rads > 0).all() and (np.diff(rads) > 0).all()):
            raise ValueError("radii must be a strictly increasing, positive and finite grid")
        # The default radii's plan is the same in every dimension: take the
        # 1-d record's rather than build one per scan or a large default grid.
        vs, plan = _grid(dirs, rads, None if radii is not None else _default_layout(1)[4])
    try:
        if not layout and not np.isfinite(vs).all():
            raise ValueError("fiber points are not finite")
        if not (layout and weight.mode == "normalized"):
            w = weight.stack(vs)
        # w > 0 is finite, so the weighted stack is finite where Gamma is and
        # w * Gamma does not overflow.
        WG = w[:, None, None] * conn.stack(pc, vs)
        if not np.isfinite(WG).all():
            raise ValueError("weighted coefficient stack is not finite")
        theta = _angle_stack(WG)[:, 0].reshape(dirs.shape[0], rads.size)
    except Exception as e:
        for i, d in enumerate(dirs):
            for r in rads:
                try:
                    principal_angles(conn, pc, r * d, weight)
                except Exception as e_i:
                    raise RuntimeError(
                        f"angle computation failed at direction {i} ({d}), radius {r}: {e_i}"
                    ) from e_i
        raise RuntimeError(f"angle computation failed: {e}") from e
    beta = _decade_fits(plan, theta)
    verdict = _classify(plan[0], theta, beta, eps)
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


def _classify(top: int, theta: np.ndarray, beta: np.ndarray, eps: float) -> str:
    # top is the first index of the top two decades; theta is finite.
    if theta.shape[1] < _MIN_RADII:
        return INCONCLUSIVE
    tail = theta[:, top:]
    decreasing = (tail[:, 1:] < tail[:, :-1]).all(axis=1)
    if (decreasing & (theta[:, -1] < eps) & (beta <= BETA_DECAY)).any():
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
    return _classify(_top_two(report.radii), report.theta_min, report.beta, _check_eps(eps))
