"""Chart-level primitives: points, tangent vectors, and C1 paths on [0, 1].

Everything lives in a single coordinate chart of R^n.  Paths are always
parametrized over the unit interval; constructors that accept another
parameter interval rescale it affinely on ingestion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "ChartPoint",
    "TangentVector",
    "PathCurve",
    "path_segment",
    "path_polyline",
    "path_circle",
    "path_reverse",
    "path_from_json",
]


def as_coords(x, what: str = "coords") -> np.ndarray:
    """Coerce a point-like value (ChartPoint, sequence, scalar) to a 1-d float array."""
    if isinstance(x, ChartPoint):
        return x.coords
    try:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be a nonempty 1-d real vector, got {x!r}") from None
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{what} must be a nonempty 1-d real vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must have finite entries, got {arr}")
    return arr


@dataclass(frozen=True)
class ChartPoint:
    """A point of the base space, given by its chart coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", as_coords(self.coords, "ChartPoint.coords"))

    @property
    def dimension(self) -> int:
        return self.coords.size


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector: fiber coordinates attached to a base point."""

    base: ChartPoint
    vec: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, ChartPoint):
            object.__setattr__(self, "base", ChartPoint(self.base))
        object.__setattr__(self, "vec", as_coords(self.vec, "TangentVector.vec"))
        if self.vec.size != self.base.dimension:
            raise ValueError(
                f"fiber coordinates have length {self.vec.size}, "
                f"base point has dimension {self.base.dimension}"
            )

    @property
    def dimension(self) -> int:
        return self.base.dimension


@dataclass(frozen=True)
class PathCurve:
    """A C1 curve gamma: [0, 1] -> R^n with an evaluable velocity.

    ``position`` and ``velocity`` are pure functions of t; they must be
    defined (and smooth) in a neighbourhood of [0, 1] so that centered
    finite differences are valid at the endpoints.

    When ``broadcasts`` is true they also take a column of times, shape
    (k, 1), and return arrays that broadcast to (k, n), each row bit for bit
    the value at its time.  The built-in paths and their reversals broadcast.
    ``_column``, the one reader of ``broadcasts``, reads either callable at
    a column of times for ``sample`` and for lifts: through one call when
    the path broadcasts, else one call per time with a Python float.

    ``fixed_velocity``, set on segments alone, is the constant velocity
    ``velocity(t)`` returns at every t, bit for bit; 1-d lifts in floats read
    it once instead of calling ``velocity`` at each stage.  It is no
    ``__init__`` argument: ``dataclasses.replace`` and ``path_reverse`` drop
    it, so a replaced ``velocity`` is never paired with the old constant.
    """

    dimension: int
    position: Callable[[float], np.ndarray] = field(repr=False)
    velocity: Callable[[float], np.ndarray] = field(repr=False)
    kind: str = "custom"
    broadcasts: bool = False
    fixed_velocity: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def _column(self, f: Callable[[float], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        """``f``, this path's position or velocity, as a function of a (k, 1) column of
        times whose value broadcasts to (k, n)."""
        if self.broadcasts:
            return f
        return lambda col: np.array([f(t) for t in col[:, 0].tolist()])

    def sample(self, ts) -> np.ndarray:
        """Positions at a number or a 1-d array of parameter values, as an (m, n) array."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.ndim != 1:
            raise ValueError(f"sample times must be a number or a 1-d array, got shape {ts.shape}")
        position = self._column(self.position)
        rows = position(ts[:, None]) if ts.size else np.empty((0, self.dimension))
        return np.array(np.broadcast_to(rows, (ts.size, self.dimension)))

    @property
    def start(self) -> np.ndarray:
        return self.position(0.0)

    @property
    def end(self) -> np.ndarray:
        return self.position(1.0)


def path_segment(a, b) -> PathCurve:
    """Straight segment from a to b: gamma(t) = (1-t) a + t b; b - a must be finite."""
    pa = as_coords(a, "segment start")
    pb = as_coords(b, "segment end")
    if pa.size != pb.size:
        raise ValueError(f"segment endpoints have dimensions {pa.size} and {pb.size}")
    with np.errstate(over="ignore"):
        d = pb - pa
    if not np.all(np.isfinite(d)):
        raise ValueError(f"segment span b - a must be finite, got {d}")

    def position(t: float) -> np.ndarray:
        return pa + t * d

    def velocity(t: float) -> np.ndarray:
        return d

    path = PathCurve(pa.size, position, velocity, kind="segment", broadcasts=True)
    object.__setattr__(path, "fixed_velocity", d)
    return path


def path_polyline(points, times) -> PathCurve:
    """C1 cubic Hermite interpolant through the given knots.

    Knot tangents come from centered finite differences at interior knots
    and one-sided differences at the ends, and must be finite.  ``times``
    must be strictly increasing and finite; any interval is affinely
    rescaled to [0, 1].

    Args:
        points: sequence of at least two points, all of one dimension.
        times: knot parameters, same length as ``points``.

    Returns:
        A PathCurve of kind ``polyline-hermite`` interpolating the knots.
    """
    try:
        rows = [as_coords(p, "polyline point") for p in points]
    except TypeError:
        raise ValueError(f"polyline points must be a list of points, got {points!r}") from None
    if len({row.size for row in rows}) > 1:
        raise ValueError("polyline points must all have one dimension")
    pts = np.array(rows, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("polyline needs at least 2 points")
    tau = as_coords(times, "polyline times")
    if tau.shape != (pts.shape[0],):
        raise ValueError(f"got {pts.shape[0]} points but {tau.size} times")
    with np.errstate(over="ignore"):  # a span beyond the float range is rejected, not warned about
        increasing = np.all(np.diff(tau) > 0) and np.isfinite(tau[-1] - tau[0])
    if not increasing:
        raise ValueError("polyline times must be strictly increasing, over a finite span")
    # Normalize the parameter interval to [0, 1].
    tau = (tau - tau[0]) / (tau[-1] - tau[0])

    m, n = pts.shape
    tang = np.empty_like(pts)
    with np.errstate(over="ignore"):
        tang[0] = (pts[1] - pts[0]) / (tau[1] - tau[0])
        tang[-1] = (pts[-1] - pts[-2]) / (tau[-1] - tau[-2])
        if m > 2:
            tang[1:-1] = (pts[2:] - pts[:-2]) / (tau[2:] - tau[:-2])[:, None]
    if not np.all(np.isfinite(tang)):
        raise ValueError(f"polyline knot tangents must be finite, got {tang.tolist()}")

    # A float t is evaluated in numpy scalars, a (k, 1) column of times row by row.
    def position(t: float) -> np.ndarray:
        return _hermite_dense(tau, pts, tang, t[:, 0] if np.ndim(t) else t)

    def velocity(t: float) -> np.ndarray:
        k, h, s = _hermite_cells(tau, t[:, 0] if np.ndim(t) else t)
        d00 = 6 * s * (s - 1)
        d10 = (1 - s) * (1 - 3 * s)
        d01 = -d00
        d11 = s * (3 * s - 2)
        return ((d00[..., None] * pts[k] + d01[..., None] * pts[k + 1]) / h[..., None]
                + d10[..., None] * tang[k] + d11[..., None] * tang[k + 1])

    return PathCurve(n, position, velocity, kind="polyline-hermite", broadcasts=True)


def _hermite_cells(knots: np.ndarray, ts):
    """Interval k (the count of interior knots <= t), its width h and s = (t - knot k) / h."""
    k = np.searchsorted(knots[1:-1], ts, side="right")
    h = knots[k + 1] - knots[k]
    return k, h, (ts - knots[k]) / h


def _hermite_dense(nodes_t, nodes_y, nodes_f, ts, starts=None) -> np.ndarray:
    """Cubic Hermite interpolant of values y, slopes f at knots nodes_t, at a float or 1-d ts.

    Polylines and the integrator's dense output both call it.  ``starts``, a
    pair like (nodes_y, nodes_f), gives the value and slope each interval
    reads at its start in their place: the integrator's 1-d lanes, whose
    steps may start in another chart than the one their first node is kept in.
    """
    k, h, s = _hermite_cells(np.asarray(nodes_t), ts)
    # float_power calls libm pow() per element, as a scalar ``x ** 2`` does;
    # an array ``x ** 2`` squares by multiplication and can round differently.
    sq1 = np.float_power(1 - s, 2)
    h00 = (1 + 2 * s) * sq1
    h10 = s * sq1
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    y, f = np.asarray(nodes_y), np.asarray(nodes_f)
    y0, f0 = (y, f) if starts is None else starts
    return (
        h00[..., None] * y0[k]
        + (h10 * h)[..., None] * f0[k]
        + h01[..., None] * y[k + 1]
        + (h11 * h)[..., None] * f[k + 1]
    )


def path_circle(center, radius: float, plane=(0, 1)) -> PathCurve:
    """Closed circular loop of the given chart radius, traversed once.

    The loop lies in the coordinate plane spanned by axes ``plane``, starts
    at center + radius * e_i, and runs counterclockwise in (i, j).  Its
    length 2 pi radius, and |center_i| + radius and |center_j| + radius,
    must be finite.
    """
    c = as_coords(center, "circle center")
    try:
        r = float(radius)
    except (TypeError, ValueError):
        r = np.nan
    if r <= 0 or not np.isfinite(r):
        raise ValueError(f"circle radius must be positive and finite, got {radius!r}")
    tau = 2 * np.pi
    if not math.isfinite(tau * r):
        raise ValueError(f"circle length 2 pi r must be finite, got radius {radius!r}")
    try:
        i, j = plane
        axes = i == int(i) and j == int(j)  # two whole numbers
    except (TypeError, ValueError, OverflowError):
        axes = False
    if not axes or i == j or not (0 <= i < c.size and 0 <= j < c.size):
        raise ValueError(f"circle plane {plane!r} invalid for dimension {c.size}")
    i, j = int(i), int(j)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(c[[i, j]]) + r).all():
            raise ValueError(f"circle |center| + radius must be finite in its plane, "
                             f"got center {center!r} and radius {radius!r}")

    # Coordinates i and j as one-wide slices, so that a (k, 1) column of times
    # fills a (k, n) block as a float t fills one row.
    def position(t: float) -> np.ndarray:
        p = np.empty(np.shape(t)[:-1] + c.shape)
        p[...] = c
        p[..., i:i + 1] += r * np.cos(tau * t)
        p[..., j:j + 1] += r * np.sin(tau * t)
        return p

    def velocity(t: float) -> np.ndarray:
        v = np.zeros(np.shape(t)[:-1] + c.shape)
        v[..., i:i + 1] = -r * tau * np.sin(tau * t)
        v[..., j:j + 1] = r * tau * np.cos(tau * t)
        return v

    return PathCurve(c.size, position, velocity, kind="circle-loop", broadcasts=True)


def path_reverse(path: PathCurve) -> PathCurve:
    """The same trace run backwards: gamma_r(t) = gamma(1 - t), broadcasting as path does."""
    pos, vel = path.position, path.velocity
    return replace(path, position=lambda t: pos(1.0 - t), velocity=lambda t: -vel(1.0 - t),
                   kind="custom")


# The fields each path kind reads.
_PATH_FIELDS = {
    "segment": ("from", "to"),
    "polyline": ("points", "times"),
    "circle": ("center", "radius", "plane"),
}


def path_from_json(spec) -> PathCurve:
    """Build a path from its JSON description (dict or JSON string).

    Recognized forms:
        {"kind": "segment", "from": [...], "to": [...]}
        {"kind": "polyline", "points": [[...], ...], "times": [...]}
        {"kind": "circle", "center": [...], "radius": r, "plane": [i, j]}

    "plane" is optional; a field the kind does not read is an error.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("path spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _PATH_FIELDS:
        raise ValueError(f"unknown path kind {kind!r}")
    for key in spec:
        if key != "kind" and key not in _PATH_FIELDS[kind]:
            raise ValueError(f"path of kind {kind!r} takes no field {key!r}")
    try:
        if kind == "segment":
            return path_segment(spec["from"], spec["to"])
        if kind == "polyline":
            return path_polyline(spec["points"], spec["times"])
        return path_circle(spec["center"], spec["radius"], spec.get("plane", (0, 1)))
    except KeyError as e:
        raise ValueError(f"path spec of kind {kind!r} is missing field {e}") from None
