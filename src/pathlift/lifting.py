"""Horizontal lifts, parallel transport, and transport diagnostics.

The lift of a path gamma under a connection with coefficient map Gamma is
the solution of the fiber equation

    Dc(t) = -Gamma(gamma(t), c(t)) . gamma_dot(t),    c(0) = v0,

integrated over the pullback of the tangent bundle along gamma: only the
fiber c is a state variable, base coordinates are read from the path.  A
lift that blows up before t = 1 is reported as escaped; parallel transport
exists exactly when the lift completes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionField
from .geometry import ChartPoint, PathCurve, TangentVector, as_coords, path_reverse
from .integrate import COMPLETE, ESCAPED, STEP_COLLAPSE, IntegratorOptions, integrate_adaptive

__all__ = [
    "LiftTrajectory",
    "TransportEscapedError",
    "horizontal_lift",
    "parallel_transport",
    "horizontality_defect",
    "round_trip_defect",
    "transport_jacobian",
    "holonomy",
    "completion_threshold",
]


class TransportEscapedError(RuntimeError):
    """Raised when a lift fails to reach the far fiber.

    Attributes:
        t_escape: parameter at which the lift left the integrable regime.
        status: underlying trajectory status (escaped or step-collapse).
    """

    def __init__(self, t_escape: float, status: str = ESCAPED):
        super().__init__(f"lift did not reach t=1: {status} at t={t_escape:.9g}")
        self.t_escape = t_escape
        self.status = status


@dataclass(frozen=True)
class LiftTrajectory:
    """Sampled horizontal lift: fiber values over base samples of the path."""

    t: np.ndarray
    base: np.ndarray
    fiber: np.ndarray
    status: str
    t_escape: float | None
    norm_at_escape: float | None
    steps: int
    rejected: int
    max_vertical_speed: float

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE

    @property
    def final_fiber(self) -> np.ndarray:
        return self.fiber[-1]


def _check_dims(conn: ConnectionField, path: PathCurve, v0: np.ndarray) -> None:
    if conn.dimension != path.dimension or v0.size != conn.dimension:
        raise ValueError(
            f"dimension mismatch: connection n={conn.dimension}, "
            f"path n={path.dimension}, initial vector length {v0.size}"
        )


def horizontal_lift(conn: ConnectionField, path: PathCurve, v0,
                    opts: IntegratorOptions | None = None) -> LiftTrajectory:
    """Integrate the lift of ``path`` through the fiber value v0."""
    v = as_coords(v0, "initial fiber vector")
    _check_dims(conn, path, v)
    # Validate Gamma once at the seed; inside the lift it is called raw, so a
    # trial stage that overflows during a blow-up reaches the integrator as a
    # non-finite value (a rejected step) instead of a configuration error.
    f0 = -conn.coeff(path.position(0.0), v) @ path.velocity(0.0)
    g, pos, vel, n = conn.gamma, path.position, path.velocity, conn.dimension

    def rhs(t: float, c: np.ndarray) -> np.ndarray:
        m = np.asarray(g(pos(t), c), dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"coefficient map returned shape {m.shape}, expected ({n}, {n})")
        return -m @ vel(t)

    res = integrate_adaptive(rhs, v, opts, f0)
    base = path.sample(res.t)
    return LiftTrajectory(
        t=res.t,
        base=base,
        fiber=res.y,
        status=res.status,
        t_escape=res.t_escape,
        norm_at_escape=res.norm_at_escape,
        steps=res.steps,
        rejected=res.rejected,
        max_vertical_speed=res.max_rhs_norm,
    )


def parallel_transport(conn: ConnectionField, path: PathCurve, v0,
                       opts: IntegratorOptions | None = None) -> TangentVector:
    """Transport v0 along the path; the endpoint fiber value at gamma(1).

    Raises TransportEscapedError when the lift blows up (or stalls) before
    reaching the far fiber.
    """
    traj = horizontal_lift(conn, path, v0, opts)
    if not traj.complete:
        t_fail = traj.t_escape if traj.t_escape is not None else float(traj.t[-1])
        raise TransportEscapedError(t_fail, traj.status)
    return TangentVector(ChartPoint(traj.base[-1]), traj.fiber[-1])


def horizontality_defect(conn: ConnectionField, traj: LiftTrajectory, path: PathCurve) -> float:
    """How far the sampled lift is from satisfying the lift equation.

    Max over interior samples of
        ||Dc_fd + Gamma(gamma, c) gamma_dot|| / (1 + ||gamma_dot|| ||Gamma||),
    with Dc_fd the centered difference of the dense fiber samples.  Should
    vanish to finite-difference accuracy for a genuine lift.
    """
    m = traj.t.size
    if m < 3:
        raise ValueError(f"defect needs at least 3 samples, trajectory has {m}")
    worst = 0.0
    for i in range(1, m - 1):
        dc = (traj.fiber[i + 1] - traj.fiber[i - 1]) / (traj.t[i + 1] - traj.t[i - 1])
        g = conn.coeff(traj.base[i], traj.fiber[i])
        vel = path.velocity(float(traj.t[i]))
        resid = np.linalg.norm(dc + g @ vel)
        denom = 1.0 + np.linalg.norm(vel) * np.linalg.norm(g, 2)
        worst = max(worst, float(resid / denom))
    return worst


def round_trip_defect(conn: ConnectionField, path: PathCurve, v0,
                      opts: IntegratorOptions | None = None) -> float:
    """Distance ||transport back (transport forward v0) - v0||.

    Uniqueness of lifts makes transport along the reversed path the inverse
    map, so this measures accumulated integration error.
    """
    v = as_coords(v0, "initial fiber vector")
    fwd = parallel_transport(conn, path, v, opts)
    back = parallel_transport(conn, path_reverse(path), fwd.vec, opts)
    return float(np.linalg.norm(back.vec - v))


def transport_jacobian(conn: ConnectionField, path: PathCurve, v0,
                       h: float | None = None,
                       opts: IntegratorOptions | None = None) -> np.ndarray:
    """Centered finite-difference Jacobian of v -> transport(v) at v0.

    Probes 2n transports with step h (default 1e-5 * (1 + ||v0||)).  Raises
    TransportEscapedError if any probe fails to complete.
    """
    v = as_coords(v0, "initial fiber vector")
    n = v.size
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(v)))
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        plus = parallel_transport(conn, path, v + e, opts).vec
        minus = parallel_transport(conn, path, v - e, opts).vec
        jac[:, j] = (plus - minus) / (2.0 * h)
    return jac


def holonomy(conn: ConnectionField, loop: PathCurve, v0,
             opts: IntegratorOptions | None = None) -> TangentVector:
    """Transport v0 once around a closed loop; result sits over the start point."""
    gap = float(np.linalg.norm(loop.position(0.0) - loop.position(1.0)))
    if gap > 1e-10:
        raise ValueError(f"loop does not close: |gamma(0) - gamma(1)| = {gap:.3g}")
    return parallel_transport(conn, loop, v0, opts)


def completion_threshold(conn: ConnectionField, path: PathCurve, grid,
                         opts: IntegratorOptions | None = None):
    """Scan scalar initial values for the completion/escape boundary.

    Works on 1-d connections.  Returns (v_star, lo, hi) where lo is the
    largest grid value whose lift completes, hi the smallest that escapes,
    and v_star their midpoint.  The bracket width is the grid spacing, so
    the estimate is first-order in the grid.
    """
    if conn.dimension != 1:
        raise ValueError("completion threshold scan works on 1-d connections")
    values = np.sort(np.asarray(grid, dtype=float))
    completed = np.array(
        [horizontal_lift(conn, path, [v], opts).complete for v in values]
    )
    if completed.all() or not completed.any():
        raise ValueError("grid does not straddle the completion threshold")
    lo = float(values[completed].max())
    hi = float(values[~completed].min())
    if hi < lo:
        raise ValueError("completion is not monotone over the grid")
    return 0.5 * (lo + hi), lo, hi
