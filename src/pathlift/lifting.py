"""Horizontal lifts, parallel transport, and transport diagnostics.

The lift of a path gamma under a connection with coefficient map Gamma is
the solution of the fiber equation

    Dc(t) = -Gamma(gamma(t), c(t)) . gamma_dot(t),    c(0) = v0,

integrated over the pullback of the tangent bundle along gamma: only the
fiber c is a state variable, base coordinates are read from the path.  A
lift that blows up before t = 1 is reported as escaped; parallel transport
exists exactly when the lift completes.

``horizontal_lifts`` lifts many seeds along one path as lanes of a single
integration (see integrate.integrate_lanes): one evaluation covers all
live seeds, and each seed's trajectory is bit for bit the one it gets
alone.  The probes of transport_jacobian run through it.
completion_threshold instead bisects its sorted grid one seed at a time,
since in 1-d the completing seeds form an interval, and lifts the rest of
the grid as one batch only when a lift breaks that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionField, _contract
from .geometry import ChartPoint, PathCurve, TangentVector, as_coords, path_reverse
from .integrate import (_DEFAULT_OPTIONS, COMPLETE, ESCAPED, IntegratorOptions, _norms,
                        _plain_sum, _stage_times, integrate_lanes)

__all__ = [
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
]


class TransportEscapedError(RuntimeError):
    """Raised when a lift fails to reach the far fiber.

    Attributes:
        t_escape: parameter at which the lift left the integrable regime
            (for step-collapse, the last parameter the lift reached).
        status: underlying trajectory status (escaped or step-collapse).
    """

    def __init__(self, t_escape: float, status: str = ESCAPED):
        super().__init__(f"lift did not reach t=1: {status} at t={t_escape:.9g}")
        self.t_escape = t_escape
        self.status = status


@dataclass(frozen=True)
class LiftTrajectory:
    """Sampled horizontal lift: fiber values over base samples of the path.

    ``stop_reason`` refines ``status`` (see integrate): complete,
    escape-norm, non-finite, min-step or max-steps.
    """

    t: np.ndarray
    base: np.ndarray
    fiber: np.ndarray
    status: str
    t_escape: float | None
    norm_at_escape: float | None
    steps: int
    rejected: int
    max_vertical_speed: float
    stop_reason: str

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
    """Integrate the lift of ``path`` through the fiber value v0 (horizontal_lifts of one seed)."""
    return horizontal_lifts(conn, path, [v0], opts)[0]


def horizontal_lifts(conn: ConnectionField, path: PathCurve, seeds,
                     opts: IntegratorOptions | None = None) -> list[LiftTrajectory]:
    """Lifts of ``path`` through each fiber value in ``seeds``, in order.

    The seeds, a lone seed too, run as lanes of one integration.  Each
    evaluation reads the path once for all its times, as one column (see
    ``PathCurve``): the seed derivatives, the first step's probe, and each
    step at the five distinct stage times of the live lanes.  A member with
    Christoffel tensors (``conn.christoffel``) builds them there in one
    call, and a stage then only contracts them with its fiber rows; other
    members take one ``conn.stack`` per stage.  The lanes of a member with a
    float form, ``conn.float_vertical``, lone or batched, step in Python
    floats instead, each lane in turn, to its end, reading the path once per
    step attempt, and a segment's ``fixed_velocity`` once.  Either route
    gives the same bits.  When ``gamma`` ignores the base point
    (``conn.uses_base`` false), every call gets the path's starting point.
    Each trajectory equals the seed's lift alone bit for bit.  If the batch
    raises, the error is the one the first failing seed raises alone.
    """
    return list(_lifts_in_seed_order(conn, path, list(seeds), opts))


def _lifts_in_seed_order(conn: ConnectionField, path: PathCurve, seeds: list,
                         opts: IntegratorOptions | None, p0: np.ndarray | None = None):
    """Yield the lifts of ``seeds`` in order, as horizontal_lifts returns them.

    Given p0, the path's starting point, the seeds are fiber vectors already
    checked (see _checked_seeds) and are lifted unchecked.  If the batch
    raises, the seeds are rerun one at a time: the lifts before the first
    failing seed are yielded, then that seed's own error is raised.
    """
    def lanes(vs: list) -> list[LiftTrajectory]:
        if p0 is None:
            return _lift_lanes(conn, path, *_checked_seeds(conn, path, vs, opts), opts)
        return _lift_lanes(conn, path, vs, p0, opts)

    if not seeds:
        return
    try:
        lifts = lanes(seeds)
    except Exception:
        if len(seeds) < 2:
            raise
        lifts = (lanes([v])[0] for v in seeds)
    yield from lifts


def _checked_seeds(conn: ConnectionField, path: PathCurve, seeds,
                   opts: IntegratorOptions | None) -> tuple[list[np.ndarray], np.ndarray]:
    """The seeds as fiber vectors, each checked in turn as its lone lift checks
    it, and the path's starting point."""
    # Validate Gamma once at each seed below the escape norm (one at or above
    # it escapes at t = 0, whatever Gamma is there); inside the lift it is called
    # raw, so a trial stage that overflows during a blow-up reaches the
    # integrator as a non-finite value (a rejected step) instead of a
    # configuration error.  An overflow at a seed is reported by coeff alone.
    p0, escape_norm = path.position(0.0), (opts or _DEFAULT_OPTIONS).escape_norm
    vs = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for seed in seeds:
            v = as_coords(seed, "initial fiber vector")
            _check_dims(conn, path, v)
            if _norms(v[None])[0] < escape_norm:
                conn.coeff(p0, v)
            vs.append(v)
    return vs, p0


def _lift_lanes(conn: ConnectionField, path: PathCurve, vs: list[np.ndarray], p0: np.ndarray,
                opts: IntegratorOptions | None) -> list[LiftTrajectory]:
    """The lifts of checked seeds vs (see _checked_seeds), as lanes of one integration."""
    results = integrate_lanes(_field(conn, path, p0), vs, opts, _float_rhs(conn, path, p0))
    return [
        LiftTrajectory(
            t=res.t,
            base=path.sample(res.t),
            fiber=res.y,
            status=res.status,
            t_escape=res.t_escape,
            norm_at_escape=res.norm_at_escape,
            steps=res.steps,
            rejected=res.rejected,
            max_vertical_speed=res.max_rhs_norm,
            stop_reason=res.stop_reason,
        )
        for res in results
    ]


def _float_rhs(conn: ConnectionField, path: PathCurve, p0: np.ndarray):
    """The lift's rhs in Python floats, ``float_rhs(t, h)`` of integrate_lanes, from
    ``float_vertical``, bit for bit the field's; None without ``float_vertical``."""
    vertical, fixed, n = conn.float_vertical, path.fixed_velocity, conn.dimension
    if vertical is None:
        return None
    pos, vel = path._column(path.position), path._column(path.velocity)
    # A stack of points or vectors in floats: a float each in 1-d, an n-list in n-d.
    rows = (lambda X: X.ravel().tolist()) if n == 1 else np.ndarray.tolist
    if fixed is not None:  # a segment, its velocity read once
        a, d = rows(np.array([p0, fixed]))
        if not conn.uses_base:
            g = lambda r, y: vertical(a, y, d)
            return lambda t, h: g

        def segment(t: float, h: float):
            P = rows(pos(np.array(_stage_times(t, h))[:, None]))
            return lambda r, y: vertical(P[r], y, d)

        return segment
    five = lambda X: rows(X if X.shape == (5, n) else np.broadcast_to(X, (5, n)))
    base = None if conn.uses_base else five(p0)  # p0's five rows, made once

    def float_rhs(t: float, h: float):
        col = np.array(_stage_times(t, h))[:, None]
        P, V = (five(pos(col)) if base is None else base), five(vel(col))
        return lambda r, y: vertical(P[r], y, V[r])

    return float_rhs


def _field(conn: ConnectionField, path: PathCurve, p0: np.ndarray):
    """The lift's evaluation hook for integrate_lanes (see horizontal_lifts).

    p0 is the path's starting point, passed for every lane when gamma
    ignores the base point.
    """
    stack, christoffel, n, uses_base = conn.stack, conn.christoffel, conn.dimension, conn.uses_base
    pos, vel = path._column(path.position), path._column(path.velocity)

    def field(T: np.ndarray):
        (s, k), col = T.shape, T.reshape(-1, 1)
        # Positions and velocities at all the times, as arrays that broadcast to (s * k, n).
        P, V = (pos(col) if uses_base else p0), vel(col)
        G = None
        if christoffel is not None:
            P = P if P.shape == (s * k, n) else np.broadcast_to(P, (s * k, n))
            G = christoffel(P).reshape(s, k, n, n, n)
        # The (k, ...) rows of each time row, or the array itself for all of them.
        P, V = [X.reshape(s, k, -1) if X.ndim == 2 and X.shape[0] == s * k else (X,) * s
                for X in (P, V)]

        def f(r: int, C: np.ndarray) -> np.ndarray:
            M = stack(P[r], C) if G is None else _contract(G[r], C)
            # (-M) V, negation first, each row's terms added left to right and
            # then to +0.0, as the float forms add them.  In 1-d that is the one
            # product, which matmul gives in the same bits: the accumulate makes a
            # 1-d stacked lift (christoffel, make_linear_connection) about 1.1x slower.
            if n == 1:
                return ((-M) @ V[r][..., None])[..., 0]
            return _plain_sum((-M) * V[r][..., None, :]) + 0.0

        return f

    return field


def _endpoint(traj: LiftTrajectory) -> TangentVector:
    if not traj.complete:
        t_fail = traj.t_escape if traj.t_escape is not None else float(traj.t[-1])
        raise TransportEscapedError(t_fail, traj.status)
    return TangentVector(ChartPoint(traj.base[-1]), traj.fiber[-1])


def parallel_transport(conn: ConnectionField, path: PathCurve, v0,
                       opts: IntegratorOptions | None = None) -> TangentVector:
    """Transport v0 along the path; the endpoint fiber value at gamma(1).

    Raises TransportEscapedError when the lift blows up (or stalls) before
    reaching the far fiber.
    """
    return _endpoint(horizontal_lift(conn, path, v0, opts))


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

    Probes 2n transports with step h (default 1e-5 * (1 + ||v0||)), lifted
    together; h must be positive and finite, and must move every probe off
    v0.  Raises the TransportEscapedError of the first probe, in the order
    (j, +h), (j, -h), that fails to complete.
    """
    v = as_coords(v0, "initial fiber vector")
    n = v.size
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(v)))
    elif not (0.0 < h < np.inf):
        raise ValueError(f"step h must be positive and finite, got {h}")
    probes = []  # (j, +h), (j, -h) for j = 0 .. n-1
    for j in range(n):
        if v[j] + h == v[j] or v[j] - h == v[j]:
            raise ValueError(f"step h={h:g} does not move coordinate {j} of v0 ({v[j]:g})")
        e = np.zeros(n)
        e[j] = h
        probes += [v + e, v - e]
    ends = [_endpoint(traj).vec for traj in horizontal_lifts(conn, path, probes, opts)]
    jac = np.empty((n, n))
    for j in range(n):
        jac[:, j] = (ends[2 * j] - ends[2 * j + 1]) / (2.0 * h)
    return jac


def holonomy(conn: ConnectionField, loop: PathCurve, v0,
             opts: IntegratorOptions | None = None) -> TangentVector:
    """Transport v0 once around a closed loop; result sits over the start point.

    The loop closes when |gamma(0) - gamma(1)| <= 1e-10 max(1, |gamma'(0)|):
    the rounding of a long loop's end grows with its length.
    """
    gap = float(np.linalg.norm(loop.position(0.0) - loop.position(1.0)))
    if gap > 1e-10 * max(1.0, float(np.linalg.norm(loop.velocity(0.0)))):
        raise ValueError(f"loop does not close: |gamma(0) - gamma(1)| = {gap:.3g}")
    return parallel_transport(conn, loop, v0, opts)


def completion_threshold(conn: ConnectionField, path: PathCurve, grid,
                         opts: IntegratorOptions | None = None):
    """Scan scalar initial values for the completion/escape boundary.

    Works on 1-d connections and a 1-d grid.  Returns (v_star, lo, hi): lo <
    hi are the adjacent sorted grid values between which completion flips,
    and v_star is their midpoint.  The completing seeds may lie below the
    escaping ones or, on a path run backwards, above them; completion that
    flips more than once is an error.  The bracket width is the grid
    spacing, so the estimate is first-order in the grid.

    Every grid value is checked first, in sorted order, as its lone lift
    checks it.  In 1-d, lifts through ordered seeds stay ordered while they
    exist (the comparison theorem), so the completing seeds form an
    interval, and a search bisects the sorted grid for its end, lifting one
    seed at a time with its lone lift's bits.  A lift against that order (an
    end other than completion or the escape norm, or an escape on the wrong
    side of a completing seed) stops the search: the seeds not yet lifted
    are lifted as one batch and the flips are read off all of them.  A seed
    the search does not need is checked but not lifted, so an error raised
    in the middle of its lift does not surface.
    """
    if conn.dimension != 1:
        raise ValueError("completion threshold scan works on 1-d connections")
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"grid must be a 1-d sequence of seed values, got shape {values.shape}")
    values = np.sort(values)
    seeds, p0 = _checked_seeds(conn, path, values[:, None], opts)
    sides: list[str | None] = [None] * len(seeds)

    def side(i: int) -> str:
        if sides[i] is None:
            sides[i] = _side(_lift_lanes(conn, path, [seeds[i]], p0, opts)[0])
        return sides[i]

    flips = _ordered_flips(side, len(seeds))
    if flips is None:
        rest = [i for i, s in enumerate(sides) if s is None]
        for i, traj in zip(rest, _lifts_in_seed_order(conn, path, [seeds[i] for i in rest],
                                                      opts, p0)):
            sides[i] = _side(traj)
        completed = np.array([s == "C" for s in sides])
        flips = np.flatnonzero(completed[1:] != completed[:-1]).tolist()
    if not flips:
        raise ValueError("grid does not straddle the completion threshold")
    if len(flips) > 1:
        raise ValueError("completion is not monotone over the grid")
    lo, hi = float(values[flips[0]]), float(values[flips[0] + 1])
    return 0.5 * (lo + hi), lo, hi


def _side(traj: LiftTrajectory) -> str:
    """C for a complete lift, + or - for one that reached the escape norm
    upward or downward, ? for any other end."""
    if traj.complete:
        return "C"
    if traj.stop_reason == "escape-norm":
        return "+" if traj.final_fiber[0] > 0 else "-"
    return "?"


def _ordered_flips(side, n: int) -> list[int] | None:
    """Where completion flips over n sorted seeds, found by bisection.

    ``side(i)`` lifts seed i (once) and classifies it (see _side).  Returns
    [i] when completion flips between seeds i and i + 1, [] when no seed
    can complete or all do, and None at the first lift against the order.
    """
    first = side(0) if n else "+"
    if first == "+" or first == "-" and side(n - 1) == "-":
        return []
    if first == "C":  # completing below: a completes, b escapes upward (b = n: none seen yet)
        a, b, below, above = 0, n, "C", "+"
    elif first == "-" and side(n - 1) == "C":  # completing above
        a, b, below, above = 0, n - 1, "-", "C"
    else:
        return None
    while b - a > 1:
        mid = (a + b) // 2
        s = side(mid)
        if s == below:
            a = mid
        elif s == above:
            b = mid
        else:
            return None
    return [a] if b < n else []
