"""Adaptive embedded Runge-Kutta integration with finite-time escape detection.

A Dormand-Prince 5(4) pair integrates y' = f(t, y) over [0, 1] under
proportional-integral step control (Hairer, Norsett & Wanner, Solving ODEs
I, section II.4).  Integration ends in one of three ways, which
``stop_reason`` refines:

    complete       reached t = 1 (``complete``)
    escaped        the norm of an accepted state reached the escape threshold
                   (``escape-norm``) or is not finite (``non-finite``): blow-up
    step-collapse  the controller pushed the step below the minimum
                   (``min-step``) or the step budget ran out (``max-steps``)

A trial step whose stages or error estimate are not finite (the rhs
overflowed during a blow-up, or returned NaN) counts as a rejected step and
is retried with a tenth of the step, silently: no RuntimeWarning.

``integrate_lanes`` integrates one system from many initial states at once,
one *lane* each.  A lane, ``_Lane``, keeps its own t, step size, controller
state and status, and its accepted nodes (states and FSAL derivatives, from
its seed on), so its result is bit for bit the one it gets integrated
alone.  A lane retires when it completes, escapes or collapses.
``integrate_adaptive`` is the one-lane case.  Lanes step in one of three
kernels, each stepping a lane from its last node, appending the nodes it
accepts and settling each step it tries through the lane's controller:

    stacked  evaluates the live lanes together as the rows of a stack,
             about a hundred numpy calls a step whatever the lane count;
    scalar   given the float form ``float_rhs``, steps each 1-d lane in
             turn, to its end, in Python floats, with no numpy call;
    vector   the same for n-d lanes, on n-lists.

A lane's kernel depends on its system alone, not on how many lanes are
live.  Every sum adds its terms left to right in one plain order, in every
kernel: a stage sum weights and adds the stage derivatives in tableau
order, zero weights included (the stacked kernel by _plain_sum), and the
error and norm sums add their squares component by component.  So a lane
has the same bits in any kernel, signed zeros included, and the bits do not
depend on how a BLAS orders a product.  The rhs adds its own sums: a lift
adds them in the same order, but for the einsum that contracts 3-d
Christoffel tensors, which adds three terms as (p0 + p2) + p1.

Every evaluation goes through one hook per step.  ``field`` is given the
times of the evaluations to come as rows of a table and returns the
derivative at each row.  The seed derivative and the first step's probe
pass one row; a stacked step passes the five distinct stage times
t + c_i h (c_5 = c_6 = 1), all known before its first stage, and a float
kernel calls ``float_rhs(t, h)`` once per step attempt for the same times
(_stage_times).  So a caller evaluates what depends on t alone (a lift's
path and Christoffel tensors) once per step, not once per stage.

Results carry a fixed-size dense sampling built by cubic Hermite
interpolation of the accepted steps (locally 4th order), plus step counts.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import _hermite_dense

__all__ = [
    "IntegratorOptions",
    "IntegrationResult",
    "integrate_adaptive",
    "integrate_lanes",
    "COMPLETE",
    "ESCAPED",
    "STEP_COLLAPSE",
]

COMPLETE = "complete"
ESCAPED = "escaped"
STEP_COLLAPSE = "step-collapse"

# stop_reason -> status
_STATUS = {
    "complete": COMPLETE,
    "escape-norm": ESCAPED,
    "non-finite": ESCAPED,
    "min-step": STEP_COLLAPSE,
    "max-steps": STEP_COLLAPSE,
}

# Dormand-Prince 5(4) tableau. B5 propagates; E = B5 - B4 weights the
# embedded error estimate. FSAL: B5 is A[6] with a trailing zero, so the new
# point is stage 6's state and the 7th stage is f there; the kernels take
# stage 6's state as the new state.  A step whose k6 is not finite is
# rejected whatever its new state, as E . k is not finite (E[6] = -1/40).
# The zero weights A[6][1] and E[1] stay in the sums: a non-finite k1 makes
# them NaN, so the step is rejected however the later stages come out.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# A stacked step's field rows are its five distinct stage times t + c_i h,
# i = 1..5, and stage i reads row _STAGE_ROW[i]: c_5 = c_6 = 1.  Stage 0 is
# the FSAL derivative and reads none.
_C_ROWS = _C[1:6, None]
_STAGE_ROW = (0, 0, 1, 2, 3, 4, 4)
# The tableau in Python floats: the stage times' c_1..c_5, and the rows A[1..6] and E.
_C_FLOATS = _C[1:6].tolist()
_TABLEAU_FLOATS = (*(row.tolist() for row in _A[1:]), _E.tolist())

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04          # PI controller integral gain
_EXPO = 0.2 - 0.75 * _BETA
_TINY = 2.0**-511     # a norm below it has a subnormal or zero square


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances and limits for the adaptive integrator."""

    rtol: float = 1e-9
    atol: float = 1e-12
    escape_norm: float = 1e8
    min_step: float = 1e-12
    max_steps: int = 10**5
    dense_samples: int = 201

    def __post_init__(self):
        for name in ("rtol", "atol", "escape_norm", "min_step"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.rtol < 1e-14:
            raise ValueError(f"rtol must be >= 1e-14, got {self.rtol}")
        if not isinstance(self.max_steps, numbers.Integral) or self.max_steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if not isinstance(self.dense_samples, numbers.Integral) or self.dense_samples < 2:
            raise ValueError(f"dense_samples must be an integer >= 2, got {self.dense_samples!r}")


_DEFAULT_OPTIONS = IntegratorOptions()


@dataclass(frozen=True)
class IntegrationResult:
    """Dense trajectory of one integration, with status and step statistics."""

    t: np.ndarray
    y: np.ndarray
    status: str
    t_escape: float | None
    norm_at_escape: float | None
    steps: int
    rejected: int
    max_rhs_norm: float
    stop_reason: str

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


class _Lane:
    """Step control of one lane, in Python floats, and its accepted nodes: the
    states yf and FSAL derivatives ff, n floats a node, from the seed on."""

    __slots__ = ("t", "h", "step", "last", "facold", "steps", "rejected", "stop", "t_escape",
                 "norm_at_escape", "nodes_t", "yf", "ff")

    def __init__(self, y0: list[float], f0: list[float]):
        self.t = 0.0
        self.h = 0.0
        self.facold = 1e-4
        self.steps = 0
        self.rejected = 0
        self.stop = None
        self.t_escape = None
        self.norm_at_escape = None
        self.nodes_t = array("d", [0.0])
        self.yf, self.ff = array("d", y0), array("d", f0)

    def escape(self, ynorm: float) -> None:
        self.stop = "escape-norm" if math.isfinite(ynorm) else "non-finite"
        self.t_escape = self.t
        self.norm_at_escape = ynorm

    def plan(self, max_steps: int, min_step: float) -> bool:
        """Stop at max-steps or min-step, or set the next step; whether the lane goes on."""
        if self.stop is None:
            if self.steps + self.rejected >= max_steps:
                self.stop = "max-steps"
            elif self.h < min_step:
                self.stop = "min-step"
            else:
                self.last = self.h >= 1.0 - self.t
                self.step = (1.0 - self.t) if self.last else self.h
                return True
        return False

    def settle(self, err: float, ynorm: float, escape_norm: float) -> bool:
        """Accept or reject the step tried, from its scaled error norm and the
        norm of its new state; whether it was accepted."""
        h = self.step
        if not err <= 1.0:
            self.rejected += 1
            self.h = h * max(_FAC_MIN, _SAFETY / err**_EXPO) if math.isfinite(err) else 0.1 * h
            return False
        self.steps += 1
        self.t = 1.0 if self.last else self.t + h
        self.nodes_t.append(self.t)
        if not math.isfinite(ynorm) or ynorm >= escape_norm:
            self.escape(ynorm)
            return True
        fac11 = err**_EXPO if err > 0 else 0.0
        fac = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * self.facold**_BETA / fac11)) if fac11 else _FAC_MAX
        self.h = h * fac
        self.facold = max(err, 1e-4)
        if not self.t < 1.0:
            self.stop = "complete"
        return True

    def result(self, opts: IntegratorOptions) -> IntegrationResult:
        k = len(self.nodes_t)
        nodes_y = np.frombuffer(self.yf).reshape(k, -1)
        nodes_f = np.frombuffer(self.ff).reshape(k, -1)
        # Accepted derivatives are finite, so the max over the nodes is the
        # running max over the steps (NaN only from the first).
        max_rhs = float(np.max(_norms(nodes_f)))
        if k == 1:  # no step accepted
            dense_t = np.array([0.0])
            dense_y = nodes_y.copy()  # not a view of the lane's buffer
        else:
            dense_t = np.linspace(0.0, self.t, opts.dense_samples)
            dense_y = _hermite_dense(self.nodes_t, nodes_y, nodes_f, dense_t)
            dense_y[0] = nodes_y[0]
            dense_y[-1] = nodes_y[-1]
        return IntegrationResult(
            t=dense_t,
            y=dense_y,
            status=_STATUS[self.stop],
            t_escape=self.t_escape,
            norm_at_escape=self.norm_at_escape,
            steps=self.steps,
            rejected=self.rejected,
            max_rhs_norm=max_rhs,
            stop_reason=self.stop,
        )


def _plain_sum(X: np.ndarray) -> np.ndarray:
    """X summed over its last axis, x0 + x1 + ..., added left to right as the float
    kernels add: a cumulative sum adds in order, from its first term."""
    return np.add.accumulate(X, axis=-1)[..., -1]


def _norms(X: np.ndarray) -> list[float]:
    """Each row's sqrt(x0*x0 + x1*x1 + ...), the squares added left to right, or hypot
    where a nonzero row's square leaves the normal range."""
    r = np.sqrt(_plain_sum(X * X))
    norms = r.tolist()
    if (math.inf in norms or norms and not min(norms) >= _TINY) and X.any():
        for i in np.flatnonzero((r == math.inf) | (r < _TINY) & X.any(axis=1)).tolist():
            norms[i] = math.hypot(*X[i].tolist())
    return norms


def _initial_steps(field, F0: np.ndarray, Y0: np.ndarray, opts: IntegratorOptions) -> list[float]:
    # Hairer-style two-phase guess per lane: balance state and derivative
    # scales, then probe the local curvature with one Euler step.
    # Root mean squares over each row; add.reduce / n is np.mean without its wrapper.
    scale, n = opts.atol + opts.rtol * np.abs(Y0), Y0.shape[1]
    d0 = np.sqrt(np.add.reduce((Y0 / scale) ** 2, axis=1) / n).tolist()
    d1 = np.sqrt(np.add.reduce((F0 / scale) ** 2, axis=1) / n).tolist()
    h0 = [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
    H0 = np.array(h0)
    F1 = np.asarray(field(H0[None])(0, Y0 + H0[:, None] * F0), dtype=float)
    d2 = (np.sqrt(np.add.reduce(((F1 - F0) / scale) ** 2, axis=1) / n) / H0).tolist()
    steps = []
    for h, b, c in zip(h0, d1, d2):
        h1 = max(1e-6, h * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        steps.append(max(min(100 * h, h1, 1.0), opts.min_step))
    return steps


def _stage_times(t: float, h: float) -> list[float]:
    """A step's five distinct stage times t + c_i h, i = 1..5 (c_5 = c_6 = 1), rounded as
    the rows of a stacked step's field call: the times of a float rhs's g(0..4, y)."""
    return [t + c * h for c in _C_FLOATS]


def _float_lane(lane: _Lane, float_rhs, opts: IntegratorOptions) -> None:
    """The scalar float kernel: step a planned 1-d lane from its last node to its end."""
    rtol, atol, escape_norm = opts.rtol, opts.atol, opts.escape_norm
    max_steps, min_step = opts.max_steps, opts.min_step
    ((a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54),
     (a60, a61, a62, a63, a64, a65), (e0, e1, e2, e3, e4, e5, e6)) = _TABLEAU_FLOATS
    settle, plan, append_y, append_f = lane.settle, lane.plan, lane.yf.append, lane.ff.append
    y, f = lane.yf[-1], lane.ff[-1]
    while True:
        # Each stage sum is _plain_sum's; the scale's max keeps a NaN operand,
        # as np.maximum does.
        H = lane.step
        g = float_rhs(lane.t, H)  # one rhs call per attempt
        k1 = g(0, y + H * (a10 * f))
        k2 = g(1, y + H * (a20 * f + a21 * k1))
        k3 = g(2, y + H * (a30 * f + a31 * k1 + a32 * k2))
        k4 = g(3, y + H * (a40 * f + a41 * k1 + a42 * k2 + a43 * k3))
        k5 = g(4, y + H * (a50 * f + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        # Stage 6's state is the new state (FSAL).
        y1 = y + H * (a60 * f + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = g(4, y1)
        a, b = abs(y), abs(y1)
        q = (H * (e0 * f + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6)
             / (atol + rtol * (b if b > a or b != b else a)))
        # b is _norms' norm of [y1] bit for bit, but a NaN's sign (a NaN y1 is rejected).
        if settle(math.sqrt(q * q), b, escape_norm):
            y, f = y1, k6  # FSAL
            append_y(y)
            append_f(f)
        if not plan(max_steps, min_step):
            return


def _vector_lane(lane: _Lane, float_rhs, n: int, opts: IntegratorOptions) -> None:
    """The vector float kernel: step a planned n-d lane from its last node to its end, on
    n-lists, with the arithmetic of the stacked kernel on one lane."""
    rtol, atol, escape_norm = opts.rtol, opts.atol, opts.escape_norm
    max_steps, min_step = opts.max_steps, opts.min_step
    ((a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54),
     (a60, a61, a62, a63, a64, a65), (e0, e1, e2, e3, e4, e5, e6)) = _TABLEAU_FLOATS
    settle, plan, extend_y, extend_f = lane.settle, lane.plan, lane.yf.extend, lane.ff.extend
    y, f = lane.yf[-n:].tolist(), lane.ff[-n:].tolist()
    while True:
        H = lane.step
        g = float_rhs(lane.t, H)  # one rhs call per attempt
        k1 = g(0, [x + H * (a10 * d) for x, d in zip(y, f)])
        k2 = g(1, [x + H * (a20 * d + a21 * d1) for x, d, d1 in zip(y, f, k1)])
        k3 = g(2, [x + H * (a30 * d + a31 * d1 + a32 * d2) for x, d, d1, d2 in zip(y, f, k1, k2)])
        k4 = g(3, [x + H * (a40 * d + a41 * d1 + a42 * d2 + a43 * d3)
                   for x, d, d1, d2, d3 in zip(y, f, k1, k2, k3)])
        k5 = g(4, [x + H * (a50 * d + a51 * d1 + a52 * d2 + a53 * d3 + a54 * d4)
                   for x, d, d1, d2, d3, d4 in zip(y, f, k1, k2, k3, k4)])
        y1 = [x + H * (a60 * d + a61 * d1 + a62 * d2 + a63 * d3 + a64 * d4 + a65 * d5)
              for x, d, d1, d2, d3, d4, d5 in zip(y, f, k1, k2, k3, k4, k5)]
        k6 = g(4, y1)
        # The error and norm sums add their squares in component order, as the
        # stacked kernel and _norms do (from +0.0, which adds no bit to a square).
        sq = sq1 = 0.0
        for x, x1, d, d1, d2, d3, d4, d5, d6 in zip(y, y1, f, k1, k2, k3, k4, k5, k6):
            a, b = abs(x), abs(x1)
            q = (H * (e0 * d + e1 * d1 + e2 * d2 + e3 * d3 + e4 * d4 + e5 * d5 + e6 * d6)
                 / (atol + rtol * (b if b > a or b != b else a)))
            sq += q * q
            sq1 += x1 * x1
        ynorm = math.sqrt(sq1)
        if ynorm == math.inf or ynorm < _TINY and any(y1):
            ynorm = math.hypot(*y1)
        if settle(math.sqrt(sq / n), ynorm, escape_norm):
            y, f = y1, k6  # FSAL
            extend_y(y)
            extend_f(f)
        if not plan(max_steps, min_step):
            return


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def integrate_lanes(
    field: Callable[[np.ndarray], Callable[[int, np.ndarray], np.ndarray]],
    Y0,
    opts: IntegratorOptions | None = None,
    float_rhs: Callable | None = None,
) -> list[IntegrationResult]:
    """Integrate y' = f(t, y) over [0, 1] from every row of Y0, one lane each.

    ``field(T)`` is the one evaluation hook.  T is an (s, k) array of times,
    column j for the j-th live lane in the order of Y0's rows, and the
    returned ``f(r, Y)`` gives the derivatives at the times T[r] for the
    states Y, shape (k, n), as anything that assigns into a (k, n) array;
    f(r, Y) must not depend on T's other rows.  The seed derivative is
    field(zeros((1, m)))(0, Y0), and the first step's Euler probe is one
    more call on one row.  Each step of the stacked kernel calls field once,
    on the live lanes' five distinct stage times (row r: t + c_(r+1) h;
    stages 5 and 6 both read row 4), so the caller evaluates what depends
    on t alone once per step.  ``float_rhs`` is f on one lane in Python
    floats, bit for bit: ``float_rhs(t, h)``, for a step of size h from t,
    returns ``g(r, y)``, the derivative at the step's r-th distinct stage
    time (_stage_times(t, h)[r]) for a float y in 1-d and an n-list in n-d,
    as a float or a list.  When given, after the probe each lane in turn,
    to its end, steps in a float kernel, which calls it instead of field,
    once per step attempt.

    Each lane keeps its own t, step, PI controller state, counters, status
    and accepted nodes, and its stage values run through the same
    arithmetic as a lane alone (every sum adds its terms left to right, a
    stage sum term by term in tableau order, an error or norm sum component
    by component), so lane j's result is the one Y0[j] gets alone, bit for
    bit, in any kernel.  A stacked step stacks the live lanes' last nodes;
    each lane that accepts appends its row of the new state and of the FSAL
    derivative.  A lane retires when it completes, escapes or collapses
    (see integrate_adaptive).
    """
    opts = opts or _DEFAULT_OPTIONS
    Y = np.array(Y0, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"initial states must form an (m, n) array, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("initial states must be finite")
    m, n = Y.shape
    if n == 0:
        raise ValueError("initial states must have at least one component, got dimension 0")
    rtol, atol, escape_norm = opts.rtol, opts.atol, opts.escape_norm
    min_step, max_steps = opts.min_step, opts.max_steps
    A, E = _A, _E

    F = np.empty((m, n))
    F[:] = field(np.zeros((1, m)))(0, Y)
    lanes = [_Lane(y, f) for y, f in zip(Y.tolist(), F.tolist())]
    for lane, ynorm in zip(lanes, _norms(Y)):
        if ynorm >= escape_norm:
            lane.escape(ynorm)
    live = [j for j, lane in enumerate(lanes) if lane.stop is None]
    lv = [lanes[j] for j in live]
    if lv:
        for lane, h in zip(lv, _initial_steps(field, F[live], Y[live], opts)):
            lane.h = h
    lv = [lane for lane in lv if lane.plan(max_steps, min_step)]
    if float_rhs is not None:  # a float kernel: each lane in turn, to its end
        for lane in lv:
            if n == 1:
                _float_lane(lane, float_rhs, opts)
            else:
                _vector_lane(lane, float_rhs, n, opts)
        lv = []
    K = np.empty((0, n, 7))  # stage derivatives, (k, n, 7) for k live lanes

    while lv:
        k = len(lv)
        if K.shape[0] != k:
            K = np.empty((k, n, 7))
            stage = [K[..., i] for i in range(7)]  # views, made once per lane count
            head = [K[..., :i] for i in range(7)]
        Y = np.array([lane.yf[-n:] for lane in lv])
        stage[0][...] = [lane.ff[-n:] for lane in lv]  # FSAL
        h_row = np.array([lane.step for lane in lv])
        H = h_row[:, None]
        f = field(np.array([lane.t for lane in lv]) + _C_ROWS * h_row)
        for i in range(1, 6):
            stage[i][...] = f(_STAGE_ROW[i], Y + H * _plain_sum(A[i] * head[i]))
        Y_new = Y + H * _plain_sum(A[6] * head[6])  # stage 6's state is the new state (FSAL)
        stage[6][...] = f(_STAGE_ROW[6], Y_new)
        Q = H * _plain_sum(E * K) / (atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new)))
        sq = _plain_sum(Q * Q).tolist()
        # One pass over the lanes: settle each lane's step, then plan its next one.
        going = []
        for lane, y, fy, s, ynorm in zip(lv, Y_new.tolist(), stage[6].tolist(), sq, _norms(Y_new)):
            if lane.settle(math.sqrt(s / n), ynorm, escape_norm):
                lane.yf.extend(y)
                lane.ff.extend(fy)
            if lane.plan(max_steps, min_step):
                going.append(lane)
        lv = going

    return [lane.result(opts) for lane in lanes]


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    opts: IntegratorOptions | None = None,
) -> IntegrationResult:
    """Integrate y' = rhs(t, y) from y(0) = y0 over [0, 1]: one lane of integrate_lanes.

    Local error per accepted step is held to atol + rtol * ||y||.  The run
    stops early with status ``escaped`` once ||y|| reaches opts.escape_norm
    (the escape time is the last accepted t), or with ``step-collapse`` when
    the controller would drop below opts.min_step or the step budget is
    exhausted; ``stop_reason`` says which.
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    return integrate_lanes(lambda T: lambda r, Y: rhs(T[r, 0], Y[0]), y[None], opts)[0]
