"""Adaptive embedded Runge-Kutta integration with finite-time escape detection.

A Dormand-Prince 5(4) pair integrates y' = f(t, y) over [0, 1] under
proportional-integral step control.  Integration ends in one of three ways:

    complete       reached t = 1
    escaped        ||y|| crossed the escape threshold (finite-time blow-up)
    step-collapse  the controller pushed the step below the minimum, or the
                   step budget ran out, away from the escape regime

A trial step whose stages or error estimate are not finite (the rhs
overflowed during a blow-up, or returned NaN) counts as a rejected step and
is retried with a tenth of the step, silently: no RuntimeWarning.

Results carry a fixed-size dense sampling built by cubic Hermite
interpolation of the accepted steps (locally 4th order), plus step counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegratorOptions",
    "IntegrationResult",
    "integrate_adaptive",
    "COMPLETE",
    "ESCAPED",
    "STEP_COLLAPSE",
]

COMPLETE = "complete"
ESCAPED = "escaped"
STEP_COLLAPSE = "step-collapse"

# Dormand-Prince 5(4) tableau. B5 propagates; E = B5 - B4 weights the
# embedded error estimate. FSAL: the 7th stage is f at the new point.
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

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04          # PI controller integral gain
_EXPO = 0.2 - 0.75 * _BETA


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances and limits for the adaptive integrator."""

    rtol: float = 1e-9
    atol: float = 1e-12
    escape_norm: float = 1e8
    min_step: float = 1e-12
    max_steps: int = 10**6
    dense_samples: int = 201

    def __post_init__(self):
        for name in ("rtol", "atol", "escape_norm", "min_step"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.rtol < 1e-14:
            raise ValueError(f"rtol must be >= 1e-14, got {self.rtol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.dense_samples < 2:
            raise ValueError(f"dense_samples must be >= 2, got {self.dense_samples}")


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

    @property
    def complete(self) -> bool:
        return self.status == COMPLETE

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def y_final(self) -> np.ndarray:
        return self.y[-1]


def _initial_step(rhs, f0: np.ndarray, y0: np.ndarray, opts: IntegratorOptions) -> float:
    # Hairer-style two-phase guess: balance state and derivative scales, then
    # probe the local curvature with one Euler step.
    scale = opts.atol + opts.rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.asarray(rhs(h0, y1), dtype=float)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, 1.0)


def _hermite_dense(nodes_t, nodes_y, nodes_f, ts: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of the accepted nodes at the sample times ts."""
    t_arr = np.asarray(nodes_t)
    k = np.clip(np.searchsorted(t_arr, ts, side="right") - 1, 0, t_arr.size - 2)
    t0 = t_arr[k]
    h = t_arr[k + 1] - t0
    s = (ts - t0) / h
    # float_power calls libm pow() per element, as a scalar ``x ** 2`` does;
    # an array ``x ** 2`` squares by multiplication and can round differently.
    sq1 = np.float_power(1 - s, 2)
    h00 = (1 + 2 * s) * sq1
    h10 = s * sq1
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    y, f = np.asarray(nodes_y), np.asarray(nodes_f)
    return (
        h00[:, None] * y[k]
        + (h10 * h)[:, None] * f[k]
        + h01[:, None] * y[k + 1]
        + (h11 * h)[:, None] * f[k + 1]
    )


@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0,
    opts: IntegratorOptions | None = None,
    f0=None,
) -> IntegrationResult:
    """Integrate y' = rhs(t, y) from y(0) = y0 over [0, 1].

    Local error per accepted step is held to atol + rtol * ||y||.  The run
    stops early with status ``escaped`` once ||y|| reaches opts.escape_norm
    (the escape time is the last accepted t), or with ``step-collapse`` when
    the controller would drop below opts.min_step or the step budget is
    exhausted.  ``f0`` is rhs(0, y0) when the caller has already evaluated
    it; it must equal that value, and saves one evaluation.
    """
    opts = opts or IntegratorOptions()
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state must be finite, got {y0}")
    rtol, atol, escape_norm = opts.rtol, opts.atol, opts.escape_norm
    min_step, max_steps = opts.min_step, opts.max_steps
    A, C, B5, E = _A, list(_C), _B5, _E
    n = y.size

    t = 0.0
    f = np.array(rhs(t, y) if f0 is None else f0, dtype=float, ndmin=1)
    max_rhs = math.sqrt(float(f @ f))
    nodes_t, nodes_y, nodes_f = [t], [y.copy()], [f]

    status = COMPLETE
    t_escape = None
    norm_at_escape = None
    steps = 0
    rejected = 0

    ynorm = math.sqrt(float(y @ y))
    if ynorm >= escape_norm:
        status, t_escape, norm_at_escape = ESCAPED, 0.0, ynorm

    h = _initial_step(rhs, f, y, opts) if status == COMPLETE else 0.0
    facold = 1e-4
    k = np.empty((7, n))

    while status == COMPLETE and t < 1.0:
        if steps + rejected >= max_steps or h < min_step:
            status = STEP_COLLAPSE
            break
        last = h >= 1.0 - t
        h_use = (1.0 - t) if last else h

        k[0] = f
        for i in range(1, 7):
            yi = y + h_use * (A[i] @ k[:i])
            k[i] = rhs(t + C[i] * h_use, yi)
        y_new = y + h_use * (B5 @ k)
        q = h_use * (E @ k) / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
        err = math.sqrt(np.add.reduce(q * q) / n)

        if not math.isfinite(err):
            rejected += 1
            h = 0.1 * h_use
            continue

        if err <= 1.0:
            steps += 1
            t = 1.0 if last else t + h_use
            y = y_new
            f = k[6].copy()  # FSAL
            nodes_t.append(t)
            nodes_y.append(y)
            nodes_f.append(f)
            max_rhs = max(max_rhs, math.sqrt(float(f @ f)))

            ynorm = math.sqrt(float(y @ y))
            if not math.isfinite(ynorm) or ynorm >= escape_norm:
                status = ESCAPED
                t_escape = t
                norm_at_escape = ynorm
                break

            fac11 = err**_EXPO if err > 0 else 0.0
            if fac11 == 0.0:
                fac = _FAC_MAX
            else:
                fac = min(_FAC_MAX, max(_FAC_MIN, _SAFETY * facold**_BETA / fac11))
            h = h_use * fac
            facold = max(err, 1e-4)
        else:
            rejected += 1
            h = h_use * max(_FAC_MIN, _SAFETY / err**_EXPO)

    t_end = t
    if len(nodes_t) == 1 or t_end <= 0.0:
        dense_t = np.array([0.0])
        dense_y = np.array([nodes_y[0]])
    else:
        dense_t = np.linspace(0.0, t_end, opts.dense_samples)
        dense_y = _hermite_dense(nodes_t, nodes_y, nodes_f, dense_t)
        dense_y[0] = nodes_y[0]
        dense_y[-1] = nodes_y[-1]

    return IntegrationResult(
        t=dense_t,
        y=dense_y,
        status=status,
        t_escape=t_escape,
        norm_at_escape=norm_at_escape,
        steps=steps,
        rejected=rejected,
        max_rhs_norm=max_rhs,
    )
