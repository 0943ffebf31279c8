"""Seeded workloads of the pathlift benchmark: inputs, API calls and oracles.

`make_specs(workload, seed)` turns a seed into a list of specs: plain,
JSON-able descriptions of one call into pathlift's public API each (an
*op*). `make_op` turns a spec into an `Op`: the call, and an oracle that
checks its result without calling pathlift. Inputs depend only on the
seed; the program sees only the generated values.

Each workload is stratified: a seed changes the parameters inside each
stratum, never the number of ops of each kind, so seeds are comparable.

blowup-1d     completion_threshold on grids straddling the threshold, and
              seed sweeps of horizontal_lift, for fig1 and power-growth with
              alpha in {1.5, 2, 3}: long lifts, about half of them escape.
transport-nd  holonomy on sphere circles, and parallel_transport (linearity
              triples), round_trip_defect and transport_jacobian on seeded
              segments and polylines for the sphere and a seeded 3-d
              christoffel member: many short lifts, each on its own path.
uvb-gallery   fiber_scan at seeded base points over the gallery, 1-d to 3-d:
              principal angles and classification, no integration.
cli-emit      pathlift.cli.main over seeded argv (lift, transport --jacobian,
              uvb-scan csv/json, figure1, gallery list): parsing and emission.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pathlift import cli, lifting, uvb
from pathlift.connections import ConnectionSpec, gallery
from pathlift.geometry import path_circle, path_polyline, path_segment
from pathlift.integrate import COMPLETE, ESCAPED, STEP_COLLAPSE, IntegratorOptions

WORKLOADS = ("blowup-1d", "transport-nd", "uvb-gallery", "cli-emit")

COT1 = 1.0 / math.tan(1.0)
ESCAPE_NORM = IntegratorOptions().escape_norm
# Completion thresholds of the unit-displacement lift, solving
# int_{v*}^{ESCAPE_NORM} (1 + c^2)^(-alpha/2) dc = 1. Used only to centre the
# seeded grids; the oracle recomputes them with scipy.
GRID_CENTRE = {1.5: 3.9231875516238324, 2.0: COT1, 3.0: 0.0}
BLOWUP_MEMBERS = ("fig1", "power-growth:1.5", "power-growth:2", "power-growth:3")
# The criterion-2 table of the acceptance suite, plus the dimensions and the
# seeded christoffel member that only fiber_scan sees.
UVB_TABLE = {
    "flat:1": uvb.UVB,
    "flat:2": uvb.UVB,
    "flat:3": uvb.UVB,
    "scalar-linear:1": uvb.UVB,
    "scalar-linear:-1": uvb.UVB,
    "power-growth:0.5": uvb.UVB,
    "power-growth:1": uvb.UVB,
    "sphere-stereographic": uvb.UVB,
    "christoffel": uvb.UVB,
    "fig1": uvb.NOT_UVB,
    "power-growth:1.5": uvb.NOT_UVB,
    "power-growth:2": uvb.NOT_UVB,
}
# The curves `pathlift figure1` draws: display seeds at p, and interior seeds (t0, c0).
FIGURE1_V0 = (0.0, 0.2, 0.4, 0.6, 0.7, 1.0, 2.0, 5.0)
FIGURE1_SEEDS = tuple((t0, c0) for t0 in (0.25, 0.5, 0.75) for c0 in (-8.0, -3.0, 3.0, 8.0))
GALLERY_NAMES = ("christoffel", "fig1", "flat", "power-growth", "scalar-linear",
                 "sphere-stereographic")


@dataclass
class Op:
    """One call into pathlift's public API, and the oracle for its result."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object, list], str | None]   # (result, all results) -> problem or None
    collect: Callable[[object], object] | None = None  # runs untimed after the call


class Plain:
    """Identity `wrap` hook: connections and paths are used as built."""

    @staticmethod
    def conn(c):
        return c

    @staticmethod
    def path(p):
        return p


# ---------------------------------------------------------------- inputs


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _vec(x) -> list[float]:
    return [float(v) for v in np.atleast_1d(x)]


def _christoffel_terms(rng: np.random.Generator, n: int = 3, count: int = 6) -> list[dict]:
    return [
        {
            "k": int(rng.integers(n)),
            "i": int(rng.integers(n)),
            "j": int(rng.integers(n)),
            "coeff": float(rng.uniform(-1.0, 1.0)),
            "monomial": [int(e) for e in rng.integers(0, 3, n)],
        }
        for _ in range(count)
    ]


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return _vec(lo + (hi - lo) * u)


def _specs_blowup(rng) -> list[dict]:
    unit = {"from": [0.0], "to": [1.0]}
    specs = [
        # Anchors shared by every seed: ROADMAP's baseline lifts of fig1.
        {"kind": "horizontal_lift", "member": "fig1", "path": unit, "v0": [v0]}
        for v0 in (0.0, 1.0, 0.64)
    ]
    for member in BLOWUP_MEMBERS:
        centre = GRID_CENTRE[_alpha(member)]
        a = float(rng.uniform(-1.0, 1.0))
        sweep_path = {"from": [a], "to": [a + 1.0]}
        spacing = float(rng.uniform(0.01, 0.05))
        frac = float(rng.uniform(0.1, 0.9))   # keeps every grid point >= 0.1 spacing off v*
        b = float(rng.uniform(-1.0, 1.0))
        grid = centre + spacing * (np.arange(5) - 2 + frac)
        specs.append({"kind": "completion_threshold", "member": member,
                      "path": {"from": [b], "to": [b + 1.0]}, "grid": _vec(grid)})
        for v0 in _stratified(rng, centre - 2.0, centre + 2.0, 8):
            specs.append({"kind": "horizontal_lift", "member": member,
                          "path": sweep_path, "v0": [v0]})
    return specs


def _unit(rng, n: int) -> np.ndarray:
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def _random_path(rng, n: int, kind: str) -> dict:
    # Unit-length legs in seeded directions from a seeded start near the
    # origin: the geometry varies with the seed, the amount of work little.
    start = rng.uniform(-0.25, 0.25, n)
    if kind == "segment":
        return {"from": _vec(start), "to": _vec(start + _unit(rng, n))}
    mid = start + 0.6 * _unit(rng, n)
    end = mid + 0.6 * _unit(rng, n)
    times = np.arange(3.0) + rng.uniform(-0.2, 0.2, 3)
    return {"points": [_vec(start), _vec(mid), _vec(end)], "times": _vec(times)}


def _specs_transport(rng) -> list[dict]:
    # Sixteen holonomy ops on radii of similar cost put op_p50_ms inside one
    # cluster of ops rather than on the edge between two kinds of op.
    specs = []
    for r in _stratified(rng, 0.3, 0.7, 16):
        specs.append({"kind": "holonomy", "member": "sphere-stereographic",
                      "radius": r, "v0": _vec(rng.normal(size=2))})
    for member, n in (("sphere-stereographic", 2), ("christoffel", 3)):
        for kind in ("segment", "polyline", "segment", "polyline"):
            # A christoffel member per path, so no single draw of terms sets
            # the cost of a third of the ops.
            extra = {"terms": _christoffel_terms(rng)} if member == "christoffel" else {}
            path = _random_path(rng, n, kind)
            u, w = _vec(rng.uniform(-0.5, 0.5, n)), _vec(rng.uniform(-0.5, 0.5, n))
            a, b = _vec(rng.uniform(-2.0, 2.0, 2))
            base = {"member": member, "path": path, **extra}
            first = len(specs)
            specs += [
                {"kind": "parallel_transport", **base, "v0": u},
                {"kind": "parallel_transport", **base, "v0": w},
                {"kind": "parallel_transport", **base, "v0": _vec(a * np.array(u) + b * np.array(w)),
                 "combination_of": [first, first + 1, a, b]},
                {"kind": "round_trip_defect", **base, "v0": u},
                {"kind": "transport_jacobian", **base, "v0": u},
            ]
    return specs


def _specs_uvb(rng) -> list[dict]:
    terms = _christoffel_terms(rng)
    specs = []
    for member in UVB_TABLE:
        n = _dimension(member)
        extra = {"terms": terms} if member == "christoffel" else {}
        for _ in range(8):
            specs.append({"kind": "fiber_scan", "member": member,
                          "point": _vec(rng.uniform(-1.0, 1.0, n)), **extra})
    return specs


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _specs_cli(rng) -> list[dict]:
    # Counts are chosen so that op_p50_ms falls inside the cluster of
    # 1-d/flat lifts and op_tail_ms inside the cluster of sphere lifts, not on
    # the edge between two kinds, where a seed would move it most.
    specs = []
    lift_members = ["scalar-linear", "flat:1", "scalar-linear", "flat:2"] * 4 + \
        ["sphere-stereographic"] * 12
    for member in lift_members:
        if member == "scalar-linear":
            name, n = f"scalar-linear:{float(rng.uniform(-2.0, 2.0))!r}", 1
        else:
            name, n = member, _dimension(member)
        a = rng.uniform(-0.25, 0.25, n)
        b = a + _unit(rng, n)   # unit length: the seed moves the geometry, not the work
        seeds = [rng.uniform(-3.0, 3.0, n) for _ in range(6)]
        argv = ["lift", "--connection", name, "--path", f"segment:{_fmt(a)}:{_fmt(b)}"]
        argv += [f"--v={_fmt(v)}" for v in seeds]   # "=" keeps "-1.5,2" a value, not a flag
        specs.append({"kind": "cli", "cmd": "lift", "argv": argv, "member": name,
                      "from": _vec(a), "to": _vec(b), "seeds": [_vec(v) for v in seeds]})
    for j in range(6):
        a = float(rng.uniform(-1.0, 1.0))
        d = float(rng.uniform(0.2, 1.0))
        if j % 2 == 0:
            name, v0 = f"scalar-linear:{float(rng.uniform(-2.0, 2.0))!r}", float(rng.uniform(-3, 3))
        else:
            # atan(v0) + d stays 0.3 below pi/2, so the fig1 transport completes.
            name = "fig1"
            v0 = math.tan(float(rng.uniform(-1.0, math.pi / 2 - 0.3 - d)))
        argv = ["transport", "--connection", name, "--path", f"segment:{a!r}:{a + d!r}",
                f"--v={v0!r}", "--jacobian"]
        specs.append({"kind": "cli", "cmd": "transport", "argv": argv, "member": name,
                      "displacement": (a + d) - a, "v0": v0})
    scan_members = ["fig1", "power-growth:0.5", "sphere-stereographic",
                    "power-growth:1.5", "scalar-linear:-1", "flat:1"]
    for j, member in enumerate(scan_members):
        n = _dimension(member)
        fmt = "csv" if j % 2 == 0 else "json"
        argv = ["uvb-scan", "--connection", member, f"--point={_fmt(rng.uniform(-1, 1, n))}",
                "--format", fmt]
        specs.append({"kind": "cli", "cmd": "uvb-scan", "argv": argv, "member": member,
                      "format": fmt})
    # Every spacing in [0.044, 0.05] gives the same 3-point threshold grid
    # (so the same work), with cot(1) at least 0.0019 from each grid point.
    spacing = float(rng.uniform(0.044, 0.05))
    specs.append({"kind": "cli", "cmd": "figure1", "spacing": spacing,
                  "argv": ["figure1", "--vstar-spacing", repr(spacing)]})
    for _ in range(2):
        specs.append({"kind": "cli", "cmd": "gallery", "argv": ["gallery", "list"]})
    return specs


def make_specs(workload: str, seed: int) -> list[dict]:
    """The op inputs of one workload, as a pure function of the seed."""
    build = {
        "blowup-1d": _specs_blowup,
        "transport-nd": _specs_transport,
        "uvb-gallery": _specs_uvb,
        "cli-emit": _specs_cli,
    }[workload]
    return build(_rng(workload, seed))


def anchor_specs(workload: str) -> list[dict]:
    """Extra ops run once in the traced run: ROADMAP's 101-point fig1 threshold grid."""
    if workload != "blowup-1d":
        return []
    grid = 0.6 + 1e-3 * np.arange(101)
    return [{"kind": "completion_threshold", "member": "fig1",
             "path": {"from": [0.0], "to": [1.0]}, "grid": _vec(grid)}]


# ------------------------------------------------------------- building


def _alpha(member: str) -> float:
    return 2.0 if member == "fig1" else float(member.split(":")[1])


def _dimension(member: str) -> int:
    if member.startswith("flat:"):
        return int(member.split(":")[1])
    return {"sphere-stereographic": 2, "christoffel": 3}.get(member, 1)


def _connection(spec: dict):
    member = spec["member"]
    name, _, param = member.partition(":")
    if name == "christoffel":
        params = {"dimension": 3, "terms": spec["terms"]}
    elif name in ("flat", "scalar-linear", "power-growth"):
        key = {"flat": "dimension", "scalar-linear": "lambda", "power-growth": "alpha"}[name]
        params = {key: int(param) if name == "flat" else float(param)}
    else:
        params = {}
    return gallery(ConnectionSpec(name, params))


def _path(p: dict):
    if "points" in p:
        return path_polyline(p["points"], p["times"])
    return path_segment(p["from"], p["to"])


def _path_ends(p: dict) -> tuple[np.ndarray, np.ndarray]:
    if "points" in p:
        return np.array(p["points"][0]), np.array(p["points"][-1])
    return np.array(p["from"]), np.array(p["to"])


def make_op(spec: dict, wrap, out_dir: Path) -> Op:
    """Build the op of one spec; ``wrap`` may replace its connection and path."""
    kind = spec["kind"]
    if kind == "cli":
        return _cli_op(spec, out_dir)
    conn = wrap.conn(_connection(spec))
    if kind == "fiber_scan":
        point = spec["point"]
        return Op(kind, spec["member"], lambda: uvb.fiber_scan(conn, point),
                  functools.partial(_check_scan, spec))
    if kind == "holonomy":
        loop = wrap.path(path_circle([0.0, 0.0], spec["radius"]))
        v0 = spec["v0"]
        return Op(kind, f"r={spec['radius']:.3f}", lambda: lifting.holonomy(conn, loop, v0),
                  functools.partial(_check_holonomy, spec))
    path = wrap.path(_path(spec["path"]))
    label = f"{spec['member']} {'polyline' if 'points' in spec['path'] else 'segment'}"
    if kind == "completion_threshold":
        grid = spec["grid"]
        return Op(kind, spec["member"], lambda: lifting.completion_threshold(conn, path, grid),
                  functools.partial(_check_threshold, spec))
    v0 = spec["v0"]
    checks = {
        "horizontal_lift": _check_blowup_lift,
        "parallel_transport": _check_transport,
        "round_trip_defect": _check_round_trip,
        "transport_jacobian": _check_jacobian,
    }
    if kind not in checks:
        raise ValueError(f"unknown op kind {kind!r}")
    if kind == "horizontal_lift":
        label = f"{spec['member']} v0={v0[0]:.4f}"
    # Looked up at call time, so that a tracer can rebind the function.
    return Op(kind, label, lambda: getattr(lifting, kind)(conn, path, v0),
              functools.partial(checks[kind], spec))


# --------------------------------------------------------------- oracles


def _ok(cond: bool, message: str) -> str | None:
    return None if cond else message


@functools.lru_cache(maxsize=None)
def _tail(alpha: float, x: float) -> float:
    """int_x^inf (1 + c^2)^(-alpha/2) dc, by scipy quadrature.

    Above 1 the substitution c = 1/u gives int_0^{1/x} u^(alpha-2) (1 + u^2)^(-alpha/2) du,
    whose algebraic factor quad integrates exactly as a weight.
    """
    from scipy.integrate import quad

    if x >= 1.0:
        return quad(lambda u: (1.0 + u * u) ** (-alpha / 2.0), 0.0, 1.0 / x, weight="alg",
                    wvar=(alpha - 2.0, 0.0), epsabs=1e-15, epsrel=1e-13)[0]
    head = quad(lambda c: (1.0 + c * c) ** (-alpha / 2.0), x, 1.0, epsabs=1e-15, epsrel=1e-13)
    return head[0] + _tail(alpha, 1.0)


def _escape_time(alpha: float, v0: float) -> float:
    """Parameter at which the unit-displacement lift from v0 reaches the escape norm."""
    return _tail(alpha, v0) - _tail(alpha, ESCAPE_NORM)


@functools.lru_cache(maxsize=None)
def _threshold(alpha: float) -> float:
    """The v* with _escape_time(alpha, v*) = 1: lifts from above it escape."""
    from scipy.optimize import brentq

    return brentq(lambda v: _escape_time(alpha, v) - 1.0, -2.0, 6.0, xtol=1e-13)


def _check_blowup_lift(spec, traj, _results) -> str | None:
    # c' = (1 + c^2)^(alpha/2) along a unit displacement: the lift reaches the
    # escape norm at parameter T_E(v0), and the true solution blows up at T(v0).
    alpha, v0 = _alpha(spec["member"]), spec["v0"][0]
    reach = _escape_time(alpha, v0)
    if reach >= 1.0:
        if traj.status != COMPLETE:
            return f"expected complete (T_E={reach:.6f}), got {traj.status}"
        c1 = float(traj.final_fiber[0])
        used = _tail(alpha, v0) - _tail(alpha, c1)   # int_{v0}^{c1} (1+c^2)^(-alpha/2) dc
        return _ok(abs(used - 1.0) <= 1e-6, f"endpoint c(1)={c1!r} misses the lift equation "
                   f"by {used - 1.0:.2e}")
    if traj.status not in (ESCAPED, STEP_COLLAPSE):
        return f"expected a blow-up (T_E={reach:.6f}), got {traj.status}"
    t_stop = traj.t_escape if traj.status == ESCAPED else float(traj.t[-1])
    blowup = _tail(alpha, v0)
    return _ok(abs(t_stop - blowup) <= 1e-3, f"stopped at t={t_stop:.6f}, blow-up at {blowup:.6f}")


def _check_threshold(spec, result, _results) -> str | None:
    v_star, lo, hi = result
    grid = np.sort(spec["grid"])
    exact = _threshold(_alpha(spec["member"]))
    k = int(np.searchsorted(grid, exact))
    return _ok(
        (lo, hi) == (grid[k - 1], grid[k]) and v_star == 0.5 * (lo + hi),
        f"bracket ({lo}, {hi}) does not hold v*={exact!r} between adjacent grid points",
    )


def _check_holonomy(spec, out, _results) -> str | None:
    # Gauss-Bonnet: the rotation equals the enclosed cap area 4 pi r^2 / (1 + r^2), mod 2 pi.
    r, v0 = spec["radius"], np.array(spec["v0"])
    vec = out.vec
    angle = math.atan2(v0[0] * vec[1] - v0[1] * vec[0], float(v0 @ vec))
    cap = 4.0 * math.pi * r * r / (1.0 + r * r)
    miss = (angle - cap + math.pi) % (2.0 * math.pi) - math.pi
    stretch = abs(np.linalg.norm(vec) - np.linalg.norm(v0))
    return _ok(abs(miss) <= 1e-6 and stretch <= 1e-8 * max(1.0, np.linalg.norm(v0)),
               f"rotation misses the cap area by {miss:.2e}, length by {stretch:.2e}")


def _sphere_norm_ratio(p: dict) -> float:
    # Transport preserves the round metric 4|v|^2 / (1 + |p|^2)^2.
    a, b = _path_ends(p)
    return (1.0 + b @ b) / (1.0 + a @ a)


def _check_transport(spec, out, results) -> str | None:
    vec = out.vec
    _, end = _path_ends(spec["path"])
    if not (np.all(np.isfinite(vec)) and np.allclose(out.base.coords, end, rtol=0, atol=1e-12)):
        return "transport result is not finite or not over the path end"
    if spec["member"] == "sphere-stereographic":
        # The round-trip tolerance of criterion 4, for the same reason as below.
        want = np.linalg.norm(spec["v0"]) * _sphere_norm_ratio(spec["path"])
        if abs(np.linalg.norm(vec) - want) > 1e-6 * max(1.0, want):
            return f"sphere transport length {np.linalg.norm(vec)!r}, metric gives {want!r}"
    if "combination_of" in spec:
        i, j, a, b = spec["combination_of"]
        pu, pw = results[i].vec, results[j].vec
        rel = np.linalg.norm(vec - a * pu - b * pw) / (1 + np.linalg.norm(pu) + np.linalg.norm(pw))
        # Criterion 4 holds segments to 1e-7; the polyline's acceleration
        # jumps at its knots cost the default tolerances about 2e-7.
        tol = 1e-6 if "points" in spec["path"] else 1e-7
        return _ok(rel <= tol, f"transport is not linear: defect {rel:.2e}")
    return None


def _check_round_trip(_spec, defect, _results) -> str | None:
    return _ok(defect <= 1e-6, f"round-trip defect {defect:.2e}")


def _check_jacobian(_spec, jac, _results) -> str | None:
    det = float(np.linalg.det(jac)) if np.all(np.isfinite(jac)) else math.nan
    return _ok(abs(det) > 1e-8, f"transport Jacobian determinant {det!r}")


def _scan_theta_1d(member: str, radii: np.ndarray) -> np.ndarray | None:
    """Closed-form theta_min under the normalized weight for 1-d members."""
    name, _, param = member.partition(":")
    w = 1.0 / np.sqrt(1.0 + radii**2)
    if name == "flat":
        s = np.zeros_like(radii)
    elif name == "fig1":
        s = w * (1.0 + radii**2)
    elif name == "scalar-linear":
        s = w * abs(float(param)) * radii
    elif name == "power-growth":
        s = w * (1.0 + radii**2) ** (float(param) / 2.0)
    else:
        return None
    return np.arctan2(1.0, s)


def _check_theta(member: str, radii, theta) -> str | None:
    n = _dimension(member)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2 * n, len(radii)):
        return f"scan has shape {theta.shape}, expected {(2 * n, len(radii))}"
    if not np.all((theta > 0) & (theta <= math.pi / 2)):
        return "scan angles leave (0, pi/2]"
    if n == 1 and not member.startswith("flat"):
        exact = _scan_theta_1d(member, np.asarray(radii, dtype=float))
        err = float(np.max(np.abs(theta - exact[None, :]) / exact[None, :]))
        return _ok(err <= 1e-9, f"scan angles miss the closed form by {err:.2e} (relative)")
    if member.startswith("flat"):
        return _ok(bool(np.all(theta == math.pi / 2)), "flat scan angles are not pi/2")
    return None


def _check_scan(spec, report, _results) -> str | None:
    want = UVB_TABLE[spec["member"]]
    if report.verdict != want:
        return f"verdict {report.verdict}, table says {want}"
    return _check_theta(spec["member"], report.radii, report.theta_min)


# -------------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    files: tuple[tuple[str, bytes], ...] = ()

    def file(self, name: str) -> bytes:
        return dict(self.files).get(name, b"")


def _cli_op(spec: dict, out_dir: Path) -> Op:
    argv = list(spec["argv"])
    if spec["cmd"] != "gallery":
        argv += ["--out", str(out_dir)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def collect(raw):
        code, stdout = raw
        files = ()
        if out_dir.is_dir():
            files = tuple(sorted((p.name, p.read_bytes()) for p in out_dir.iterdir()))
            shutil.rmtree(out_dir)   # every run writes into a fresh directory
        return CliRun(code, stdout, files)

    check = {
        "lift": _check_cli_lift,
        "transport": _check_cli_transport,
        "uvb-scan": _check_cli_scan,
        "figure1": _check_cli_figure1,
        "gallery": _check_cli_gallery,
    }[spec["cmd"]]
    return Op(f"cli.{spec['cmd']}", " ".join(spec["argv"][:3]), call,
              functools.partial(check, spec), collect)


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _check_cli_lift(spec, run: CliRun, _results) -> str | None:
    if run.code != 0:
        return f"exit code {run.code}"
    member, a, b = spec["member"], np.array(spec["from"]), np.array(spec["to"])
    for idx, v in enumerate(spec["seeds"]):
        status = json.loads(run.file(f"lift_{idx:03d}.json") or b"{}")
        rows = _csv_rows(run.file(f"lift_{idx:03d}.csv"))
        if status.get("status") != COMPLETE or len(rows) != 202:
            return f"seed {idx}: status {status.get('status')}, {len(rows)} csv rows"
        final = np.array(status["final_fiber"])
        if not np.array_equal(np.array(rows[-1][1 + a.size:], dtype=float), final):
            return f"seed {idx}: last csv row disagrees with final_fiber"
        v = np.array(v)
        if member.startswith("scalar-linear"):
            want = v * math.exp(-float(member.split(":")[1]) * float((b - a)[0]))
            bad = abs(final[0] - want[0]) > 1e-8 * abs(want[0])
        elif member.startswith("flat"):
            bad = np.max(np.abs(final - v)) > 1e-12 * (1.0 + np.linalg.norm(v))
        else:
            want = np.linalg.norm(v) * _sphere_norm_ratio({"from": a, "to": b})
            bad = abs(np.linalg.norm(final) - want) > 1e-8 * max(1.0, want)
        if bad:
            return f"seed {idx}: final fiber {final.tolist()} misses its oracle"
    return None


def _check_cli_transport(spec, run: CliRun, _results) -> str | None:
    if run.code != 0:
        return f"exit code {run.code}"
    out = json.loads(run.file("transport.json") or b"{}")
    if "jacobian" not in out:
        return "transport.json has no jacobian"
    got, jac = out["vector_out"][0], out["jacobian"][0][0]
    d, v0 = spec["displacement"], spec["v0"]
    if spec["member"] == "fig1":
        want = math.tan(math.atan(v0) + d)
        want_jac = (1.0 + want * want) / (1.0 + v0 * v0)
        ok = abs(got - want) <= 1e-7 * max(1.0, abs(want)) and abs(jac - want_jac) <= 1e-4
    else:
        scale = math.exp(-float(spec["member"].split(":")[1]) * d)
        ok = abs(got - v0 * scale) <= 1e-8 * abs(v0 * scale) and abs(jac - scale) <= 1e-6
    return _ok(ok, f"transport {got!r}, jacobian {jac!r} miss the closed form")


def _check_cli_scan(spec, run: CliRun, _results) -> str | None:
    want = UVB_TABLE[spec["member"]]
    code = {uvb.UVB: 0, uvb.NOT_UVB: 3}[want]
    if run.code != code or run.stdout.strip() != f"scan_000: {want}":
        return f"exit code {run.code}, stdout {run.stdout.strip()!r}, table says {want}"
    if spec["format"] == "json":
        report = json.loads(run.file("scan_000.json") or b"{}")
        if report.get("verdict") != want:
            return f"scan_000.json verdict {report.get('verdict')}"
        return _check_theta(spec["member"], report["radii"], report["theta_min"])
    rows = _csv_rows(run.file("scan_000.csv"))
    if not rows or rows[0] != ["direction_index", "radius", "theta_min"]:
        return "scan_000.csv has no header"
    body = np.array(rows[1:], dtype=float)
    radii = np.unique(body[:, 1])
    return _check_theta(spec["member"], radii, body[:, 2].reshape(-1, radii.size))


def _figure1_families() -> dict[str, int]:
    # fig1 lifts along +-t are shifted tangents: c = tan(atan c0 +- t).
    families: dict[str, int] = {}
    for v0 in FIGURE1_V0:
        fam = "from_p_complete" if math.atan(v0) + 1.0 < math.pi / 2 else "from_p_escaped"
        families[fam] = families.get(fam, 0) + 1
    for t0, c0 in FIGURE1_SEEDS:
        fwd = math.atan(c0) + (1.0 - t0) < math.pi / 2
        bwd = math.atan(c0) - t0 > -math.pi / 2
        fam = ("from_p_complete" if fwd else "from_p_escaped") if bwd else \
            ("from_q_escaped" if fwd else "interior")
        families[fam] = families.get(fam, 0) + 1
    return families


def _check_cli_figure1(spec, run: CliRun, _results) -> str | None:
    if run.code != 0:
        return f"exit code {run.code}"
    meta = json.loads(run.file("figure1.json") or b"{}")
    lo, hi = meta.get("bracket_low", math.nan), meta.get("bracket_high", math.nan)
    if not (lo < COT1 < hi and abs((hi - lo) - spec["spacing"]) <= 1e-9):
        return f"bracket ({lo}, {hi}) does not hold cot(1) one grid step wide"
    curves = len(FIGURE1_V0) + len(FIGURE1_SEEDS)
    if meta.get("families") != _figure1_families() or meta.get("curves") != curves:
        return f"families {meta.get('families')} differ from the closed form"
    rows = _csv_rows(run.file("figure1.csv"))
    fiber = np.array([r[2] for r in rows[1:]], dtype=float)
    squashed = np.array([r[3] for r in rows[1:]], dtype=float)
    return _ok(len({r[0] for r in rows[1:]}) == curves
               and np.array_equal(squashed, np.array([float(f"{x:.17g}") for x in np.tanh(fiber)])),
               "figure1.csv curves or tanh column disagree")


def _check_cli_gallery(_spec, run: CliRun, _results) -> str | None:
    lines = run.stdout.splitlines()
    names = tuple(line.split()[0] for line in lines[1:])
    return _ok(run.code == 0 and lines[0].startswith("name") and names == GALLERY_NAMES,
               f"gallery list printed {names}")
