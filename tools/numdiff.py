#!/usr/bin/env python3
"""Compare what two checkouts of pathlift compute, before golden digests are regenerated.

    python tools/numdiff.py PARENT CHANGE [--random N] [--seed S]

Each checkout runs in a subprocess with its own ``src`` first on the path.
Both run the same cases:
- the CLI commands of the ``GOLDEN`` table in tests/test_golden.py;
- its ``GOLDEN_SCANS``, ``GOLDEN_LIFTS`` and ``GOLDEN_BATCHES``;
- N random 1-d lifts drawn from seed S: gallery members with a float form,
  segments in both directions and 1-d polylines, seeds, and rtol from
  1e-6 to 1e-11;
- N // 2 random n-d lifts from the same seed: the sphere on segments,
  circles and polylines, flat:2, and 2-d and 3-d christoffel members of
  random terms on segments, at rtol from 1e-6 to 1e-11;
- N // 2 random fiber scans from the same seed, on caller grids of 1 to 4
  random unit directions and 2 to 23 radii, over 1-d, 2-d and 3-d members
  and both named weights.

The golden cases are read from this tool's own checkout.  The report gives:
- schema differences: emitted files, keys, columns, fields, column lengths;
- categorical differences, exactly: exit codes, status, stop_reason, steps,
  rejected, verdict and every other value that is not a number;
- the largest relative difference of each numeric column, and how many of
  its values differ in their bits;
- a random scan's ``beta`` against ``BETA_BOUND`` (1e-14 absolute) instead
  of exactly: on a decade window of more than seven radii, the slope of one
  direction may depend in its last bits on the other directions of its scan,
  because one least-squares solve takes them all as columns.  Its
  ``theta_min`` and verdict are compared exactly;
- for every lift that completes, the distance of each endpoint to
  ``scipy.integrate.solve_ivp(method="DOP853", rtol=1e-13, atol=1e-15)``
  on the same rhs, relative to max(1, |ref|) and in units of the lift's
  rtol.  A change endpoint farther than the parent's plus ``BOUND`` rtol
  (1e-3, the gate a bit-changing regeneration must pass) breaks the bound.
  A lift along a polyline takes steps across its knots that the error
  estimate does not see, so any last-bit change can flip its step counts
  and move it by up to hundreds of rtol.  The parent therefore also lifts
  each polyline case at the SPREAD_ULPS floats above and below its rtol;
  the case breaks the bound only when its change exceeds max(BOUND, the
  largest move of the parent's distance over those nudges), and a step
  count that differs is marked when the parent takes the same count at
  one of them.  It still counts as a categorical difference;
- for every 1-d lift that escapes at the escape norm, the distance of its
  ``t_escape`` to the time at which |c| reaches that norm under the same
  DOP853 with ``rtol=1e-13``, in units of the lift's rtol, for the parent
  and the change side by side.  It is reported, not bounded: the
  escape-norm verdict itself is compared exactly.

The exit status is 0 when the report finds no difference and no broken
bound, 1 otherwise.  It is a developer script: it runs no test and
changes no file in either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
# Compared exactly, whatever their type.
CATEGORICAL = {"exit", "status", "stop_reason", "steps", "rejected", "verdict"}
# Allowed growth of a complete endpoint's DOP853 distance, in units of its rtol.
BOUND = 1e-3
# A polyline case's spread is measured at the parent with rtol moved by 1 to this many ulps.
SPREAD_ULPS = 8
# Allowed absolute move of a random caller-grid scan's decade slope, beta.
BETA_BOUND = 1e-14
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


# ---------------------------------------------------------------- the worker

def _flatten(key: str, value, rec: dict) -> None:
    """Put value in rec as ("num", [floats]) or ("cat", value), nested keys joined by '.'."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{key}.{k}" if key else str(k), v, rec)
        return
    flat = _numbers(value)
    if flat is None or key.rsplit(".", 1)[-1] in CATEGORICAL:
        rec[key] = ("cat", value)
    else:
        rec[key] = ("num", flat)


def _numbers(value) -> list[float] | None:
    """value as a flat list of floats, or None if any leaf is not a number."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            sub = _numbers(v)
            if sub is None:
                return None
            out += sub
        return out
    return None


def _text(key: str, text: str, rec: dict) -> None:
    """Its numbers as one numeric column, the text around them as a category."""
    numbers = [float(m) for m in _NUMBER.findall(text)]
    rec[key + ":text"] = ("cat", _NUMBER.sub("#", text))
    rec[key + ":numbers"] = ("num", numbers)


def _emitted(out: Path, rec: dict) -> None:
    files = sorted(out.iterdir()) if out.exists() else []
    rec["files"] = ("cat", [f.name for f in files])
    for f in files:
        if f.suffix == ".json":
            _flatten(f.name, json.loads(f.read_text(encoding="utf-8")), rec)
        elif f.suffix == ".csv":
            rows = list(csv.reader(io.StringIO(f.read_text(encoding="utf-8"))))
            header, body = rows[0], rows[1:]
            rec[f.name + ":header"] = ("cat", header)
            for j, name in enumerate(header):
                column = [row[j] for row in body]
                try:
                    values = [float(x) for x in column]
                except ValueError:
                    values = None
                kind = "cat" if values is None or name in CATEGORICAL else "num"
                rec[f"{f.name}:{name}"] = (kind, column if kind == "cat" else values)
        else:
            _text(f.name, f.read_text(encoding="utf-8"), rec)


def _fields(result) -> dict:
    """Every field of a dataclass result, flattened."""
    import dataclasses

    rec: dict = {}
    for f in dataclasses.fields(result):
        _flatten(f.name, getattr(result, f.name), rec)
    return rec


def _dop853(conn, path, v0, events=None):
    """The lift by DOP853 at rtol 1e-13 on c' = -Gamma(gamma(t), c) gamma'(t)."""
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return -(conn.row(np.asarray(path.position(t), dtype=float), y) @ path.velocity(t))

    return solve_ivp(rhs, (0.0, 1.0), np.asarray(v0, dtype=float), method="DOP853",
                     rtol=1e-13, atol=1e-15, events=events)


def _reference(conn, path, v0) -> list[float]:
    """The lift's endpoint by DOP853 at rtol 1e-13."""
    return _dop853(conn, path, v0).y[:, -1].tolist()


def _escape_reference(conn, path, v0, escape_norm: float) -> float | None:
    """The time at which the 1-d lift's |c| reaches escape_norm by DOP853 at rtol 1e-13,
    located as a terminal event; None if it does not before t = 1."""
    def reach(t, y):
        return abs(y[0]) - escape_norm

    reach.terminal = True
    times = _dop853(conn, path, v0, reach).t_events[0]
    return float(times[0]) if times.size else None


def _worker(checkout: str, plan_file: str, out_file: str, reference: bool, spread: bool) -> None:
    import numpy as np

    import pathlift
    from pathlift.cli import main
    from pathlift.connections import ConnectionSpec, gallery
    from pathlift.integrate import IntegratorOptions
    from pathlift.lifting import horizontal_lifts
    from pathlift.uvb import fiber_scan, fiber_weight

    sys.path.append(str(TESTS))
    import test_golden as golden

    source = str(Path(pathlift.__file__).resolve())
    if not source.startswith(str(Path(checkout, "src").resolve())):
        raise SystemExit(f"numdiff: imported pathlift from {source}, not from {checkout}")
    plan = json.loads(Path(plan_file).read_text())
    cases: dict[str, dict] = {}

    def lift(group, name, conn, path, seeds, opts, rtol, polyline=False):
        lifts = horizontal_lifts(conn, path, seeds, opts)
        # The parent's polyline lifts at rtol nudged by 1 to SPREAD_ULPS ulps each way.
        rtols, up, down = [], rtol, rtol
        for _ in range(SPREAD_ULPS if polyline and spread else 0):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            rtols += [up, down]
        nudged = [horizontal_lifts(conn, path, seeds, IntegratorOptions(rtol=r)) for r in rtols]
        for j, (v, traj) in enumerate(zip(seeds, lifts)):
            extra = {"group": group, "rtol": rtol}
            if reference and traj.complete:
                extra["ref"] = _reference(conn, path, v)
            if reference and traj.stop_reason == "escape-norm" and conn.dimension == 1:
                extra["t_ref"] = _escape_reference(conn, path, v, (opts or IntegratorOptions())
                                                   .escape_norm)
            if nudged:
                extra["nudged_ends"] = [n[j].fiber[-1].tolist() for n in nudged if n[j].complete]
                extra["nudged_counts"] = [[n[j].steps, n[j].rejected] for n in nudged]
            cases[name if len(seeds) == 1 else f"{name} #{j}"] = {
                "fields": _fields(traj), **extra, "complete": traj.complete,
                "end": traj.fiber[-1].tolist()}

    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        for i, (argv, _) in enumerate(golden.GOLDEN):
            out = Path(tmp, f"cli{i}")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv + (["--out", str(out)] if argv[0] != "gallery" else []))
            rec = {"exit": ("cat", code)}
            _text("stdout", stdout.getvalue(), rec)
            _emitted(out, rec)
            cases["pathlift " + " ".join(argv)] = {"fields": rec, "group": "cli " + argv[0]}
        for spec, point, _ in golden.GOLDEN_SCANS:
            cases[f"scan {spec.name} {point}"] = {
                "fields": _fields(fiber_scan(gallery(spec), point)), "group": "golden scans"}
        rtol = IntegratorOptions().rtol
        for spec, path, seed, *_ in golden.GOLDEN_LIFTS:
            lift("golden lifts", f"lift {spec.name} {spec.params} {path[0]} {seed}",
                 gallery(spec), golden._path(path), [seed], None, rtol, path[0] == "polyline")
        for spec, path, seeds, *_ in golden.GOLDEN_BATCHES:
            lift("golden batches", f"batch {spec.name} {path[0]} {seeds}",
                 gallery(spec), golden._path(path), seeds, None, rtol, path[0] == "polyline")
        for prefix, plan_cases in (("random", plan["random"]), ("random n-d", plan["random_nd"])):
            for i, case in enumerate(plan_cases):
                conn = gallery(ConnectionSpec(case["member"], case["params"]))
                kind = case["path"][0]
                group = (f"random 1-d {kind} lifts" if prefix == "random"
                         else f"random {case['member']} {kind} lifts")
                lift(group, f"{prefix} {i}", conn, golden._path(case["path"]), [case["seed"]],
                     IntegratorOptions(rtol=case["rtol"]), case["rtol"], kind == "polyline")
        for i, case in enumerate(plan["random_scans"]):
            conn = gallery(ConnectionSpec(case["member"], case["params"]))
            report = fiber_scan(conn, case["point"], case["directions"], case["radii"],
                                fiber_weight(case["weight"]))
            cases[f"random scan {i}"] = {"fields": _fields(report), "caller_grid": True,
                                         "group": f"random {conn.dimension}-d scans"}
    Path(out_file).write_text(json.dumps({"pathlift": source, "cases": cases}))


# ------------------------------------------------------------ the comparison

def _random_plan(count: int, seed: int) -> list[dict]:
    import random

    rng = random.Random(seed)
    members = [("fig1", {}), ("power-growth", {"alpha": 0.5}), ("power-growth", {"alpha": 1.5}),
               ("power-growth", {"alpha": 2.0}), ("power-growth", {"alpha": 3.0}),
               ("scalar-linear", None)]
    plan = []
    for _ in range(count):
        name, params = rng.choice(members)
        if params is None:
            params = {"lambda": round(rng.uniform(-3.0, 3.0), 3)}
        a, b = (round(rng.uniform(-1.5, 1.5), 3) for _ in range(2))
        if rng.random() < 0.2:
            mid = round(rng.uniform(-1.5, 1.5), 3)
            path = ["polyline", [[a], [mid], [b]], [0.0, round(rng.uniform(0.2, 0.8), 3), 1.0]]
        else:
            path = ["segment", [a], [b]]
        plan.append({"member": name, "params": params, "path": path,
                     "seed": [round(rng.uniform(-3.0, 3.0), 4)],
                     "rtol": 10.0 ** -rng.randint(6, 11)})
    return plan


def _random_christoffel(rng, n: int) -> dict:
    """Parameters of a christoffel member of dimension n with four random terms."""
    return {"dimension": n, "terms": [
        {"k": rng.randrange(n), "i": rng.randrange(n), "j": rng.randrange(n),
         "coeff": round(rng.uniform(-1.0, 1.0), 3),
         "monomial": [rng.randrange(3) for _ in range(n)]} for _ in range(4)]}


def _random_nd_plan(count: int, seed: int) -> list[dict]:
    import random

    rng = random.Random(f"{seed} n-d")

    def point(n: int, r: float) -> list[float]:
        return [round(rng.uniform(-r, r), 3) for _ in range(n)]

    kinds = [("sphere-stereographic", "segment"), ("sphere-stereographic", "circle"),
             ("sphere-stereographic", "polyline"), ("flat", "segment"), ("christoffel", "segment"),
             ("christoffel", "segment")]
    plan = []
    for i in range(count):
        member, kind = kinds[i % len(kinds)]
        n, params = 2, {}
        if member == "flat":
            params = {"dimension": 2}
        elif member == "christoffel":
            n = 2 + i // len(kinds) % 2
            params = _random_christoffel(rng, n)
        if kind == "circle":
            path = ["circle", point(2, 0.5), round(rng.uniform(0.2, 1.0), 3)]
        elif kind == "polyline":
            path = ["polyline", [point(2, 1.0) for _ in range(3)],
                    [0.0, round(rng.uniform(0.2, 0.8), 3), 1.0]]
        else:
            path = ["segment", point(n, 1.0), point(n, 1.0)]
        plan.append({"member": member, "params": params, "path": path,
                     "seed": point(n, 3.0 if member != "christoffel" else 1.0),
                     "rtol": 10.0 ** -rng.randint(6, 11)})
    return plan


def _random_scan_plan(count: int, seed: int) -> list[dict]:
    import itertools
    import random

    rng = random.Random(f"{seed} scans")
    members = {1: ["fig1", "power-growth", "scalar-linear", "christoffel"],
               2: ["sphere-stereographic", "flat", "christoffel"], 3: ["flat", "christoffel"]}
    plan = []
    for i in range(count):
        n = 1 + i % 3
        member, params = rng.choice(members[n]), {}
        if member == "power-growth":
            params = {"alpha": round(rng.uniform(0.0, 3.0), 3)}
        elif member == "scalar-linear":
            params = {"lambda": round(rng.uniform(-3.0, 3.0), 3)}
        elif member == "flat":
            params = {"dimension": n}
        elif member == "christoffel":
            params = _random_christoffel(rng, n)
        directions, m = [], rng.randint(1, 4)
        while len(directions) < m:
            raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
            norm = math.hypot(*raw)
            if norm > 0.1:
                directions.append([x / norm for x in raw])
        steps = [rng.uniform(0.01, 10.0)] + [rng.uniform(0.01, 1e3)
                                             for _ in range(rng.randint(1, 22))]
        plan.append({"member": member, "params": params,
                     "point": [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n)],
                     "directions": directions, "radii": list(itertools.accumulate(steps)),
                     "weight": rng.choice(["normalized", "euclidean"])})
    return plan


def _run(checkout: Path, plan_file: Path, out_file: Path, reference: bool, tmp: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    # The change run computes the DOP853 references, the parent run the polyline spreads.
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
           str(plan_file), str(out_file), "--reference" if reference else "--spread"]
    if subprocess.run(cmd, env=env, cwd=tmp).returncode:
        sys.exit(f"numdiff: the cases failed to run in {checkout}")
    return json.loads(out_file.read_text())


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _rel(a: float, b: float) -> float:
    if a == b or _same(a, b):  # equal, or zeros of opposite sign
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _dist(end: list[float], ref: list[float]) -> float:
    gap = math.hypot(*(x - r for x, r in zip(end, ref)))
    return gap / max(1.0, math.hypot(*ref))


def compare(parent: dict, change: dict) -> tuple[list[str], int]:
    """The report's lines and its count of differences and broken bounds."""
    lines, problems = [], 0
    pc, cc = parent["cases"], change["cases"]
    schema = [f"case only in {side}: {name}" for side, a, b in
              (("parent", pc, cc), ("change", cc, pc)) for name in a if name not in b]
    categorical, columns = [], {}  # (group, column) -> [max rel diff, values differing, values]
    slopes = [0, 0, 0.0, 0]  # random scans' beta: values, values differing, max abs diff, over
    moved: dict[str, set] = {}
    groups: dict[str, int] = {}  # group -> cases
    for name in (n for n in cc if n in pc):
        group = cc[name]["group"]
        groups[group] = groups.get(group, 0) + 1
        pf, cf = pc[name]["fields"], cc[name]["fields"]
        for key in sorted(set(pf) | set(cf)):
            if key not in pf or key not in cf:
                schema.append(f"{name}: {key} only in {'change' if key in cf else 'parent'}")
                continue
            (pk, pv), (ck, cv) = pf[key], cf[key]
            if pk != ck or (pk == "num" and len(pv) != len(cv)):
                schema.append(f"{name}: {key} is {pk}[{_len(pv)}] in parent, "
                              f"{ck}[{_len(cv)}] in change")
            elif pk == "cat":
                if pv != cv:
                    seen = key in ("steps", "rejected") and (
                        [cf["steps"][1], cf["rejected"][1]] in pc[name].get("nudged_counts", ()))
                    categorical.append(f"{name}: {key}: {_short(pv)} -> {_short(cv)}" + (
                        f" (the parent's steps and rejections within {SPREAD_ULPS} ulps of rtol)"
                        if seen else ""))
            elif key == "beta" and cc[name].get("caller_grid"):
                gaps = [abs(a - b) for a, b in zip(pv, cv) if not _same(a, b)]
                slopes[0] += len(pv)
                slopes[1] += len(gaps)
                slopes[2] = max([slopes[2]] + gaps)
                slopes[3] += sum(not gap <= BETA_BOUND for gap in gaps)  # a NaN gap is over
                if gaps:
                    moved.setdefault(group, set()).add(name)
            else:
                col = columns.setdefault((group, key), [0.0, 0, 0])
                col[2] += len(pv)
                differ = [(a, b) for a, b in zip(pv, cv) if not _same(a, b)]
                if differ:
                    col[0] = max([col[0]] + [_rel(a, b) for a, b in differ])
                    col[1] += len(differ)
                    moved.setdefault(group, set()).add(name)
    lines.append(f"schema differences: {len(schema)}")
    lines += ["  " + s for s in schema]
    lines.append(f"categorical differences: {len(categorical)}")
    lines += ["  " + s for s in categorical]
    differing = {k: v for k, v in columns.items() if v[1]}
    lines.append(f"numeric columns that differ: {len(differing)} of {len(columns)}")
    for group, count in groups.items():
        lines.append(f"  {group}: {len(moved.get(group, ()))} of {count} cases moved")
        for (g, key), (worst, ndiff, nval) in sorted(differing.items()):
            if g == group:
                lines.append(f"    {key:<32} max rel {worst:.3g}, {ndiff} of {nval} values differ")
    problems += len(schema) + len(categorical) + sum(v[1] for v in differing.values())
    lines.append(f"random scans' beta, bound {BETA_BOUND:g} absolute: {slopes[1]} of {slopes[0]} "
                 f"values differ, max abs {slopes[2]:.3g}; over the bound: {slopes[3]}")

    # Distance of each complete endpoint to the DOP853 reference, in rtol, and
    # a polyline's spread over the parent's nudged rtols (0 for other lifts).
    rows = []
    for name in (n for n in cc if n in pc):
        p, c = pc[name], cc[name]
        if c.get("ref") is not None and p.get("complete") and c["complete"]:
            rtol, ref = c["rtol"], c["ref"]
            parent = _dist(p["end"], ref) / rtol
            spread = max([abs(_dist(e, ref) / rtol - parent) for e in p.get("nudged_ends", [])],
                         default=0.0)
            rows.append((c["group"], name, parent, _dist(c["end"], ref) / rtol, spread))
    lines.append("DOP853 reference (rtol=1e-13, atol=1e-15), distance / max(1, |ref|) in units "
                 f"of the lift's rtol; bound: change <= parent + {BOUND:g}, or for a polyline "
                 f"parent + max(bound, the parent's spread when rtol moves by up to "
                 f"{SPREAD_ULPS} ulps)")
    broken = slopes[3]
    for group in groups:
        g = [r for r in rows if r[0] == group]
        if not g:
            continue
        farther = sum(r[3] > r[2] for r in g)
        nearer = sum(r[3] < r[2] for r in g)
        over = [r for r in g if r[3] > r[2] + max(BOUND, r[4])]
        spread = [r for r in g if r[2] + BOUND < r[3] <= r[2] + r[4]]
        broken += len(over)
        worst = max(r[3] - r[2] for r in g)
        lines.append(f"  {group}: {len(g)} complete; parent max {max(r[2] for r in g):.3g}, "
                     f"change max {max(r[3] for r in g):.3g}; farther in {farther}, nearer in "
                     f"{nearer}; worst change - parent {worst:.3g}; over the bound: {len(over)}"
                     + (f"; within the parent's spread: {len(spread)}" if spread else ""))
        lines += [f"    over the bound: {r[1]}: {r[2]:.3g} -> {r[3]:.3g} (spread {r[4]:.3g})"
                  for r in over]
        lines += [f"    within the parent's spread: {r[1]}: {r[2]:.3g} -> {r[3]:.3g} "
                  f"(spread {r[4]:.3g})" for r in spread]
    lines += _escape_lines(pc, cc)
    lines.append(f"differences: {problems}; broken bounds: {broken}")
    return lines, problems + broken


def _escape_lines(pc: dict, cc: dict) -> list[str]:
    """The 1-d escapes at the escape norm in both checkouts: |t_escape - t_ref| in rtol."""
    rows = []
    for name in (n for n in cc if n in pc):
        p, c = pc[name], cc[name]
        t_ref, pe, ce = c.get("t_ref"), p["fields"].get("t_escape"), c["fields"].get("t_escape")
        if t_ref is None or not (pe and ce and pe[0] == ce[0] == "num"):
            continue
        rows.append((c["group"], name, abs(pe[1][0] - t_ref) / c["rtol"],
                     abs(ce[1][0] - t_ref) / c["rtol"]))
    lines = [f"escape times against DOP853 (rtol=1e-13) reaching the escape norm, "
             f"|t_escape - t_ref| in units of the lift's rtol: {len(rows)} 1-d escapes"]
    for group in dict.fromkeys(r[0] for r in rows):
        g = [r for r in rows if r[0] == group]
        lines.append(f"  {group}: {len(g)} escaped; parent max {max(r[2] for r in g):.3g}, "
                     f"change max {max(r[3] for r in g):.3g}; farther in "
                     f"{sum(r[3] > r[2] for r in g)}, nearer in {sum(r[3] < r[2] for r in g)}")
    return lines


def _len(v) -> int:
    return len(v) if isinstance(v, list) else 1


def _short(v) -> str:
    s = repr(v)
    return s if len(s) <= 60 else s[:57] + "..."


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout whose results are the baseline")
    ap.add_argument("change", type=Path, help="checkout whose results are compared with it")
    ap.add_argument("--random", type=int, default=120,
                    help="random 1-d lifts, and half as many n-d lifts and scans (default 120)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the random cases (default 0)")
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "pathlift").is_dir():
            ap.error(f"{checkout} has no src/pathlift")
    with tempfile.TemporaryDirectory() as tmp:
        plan_file = Path(tmp, "plan.json")
        plan_file.write_text(json.dumps({
            "random": _random_plan(args.random, args.seed),
            "random_nd": _random_nd_plan(args.random // 2, args.seed),
            "random_scans": _random_scan_plan(args.random // 2, args.seed)}))
        parent = _run(args.parent.resolve(), plan_file, Path(tmp, "parent.json"), False, tmp)
        change = _run(args.change.resolve(), plan_file, Path(tmp, "change.json"), True, tmp)
    lines, problems = compare(parent, change)
    print(f"numdiff: parent {parent['pathlift']}\n         change {change['pathlift']}")
    print(f"cases: {len(change['cases'])} ({args.random} random 1-d and {args.random // 2} "
          f"n-d lifts, {args.random // 2} random scans, seed {args.seed})")
    print("\n".join(lines))
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5], reference="--reference" in sys.argv[5:],
                spread="--spread" in sys.argv[5:])
    else:
        sys.exit(main())
