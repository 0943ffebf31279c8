"""Span recorder for the traced benchmark run, wrapped around pathlift from outside.

Every wrapped callable records a span (name, start, end, parent, op) in
flat in-memory arrays. Self time is a span's duration minus the time its
direct children cover, so each layer's number excludes the layers it calls.
Wrappers are bound only while `install()` is active; the library source is
not touched.

Boundaries recorded:
    connections   ConnectionField.coeff and each traced connection's gamma map
    geometry      each traced path's position/velocity, and PathCurve.sample
    integrate     integrate_adaptive (plus steps/rejected/status of its result)
    lifting       the public lift, transport and threshold functions
    uvb           fiber_scan and principal_angles
    emit          write_csv and write_json (plus the bytes written)
    cli           main
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import pathlift
from pathlift import cli
from pathlift.connections import ConnectionField
from pathlift.geometry import PathCurve
from pathlift.integrate import COMPLETE, ESCAPED, STEP_COLLAPSE

LIFTING_FUNCS = (
    "horizontal_lift",
    "parallel_transport",
    "round_trip_defect",
    "transport_jacobian",
    "holonomy",
    "completion_threshold",
)
# (layer, public function) pairs rebound in every pathlift module that holds them.
MODULE_FUNCS = (
    [("integrate", "integrate_adaptive")]
    + [("lifting", name) for name in LIFTING_FUNCS]
    + [("uvb", "fiber_scan"), ("uvb", "principal_angles")]
    + [("emit", "write_csv"), ("emit", "write_json")]
    + [("cli", "main")]
)
# Public constructors the CLI calls; rebound in pathlift.cli only, so that
# connections and paths the CLI builds are traced like the ones built here.
CLI_CONSTRUCTORS = ("gallery", "connection_from_json", "path_segment", "path_from_json")

# Per-layer metric names, units and the direction that counts as better.
LAYER_METRICS = (
    [
        ("integrate.calls", "count", "lower"),
        ("integrate.self_ms", "ms", "lower"),
        ("integrate.steps", "count", "lower"),
        ("integrate.rejected", "count", "lower"),
        ("integrate.reject_frac", "ratio", "lower"),
        ("integrate.escaped_frac", "ratio", "lower"),
        ("integrate.collapsed_frac", "ratio", "lower"),
        ("integrate.us_per_step", "us", "lower"),
    ]
    + [(f"lifting.calls.{name}", "count", "lower") for name in LIFTING_FUNCS]
    + [
        ("lifting.self_ms", "ms", "lower"),
        ("lifting.lifts_per_op", "count", "lower"),
        ("connections.coeff_calls", "count", "lower"),
        ("connections.gamma_calls", "count", "lower"),
        ("connections.coeff_self_ms", "ms", "lower"),
        ("connections.gamma_self_ms", "ms", "lower"),
        ("connections.us_per_eval", "us", "lower"),
        ("geometry.calls.position", "count", "lower"),
        ("geometry.calls.velocity", "count", "lower"),
        ("geometry.calls.sample", "count", "lower"),
        ("geometry.self_ms", "ms", "lower"),
        ("uvb.scan_calls", "count", "lower"),
        ("uvb.angle_calls", "count", "lower"),
        ("uvb.self_ms", "ms", "lower"),
        ("uvb.us_per_angle", "us", "lower"),
        ("emit.calls", "count", "lower"),
        ("emit.self_ms", "ms", "lower"),
        ("emit.bytes", "count", "lower"),
        ("cli.calls", "count", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)
# Metrics that are pure counts of work: they must repeat exactly for a seed.
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder; also the `wrap` hook that traces connections and paths."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._stack = [-1]  # shared with every wrapper, so reset() clears it in place
        self.reset()

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        self.name_ix = array("i")
        self.parent = array("i")
        self.op_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack[:] = [-1]
        self._op = -1
        self.counters: Counter = Counter()
        self.op_counters: dict[int, Counter] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n
        self.op_counters.setdefault(self._op, Counter())[key] += n

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so each call records a span; ``post(result, args)`` runs after it."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_ix.append(nid)
            self.parent.append(stack[-1])
            self.op_ix.append(self._op)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if post is not None:
                post(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, index: int, kind: str, call):
        """Run one benchmark op under a root span ``op.<kind>``."""
        self._op = index
        try:
            return self.span(f"op.{kind}", call)()
        finally:
            self._op = -1

    # -- wrap hook for connections and paths built by the benchmark --------
    def conn(self, conn: ConnectionField) -> ConnectionField:
        return dataclasses.replace(conn, gamma=self.span("connections.gamma", conn.gamma))

    def path(self, path: PathCurve) -> PathCurve:
        return dataclasses.replace(
            path,
            position=self.span("geometry.position", path.position),
            velocity=self.span("geometry.velocity", path.velocity),
        )

    # -- binding -----------------------------------------------------------
    def _post_integrate(self, res, _args) -> None:
        self.count("integrate.steps", res.steps)
        self.count("integrate.rejected", res.rejected)
        self.count(f"integrate.status.{res.status}")

    def _post_lift(self, _res, _args) -> None:
        self.count("lifts")

    def _post_emit(self, _res, args) -> None:
        self.count("emit.bytes", Path(args[0]).stat().st_size)

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Bind the span wrappers into pathlift; `uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pathlift" or name.startswith("pathlift."))]
        for layer, fname in MODULE_FUNCS:
            original = getattr(getattr(pathlift, layer), fname)
            post = {"integrate_adaptive": self._post_integrate, "horizontal_lift": self._post_lift,
                    "write_csv": self._post_emit, "write_json": self._post_emit}.get(fname)
            wrapped = self.span(f"{layer}.{fname}", original, post)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._rebind(module, fname, wrapped)
        self._rebind(ConnectionField, "coeff", self.span("connections.coeff", ConnectionField.coeff))
        self._rebind(PathCurve, "sample", self.span("geometry.sample", PathCurve.sample))
        for fname in CLI_CONSTRUCTORS:
            build = getattr(cli, fname)
            wrap = self.conn if fname in ("gallery", "connection_from_json") else self.path
            self._rebind(cli, fname, lambda *a, _b=build, _w=wrap, **k: _w(_b(*a, **k)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_ix, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_ix, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Span count and total self time (seconds) per span name."""
        a = self.arrays()
        n = a["name"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]
        k = len(self._names)
        counts = np.bincount(a["name"], minlength=k)
        selfs = np.bincount(a["name"], weights=own, minlength=k)
        return (
            {name: int(counts[i]) for i, name in enumerate(self._names)},
            {name: float(selfs[i]) for i, name in enumerate(self._names)},
        )

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        calls, selfs = self.self_times()
        c, s = calls.get, lambda name: selfs.get(name, 0.0)
        ctr = self.counters
        ms = 1e3
        m: dict[str, float] = {}

        n_int = c("integrate.integrate_adaptive", 0)
        steps, rejected = ctr["integrate.steps"], ctr["integrate.rejected"]
        int_self = s("integrate.integrate_adaptive")
        m["integrate.calls"] = n_int
        m["integrate.self_ms"] = int_self * ms
        m["integrate.steps"] = steps
        m["integrate.rejected"] = rejected
        m["integrate.reject_frac"] = _ratio(rejected, steps + rejected)
        m["integrate.escaped_frac"] = _ratio(ctr[f"integrate.status.{ESCAPED}"], n_int)
        m["integrate.collapsed_frac"] = _ratio(ctr[f"integrate.status.{STEP_COLLAPSE}"], n_int)
        m["integrate.us_per_step"] = _ratio(int_self * 1e6, steps + rejected)

        for name in LIFTING_FUNCS:
            m[f"lifting.calls.{name}"] = c(f"lifting.{name}", 0)
        m["lifting.self_ms"] = sum(s(f"lifting.{name}") for name in LIFTING_FUNCS) * ms
        m["lifting.lifts_per_op"] = _ratio(c("lifting.horizontal_lift", 0), n_ops)

        gamma_calls = c("connections.gamma", 0)
        m["connections.coeff_calls"] = c("connections.coeff", 0)
        m["connections.gamma_calls"] = gamma_calls
        m["connections.coeff_self_ms"] = s("connections.coeff") * ms
        m["connections.gamma_self_ms"] = s("connections.gamma") * ms
        m["connections.us_per_eval"] = _ratio(
            (s("connections.coeff") + s("connections.gamma")) * 1e6, gamma_calls)

        for name in ("position", "velocity", "sample"):
            m[f"geometry.calls.{name}"] = c(f"geometry.{name}", 0)
        m["geometry.self_ms"] = sum(
            s(f"geometry.{name}") for name in ("position", "velocity", "sample")) * ms

        angles = c("uvb.principal_angles", 0)
        uvb_self = s("uvb.fiber_scan") + s("uvb.principal_angles")
        m["uvb.scan_calls"] = c("uvb.fiber_scan", 0)
        m["uvb.angle_calls"] = angles
        m["uvb.self_ms"] = uvb_self * ms
        m["uvb.us_per_angle"] = _ratio(uvb_self * 1e6, angles)

        m["emit.calls"] = c("emit.write_csv", 0) + c("emit.write_json", 0)
        m["emit.self_ms"] = (s("emit.write_csv") + s("emit.write_json")) * ms
        m["emit.bytes"] = ctr["emit.bytes"]
        m["cli.calls"] = c("cli.main", 0)
        m["cli.self_ms"] = s("cli.main") * ms
        return m

    def op_summary(self, index: int) -> dict[str, int]:
        """Lifts, steps and rejected steps recorded under one op."""
        ctr = self.op_counters.get(index, Counter())
        return {"lifts": int(ctr["lifts"]), "steps": int(ctr["integrate.steps"]),
                "rejected": int(ctr["integrate.rejected"]),
                "complete": int(ctr[f"integrate.status.{COMPLETE}"])}

    def save(self, path: Path) -> None:
        """Write the recorded spans (and the name table) as an .npz file."""
        np.savez(path, names=np.array(self._names), **self.arrays())
