#!/usr/bin/env python3
"""pathlift benchmark: seeded workloads through the public API, checked by oracles.

    python3 bench/run.py --workload blowup-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/pathlift`. The load is a
closed loop: one caller, each op starting when the previous one returned.
Ops run in interleaved rounds (every op once per round, in order) until
`--seconds` have passed. An op's latency is the median over rounds of its
wall time scaled to a reference machine speed, measured by a short
pathlift-free kernel timed around every op (see REF_KERNEL_MS).

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms,
setup_s (median of fresh processes that import, build and warm up) and
peak_rss_mb. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of `spans.py`. The last stdout line is one JSON object;
the exit code is 1 when any op fails (raises, exits with an unexpected
code, misses its oracle or changes its output on a rerun). Details of each
run go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# workloads.WORKLOADS, repeated so that nothing is imported before a set-up
# probe starts its clock.
WORKLOADS = ("blowup-1d", "transport-nd", "uvb-gallery", "cli-emit")
SETUP_PROBES = 11
SETUP_REF_SAMPLES = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10   # op_tail_ms is the highest percentile with this many samples above it
PROBE_TIMEOUT_S = 60
# Timings are reported at a reference speed: the speed at which the
# reference kernel (harness.calibrate()) takes this many ms.
# Each op's wall time is scaled by REF_KERNEL_MS over the kernel's time
# measured around it, so the host drifting between a fast and a slow state
# (pathlift's ops 1.6-1.7x slower) moves the raw times and hardly the metrics.
REF_KERNEL_MS = 1.0
# One BLAS thread: the load is a single closed-loop caller.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def prepare() -> None:
    """Point imports at the checkout's source; refuse to run without it."""
    if not (SRC / "pathlift" / "__init__.py").is_file():
        sys.exit(f"error: no pathlift source at {SRC}; run from a full checkout")
    os.environ.update(BLAS_ENV)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def probe_setup(workload: str, seed: int) -> None:
    """Child-process body: import, build the workload's ops, and run its first op.

    The reference kernel is timed right after, in the same process, to give
    the machine's speed at the moment of the set-up.
    """
    t0 = time.perf_counter()
    import harness
    import workloads

    ops = harness.build_ops(workload, seed, workloads.Plain, OUT / f"probe-{workload}")
    harness.run_round(ops[:1])
    wall = time.perf_counter() - t0
    ref = statistics.median(harness.calibrate() for _ in range(SETUP_REF_SAMPLES))
    print(json.dumps({"setup_s": wall, "ref_ms": ref}))


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh process: (wall seconds, seconds at the reference speed)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, env={**os.environ, **BLAS_ENV},
        timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * REF_KERNEL_MS / probe["ref_ms"]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    return ordered[k], 100.0 * (k + 1) / n


class Fingerprints:
    """First-run results and their digests; counts later runs that differ."""

    def __init__(self, harness):
        self.harness = harness
        self.first = None
        self.errors = None
        self.digests = None
        self.bad = None

    def add(self, results, errors) -> None:
        digests = [self.harness.digest(r) for r in results]
        if self.first is None:
            self.first, self.errors, self.digests = results, errors, digests
            self.bad = [0] * len(results)
            return
        for i, (d, err) in enumerate(zip(digests, errors)):
            if err is not None or d != self.digests[i]:
                self.bad[i] += 1


def failures(problems: list, fingerprints: Fingerprints, runs: int) -> int:
    """Failed executions: every run of an op that misses its oracle, else each differing run."""
    return sum(runs if p else bad for p, bad in zip(problems, fingerprints.bad))


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import harness
    import workloads

    ops = harness.build_ops(workload, seed, workloads.Plain, OUT / f"run-{workload}")
    harness.warm_up(ops)
    gc.collect()
    gc.freeze()
    n = len(ops)
    wall, scaled = [[] for _ in range(n)], [[] for _ in range(n)]
    rounds, ref_ms, setup = 0, [], []
    prints = Fingerprints(harness)
    measured = 0.0
    while rounds < MIN_ROUNDS or measured < seconds:
        t0 = time.perf_counter()
        ref = []
        lat, results, errors = harness.run_round(ops, ref=ref)
        for i, (x, r) in enumerate(zip(lat, ref)):
            wall[i].append(x)
            scaled[i].append(x * REF_KERNEL_MS / r)
        ref_ms += ref
        rounds += 1
        prints.add(results, errors)
        measured += time.perf_counter() - t0
        # Set-up probes are spread between rounds, so they sample the
        # machine's speed over the whole run rather than one moment of it.
        if len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(workload, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(workload, seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before scipy loads
    problems = harness.check(ops, prints.first, prints.errors)

    # An op's latency is the median over rounds of its scaled wall time.
    op_ms = [statistics.median(xs) * 1e3 for xs in scaled]
    tail_ms, tail_pct = tail(op_ms)
    setup_scaled = [s for _, s in setup]
    metrics = {
        # One closed-loop caller: throughput is the reciprocal of the mean latency.
        "ops_per_s": (n * 1e3 / sum(op_ms), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall_ms = [statistics.median(xs) * 1e3 for xs in wall]
    best_ms = [min(xs) * 1e3 for xs in wall]
    attempted = n * rounds
    failed = failures(problems, prints, rounds)
    detail = {
        "attempted": attempted,
        "failed": failed,
        "ops": n,
        "rounds": rounds,
        "measured_s": measured,
        "tail_percentile": tail_pct,
        "tail_samples": n,
        "reference_kernel_ms": REF_KERNEL_MS,
        "setup_runs_s": [{"wall": w, "scaled": x} for w, x in setup],
        "calib_ms": ref_ms,
        "statuses": _statuses(prints.first),
        "per_op": [
            {"kind": op.kind, "label": op.label, "ms": m, "wall_median_ms": w,
             "wall_best_ms": b, "problem": p}
            for op, m, w, b, p in zip(ops, op_ms, wall_ms, best_ms, problems)
        ],
    }
    calib_q = statistics.quantiles(ref_ms, n=10)
    lines = [
        f"{workload} seed {seed}: {n} ops x {rounds} rounds in {measured:.1f} s, "
        f"latency = median round per op, scaled to the reference speed",
        f"  unscaled wall time: ops_per_s {n * 1e3 / sum(wall_ms):.6g} (best rounds "
        f"{n * 1e3 / sum(best_ms):.6g}), op_p50_ms {statistics.median(wall_ms):.6g}, "
        f"setup_s {statistics.median(w for w, _ in setup):.6g}",
        f"  op_tail_ms is p{tail_pct:.1f} of {n} per-op samples ({TAIL_BEYOND} beyond it)",
        f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} executions)",
        f"  setup_s median of {len(setup)} fresh processes: "
        + " ".join(f"{x:.3f}" for x in setup_scaled),
        f"  calib_ms (reference kernel, around every op; {REF_KERNEL_MS} at the reference "
        f"speed): p10 {calib_q[0]:.3f} median {statistics.median(ref_ms):.3f} "
        f"p90 {calib_q[-1]:.3f}",
        f"  lift statuses: {detail['statuses'] or 'none'}",
    ]
    lines += [f"  FAIL op {i} {ops[i].kind} [{ops[i].label}]: {p}"
              for i, p in enumerate(problems) if p]
    return _result(metrics, attempted, failed, lines), detail


def _statuses(results) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results:
        status = getattr(r, "status", None)
        if isinstance(status, str):
            counts[status] = counts.get(status, 0) + 1
    return counts


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import harness
    import spans
    import workloads

    ops = harness.build_ops(workload, seed, workloads.Plain, OUT / f"run-{workload}")
    tracer = spans.Tracer()
    traced_ops = harness.build_ops(workload, seed, tracer, OUT / f"trace-{workload}")
    harness.warm_up(ops)
    gc.collect()
    gc.freeze()
    n = len(ops)
    plain_s, traced_s, layer_runs = [], [], []
    prints = Fingerprints(harness)
    traced_bad = [0] * n
    t0 = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - t0 < seconds:
        lat, results, errors = harness.run_round(ops)
        plain_s.append(sum(lat))
        prints.add(results, errors)
        tracer.reset()
        tracer.install()
        try:
            lat, results, errors = harness.run_round(traced_ops, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(lat))
        layer_runs.append(tracer.layer_metrics(n))
        # Tracing must not change a single result bit.
        for i, r in enumerate(results):
            if errors[i] is not None or harness.digest(r) != prints.digests[i]:
                traced_bad[i] += 1
    per_op = [{"kind": op.kind, "label": op.label, **tracer.op_summary(i)}
              for i, op in enumerate(ops)]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")

    anchor_ops = [workloads.make_op(s, tracer, OUT / "anchor") for s in workloads.anchor_specs(workload)]
    tracer.reset()
    tracer.install()
    try:
        _, anchor_results, anchor_errors = harness.run_round(anchor_ops, tracer)
    finally:
        tracer.uninstall()
    anchors = [{"kind": op.kind, "label": op.label, **tracer.op_summary(i)}
               for i, op in enumerate(anchor_ops)]

    problems = harness.check(ops, prints.first, prints.errors)
    anchor_problems = harness.check(anchor_ops, anchor_results, anchor_errors)
    passes = len(traced_s)
    unstable = [name for name in spans.COUNT_METRICS
                if len({run[name] for run in layer_runs}) != 1]
    metrics = {}
    for name, unit, _ in spans.LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = min(traced_s) / min(plain_s) - 1.0
        elif name in spans.COUNT_METRICS:
            value = layer_runs[0][name]
        else:
            value = statistics.median(run[name] for run in layer_runs)
        metrics[name] = (value, unit)
    attempted = 2 * n * passes + len(anchor_ops)
    failed = (failures(problems, prints, 2 * passes) + sum(traced_bad)
              + sum(1 for p in anchor_problems if p))
    if unstable:
        failed += 1
    detail = {"attempted": attempted, "failed": failed, "passes": passes,
              "plain_pass_s": plain_s, "traced_pass_s": traced_s, "unstable_counts": unstable,
              "per_op": per_op, "anchors": anchors, "layer_runs": layer_runs}
    lines = [f"{workload} seed {seed}: {n} ops, {passes} untraced + {passes} traced passes; "
             f"overhead {metrics['trace.overhead_frac'][0]:.3f}"]
    lines += [f"  op {i} {row['kind']} [{row['label']}]: {row['lifts']} lifts, "
              f"{row['steps']} steps, {row['rejected']} rejected"
              for i, row in enumerate(per_op[:3] if workload == "blowup-1d" else [])]
    lines += [f"  anchor {a['kind']} [{a['label']}] 101-point grid: {a['lifts']} lifts, "
              f"{a['steps']} steps" for a in anchors]
    lines += [f"  FAIL op {i} {ops[i].kind} [{ops[i].label}]: {p}"
              for i, p in enumerate(problems) if p]
    lines += [f"  FAIL traced op {i} differs from the untraced result"
              for i, bad in enumerate(traced_bad) if bad]
    lines += [f"  FAIL anchor {a.kind}: {p}" for a, p in zip(anchor_ops, anchor_problems) if p]
    if unstable:
        lines.append(f"  FAIL counts differ between traced passes: {unstable}")
    return _result(metrics, attempted, failed, lines), detail


def _result(metrics: dict, attempted: int, failed: int, lines: list[str]) -> dict:
    return {
        "lines": lines,
        "json": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    run = trace if args.trace else measure
    result, detail = run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "numpy": sys.modules["numpy"].__version__, **result["json"], "detail": detail}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for name, m in result["json"]["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["json"]))
    return 0 if result["json"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
