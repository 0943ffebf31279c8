#!/usr/bin/env python3
"""Self-check of the pathlift benchmark.

    python3 bench/selfcheck.py [--workload NAME] [--seed N]

For each workload it checks that:
  * the same seed gives the same inputs and another seed gives different ones;
  * two traced passes over the seed's ops, each with ops and tracer built
    afresh, give exactly the same per-layer counts (integrate.steps,
    connections.gamma_calls, lifting.lifts_per_op, uvb.angle_calls, ...),
    and every op meets its oracle;
and that the scipy oracle of the blow-up workload matches the closed forms
it has for alpha = 2 and 3. It prints the fig1 baseline counts. The exit
code is 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys

import run


def traced_counts(workload: str, seed: int, anchors: bool = False) -> tuple[dict, list, list]:
    """Per-layer counts of one traced pass, per-op summaries, and oracle problems."""
    import harness
    import spans
    import workloads

    tracer = spans.Tracer()
    if anchors:
        ops = [workloads.make_op(s, tracer, run.OUT / "selfcheck-anchor")
               for s in workloads.anchor_specs(workload)]
    else:
        ops = harness.build_ops(workload, seed, tracer, run.OUT / f"selfcheck-{workload}")
    tracer.install()
    try:
        _, results, errors = harness.run_round(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(len(ops))
    summaries = [{"label": op.label, **tracer.op_summary(i)} for i, op in enumerate(ops)]
    return ({k: metrics[k] for k in spans.COUNT_METRICS}, summaries,
            [p for p in harness.check(ops, results, errors) if p])


def check_oracle() -> list[str]:
    import workloads

    problems = []
    for v in (-3.0, -0.5, 0.0, 0.3, 0.9, 2.0, 7.5, 1e4):
        closed = {2.0: math.pi / 2 - math.atan(v), 3.0: 1.0 - v / math.sqrt(1.0 + v * v)}
        for alpha, want in closed.items():
            got = workloads._tail(alpha, v)
            if abs(got - want) > 1e-10 * max(1.0, want):
                problems.append(f"tail integral alpha={alpha} v={v}: {got!r} vs {want!r}")
    if abs(workloads._threshold(2.0) - workloads.COT1) > 1e-7:
        problems.append(f"fig1 threshold {workloads._threshold(2.0)!r} is not cot(1)")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run.prepare()
    import workloads

    problems = check_oracle()
    for workload in args.workload or run.WORKLOADS:
        specs = workloads.make_specs(workload, args.seed)
        if specs != workloads.make_specs(workload, args.seed):
            problems.append(f"{workload}: seed {args.seed} gives different inputs twice")
        if specs == workloads.make_specs(workload, args.seed + 1):
            problems.append(f"{workload}: seeds {args.seed} and {args.seed + 1} give the same inputs")
        first, summaries, wrong = traced_counts(workload, args.seed)
        second, _, _ = traced_counts(workload, args.seed)
        problems += [f"{workload}: {p}" for p in wrong]
        differ = sorted(k for k in first if first[k] != second[k])
        if differ:
            problems.append(f"{workload}: counts differ between two runs: {differ}")
        print(f"{workload} seed {args.seed}: {len(specs)} ops; "
              + ", ".join(f"{k}={first[k]:g}" for k in (
                  "integrate.steps", "connections.gamma_calls", "lifting.lifts_per_op",
                  "uvb.angle_calls", "emit.bytes")))
        if workload == "blowup-1d":
            for row in summaries[:3]:
                print(f"  {row['label']}: {row['steps']} steps, {row['rejected']} rejected")
            _, anchor_rows, wrong = traced_counts(workload, args.seed, anchors=True)
            problems += [f"{workload} anchor: {p}" for p in wrong]
            for row in anchor_rows:
                print(f"  {row['label']} on the 101-point grid: {row['lifts']} lifts")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
