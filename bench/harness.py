"""Running ops in rounds, fingerprinting their results, and the reference kernel."""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import struct
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

def build_ops(workload: str, seed: int, wrap, out_root: Path) -> list[workloads.Op]:
    """The ops of one workload and seed; CLI ops write under ``out_root``."""
    shutil.rmtree(out_root, ignore_errors=True)
    specs = workloads.make_specs(workload, seed)
    return [workloads.make_op(spec, wrap, out_root / f"{i:03d}") for i, spec in enumerate(specs)]


def warm_up(ops: list[workloads.Op]) -> None:
    """Run the first op of each kind once, so lazy imports and caches are filled."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_round([op])


def run_round(ops: list[workloads.Op], tracer=None, ref: list | None = None):
    """Run every op once, in order. Returns (seconds, results, errors) per op.

    Only the call is timed; ``collect`` (reading CLI output files) is not.
    With a ``ref`` list, the reference kernel is timed before every op
    and after the last, and the mean of the two times around each op (ms) is
    appended to ``ref``: the machine's speed at the moment the op ran.
    """
    seconds, results, errors = [], [], []
    before = calibrate() if ref is not None else None
    for i, op in enumerate(ops):
        err = None
        t0 = perf_counter()
        try:
            raw = tracer.run_op(i, op.kind, op.call) if tracer else op.call()
        except Exception as e:  # a raising op is a failed op, not a failed benchmark
            raw, err = None, f"{type(e).__name__}: {e}"
        seconds.append(perf_counter() - t0)
        if ref is not None:
            after = calibrate()
            ref.append(0.5 * (before + after))
            before = after
        if op.collect is not None and err is None:
            raw = op.collect(raw)
        results.append(raw)
        errors.append(err)
    return seconds, results, errors


def check(ops: list[workloads.Op], results: list, errors: list) -> list[str | None]:
    """Oracle verdict per op: None when its result is right, else the problem."""
    problems = []
    for op, res, err in zip(ops, results, errors):
        if err is not None:
            problems.append(err)
            continue
        try:
            problems.append(op.check(res, results))
        except Exception as e:  # a result the oracle cannot read is a wrong result
            problems.append(f"oracle could not read the result: {type(e).__name__}: {e}")
    return problems


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, bytes):
        h.update(f"b{len(obj)}:".encode())
        h.update(obj)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    """Fingerprint of a result, bit-exact for floats and arrays."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def calibrate() -> float:
    """Milliseconds for a fixed pathlift-independent kernel, about 1 ms.

    Each iteration makes small NumPy calls and runs a pure-Python integer
    loop, in the proportion for which the kernel slows, in the host's slow
    state, by about as much as pathlift's ops do (1.6-1.7x on the 2-vCPU
    Xeon VM the benchmark was tuned on; small NumPy calls alone slow by
    1.9x, pure Python by 1.5x).
    """
    a = np.arange(4.0)
    acc = 0.0
    count = 0
    t0 = perf_counter()
    for k in range(160):
        b = a * 1.0001 + k
        acc += float(np.sqrt(b @ b))
        for j in range(60):
            count += (j * k) % 7
    elapsed = perf_counter() - t0
    if not (acc > 0 and count > 0):
        raise RuntimeError("reference kernel produced no result")
    return elapsed * 1e3
