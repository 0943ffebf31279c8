"""Command-line front end: lift | transport | uvb-scan | figure1 | gallery.

Each subcommand accepts only the flags it reads, matched by their full
names: a flag it does not read, or an abbreviation, is a configuration
error.  Exit codes: 0 success (or verdict UVB), 1 configuration error, 2 a lift
escaped, 3 verdict NotUVB, 4 verdict Inconclusive.  All emitted files are
UTF-8 with floats at 17 significant digits; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .connections import ConnectionField, _inline_spec, connection_from_json, gallery
from .connections import gallery_members
from .emit import csv_rows, fmt_float, write_csv, write_json
from .geometry import PathCurve, path_from_json, path_segment
from .integrate import COMPLETE, ESCAPED, IntegratorOptions
from .lifting import (
    TransportEscapedError,
    _lifts_in_seed_order,
    completion_threshold,
    horizontal_lifts,
    parallel_transport,
    transport_jacobian,
)
from .uvb import INCONCLUSIVE, NOT_UVB, fiber_scan, fiber_weight

__all__ = ["main", "run"]

COT1 = 0.6420926159343306  # 1/tan(1), the fig1 completion threshold

_FIGURE1_V0 = (0.0, 0.2, 0.4, 0.6, 0.7, 1.0, 2.0, 5.0)
_FIGURE1_T0 = (0.25, 0.5, 0.75)  # interior seeds c0 at each t0
_FIGURE1_C0 = (-8.0, -3.0, 3.0, 8.0)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map to config error
        raise ConfigError(message)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"cannot parse {what} {text!r} as comma-separated floats") from None


def _load_json_file(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def _resolve_path(arg: str) -> PathCurve:
    if Path(arg).is_file():
        return path_from_json(_load_json_file(arg))
    if arg.startswith("segment:"):
        parts = arg.split(":")
        if len(parts) != 3:
            raise ConfigError(f"inline segment must look like segment:a,b:c,d, got {arg!r}")
        return path_segment(_parse_floats(parts[1], "segment start"),
                            _parse_floats(parts[2], "segment end"))
    raise ConfigError(f"path {arg!r} is neither a readable file nor inline segment syntax")


def _resolve_connection(arg: str, dim_hint: int | None) -> ConnectionField:
    if Path(arg).is_file():
        return connection_from_json(_load_json_file(arg))
    return gallery(_inline_spec(arg, dim_hint))


def _integrator_opts(args) -> IntegratorOptions:
    return IntegratorOptions(rtol=args.rtol, atol=args.atol, escape_norm=args.escape_norm)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _status_dict(traj) -> dict:
    return {
        "status": traj.status,
        "t_escape": traj.t_escape,
        "norm_at_escape": traj.norm_at_escape,
        "steps": traj.steps,
        "rejected": traj.rejected,
        "max_vertical_speed": traj.max_vertical_speed,
        "final_t": float(traj.t[-1]),
        "final_fiber": traj.fiber[-1].tolist(),
    }


def _lift_inputs(args):
    """Path, seed vectors, connection, integrator options and output directory."""
    path = _resolve_path(args.path)
    vectors = [_parse_floats(v, "--v") for v in args.v]
    conn = _resolve_connection(args.connection, path.dimension)
    return path, vectors, conn, _integrator_opts(args), _out_dir(args)


def cmd_lift(args) -> int:
    path, vectors, conn, opts, out = _lift_inputs(args)

    all_complete = True
    shared = {}  # the rendered t and base columns of each dense grid
    # A seed that fails ends the run after the files of the seeds before it.
    for idx, traj in enumerate(_lifts_in_seed_order(conn, path, vectors, opts)):
        if idx == 0:  # after the first lift, which checks n against the seeds and path
            n = conn.dimension
            header = ["t"] + [f"base_{i}" for i in range(n)] + [f"fiber_{i}" for i in range(n)]
            fmt = "%s," + ",".join(["%.17g"] * n)
        key = traj.t.tobytes() + traj.base.tobytes()
        if key not in shared:
            shared[key] = csv_rows([traj.t, *traj.base.T])
        write_csv(out / f"lift_{idx:03d}.csv", header, [shared[key], *traj.fiber.T], fmt)
        write_json(out / f"lift_{idx:03d}.json", _status_dict(traj))
        print(f"lift_{idx:03d}: {traj.status}")
        all_complete = all_complete and traj.status == COMPLETE
    return 0 if all_complete else 2


def _stopped_payload(e: TransportEscapedError) -> dict:
    if e.status == ESCAPED:
        return {"status": e.status, "t_escape": e.t_escape}
    # A stalled lift has no escape time, only the t where it stopped (as in lift_*.json).
    return {"status": e.status, "t_escape": None, "final_t": e.t_escape}


def cmd_transport(args) -> int:
    if len(args.v) != 1:
        raise ConfigError("transport needs exactly one --v")
    path, (v0,), conn, opts, out = _lift_inputs(args)

    try:
        result = parallel_transport(conn, path, v0, opts)
    except TransportEscapedError as e:
        write_json(out / "transport.json", _stopped_payload(e))
        print(f"transport: {e.status} at t={fmt_float(e.t_escape)}")
        return 2
    payload = {
        "from": path.start.tolist(),
        "to": result.base.coords.tolist(),
        "vector_in": list(v0),
        "vector_out": result.vec.tolist(),
    }
    if args.jacobian:
        try:
            jac = transport_jacobian(conn, path, v0, opts=opts)
        except TransportEscapedError as e:
            write_json(out / "transport.json", _stopped_payload(e))
            print("transport: jacobian probe escaped")
            return 2
        payload["jacobian"] = jac.tolist()
    write_json(out / "transport.json", payload)
    print("transport: complete")
    return 0


def cmd_uvb_scan(args) -> int:
    if args.point:  # --point and --path exclude each other
        points = [_parse_floats(p, "--point") for p in args.point]
    elif args.path is not None:
        points = [_resolve_path(args.path).position(t) for t in (0.0, 0.5, 1.0)]
    else:
        points = None  # origin of the connection's dimension, resolved below
    conn = _resolve_connection(args.connection, len(points[0]) if points else None)
    if points is None:
        points = [np.zeros(conn.dimension)]
    weight = fiber_weight(args.weight)
    out = _out_dir(args)

    verdicts = []
    for idx, p in enumerate(points):
        try:
            report = fiber_scan(conn, p, weight=weight, eps=args.eps)
        except (ValueError, RuntimeError) as e:
            raise ConfigError(str(e)) from None
        verdicts.append(report.verdict)
        if args.format == "csv":
            m, r = report.theta_min.shape
            write_csv(out / f"scan_{idx:03d}.csv", ["direction_index", "radius", "theta_min"],
                      [np.repeat(np.arange(m), r), np.tile(report.radii, m),
                       report.theta_min.ravel()], "%d,%.17g,%.17g")
        else:
            write_json(out / f"scan_{idx:03d}.json", report.to_dict())
        print(f"scan_{idx:03d}: {report.verdict}")
    if NOT_UVB in verdicts:
        return 3
    if INCONCLUSIVE in verdicts:
        return 4
    return 0


def _figure1_families(conn, path, opts):
    """Lift the display sweep and the interior seeds; classify each curve."""
    curves = []  # (t, fiber, family), t ascending
    for traj in horizontal_lifts(conn, path, [[v0] for v0 in _FIGURE1_V0], opts):
        family = "from_p_complete" if traj.complete else "from_p_escaped"
        curves.append((traj.t, traj.fiber[:, 0], family))
    seeds = [[c0] for c0 in _FIGURE1_C0]
    for t0 in _FIGURE1_T0:
        fwds = horizontal_lifts(conn, path_segment([t0], [1.0]), seeds, opts)
        bwds = horizontal_lifts(conn, path_segment([t0], [0.0]), seeds, opts)
        curves += [_interior_curve(fwd, bwd) for fwd, bwd in zip(fwds, bwds)]
    return curves


def _interior_curve(fwd, bwd):
    """Join the lifts of one interior seed towards q and towards p, classified."""
    if bwd.complete and fwd.complete:
        family = "from_p_complete"
    elif bwd.complete:
        family = "from_p_escaped"
    elif fwd.complete:
        family = "from_q_escaped"
    else:
        family = "interior"
    # Base coordinate doubles as global time on the identity path.
    t = np.concatenate([bwd.base[::-1, 0], fwd.base[1:, 0]])
    return t, np.concatenate([bwd.fiber[::-1, 0], fwd.fiber[1:, 0]]), family


def cmd_figure1(args) -> int:
    conn = gallery("fig1")
    path = path_segment([0.0], [1.0])
    opts = _integrator_opts(args)
    spacing = args.vstar_spacing
    if not (0 < spacing <= 0.05):
        raise ConfigError(f"--vstar-spacing must be in (0, 0.05], got {spacing}")
    if 0.1 / spacing > 10_000.5:  # round(0.1 / spacing) + 1 > 10,001 grid points, or inf
        raise ConfigError(f"--vstar-spacing {spacing} makes a threshold grid of more than "
                          "10001 points; use a spacing of at least 1e-05")
    out = _out_dir(args)

    curves = _figure1_families(conn, path, opts)
    ts, fibers, families = zip(*curves)
    sizes = [t.size for t in ts]
    fiber = np.concatenate(fibers)
    write_csv(out / "figure1.csv", ["curve", "t", "fiber", "tanh_fiber", "family"],
              [np.repeat(np.arange(len(curves)), sizes), np.concatenate(ts), fiber,
               np.tanh(fiber), np.repeat(families, sizes)], "%d,%.17g,%.17g,%.17g,%s")

    steps = int(round(0.1 / spacing))
    grid = 0.6 + spacing * np.arange(steps + 1)
    v_star, lo, hi = completion_threshold(conn, path, grid, opts)
    write_json(
        out / "figure1.json",
        {
            "v_star": v_star,
            "v_star_target": COT1,
            "bracket_low": lo,
            "bracket_high": hi,
            "grid_spacing": spacing,
            "curves": len(curves),
            "families": dict(Counter(families)),
        },
    )
    print(f"figure1: v_star={fmt_float(v_star)} target={fmt_float(COT1)}")
    return 0


def cmd_gallery(args) -> int:
    table = [["name", "dimension", "linear", "growth", "description"]]
    for r in gallery_members():
        growth = r["growth_hint"]
        table.append([r["name"], str(r["dimension"]), "yes" if r["is_linear_in_fiber"] else "no",
                      format(growth, "g") if isinstance(growth, float) else growth,
                      r["description"]])
    widths = [max(len(row[col]) for row in table) for col in range(4)]
    for row in table:
        print("  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths)) + "  " + row[4])
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # Flag groups that several subcommands read, copied in as parent parsers.
    # Without allow_abbrev=False, figure1 would read --v as --vstar-spacing.
    conn, seeds, integ, out = (_Parser(add_help=False) for _ in range(4))
    conn.add_argument("--connection", required=True,
                      help="gallery name (with optional :param) or JSON file")
    seeds.add_argument("--path", required=True, help="inline segment:a:b or path JSON file")
    seeds.add_argument("--v", action="append", required=True,
                       help="initial fiber vector, comma-separated")
    integ.add_argument("--rtol", type=float, default=1e-9)
    integ.add_argument("--atol", type=float, default=1e-12)
    integ.add_argument("--escape-norm", type=float, default=1e8, dest="escape_norm")
    out.add_argument("--out", default=".", help="output directory")

    parser = _Parser(prog="pathlift", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_lift = sub.add_parser("lift", parents=[conn, seeds, integ, out], allow_abbrev=False,
                            help="integrate horizontal lifts")
    p_lift.set_defaults(func=cmd_lift)
    p_tr = sub.add_parser("transport", parents=[conn, seeds, integ, out], allow_abbrev=False,
                          help="parallel transport a vector")
    p_tr.add_argument("--jacobian", action="store_true", help="emit the transport Jacobian")
    p_tr.set_defaults(func=cmd_transport)
    p_scan = sub.add_parser("uvb-scan", parents=[conn, out], allow_abbrev=False,
                            help="scan fiber rays for boundedness")
    where = p_scan.add_mutually_exclusive_group()
    where.add_argument("--path", help="scan the path's start, midpoint and end")
    where.add_argument("--point", action="append", help="scan base point, comma-separated")
    p_scan.add_argument("--format", choices=("csv", "json"), default="json")
    p_scan.add_argument("--weight", choices=("euclidean", "normalized"), default="normalized")
    p_scan.add_argument("--eps", type=float, default=1e-3, help="angle margin in radians")
    p_scan.set_defaults(func=cmd_uvb_scan)
    p_fig = sub.add_parser("figure1", parents=[integ, out], allow_abbrev=False,
                           help="emit blow-up figure data")
    p_fig.add_argument("--vstar-spacing", type=float, default=1e-3, dest="vstar_spacing")
    p_fig.set_defaults(func=cmd_figure1)
    p_gal = sub.add_parser("gallery", allow_abbrev=False, help="list built-in connections")
    p_gal.add_argument("action", nargs="?", default="list", choices=("list",))
    p_gal.set_defaults(func=cmd_gallery)
    return parser


def _join_vector_values(argv: list[str]) -> list[str]:
    """``--v -1,2`` as ``--v=-1,2``, and so for --point, up to a "--": argparse
    reads a value such as "-1,2" or "-1e-3" as a flag."""
    out = []
    for token in argv:
        if out and out[-1] in ("--v", "--point") and "--" not in out and _negative_vector(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _negative_vector(text: str) -> bool:
    try:
        _parse_floats(text, "vector")
    except ConfigError:
        return False
    return text.startswith("-")


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_vector_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:  # a ValueError is a configuration error
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's error names the array it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
