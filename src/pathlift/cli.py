"""Command-line front end: lift | transport | uvb-scan | figure1 | gallery.

Exit codes: 0 success (or verdict UVB), 1 configuration error, 2 a lift
escaped, 3 verdict NotUVB, 4 verdict Inconclusive.  All emitted files are
UTF-8 with floats at 17 significant digits; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .connections import ConnectionField, connection_from_json, gallery, gallery_members
from .connections import ConnectionSpec
from .emit import fmt_float, write_csv, write_json
from .geometry import PathCurve, path_from_json, path_segment
from .integrate import COMPLETE, IntegratorOptions
from .lifting import (
    TransportEscapedError,
    completion_threshold,
    horizontal_lift,
    parallel_transport,
    transport_jacobian,
)
from .uvb import INCONCLUSIVE, NOT_UVB, fiber_scan, fiber_weight

__all__ = ["main", "run"]

COT1 = 0.6420926159343306  # 1/tan(1), the fig1 completion threshold

_FIGURE1_V0 = (0.0, 0.2, 0.4, 0.6, 0.7, 1.0, 2.0, 5.0)
_FIGURE1_SEEDS = tuple((t0, c0) for t0 in (0.25, 0.5, 0.75) for c0 in (-8.0, -3.0, 3.0, 8.0))


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
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def _resolve_path(arg: str | None) -> PathCurve | None:
    if arg is None:
        return None
    if Path(arg).is_file():
        return path_from_json(_load_json_file(arg))
    if arg.startswith("segment:"):
        parts = arg.split(":")
        if len(parts) != 3:
            raise ConfigError(f"inline segment must look like segment:a,b:c,d, got {arg!r}")
        return path_segment(_parse_floats(parts[1], "segment start"),
                            _parse_floats(parts[2], "segment end"))
    raise ConfigError(f"path {arg!r} is neither a readable file nor inline segment syntax")


def _resolve_connection(arg: str | None, dim_hint: int | None) -> ConnectionField:
    if arg is None:
        raise ConfigError("--connection is required")
    if Path(arg).is_file():
        return connection_from_json(_load_json_file(arg))
    name, _, param = arg.partition(":")
    params: dict = {}
    if param:
        if name == "scalar-linear":
            params["lambda"] = _parse_floats(param, "lambda")[0]
        elif name == "power-growth":
            params["alpha"] = _parse_floats(param, "alpha")[0]
        elif name == "flat":
            params["dimension"] = int(_parse_floats(param, "dimension")[0])
        else:
            raise ConfigError(f"connection {name!r} takes no inline parameter")
    if name == "flat" and "dimension" not in params and dim_hint is not None:
        params["dimension"] = dim_hint
    try:
        return gallery(ConnectionSpec(name, params))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _integrator_opts(args) -> IntegratorOptions:
    try:
        return IntegratorOptions(rtol=args.rtol, atol=args.atol, escape_norm=args.escape_norm)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trajectory_rows(traj):
    for i in range(traj.t.size):
        yield [traj.t[i], *traj.base[i], *traj.fiber[i]]


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


def cmd_lift(args) -> int:
    path = _resolve_path(args.path)
    if path is None:
        raise ConfigError("lift needs --path")
    if not args.v:
        raise ConfigError("lift needs at least one --v")
    vectors = [_parse_floats(v, "--v") for v in args.v]
    conn = _resolve_connection(args.connection, path.dimension)
    opts = _integrator_opts(args)
    out = _out_dir(args)

    n = conn.dimension
    header = ["t"] + [f"base_{i}" for i in range(n)] + [f"fiber_{i}" for i in range(n)]
    all_complete = True
    for idx, v in enumerate(vectors):
        try:
            traj = horizontal_lift(conn, path, v, opts)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        write_csv(out / f"lift_{idx:03d}.csv", header, _trajectory_rows(traj))
        write_json(out / f"lift_{idx:03d}.json", _status_dict(traj))
        print(f"lift_{idx:03d}: {traj.status}")
        all_complete = all_complete and traj.status == COMPLETE
    return 0 if all_complete else 2


def cmd_transport(args) -> int:
    path = _resolve_path(args.path)
    if path is None:
        raise ConfigError("transport needs --path")
    if not args.v or len(args.v) != 1:
        raise ConfigError("transport needs exactly one --v")
    v0 = _parse_floats(args.v[0], "--v")
    conn = _resolve_connection(args.connection, path.dimension)
    opts = _integrator_opts(args)
    out = _out_dir(args)

    try:
        result = parallel_transport(conn, path, v0, opts)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except TransportEscapedError as e:
        write_json(out / "transport.json", {"status": e.status, "t_escape": e.t_escape})
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
            write_json(out / "transport.json", {"status": e.status, "t_escape": e.t_escape})
            print("transport: jacobian probe escaped")
            return 2
        payload["jacobian"] = jac.tolist()
    write_json(out / "transport.json", payload)
    print("transport: complete")
    return 0


def cmd_uvb_scan(args) -> int:
    path = _resolve_path(args.path)
    if args.point:
        points = [_parse_floats(p, "--point") for p in args.point]
    elif path is not None:
        points = [path.position(0.0), path.position(0.5), path.position(1.0)]
    else:
        points = None  # origin of the connection's dimension, resolved below
    dim_hint = None
    if points is not None:
        dim_hint = len(points[0])
    elif path is not None:
        dim_hint = path.dimension
    conn = _resolve_connection(args.connection, dim_hint)
    if points is None:
        points = [np.zeros(conn.dimension)]
    weight = fiber_weight(args.weight)
    out = _out_dir(args)

    verdicts = []
    for idx, p in enumerate(points):
        try:
            # An overflowing Gamma is reported by coeff's finiteness check alone.
            with np.errstate(over="ignore", invalid="ignore"):
                report = fiber_scan(conn, p, weight=weight, eps=args.eps)
        except (ValueError, RuntimeError) as e:
            raise ConfigError(str(e)) from None
        verdicts.append(report.verdict)
        if args.format == "csv":
            write_csv(out / f"scan_{idx:03d}.csv",
                      ["direction_index", "radius", "theta_min"], report.rows())
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
    curves = []  # (rows, family); rows are (t, fiber) pairs in ascending t
    for v0 in _FIGURE1_V0:
        traj = horizontal_lift(conn, path, [v0], opts)
        family = "from_p_complete" if traj.complete else "from_p_escaped"
        curves.append((list(zip(traj.t, traj.fiber[:, 0])), family))
    for t0, c0 in _FIGURE1_SEEDS:
        fwd = horizontal_lift(conn, path_segment([t0], [1.0]), [c0], opts)
        bwd = horizontal_lift(conn, path_segment([t0], [0.0]), [c0], opts)
        if bwd.complete and fwd.complete:
            family = "from_p_complete"
        elif bwd.complete:
            family = "from_p_escaped"
        elif fwd.complete:
            family = "from_q_escaped"
        else:
            family = "interior"
        # Base coordinate doubles as global time on the identity path.
        rows = [(b[0], f[0]) for b, f in zip(bwd.base[::-1], bwd.fiber[::-1])]
        rows += [(b[0], f[0]) for b, f in zip(fwd.base[1:], fwd.fiber[1:])]
        curves.append((rows, family))
    return curves


def cmd_figure1(args) -> int:
    conn = gallery("fig1")
    path = path_segment([0.0], [1.0])
    opts = _integrator_opts(args)
    out = _out_dir(args)
    spacing = args.vstar_spacing
    if not (0 < spacing <= 0.05):
        raise ConfigError(f"--vstar-spacing must be in (0, 0.05], got {spacing}")

    curves = _figure1_families(conn, path, opts)
    rows = []
    counts: dict[str, int] = {}
    for curve_id, (samples, family) in enumerate(curves):
        counts[family] = counts.get(family, 0) + 1
        for t, fiber in samples:
            rows.append([curve_id, t, fiber, np.tanh(fiber), family])
    write_csv(out / "figure1.csv", ["curve", "t", "fiber", "tanh_fiber", "family"], rows)

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
            "families": counts,
        },
    )
    print(f"figure1: v_star={fmt_float(v_star)} target={fmt_float(COT1)}")
    return 0


def cmd_gallery(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown gallery action {args.action!r}")
    rows = gallery_members()
    widths = {
        "name": max(len("name"), *(len(str(r["name"])) for r in rows)),
        "dimension": max(len("dimension"), *(len(str(r["dimension"])) for r in rows)),
        "linear": len("linear"),
        "growth": max(len("growth"), *(len(_growth_str(r["growth_hint"])) for r in rows)),
    }
    print(
        f"{'name':<{widths['name']}}  {'dimension':<{widths['dimension']}}  "
        f"{'linear':<{widths['linear']}}  {'growth':<{widths['growth']}}  description"
    )
    for r in rows:
        linear = "yes" if r["is_linear_in_fiber"] else "no"
        print(
            f"{r['name']:<{widths['name']}}  {str(r['dimension']):<{widths['dimension']}}  "
            f"{linear:<{widths['linear']}}  {_growth_str(r['growth_hint']):<{widths['growth']}}  "
            f"{r['description']}"
        )
    return 0


def _growth_str(g) -> str:
    return format(g, "g") if isinstance(g, float) else str(g)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pathlift", description=__doc__)
    shared = _Parser(add_help=False)
    shared.add_argument("--connection", help="gallery name (with optional :param) or JSON file")
    shared.add_argument("--path", help="inline segment:a:b or path JSON file")
    shared.add_argument("--v", action="append", help="initial fiber vector, comma-separated")
    shared.add_argument("--rtol", type=float, default=1e-9)
    shared.add_argument("--atol", type=float, default=1e-12)
    shared.add_argument("--escape-norm", type=float, default=1e8, dest="escape_norm")
    shared.add_argument("--out", default=".", help="output directory")
    shared.add_argument("--format", choices=("csv", "json"), default="json")
    shared.add_argument("--weight", choices=("euclidean", "normalized"), default="normalized")
    shared.add_argument("--eps", type=float, default=1e-3, help="angle margin in radians")

    sub = parser.add_subparsers(dest="command", required=True)
    p_lift = sub.add_parser("lift", parents=[shared], help="integrate horizontal lifts")
    p_lift.set_defaults(func=cmd_lift)
    p_tr = sub.add_parser("transport", parents=[shared], help="parallel transport a vector")
    p_tr.add_argument("--jacobian", action="store_true", help="emit the transport Jacobian")
    p_tr.set_defaults(func=cmd_transport)
    p_scan = sub.add_parser("uvb-scan", parents=[shared], help="scan fiber rays for boundedness")
    p_scan.add_argument("--point", action="append", help="scan base point, comma-separated")
    p_scan.set_defaults(func=cmd_uvb_scan)
    p_fig = sub.add_parser("figure1", parents=[shared], help="emit blow-up figure data")
    p_fig.add_argument("--vstar-spacing", type=float, default=1e-3, dest="vstar_spacing")
    p_fig.set_defaults(func=cmd_figure1)
    p_gal = sub.add_parser("gallery", help="list built-in connections")
    p_gal.add_argument("action", nargs="?", default="list")
    p_gal.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
