import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlift
from pathlift import cli
from pathlift.cli import main
from pathlift.connections import ConnectionField, gallery, gallery_members
from pathlift.lifting import TransportEscapedError
from pathlift.uvb import fiber_scan

TAN1 = np.tan(1.0)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestLiftCommand:
    def test_flat_lift(self, tmp_path):
        code = main([
            "lift", "--connection", "flat", "--path", "segment:0,0:1,1",
            "--v", "3,4", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = _read_csv(tmp_path / "lift_000.csv")
        assert header == ["t", "base_0", "base_1", "fiber_0", "fiber_1"]
        assert float(rows[-1][3]) == pytest.approx(3.0, abs=1e-10)
        assert float(rows[-1][4]) == pytest.approx(4.0, abs=1e-10)
        status = _read_json(tmp_path / "lift_000.json")
        assert status["status"] == "complete"

    def test_fig1_escape_exit_code(self, tmp_path):
        code = main([
            "lift", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "1", "--out", str(tmp_path),
        ])
        assert code == 2
        status = _read_json(tmp_path / "lift_000.json")
        assert status["status"] == "escaped"
        assert abs(status["t_escape"] - np.pi / 4) < 1e-3

    def test_fig1_complete(self, tmp_path):
        code = main([
            "lift", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        status = _read_json(tmp_path / "lift_000.json")
        assert abs(status["final_fiber"][0] - TAN1) < 1e-6

    def test_escape_at_start_writes_one_row(self, tmp_path):
        # The seed is already past the escape norm, so the lift holds only t = 0.
        code = main(["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "10",
                     "--escape-norm", "5", "--out", str(tmp_path)])
        assert code == 2
        assert _read_json(tmp_path / "lift_000.json")["t_escape"] == 0
        text = (tmp_path / "lift_000.csv").read_text(encoding="utf-8")
        assert text == "t,base_0,fiber_0\n0,0,10\n"

    def test_multiple_vectors(self, tmp_path):
        code = main([
            "lift", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "0", "--v", "1", "--out", str(tmp_path),
        ])
        assert code == 2  # one of the lifts escapes
        assert (tmp_path / "lift_001.json").exists()


class TestTransportCommand:
    def test_flat_transport(self, tmp_path):
        code = main([
            "transport", "--connection", "flat", "--path", "segment:0,0:1,1",
            "--v", "1,0", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = _read_json(tmp_path / "transport.json")
        assert payload["vector_out"] == pytest.approx([1.0, 0.0], abs=1e-10)
        assert payload["from"] == [0.0, 0.0] and payload["to"] == [1.0, 1.0]

    def test_scalar_linear_value(self, tmp_path):
        code = main([
            "transport", "--connection", "scalar-linear:1", "--path", "segment:0:1",
            "--v", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = _read_json(tmp_path / "transport.json")
        assert abs(payload["vector_out"][0] - 2 * np.exp(-1)) < 1e-6

    def test_jacobian_flag(self, tmp_path):
        code = main([
            "transport", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "0", "--jacobian", "--out", str(tmp_path),
        ])
        assert code == 0
        payload = _read_json(tmp_path / "transport.json")
        assert abs(payload["jacobian"][0][0] - (1 + TAN1**2)) < 1e-4

    def test_escape_report(self, tmp_path):
        code = main([
            "transport", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "0.7", "--out", str(tmp_path),
        ])
        assert code == 2
        payload = _read_json(tmp_path / "transport.json")
        assert payload["status"] == "escaped"
        assert abs(payload["t_escape"] - (np.pi / 2 - np.arctan(0.7))) < 1e-3


class TestBlowupIsNotConfigError:
    def test_power_growth_overflow_is_classified(self, tmp_path, capsys):
        # Trial stages overflow Gamma = -(1 + v^2)^4 during the blow-up; they
        # are rejected steps, so the lift ends with a classified status.
        code = main([
            "lift", "--connection", "power-growth:8", "--path", "segment:0:1",
            "--v", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        status = _read_json(tmp_path / "lift_000.json")
        assert status["status"] in ("escaped", "step-collapse")
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["lift", "transport"])
    def test_seed_overflow_is_one_error_line(self, tmp_path, capsys, command):
        # Gamma = -(1 + v^2)^500 overflows at the seed v = 10: a configuration
        # error, reported without a numpy overflow warning.
        code = main([
            command, "--connection", "power-growth:1000", "--path", "segment:0:1",
            "--v", "10", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: coefficient matrix is not finite at p=[0.], v=[10.]\n"
        )

    def test_seed_at_the_escape_norm_escapes_whatever_gamma_is(self, tmp_path, capsys):
        # Gamma = -(1 + v^2) overflows at 1e300 but not at 1e150: both seeds
        # reach the escape norm 1e8, so both escape at t = 0.
        code = main(["lift", "--connection", "fig1", "--path", "segment:0:1",
                     "--v", "1e150", "--v", "1e300", "--out", str(tmp_path / "lift")])
        assert code == 2
        assert capsys.readouterr() == ("lift_000: escaped\nlift_001: escaped\n", "")
        for name in ("lift_000", "lift_001"):
            status = _read_json(tmp_path / "lift" / f"{name}.json")
            assert (status["status"], status["t_escape"], status["steps"]) == ("escaped", 0, 0)
        code = main(["transport", "--connection", "fig1", "--path", "segment:0:1",
                     "--v", "1e300", "--jacobian", "--out", str(tmp_path / "transport")])
        assert code == 2
        assert capsys.readouterr() == ("transport: escaped at t=0\n", "")

    @pytest.mark.parametrize("command, args, message", [
        ("lift", ["--path", "segment:0,0:1,0", "--v", "1,0"], ""),
        ("transport", ["--path", "segment:0,0:1,0", "--v", "1,0"], ""),
        ("uvb-scan", ["--point", "0,0"], "angle computation failed at direction 0 ([1. 0.]), "
                                         "radius 1.0: "),
    ], ids=["lift", "transport", "uvb-scan"])
    def test_seed_division_by_zero_is_one_error_line(self, tmp_path, capsys, command, args,
                                                     message):
        # A 1/p_0 Christoffel term is infinite at p = 0: a configuration
        # error, reported without a numpy divide-by-zero warning.
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps({"name": "christoffel", "dimension": 2, "terms": [
            {"k": 0, "i": 0, "j": 0, "coeff": 1.0, "monomial": [-1, 0]}]}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--connection", str(conn), *args, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {message}coefficient matrix is not finite at p=[0. 0.], v=[1. 0.]\n"
        )

    def test_stalled_transport_has_no_escape_time(self, tmp_path):
        argv = ["--connection", "power-growth:8", "--path", "segment:0:1", "--v", "10"]
        assert main(["transport", *argv, "--out", str(tmp_path / "transport")]) == 2
        assert main(["lift", *argv, "--out", str(tmp_path / "lift")]) == 2
        lift = _read_json(tmp_path / "lift" / "lift_000.json")
        assert lift["status"] == "step-collapse" and lift["t_escape"] is None
        assert _read_json(tmp_path / "transport" / "transport.json") == {
            "status": "step-collapse", "t_escape": None, "final_t": lift["final_t"],
        }

    @pytest.mark.parametrize("status, payload", [
        ("step-collapse", {"status": "step-collapse", "t_escape": None, "final_t": 0.25}),
        ("escaped", {"status": "escaped", "t_escape": 0.25}),
    ])
    def test_jacobian_probe_stop_payload(self, tmp_path, monkeypatch, status, payload):
        def probe(*args, **kwargs):
            raise TransportEscapedError(0.25, status)

        monkeypatch.setattr(cli, "transport_jacobian", probe)
        code = main([
            "transport", "--connection", "fig1", "--path", "segment:0:1",
            "--v", "0", "--jacobian", "--out", str(tmp_path),
        ])
        assert code == 2
        assert _read_json(tmp_path / "transport.json") == payload


def _fig1_below_two(p, v):
    # fig1's coefficient map while |v| <= 2; a wrong (2, 2) shape beyond.
    if abs(v[0]) > 2.0:
        return np.zeros((2, 2))
    return np.array([[-(1.0 + v[0] ** 2)]])


class TestSeedOrder:
    """A failing seed of a multi-seed lift stops the run after the seeds before it."""

    def _files(self, out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def _alone(self, tmp_path, capsys):
        code = main(["lift", "--connection", "fig1", "--path", "segment:0:1",
                     "--v", "0", "--out", str(tmp_path / "alone")])
        assert code == 0 and capsys.readouterr().out == "lift_000: complete\n"
        return self._files(tmp_path / "alone")

    def test_dimension_mismatch_after_a_valid_seed(self, tmp_path, capsys):
        alone = self._alone(tmp_path, capsys)
        code = main(["lift", "--connection", "fig1", "--path", "segment:0:1",
                     "--v", "0", "--v", "0,0", "--v", "1", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "lift_000: complete\n"
        assert captured.err == (
            "error: dimension mismatch: connection n=1, path n=1, initial vector length 2\n"
        )
        assert self._files(tmp_path / "run") == alone

    @pytest.mark.parametrize("bad_seed", ["1", "3"], ids=["mid-lift", "at-seed"])
    def test_custom_gamma_wrong_shape_for_one_seed(self, tmp_path, capsys, monkeypatch,
                                                   bad_seed):
        alone = self._alone(tmp_path, capsys)
        conn = ConnectionField(1, _fig1_below_two)
        monkeypatch.setattr(cli, "_resolve_connection", lambda arg, hint: conn)
        code = main(["lift", "--connection", "custom", "--path", "segment:0:1",
                     "--v", "0", "--v", bad_seed, "--v", "0.5",
                     "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "lift_000: complete\n"
        assert captured.err == "error: coefficient map returned shape (2, 2), expected (1, 1)\n"
        assert self._files(tmp_path / "run") == alone


class TestUvbScanCommand:
    def test_flat_uvb(self, tmp_path):
        code = main(["uvb-scan", "--connection", "flat", "--out", str(tmp_path)])
        assert code == 0
        report = _read_json(tmp_path / "scan_000.json")
        assert report["verdict"] == "UVB"

    def test_fig1_not_uvb(self, tmp_path):
        code = main(["uvb-scan", "--connection", "fig1", "--out", str(tmp_path)])
        assert code == 3
        report = _read_json(tmp_path / "scan_000.json")
        assert report["verdict"] == "NotUVB"
        assert report["epsilon"] == 1e-3

    def test_power_growth_alpha_one_uvb(self, tmp_path):
        code = main(["uvb-scan", "--connection", "power-growth:1", "--out", str(tmp_path)])
        assert code == 0

    def test_csv_format(self, tmp_path):
        code = main([
            "uvb-scan", "--connection", "fig1", "--format", "csv", "--out", str(tmp_path),
        ])
        assert code == 3
        header, rows = _read_csv(tmp_path / "scan_000.csv")
        assert header == ["direction_index", "radius", "theta_min"]
        assert len(rows) == 2 * 21

    def test_csv_rows_in_direction_then_radius_order(self, tmp_path):
        code = main(["uvb-scan", "--connection", "sphere-stereographic", "--point", "0.4,-0.3",
                     "--format", "csv", "--out", str(tmp_path)])
        assert code == 0
        report = fiber_scan(gallery("sphere-stereographic"), [0.4, -0.3])
        _, rows = _read_csv(tmp_path / "scan_000.csv")
        want = [(i, r, theta) for i, thetas in enumerate(report.theta_min)
                for r, theta in zip(report.radii, thetas)]
        assert [(int(i), float(r), float(theta)) for i, r, theta in rows] == want

    def test_path_supplies_scan_points(self, tmp_path):
        code = main([
            "uvb-scan", "--connection", "sphere-stereographic",
            "--path", "segment:0,0:1,0", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "scan_002.json").exists()

    def test_growth_between_one_and_two_is_inconclusive(self, tmp_path, capsys):
        code = main(["uvb-scan", "--connection", "power-growth:1.2", "--out", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().out == "scan_000: Inconclusive\n"
        assert _read_json(tmp_path / "scan_000.json")["verdict"] == "Inconclusive"

    def test_explicit_point(self, tmp_path):
        code = main([
            "uvb-scan", "--connection", "sphere-stereographic",
            "--point", "0.5,0.5", "--out", str(tmp_path),
        ])
        assert code == 0
        report = _read_json(tmp_path / "scan_000.json")
        assert report["point"] == [0.5, 0.5]


class TestFigure1Command:
    def test_default_run(self, tmp_path):
        code = main(["figure1", "--out", str(tmp_path)])
        assert code == 0
        summary = _read_json(tmp_path / "figure1.json")
        assert abs(summary["v_star"] - summary["v_star_target"]) < 1e-3
        assert summary["bracket_high"] - summary["bracket_low"] == pytest.approx(1e-3)

        header, rows = _read_csv(tmp_path / "figure1.csv")
        assert header == ["curve", "t", "fiber", "tanh_fiber", "family"]
        families = {r[4] for r in rows}
        assert {"from_p_complete", "from_p_escaped"} <= families

        # Seed 0 completes: its compressed fiber ends near tanh(tan(1)).
        curve0 = [r for r in rows if r[0] == "0"]
        assert abs(float(curve0[-1][3]) - np.tanh(TAN1)) < 1e-3
        # The v0 = 2 curve (index 6) saturates the compression before its pole.
        escaped = [r for r in rows if r[4] == "from_p_escaped" and r[0] == "6"]
        saturated = [r for r in escaped if float(r[3]) > 0.999]
        assert saturated
        assert float(saturated[0][1]) < np.pi / 2 - np.arctan(2.0)

    def test_bracket_halves_with_spacing(self, tmp_path):
        widths = {}
        for spacing in (4e-3, 2e-3):
            out = tmp_path / f"s{spacing}"
            assert main(["figure1", "--out", str(out), "--vstar-spacing", str(spacing)]) == 0
            summary = _read_json(out / "figure1.json")
            widths[spacing] = summary["bracket_high"] - summary["bracket_low"]
            assert abs(summary["v_star"] - summary["v_star_target"]) <= spacing / 2 + 1e-9
        assert widths[2e-3] == pytest.approx(widths[4e-3] / 2, rel=1e-6)

    @pytest.mark.parametrize("spacing", ["0", "0.06"])
    def test_spacing_outside_the_range_exits_1(self, tmp_path, capsys, spacing):
        out = tmp_path / "run"
        assert main(["figure1", "--out", str(out), "--vstar-spacing", spacing]) == 1
        assert capsys.readouterr().err == (
            f"error: --vstar-spacing must be in (0, 0.05], got {float(spacing)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["1e-9", "5e-324", "9.9e-6"])
    def test_grid_of_more_than_10001_points_exits_1(self, tmp_path, capsys, spacing):
        # 1e-9 would lift 10^8 lanes; 0.1 / 5e-324 overflows to inf.
        out = tmp_path / "run"
        assert main(["figure1", "--out", str(out), "--vstar-spacing", spacing]) == 1
        assert capsys.readouterr().err == (
            f"error: --vstar-spacing {float(spacing)} makes a threshold grid of more than "
            "10001 points; use a spacing of at least 1e-05\n")
        assert not out.exists()


class TestGalleryCommand:
    def test_listing(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "2" in out
        assert "flat" in out and "yes" in out
        assert "sphere-stereographic" in out

    def test_default_action_is_list(self, capsys):
        assert main(["gallery"]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_module_entry_point(self, capsys):
        assert main(["gallery", "list"]) == 0
        src = str(Path(pathlift.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "pathlift", "gallery", "list"],
                             capture_output=True, text=True, env=env, check=True)
        assert run.stdout == capsys.readouterr().out


class TestConfigErrors:
    def test_unknown_connection(self, tmp_path):
        assert main(["lift", "--connection", "wormhole", "--path", "segment:0:1",
                     "--v", "0", "--out", str(tmp_path)]) == 1

    def test_dimension_mismatch(self, tmp_path):
        assert main(["lift", "--connection", "fig1", "--path", "segment:0,0:1,1",
                     "--v", "0,0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["lift", "--path", "segment:0:1", "--v", "0.5"],
         "dimension mismatch: connection n=1000000000, path n=1, initial vector length 1"),
        (["uvb-scan", "--point", "0"], "base point has length 1, connection n=1000000000"),
    ], ids=["lift", "uvb-scan"])
    def test_dimension_mismatch_is_found_before_anything_of_size_n(self, tmp_path, argv,
                                                                   message):
        run = self._run_limited(tmp_path, [argv[0], "--connection", "flat:1e9", *argv[1:]])
        assert (run.returncode, run.stderr) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("dimension, size", [("100000", "149."), ("20000", "5.96")])
    def test_out_of_memory_is_one_error_line(self, tmp_path, dimension, size):
        # The default scan directions of flat:n take 2 n^2 floats.
        run = self._run_limited(tmp_path, ["uvb-scan", "--connection", f"flat:{dimension}"])
        assert run.returncode == 1
        assert run.stderr.startswith(f"error: Unable to allocate {size} GiB for an array")
        assert run.stderr.count("\n") == 1

    @staticmethod
    def _run_limited(tmp_path, argv):
        # Under a 2 GB address-space limit, so that building anything of the
        # connection's size fails at once instead of filling the memory.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(pathlift.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "pathlift", *argv, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=120)

    def test_missing_path(self, tmp_path):
        assert main(["lift", "--connection", "fig1", "--v", "0",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("path, message", [
        ("segment:0", "inline segment must look like segment:a,b:c,d, got 'segment:0'"),
        ("nowhere", "path 'nowhere' is neither a readable file nor inline segment syntax"),
    ], ids=["one-point-segment", "neither-file-nor-segment"])
    def test_bad_path_text(self, tmp_path, capsys, monkeypatch, path, message):
        monkeypatch.chdir(tmp_path)  # so that no file named like the path exists
        assert main(["lift", "--connection", "fig1", "--path", path, "--v", "0",
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreadable_spec_file(self, tmp_path):
        bad = tmp_path / "conn.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["lift", "--connection", str(bad), "--path", "segment:0:1",
                     "--v", "0", "--out", str(tmp_path)]) == 1

    def test_spec_file_nested_too_deep(self, tmp_path, capsys):
        deep = tmp_path / "conn.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main(["uvb-scan", "--connection", str(deep), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {deep} is not valid JSON: maximum recursion")

    def test_bad_flag_maps_to_config_error(self, tmp_path):
        assert main(["lift", "--no-such-flag"]) == 1

    def test_scan_takes_a_point_or_a_path_not_both(self, tmp_path, capsys):
        code = main(["uvb-scan", "--connection", "flat:1", "--point", "0",
                     "--path", "segment:0,0:1,1", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: argument --path: not allowed with argument --point\n")
        assert not (tmp_path / "out").exists()

    def test_bad_vector_text(self, tmp_path):
        assert main(["lift", "--connection", "fig1", "--path", "segment:0:1",
                     "--v", "zero", "--out", str(tmp_path)]) == 1

    def test_scan_angle_failure(self, tmp_path, capsys):
        code = main(["uvb-scan", "--connection", "power-growth:1000", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "direction 0" in err and "radius 2.0" in err

    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_scan_eps_must_be_positive_and_finite(self, tmp_path, capsys, eps):
        code = main(["uvb-scan", "--connection", "fig1", "--eps", eps, "--out", str(tmp_path)])
        assert code == 1
        assert "eps must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", ["2.5", "0", "-1", "inf"])
    def test_flat_dimension_must_be_a_positive_integer(self, tmp_path, capsys, dimension):
        code = main(["uvb-scan", "--connection", f"flat:{dimension}", "--out", str(tmp_path)])
        assert code == 1
        assert "flat dimension must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("connection, message", [
        ("flat:,", "flat dimension must be one number, got ','"),
        ("scalar-linear:,", "scalar-linear lambda must be one number, got ','"),
        ("power-growth:1,2", "power-growth alpha must be one number, got '1,2'"),
        ("scalar-linear:nan", "scalar-linear lambda must be finite, got nan"),
        ("power-growth:-inf", "power-growth alpha must be >= 0, got -inf"),
        ("fig1:2", "connection 'fig1' takes no inline parameter"),
        ("christoffel:2", "connection 'christoffel' takes no inline parameter"),
        ("wormhole:3", "unknown gallery connection 'wormhole'"),
    ])
    def test_inline_parameter_is_one_valid_number(self, tmp_path, capsys, connection, message):
        code = main(["uvb-scan", "--connection", connection, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_christoffel_dimension_must_be_a_positive_integer(self, tmp_path, capsys):
        spec = tmp_path / "conn.json"
        spec.write_text(json.dumps({"name": "christoffel", "dimension": 2.5, "terms": []}),
                        encoding="utf-8")
        code = main(["uvb-scan", "--connection", str(spec), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "christoffel dimension must be a positive integer" in capsys.readouterr().err


# Each subcommand with the flags it needs, and the flags it does not read.
_VALID_ARGV = {
    "lift": ["--connection", "fig1", "--path", "segment:0:1", "--v", "0"],
    "transport": ["--connection", "fig1", "--path", "segment:0:1", "--v", "0"],
    "uvb-scan": ["--connection", "fig1"],
    "figure1": ["--vstar-spacing", "0.05"],
}
_UNREAD_FLAGS = {
    "lift": [("--format", "csv"), ("--weight", "euclidean"), ("--eps", "0.01")],
    "transport": [("--format", "csv"), ("--weight", "euclidean"), ("--eps", "0.01")],
    "uvb-scan": [("--v", "0"), ("--rtol", "1e-6"), ("--atol", "1e-9"), ("--escape-norm", "100")],
    "figure1": [("--connection", "fig1"), ("--path", "segment:0:1"), ("--v", "0"),
                ("--format", "csv"), ("--weight", "euclidean"), ("--eps", "0.01"),
                ("--v", "0.02")],  # once a prefix of --vstar-spacing
}


class TestFlagsAreExact:
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value) for command, pairs in _UNREAD_FLAGS.items() for flag, value in pairs
    ])
    def test_unread_flag_exits_1_and_writes_nothing(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, *_VALID_ARGV[command], flag, value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["lift", "--conn", "fig1", "--path", "segment:0:1", "--v", "0"],
        ["transport", "--connection", "fig1", "--pa", "segment:0:1", "--v", "0"],
        ["lift", *_VALID_ARGV["lift"], "--escape", "10"],
        ["transport", *_VALID_ARGV["transport"], "--jac"],
        ["uvb-scan", "--connection", "fig1", "--form", "csv"],
        ["figure1", "--vstar", "0.05"],
        ["gallery", "show"],
    ], ids=["conn", "pa", "escape", "jac", "form", "vstar", "gallery-show"])
    def test_abbreviation_or_unknown_action_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ([] if argv[0] == "gallery" else ["--out", str(out)])) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestNegativeVectorValues:
    # argparse reads "-1,2" or "-1e-3" after a space as a flag; main joins
    # it to its --v or --point, so the space form is the "=" form.
    @pytest.mark.parametrize("argv", [
        ["lift", "--connection", "flat:2", "--path", "segment:0,0:1,1", "--v", "-1,2"],
        ["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "-1e-3"],
        ["transport", "--connection", "fig1", "--path", "segment:0:1", "--v", "-0.5,"],
        ["uvb-scan", "--connection", "sphere-stereographic", "--point", "-1,2",
         "--point", "-0.5,-1.5"],
        ["uvb-scan", "--connection", "fig1", "--v", "-2"],  # a flag uvb-scan does not read
    ], ids=["flat-2d", "exponent", "trailing-comma", "points", "unread"])
    def test_space_form_equals_equals_form(self, tmp_path, capsys, argv):
        runs = []
        for form, args in (("space", argv), ("equals", _equals_form(argv))):
            out = tmp_path / form
            code = main(args + ["--out", str(out)])
            files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][0] == (1 if argv[-1] == "-2" else 0)

    @pytest.mark.parametrize("argv", [
        ["uvb-scan", "--connection", "sphere-stereographic", "--poin", "-1,2"],
        ["lift", "--connection", "fig1", "--path", "segment:0:1", "--vv", "-1,2"],
        ["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "-x"],
        ["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "0", "--", "--v", "-1"],
    ], ids=["abbreviation", "unknown", "not-a-vector", "after-double-dash"])
    def test_other_tokens_stay_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _equals_form(argv):
    out = []
    for token in argv:
        if out and out[-1] in ("--v", "--point"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


class TestSpecFiles:
    def test_connection_and_path_from_json_files(self, tmp_path):
        conn = tmp_path / "conn.json"
        conn.write_text('{"name": "scalar-linear", "lambda": 1.0}', encoding="utf-8")
        path = tmp_path / "path.json"
        path.write_text('{"kind": "segment", "from": [0.0], "to": [1.0]}', encoding="utf-8")
        code = main(["transport", "--connection", str(conn), "--path", str(path),
                     "--v", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = _read_json(tmp_path / "transport.json")
        assert abs(payload["vector_out"][0] - 2 * np.exp(-1)) < 1e-6

    def test_christoffel_file(self, tmp_path):
        conn = tmp_path / "conn.json"
        conn.write_text(json.dumps({
            "name": "christoffel",
            "dimension": 2,
            "terms": [{"k": 0, "i": 0, "j": 1, "coeff": 0.5, "monomial": [1, 0]}],
        }), encoding="utf-8")
        code = main(["uvb-scan", "--connection", str(conn), "--point", "1.0,0.0",
                     "--out", str(tmp_path)])
        assert code in (0, 4)  # verdict depends on the member; must not be a config error

    @pytest.mark.parametrize("spec, message", [
        ({"terms": 5}, "christoffel terms must be a list of objects, got 5"),
        ({"terms": [5]}, "christoffel term must be an object, got 5"),
        ({"terms": [{"k": 0}]}, "christoffel term {'k': 0} is missing field 'i'"),
        ({"terms": [{"k": 1.7, "i": 0.2, "j": 0, "coeff": 1}]},
         "christoffel term k must be an integer in [0, 2), got 1.7"),
        ({"terms": [{"k": 1, "i": 0.2, "j": 0, "coeff": 1}]},
         "christoffel term i must be an integer in [0, 2), got 0.2"),
        ({"terms": [{"k": 0, "i": 0, "j": 0, "coeff": None}]},
         "christoffel term coeff must be a finite number, got None"),
        ({"terms": [{"k": 0, "i": 0, "j": 0, "coeff": 1, "monomial": [{}, 0]}]},
         "christoffel term monomial must be a nonempty 1-d real vector, got [{}, 0]"),
        ({"name": "scalar-linear", "lamda": 2}, "connection 'scalar-linear' takes no parameter 'lamda'"),
        ({"name": "fig1", "alpha": 7}, "connection 'fig1' takes no parameter 'alpha'"),
        ({"name": "sphere-stereographic", "dimension": 2},
         "connection 'sphere-stereographic' takes no parameter 'dimension'"),
        ({"name": ["fig1"]}, "unknown gallery connection ['fig1']"),
    ])
    def test_bad_connection_file_is_one_error_line(self, tmp_path, capsys, spec, message):
        conn = tmp_path / "conn.json"
        if "name" not in spec:  # terms of a 2-d christoffel member
            spec = {"name": "christoffel", "dimension": 2, **spec}
        conn.write_text(json.dumps(spec), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["uvb-scan", "--connection", str(conn), "--point", "0,0",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "polyline", "points": 5, "times": [0, 1]},
         "polyline points must be a list of points, got 5"),
        ({"kind": "polyline", "points": [[0], [1, 2]], "times": [0, 1]},
         "polyline points must all have one dimension"),
        ({"kind": "polyline", "points": [[0], [1]], "times": [0, float("inf")]},
         "polyline times must have finite entries, got [ 0. inf]"),
        ({"kind": "polyline", "points": [[0], [1]], "times": [-1.7e308, 1.7e308]},
         "polyline times must be strictly increasing, over a finite span"),
        ({"kind": "polyline", "points": [[0], [1]], "times": [0, "one"]},
         "polyline times must be a nonempty 1-d real vector, got [0, 'one']"),
        ({"kind": "circle", "center": [0], "radius": None},
         "circle radius must be positive and finite, got None"),
        ({"kind": "circle", "center": [0, 0], "radius": 1, "plane": 5},
         "circle plane 5 invalid for dimension 2"),
        ({"kind": "circle", "center": [0, 0], "radius": 1, "plane": [0.5, 1]},
         "circle plane [0.5, 1] invalid for dimension 2"),
        ({"kind": "segment", "from": {"a": 1}, "to": [1]},
         "segment start must be a nonempty 1-d real vector, got {'a': 1}"),
        # Misspelt or unread fields, which would otherwise take a default.
        ({"kind": "circle", "center": [0, 0], "radius": 1, "plan": [0, 1]},
         "path of kind 'circle' takes no field 'plan'"),
        ({"kind": "segment", "from": [0], "to": [1], "plane": [0, 1]},
         "path of kind 'segment' takes no field 'plane'"),
        ({"kind": "segment", "from": [0], "to": [1], "radius": 3},
         "path of kind 'segment' takes no field 'radius'"),
        ({"kind": "polyline", "points": [[0], [1]], "times": [0, 1], "time": [0, 1]},
         "path of kind 'polyline' takes no field 'time'"),
        ({"kind": "segment", "form": [0], "to": [1]},
         "path of kind 'segment' takes no field 'form'"),
        ({"kind": ["segment"], "from": [0], "to": [1]}, "unknown path kind ['segment']"),
        # A span or speed that overflows.
        ({"kind": "segment", "from": [-1e308], "to": [1e308]},
         "segment span b - a must be finite, got [inf]"),
        ({"kind": "polyline", "points": [[-1e308], [0], [1e308]], "times": [0, 1, 2]},
         "polyline knot tangents must be finite, got [[inf], [inf], [inf]]"),
        ({"kind": "circle", "center": [0, 0], "radius": 1e308},
         "circle length 2 pi r must be finite, got radius 1e+308"),
        ({"kind": "circle", "center": [1.7e308, 0], "radius": 2e307},
         "circle |center| + radius must be finite in its plane, "
         "got center [1.7e+308, 0] and radius 2e+307"),
    ])
    def test_bad_path_file_is_one_error_line(self, tmp_path, capsys, spec, message):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["lift", "--connection", "fig1", "--path", str(path), "--v", "0",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        argv_sets = [
            ["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "1"],
            ["uvb-scan", "--connection", "scalar-linear:1"],
            ["transport", "--connection", "fig1", "--path", "segment:0:1",
             "--v", "0", "--jacobian"],
        ]
        for i, argv in enumerate(argv_sets):
            out_a = tmp_path / f"a{i}"
            out_b = tmp_path / f"b{i}"
            code_a = main(argv + ["--out", str(out_a)])
            text_a = capsys.readouterr().out
            code_b = main(argv + ["--out", str(out_b)])
            text_b = capsys.readouterr().out
            assert code_a == code_b
            assert text_a == text_b
            files_a = sorted(p.name for p in out_a.iterdir())
            files_b = sorted(p.name for p in out_b.iterdir())
            assert files_a == files_b
            for name in files_a:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# Inline text of --connection: numbers (at most 4.5, so that a flat member
# stays small), lists of them, and words that are not numbers.
_INLINE_TEXT = st.one_of(
    st.lists(st.one_of(st.floats(-4.5, 4.5).map(repr), st.integers(-2, 4).map(str)),
             max_size=3).map(",".join),
    st.sampled_from(["", ",", "nan", "inf", "-inf", "1e400", "abc", "1:2", " 2 ", "0x2"]),
)
_CONNECTION_NAMES = st.sampled_from(
    [r["name"] for r in gallery_members()] + ["", "wormhole", "Fig1", " flat"])


@settings(max_examples=120, deadline=None)
@given(name=_CONNECTION_NAMES, text=st.none() | _INLINE_TEXT)
def test_connection_spec_fuzz_exits_cleanly(tmp_path_factory, name, text):
    connection = name if text is None else f"{name}:{text}"
    out = tmp_path_factory.mktemp("fuzz")
    code = main(["uvb-scan", "--connection", connection, "--out", str(out)])
    assert isinstance(code, int) and code in (0, 1, 3, 4)


# Values for every flag of every subcommand, and abbreviations of some, kept
# cheap: 1-d or 2-d members, segments of length at most 1, |v| <= 2.
_FLAG_VALUES = {
    "--connection": ["fig1", "flat", "flat:2", "scalar-linear", "scalar-linear:-2", "fig1:2",
                     "wormhole"],
    "--path": ["segment:0:1", "segment:0.5:0", "segment:0,0:0.6,0.8", "segment:0", "nowhere"],
    "--v": ["0", "1", "-2", "0,1", "2,-1", "x", ""],
    "--point": ["0", "0.5,-1", "x"],
    "--rtol": ["1e-6", "1e-9", "-1", "nan", "x"],
    "--atol": ["1e-12", "1e-9", "0", "x"],
    "--escape-norm": ["1e8", "10", "-1", "x"],
    "--format": ["json", "csv", "xml"],
    "--weight": ["euclidean", "normalized", "l1"],
    "--eps": ["1e-3", "0.1", "-1", "nan"],
    "--vstar-spacing": ["0.02", "0.05", "0", "0.1"],
    "--jacobian": [None],
    "list": [None],  # gallery's action, a stray word elsewhere
    "show": [None],
}
_ABBREVIATED = {"--conn": "--connection", "--pa": "--path", "--escape": "--escape-norm",
                "--vstar": "--vstar-spacing", "--jac": "--jacobian", "--form": "--format",
                "--poi": "--point", "--rt": "--rtol"}


_READ_FLAGS = {
    "lift": ["--connection", "--path", "--v", "--rtol", "--atol", "--escape-norm"],
    "transport": ["--connection", "--path", "--v", "--rtol", "--atol", "--escape-norm",
                  "--jacobian"],
    "uvb-scan": ["--connection", "--path", "--point", "--format", "--weight", "--eps"],
    "figure1": ["--rtol", "--atol", "--escape-norm", "--vstar-spacing"],
    "gallery": ["list"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_READ_FLAGS)))
    argv = [command]
    if command in _VALID_ARGV and draw(st.booleans()):
        argv += _VALID_ARGV[command]
    # Half the extra flags are ones the subcommand reads, so that runs get past parsing.
    flags = st.one_of(st.sampled_from(_READ_FLAGS[command]),
                      st.sampled_from(sorted(_FLAG_VALUES) + sorted(_ABBREVIATED)))
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(flags)
        value = draw(st.sampled_from(_FLAG_VALUES[_ABBREVIATED.get(flag, flag)]))
        argv += [flag] if value is None else [flag, value]
    if command == "figure1":  # the last --vstar-spacing counts: keep the grid short
        argv += ["--vstar-spacing", draw(st.sampled_from(["0.02", "0.05"]))]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_argv_fuzz_exits_cleanly(tmp_path_factory, argv):
    # Every subcommand but gallery writes into --out, so the fuzz never writes into ".".
    if argv[0] != "gallery":
        argv = argv + ["--out", str(tmp_path_factory.mktemp("argv"))]
    code = main(argv)
    assert isinstance(code, int) and code in (0, 1, 2, 3, 4)
