import json

import numpy as np
import pytest

from pathlift.cli import main

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

    def test_path_supplies_scan_points(self, tmp_path):
        code = main([
            "uvb-scan", "--connection", "sphere-stereographic",
            "--path", "segment:0,0:1,0", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "scan_002.json").exists()

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


class TestConfigErrors:
    def test_unknown_connection(self, tmp_path):
        assert main(["lift", "--connection", "wormhole", "--path", "segment:0:1",
                     "--v", "0", "--out", str(tmp_path)]) == 1

    def test_dimension_mismatch(self, tmp_path):
        assert main(["lift", "--connection", "fig1", "--path", "segment:0,0:1,1",
                     "--v", "0,0", "--out", str(tmp_path)]) == 1

    def test_missing_path(self, tmp_path):
        assert main(["lift", "--connection", "fig1", "--v", "0",
                     "--out", str(tmp_path)]) == 1

    def test_unreadable_spec_file(self, tmp_path):
        bad = tmp_path / "conn.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["lift", "--connection", str(bad), "--path", "segment:0:1",
                     "--v", "0", "--out", str(tmp_path)]) == 1

    def test_bad_flag_maps_to_config_error(self, tmp_path):
        assert main(["lift", "--no-such-flag"]) == 1

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
