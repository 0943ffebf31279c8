"""Columnar CSV emission against a per-cell reference renderer.

`write_csv` renders each row of a file with one ``%``-format.  The reference
below renders every cell on its own, the way rows were written before the
writer took columns, and the two must give the same bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift.cli import main
from pathlift.connections import connection_from_json, gallery
from pathlift.emit import dumps_json, fmt_float, write_csv
from pathlift.geometry import path_segment
from pathlift.lifting import horizontal_lifts


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def _reference_csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, float("inf"),
                float("-inf"), float("nan"), 0.1, 1e16, 1e17, 1.7976931348623157e308]


@settings(max_examples=500, deadline=None)
@given(x=st.floats() | st.sampled_from(_EDGE_FLOATS))
def test_percent_format_equals_fmt_float(x):
    assert "%.17g" % x == fmt_float(x)


# Strings without the CSV separators, as the writers' string columns hold.
_WORDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-2**62, 2**62), st.floats(), _WORDS), max_size=12))
def test_mixed_columns_match_per_cell_reference(tmp_path_factory, rows):
    ints = np.array([r[0] for r in rows], dtype=np.int64)
    floats = np.array([r[1] for r in rows], dtype=float)
    words = [r[2] for r in rows]
    out = tmp_path_factory.mktemp("csv") / "mixed.csv"
    write_csv(out, ["i", "x", "s"], [ints, floats, words], "%d,%.17g,%s")
    # The reference sees numpy scalars, as rows taken from arrays give them.
    want = _reference_csv(["i", "x", "s"], zip(ints, floats, words))
    assert out.read_text(encoding="utf-8") == want


def test_default_format_is_float_columns(tmp_path):
    write_csv(tmp_path / "f.csv", ["a", "b"], [np.array([1.0, -0.0]), [np.nan, 1e-320]])
    text = (tmp_path / "f.csv").read_text(encoding="utf-8")
    assert text == "a,b\n1,nan\n-0,9.9998886718268301e-321\n"


def test_no_rows_writes_the_header(tmp_path):
    write_csv(tmp_path / "e.csv", ["a", "b"], [np.empty(0), np.empty(0)])
    assert (tmp_path / "e.csv").read_text(encoding="utf-8") == "a,b\n"


@pytest.mark.parametrize("columns", [
    [np.arange(3.0), np.arange(2.0)],
    [np.arange(2.0), np.arange(3.0)],
    [np.arange(3.0), np.arange(3.0), []],
])
def test_ragged_columns_raise(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", [f"c{i}" for i in range(len(columns))], columns)


def test_three_dimensional_lift_matches_per_cell_reference(tmp_path):
    # The golden digests pin lifts of dimension 1 and 2 only.
    spec = {"name": "christoffel", "dimension": 3, "terms": [
        {"k": 0, "i": 0, "j": 1, "coeff": 0.5, "monomial": [1, 0, 0]},
        {"k": 1, "i": 2, "j": 2, "coeff": -0.25, "monomial": [0, 1, 1]},
        {"k": 2, "i": 1, "j": 0, "coeff": 0.75, "monomial": [0, 0, 2]},
    ]}
    conn_file = tmp_path / "conn.json"
    conn_file.write_text(json.dumps(spec), encoding="utf-8")
    seeds = [[1.0, -0.5, 0.25], [-2.0, 0.0, 1.5]]
    out = tmp_path / "out"
    argv = ["lift", "--connection", str(conn_file), "--path", "segment:0,0,0:0.5,-0.3,0.8",
            "--out", str(out)]
    assert main(argv + ["--v=" + ",".join(map(str, v)) for v in seeds]) == 0
    trajs = horizontal_lifts(connection_from_json(spec),
                             path_segment([0, 0, 0], [0.5, -0.3, 0.8]), seeds)
    header = ["t", "base_0", "base_1", "base_2", "fiber_0", "fiber_1", "fiber_2"]
    for idx, traj in enumerate(trajs):
        rows = ([t, *b, *f] for t, b, f in zip(traj.t, traj.base, traj.fiber))
        got = (out / f"lift_{idx:03d}.csv").read_text(encoding="utf-8")
        assert got == _reference_csv(header, rows)


def test_lift_run_with_two_dense_grids_matches_per_cell_reference(tmp_path):
    # Complete lifts share one dense grid and render its t and base columns
    # once; an escaped lift has a grid of its own.
    seeds = [[0.0], [2.0], [0.5], [-0.3]]
    out = tmp_path / "out"
    argv = ["lift", "--connection", "fig1", "--path", "segment:0.25:1", "--out", str(out)]
    assert main(argv + [f"--v={v[0]}" for v in seeds]) == 2
    trajs = horizontal_lifts(gallery("fig1"), path_segment([0.25], [1.0]), seeds)
    assert [traj.complete for traj in trajs] == [True, False, True, True]
    assert len({traj.t.tobytes() + traj.base.tobytes() for traj in trajs}) == 2
    for idx, traj in enumerate(trajs):
        rows = ([t, *b, *f] for t, b, f in zip(traj.t, traj.base, traj.fiber))
        got = (out / f"lift_{idx:03d}.csv").read_text(encoding="utf-8")
        assert got == _reference_csv(["t", "base_0", "fiber_0"], rows)


def _strict_json(text: str, **kwargs):
    def refuse(constant):
        raise ValueError(f"bare {constant} is not JSON")

    return json.loads(text, parse_constant=refuse, **kwargs)


def test_json_writes_non_finite_floats_as_their_csv_text():
    # Finite floats are JSON numbers that read back bit for bit (whole
    # numbers such as 0.0 are written as integers, hence parse_int=float;
    # -0.0 is written "-0.0"); inf, -inf and nan are the strings the CSV
    # writer prints for them.
    got = _strict_json(dumps_json({"x": _EDGE_FLOATS, "y": np.array(_EDGE_FLOATS)}),
                       parse_int=float)
    for x in _EDGE_FLOATS:
        assert "%.17g" % x == fmt_float(x)
    for values in (got["x"], got["y"]):
        assert len(values) == len(_EDGE_FLOATS)
        for x, back in zip(_EDGE_FLOATS, values):
            if np.isfinite(x):
                assert np.array([back]).tobytes() == np.array([x]).tobytes()
            else:
                assert back == fmt_float(x)


def test_json_negative_zero_reads_back_as_a_negative_float():
    (back,) = json.loads(dumps_json([-0.0]))
    assert isinstance(back, float) and back == 0.0 and math.copysign(1.0, back) < 0.0
    assert dumps_json([0.0, np.float64(-0.0), -0.5]) == "[0,-0.0,-0.5]\n"


def test_transport_json_keeps_the_sign_of_a_zero_vector(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["transport", "--connection", "flat", "--path", "segment:0:1", "--v=-0",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "transport: complete\n"
    (v,) = json.loads((out / "transport.json").read_text(encoding="utf-8"))["vector_in"]
    assert isinstance(v, float) and math.copysign(1.0, v) < 0.0


def test_lift_json_with_an_infinite_speed_is_strict_json(tmp_path):
    # The fig1 seed 1e300 escapes at t = 0, where Gamma = -(1 + v^2) overflows.
    out = tmp_path / "out"
    argv = ["lift", "--connection", "fig1", "--path", "segment:0:1", "--v", "1e300",
            "--out", str(out)]
    assert main(argv) == 2
    summary = _strict_json((out / "lift_000.json").read_text(encoding="utf-8"))
    assert summary["max_vertical_speed"] == "inf"
    assert (summary["status"], summary["t_escape"], summary["norm_at_escape"]) == ("escaped", 0,
                                                                                  1e300)
