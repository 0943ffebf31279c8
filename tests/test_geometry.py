import numpy as np
import pytest

from pathlift.geometry import (
    ChartPoint,
    PathCurve,
    TangentVector,
    path_circle,
    path_from_json,
    path_polyline,
    path_reverse,
    path_segment,
)

GRID = np.linspace(0.0, 1.0, 101)


def _fd_velocity(path, t, h=1e-6):
    return (path.position(t + h) - path.position(t - h)) / (2 * h)


class TestChartTypes:
    def test_point_validates(self):
        p = ChartPoint([1.0, 2.0])
        assert p.dimension == 2
        with pytest.raises(ValueError):
            ChartPoint([np.nan])
        with pytest.raises(ValueError):
            ChartPoint([[1.0, 2.0]])

    def test_tangent_vector_dimensions(self):
        tv = TangentVector(ChartPoint([0.0, 0.0]), [1.0, -1.0])
        assert tv.dimension == 2
        with pytest.raises(ValueError):
            TangentVector(ChartPoint([0.0]), [1.0, 2.0])
        with pytest.raises(ValueError):
            TangentVector(ChartPoint([0.0]), [np.inf])


class TestSegment:
    def test_affine_interpolation(self):
        seg = path_segment([0.0], [1.0])
        assert seg.position(0.5) == pytest.approx([0.5])
        assert seg.velocity(0.5) == pytest.approx([1.0])

    def test_degenerate_segment(self):
        seg = path_segment([2.0, 3.0], [2.0, 3.0])
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(seg.velocity(t), [0.0, 0.0])
            assert np.array_equal(seg.position(t), [2.0, 3.0])

    def test_pythagorean_speed(self):
        seg = path_segment([0.0, 0.0], [3.0, 4.0])
        for t in GRID:
            assert np.linalg.norm(seg.velocity(t)) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            path_segment([0.0], [1.0, 2.0])


class TestPolyline:
    def test_two_points_reduce_to_segment(self):
        line = path_polyline([[0.0], [1.0]], [0.0, 1.0])
        seg = path_segment([0.0], [1.0])
        for t in GRID:
            assert abs(line.position(t)[0] - seg.position(t)[0]) < 1e-14

    def test_tent_knots_and_velocity_continuity(self):
        tent = path_polyline([[0.0], [1.0], [0.0]], [0.0, 0.5, 1.0])
        assert tent.position(0.5) == pytest.approx([1.0], abs=1e-12)
        jump = tent.velocity(0.5 - 1e-10) - tent.velocity(0.5 + 1e-10)
        assert np.linalg.norm(jump) < 1e-8

    def test_sine_sampling_accuracy(self):
        # 16 knots of sin(2 pi t); cubic Hermite should track to below 1e-2.
        knots = np.linspace(0.0, 1.0, 16)
        path = path_polyline([[np.sin(2 * np.pi * t)] for t in knots], knots)
        dense = np.linspace(0.0, 1.0, 1001)
        err = max(abs(path.position(t)[0] - np.sin(2 * np.pi * t)) for t in dense)
        assert err < 1e-2

    def test_interpolates_knots_exactly(self):
        knots = np.array([0.0, 0.2, 0.55, 1.0])
        pts = [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [-1.0, 0.0]]
        path = path_polyline(pts, knots)
        for t, p in zip(knots, pts):
            assert np.max(np.abs(path.position(t) - p)) < 1e-12

    def test_times_rescaled_to_unit_interval(self):
        path = path_polyline([[0.0], [2.0], [1.0]], [2.0, 3.0, 6.0])
        assert path.position(0.0) == pytest.approx([0.0])
        assert path.position(0.25) == pytest.approx([2.0])
        assert path.position(1.0) == pytest.approx([1.0])

    def test_matches_scalar_hermite_formula_bitwise(self):
        # The basis written out one float t at a time, as polylines evaluated
        # it before they shared the integrator's dense-output routine.
        rng = np.random.default_rng(3)
        for m, n in [(2, 1), (3, 2), (4, 3), (5, 1)]:
            pts = rng.normal(size=(m, n))
            tau = np.cumsum(rng.uniform(0.1, 1.0, m))
            path = path_polyline(pts, tau)
            tau = (tau - tau[0]) / (tau[-1] - tau[0])
            tang = np.empty_like(pts)
            tang[0] = (pts[1] - pts[0]) / (tau[1] - tau[0])
            tang[-1] = (pts[-1] - pts[-2]) / (tau[-1] - tau[-2])
            tang[1:-1] = (pts[2:] - pts[:-2]) / (tau[2:] - tau[:-2])[:, None]
            for t in np.concatenate([rng.uniform(-0.01, 1.01, 250), tau]).tolist():
                k = min(max(int(np.searchsorted(tau, t, side="right") - 1), 0), m - 2)
                h = tau[k + 1] - tau[k]
                s = (t - tau[k]) / h
                pos = ((1 + 2 * s) * (1 - s) ** 2 * pts[k] + s * (1 - s) ** 2 * h * tang[k]
                       + s * s * (3 - 2 * s) * pts[k + 1] + s * s * (s - 1) * h * tang[k + 1])
                d00 = 6 * s * (s - 1)
                vel = ((d00 * pts[k] + -d00 * pts[k + 1]) / h
                       + (1 - s) * (1 - 3 * s) * tang[k] + s * (3 * s - 2) * tang[k + 1])
                assert path.position(t).tobytes() == pos.tobytes()
                assert path.velocity(t).tobytes() == vel.tobytes()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            path_polyline([[0.0]], [0.0])
        with pytest.raises(ValueError):
            path_polyline([[0.0], [1.0], [2.0]], [0.0, 0.7, 0.5])
        with pytest.raises(ValueError):
            path_polyline([[0.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="got 3 points but 2 times"):
            path_polyline([[0.0], [1.0], [2.0]], [0.0, 1.0])


class TestReverse:
    def test_endpoint_swap(self):
        rev = path_reverse(path_segment([0.0], [1.0]))
        assert rev.position(0.0) == pytest.approx([1.0])
        assert rev.position(1.0) == pytest.approx([0.0])

    def test_involution(self):
        path = path_polyline([[0.0], [1.0], [0.5]], [0.0, 0.4, 1.0])
        twice = path_reverse(path_reverse(path))
        for t in GRID:
            assert np.max(np.abs(twice.position(t) - path.position(t))) < 1e-12

    def test_velocity_negates(self):
        rev = path_reverse(path_segment([0.0], [1.0]))
        for t in GRID:
            assert rev.velocity(t) == pytest.approx([-1.0])


class TestVelocityConsistency:
    # Centered differences against the declared velocity on the 101-point grid.
    def test_segment(self):
        seg = path_segment([0.0, 1.0], [2.0, -3.0])
        for t in GRID:
            v = seg.velocity(t)
            assert np.linalg.norm(_fd_velocity(seg, t) - v) <= 1e-6 * (1 + np.linalg.norm(v))

    def test_circle(self):
        circ = path_circle([1.0, 2.0, 3.0], 1.5, plane=(0, 2))
        for t in GRID:
            v = circ.velocity(t)
            assert np.linalg.norm(_fd_velocity(circ, t) - v) <= 1e-6 * (1 + np.linalg.norm(v))

    def test_polyline_module_tolerance(self):
        # C1 only: curvature jumps at the knots cap centered differences
        # there, so the grid check uses the coarser module tolerance...
        knots = np.linspace(0.0, 1.0, 16)
        path = path_polyline([[np.sin(2 * np.pi * t)] for t in knots], knots)
        for t in GRID:
            v = path.velocity(t)
            assert np.linalg.norm(_fd_velocity(path, t) - v) <= 1e-4 * (1 + np.linalg.norm(v))

    def test_polyline_smooth_points(self):
        # ...while between knots the interpolant is a cubic and the tight
        # bound applies.
        knots = np.linspace(0.0, 1.0, 16)
        path = path_polyline([[np.sin(2 * np.pi * t)] for t in knots], knots)
        mids = (knots[:-1] + knots[1:]) / 2
        for t in mids:
            v = path.velocity(t)
            assert np.linalg.norm(_fd_velocity(path, t) - v) <= 1e-6 * (1 + np.linalg.norm(v))


class TestCircle:
    def test_closes_and_has_radius(self):
        circ = path_circle([0.5, -0.5], 2.0)
        assert np.max(np.abs(circ.position(0.0) - circ.position(1.0))) < 1e-12
        for t in GRID:
            assert np.linalg.norm(circ.position(t) - [0.5, -0.5]) == pytest.approx(2.0)

    def test_bad_plane(self):
        with pytest.raises(ValueError):
            path_circle([0.0, 0.0], 1.0, plane=(0, 0))
        with pytest.raises(ValueError):
            path_circle([0.0, 0.0], 1.0, plane=(0, 2))
        with pytest.raises(ValueError):
            path_circle([0.0, 0.0], -1.0)


class TestJsonIngestion:
    def test_segment(self):
        path = path_from_json({"kind": "segment", "from": [0.0, 0.0], "to": [1.0, 1.0]})
        assert path.kind == "segment"
        assert path.position(1.0) == pytest.approx([1.0, 1.0])

    def test_polyline(self):
        path = path_from_json(
            '{"kind": "polyline", "points": [[0.0], [1.0], [0.0]], "times": [0.0, 0.5, 1.0]}'
        )
        assert path.kind == "polyline-hermite"
        assert path.position(0.5) == pytest.approx([1.0])

    def test_circle(self):
        path = path_from_json({"kind": "circle", "center": [0.0, 0.0], "radius": 1.0})
        assert path.kind == "circle-loop"
        assert path.position(0.0) == pytest.approx([1.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            path_from_json({"kind": "spiral"})
        with pytest.raises(ValueError):
            path_from_json({"kind": "segment", "from": [0.0]})


class TestBroadcasting:
    PATHS = {
        "segment": path_segment([0.5, -1.0, -0.0], [2.0, 0.25, 3.0]),
        "circle": path_circle([0.2, -0.0, 1.0], 0.7, plane=(2, 0)),
        "reversed circle": path_reverse(path_circle([0.3, 0.1], 1.3)),
        "reversed segment": path_reverse(path_segment([1.0], [-2.0])),
        "polyline": path_polyline([[0.5, -1.0], [2.0, 0.25], [-0.3, 1.1], [0.0, 0.7]],
                                  [0.0, 0.3, 0.45, 1.0]),
        "reversed polyline": path_reverse(path_polyline([[1.0], [-2.0], [0.5]], [2.0, 3.0, 6.0])),
    }
    TIMES = np.concatenate([GRID, [-1e-6, 0.1 + 1e-17, 1.0 + 1e-6, 1 / 3]])

    @pytest.mark.parametrize("name", PATHS)
    def test_column_of_times_equals_one_call_per_time(self, name):
        path = self.PATHS[name]
        assert path.broadcasts
        col = self.TIMES[:, None]
        for f in (path.position, path.velocity):
            rows = np.array([f(float(t)) for t in self.TIMES])
            got = np.broadcast_to(f(col), rows.shape)
            assert got.tobytes() == rows.tobytes()
        rows = np.array([path.position(float(t)) for t in self.TIMES])
        assert path.sample(self.TIMES).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("name", PATHS)
    def test_a_wrap_that_does_not_broadcast_samples_the_same(self, name):
        # A path of one's own callables is called once per time, with a Python float.
        path, types = self.PATHS[name], []

        def position(t):
            types.append(type(t))
            return path.position(t)

        wrap = PathCurve(path.dimension, position, path.velocity)
        assert not wrap.broadcasts
        assert wrap.sample(self.TIMES).tobytes() == path.sample(self.TIMES).tobytes()
        assert types == [float] * self.TIMES.size
        assert wrap.sample(0.25).tobytes() == path.sample(0.25).tobytes()
        assert wrap.sample([]).shape == path.sample([]).shape == (0, path.dimension)

    @pytest.mark.parametrize("broadcasts", [True, False])
    @pytest.mark.parametrize("shape", [(105, 1), (3, 35), (1, 1)])
    def test_sample_times_must_be_one_dimensional(self, broadcasts, shape):
        seg = self.PATHS["segment"]
        path = PathCurve(seg.dimension, seg.position, seg.velocity, broadcasts=broadcasts)
        with pytest.raises(ValueError, match="a number or a 1-d array"):
            path.sample(self.TIMES[:np.prod(shape)].reshape(shape))

    def test_custom_paths_do_not_broadcast(self):
        custom = PathCurve(1, lambda t: np.array([t]), lambda t: np.ones(1))
        assert not custom.broadcasts
        assert not path_reverse(custom).broadcasts
