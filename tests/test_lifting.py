import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift.connections import ConnectionSpec, gallery
from pathlift.geometry import path_circle, path_polyline, path_reverse, path_segment
from pathlift.integrate import COMPLETE, ESCAPED, IntegratorOptions, integrate_adaptive
from pathlift.lifting import (
    TransportEscapedError,
    completion_threshold,
    holonomy,
    horizontal_lift,
    horizontality_defect,
    parallel_transport,
    round_trip_defect,
    transport_jacobian,
)

FIG1 = gallery("fig1")
UNIT = path_segment([0.0], [1.0])
TAN1 = np.tan(1.0)


def _flat(n):
    return gallery(ConnectionSpec("flat", {"dimension": n}))


def _scalar(lam):
    return gallery(ConnectionSpec("scalar-linear", {"lambda": lam}))


class TestHorizontalLift:
    def test_flat_lift_is_constant(self):
        traj = horizontal_lift(_flat(2), path_segment([0, 0], [1, 1]), [2.0, -1.0])
        assert traj.complete
        assert np.max(np.abs(traj.fiber - [2.0, -1.0])) < 1e-13

    def test_fig1_complete_lift(self):
        traj = horizontal_lift(FIG1, UNIT, [0.0])
        assert traj.complete
        assert abs(traj.final_fiber[0] - TAN1) < 1e-8

    def test_fig1_escaping_lift(self):
        traj = horizontal_lift(FIG1, UNIT, [1.0])
        assert traj.status == ESCAPED
        assert abs(traj.t_escape - np.pi / 4) < 1e-3
        assert traj.norm_at_escape >= 1e8

    def test_scalar_linear_decay(self):
        traj = horizontal_lift(_scalar(1.0), UNIT, [2.0])
        assert traj.complete
        assert abs(traj.final_fiber[0] - 2 * np.exp(-1.0)) < 1e-8

    def test_base_samples_match_path_exactly(self):
        # Base coordinates are read from the path, never integrated.
        path = path_polyline([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], [0.0, 0.4, 1.0])
        traj = horizontal_lift(_flat(2), path, [1.0, 1.0])
        assert np.array_equal(traj.base, path.sample(traj.t))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            horizontal_lift(FIG1, path_segment([0, 0], [1, 1]), [0.0])
        with pytest.raises(ValueError):
            horizontal_lift(FIG1, UNIT, [0.0, 0.0])

    def test_escape_times_decrease_with_seed(self):
        times = []
        for v0 in (0.7, 1.0, 2.0, 5.0):
            traj = horizontal_lift(FIG1, UNIT, [v0])
            assert traj.status == ESCAPED
            times.append(traj.t_escape)
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_nearby_seeds_stay_close(self):
        delta = 1e-9
        a = horizontal_lift(FIG1, UNIT, [0.0])
        b = horizontal_lift(FIG1, UNIT, [delta])
        assert a.complete and b.complete
        assert np.max(np.abs(a.fiber - b.fiber)) < 1e-6


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _lift_cases(draw):
    name = draw(st.sampled_from(
        ["fig1", "power-growth", "scalar-linear", "sphere-stereographic", "flat"]))
    if name == "power-growth":
        conn = gallery(ConnectionSpec(name, {"alpha": draw(_floats(0.0, 3.0))}))
    elif name == "scalar-linear":
        conn = _scalar(draw(_floats(-3.0, 3.0)))
    elif name == "flat":
        conn = _flat(draw(st.integers(1, 3)))
    else:
        conn = gallery(name)
    n = conn.dimension
    point = st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)
    if n == 2 and draw(st.booleans()):
        path = path_circle(draw(point), draw(_floats(0.1, 1.5)))
    else:
        path = path_segment(draw(point), draw(point))
    v0 = draw(st.lists(_floats(-3.0, 3.0), min_size=n, max_size=n))
    return conn, path, v0


class TestRawRhsEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(_lift_cases())
    def test_lift_matches_validated_rhs_bitwise(self, case):
        # The lift validates Gamma once and calls it raw; driving the
        # integrator with the fully validated coefficient map must give the
        # same trajectory bit for bit wherever that map stays finite.
        conn, path, v0 = case
        traj = horizontal_lift(conn, path, v0)

        def validated(t, c):
            return -conn.coeff(path.position(t), c) @ path.velocity(t)

        try:
            ref = integrate_adaptive(validated, v0)
        except ValueError:
            # The validated map met a non-finite Gamma at some trial stage;
            # the raw lift counts that stage as a rejected step instead.
            assert traj.rejected > 0
            return
        assert traj.t.tobytes() == ref.t.tobytes()
        assert traj.fiber.tobytes() == ref.y.tobytes()
        assert traj.base.tobytes() == path.sample(ref.t).tobytes()
        assert (traj.status, traj.steps, traj.rejected) == (ref.status, ref.steps, ref.rejected)
        assert traj.t_escape == ref.t_escape
        assert traj.norm_at_escape == ref.norm_at_escape
        assert traj.max_vertical_speed == ref.max_rhs_norm


class TestParallelTransport:
    def test_flat_identity(self):
        out = parallel_transport(_flat(2), path_segment([0, 0], [1, 1]), [3.0, 4.0])
        assert out.base.coords == pytest.approx([1.0, 1.0])
        assert out.vec == pytest.approx([3.0, 4.0], abs=1e-12)

    def test_fig1_half_seed(self):
        exact = np.tan(1.0 + np.arctan(0.5))
        out = parallel_transport(FIG1, UNIT, [0.5])
        assert abs(out.vec[0] - exact) / exact < 1e-6

    def test_escape_above_threshold(self):
        # Seeds above 1/tan(1) blow up before reaching the far fiber.
        with pytest.raises(TransportEscapedError) as info:
            parallel_transport(FIG1, UNIT, [0.7])
        assert abs(info.value.t_escape - (np.pi / 2 - np.arctan(0.7))) < 1e-3


class TestHorizontalityDefect:
    def test_flat_defect_negligible(self):
        traj = horizontal_lift(_flat(2), path_segment([0, 0], [1, 1]), [1.0, 2.0])
        assert horizontality_defect(_flat(2), traj, path_segment([0, 0], [1, 1])) <= 1e-10

    def test_fig1_defect_fd_limited(self):
        traj = horizontal_lift(FIG1, UNIT, [0.0])
        assert horizontality_defect(FIG1, traj, UNIT) <= 1e-4

    def test_escaped_defect_is_finite(self):
        traj = horizontal_lift(FIG1, UNIT, [2.0])
        assert traj.status == ESCAPED
        assert np.isfinite(horizontality_defect(FIG1, traj, UNIT))

    def test_needs_three_samples(self):
        traj = horizontal_lift(FIG1, UNIT, [0.0], IntegratorOptions(dense_samples=2))
        with pytest.raises(ValueError):
            horizontality_defect(FIG1, traj, UNIT)


class TestRoundTrip:
    def test_flat(self):
        assert round_trip_defect(_flat(2), path_segment([0, 0], [1, 1]), [1.0, -2.0]) < 1e-12

    def test_scalar_linear(self):
        assert round_trip_defect(_scalar(1.0), UNIT, [2.0]) <= 1e-8

    def test_fig1(self):
        assert round_trip_defect(FIG1, UNIT, [0.0]) <= 1e-6


class TestTransportJacobian:
    def test_flat_identity(self):
        jac = transport_jacobian(_flat(2), path_segment([0, 0], [1, 1]), [0.5, 0.5])
        assert np.max(np.abs(jac - np.eye(2))) < 1e-8

    def test_scalar_linear_derivative(self):
        jac = transport_jacobian(_scalar(1.0), UNIT, [1.3])
        assert abs(jac[0, 0] - np.exp(-1.0)) < 1e-6

    def test_fig1_derivative_at_zero(self):
        jac = transport_jacobian(FIG1, UNIT, [0.0])
        assert abs(jac[0, 0] - (1.0 + TAN1**2)) < 1e-4

    def test_probe_escape_propagates(self):
        with pytest.raises(TransportEscapedError):
            transport_jacobian(FIG1, UNIT, [0.642], h=0.01)

    def test_transport_is_local_diffeomorphism(self):
        cases = [
            (FIG1, UNIT, [0.3]),
            (_scalar(-1.0), UNIT, [1.0]),
            (gallery("sphere-stereographic"), path_segment([0, 0], [1, 0]), [0.5, -0.5]),
        ]
        for conn, path, v0 in cases:
            jac = transport_jacobian(conn, path, v0)
            assert abs(np.linalg.det(jac)) > 1e-8
            assert np.linalg.cond(jac) < 1e6

    def test_linear_members_transport_linearly(self):
        rng = np.random.default_rng(11)
        members = [_flat(2), _scalar(1.0), gallery("sphere-stereographic")]
        paths = [path_segment([0, 0], [1, 1]), UNIT, path_segment([0.2, 0.1], [0.9, -0.4])]
        for conn, path in zip(members, paths):
            n = conn.dimension
            for _ in range(5):
                u, w = rng.normal(size=n), rng.normal(size=n)
                a, b = rng.uniform(-2, 2, size=2)
                pu = parallel_transport(conn, path, u).vec
                pw = parallel_transport(conn, path, w).vec
                pc = parallel_transport(conn, path, a * u + b * w).vec
                defect = np.linalg.norm(pc - a * pu - b * pw)
                assert defect <= 1e-7 * (1 + np.linalg.norm(pu) + np.linalg.norm(pw))


class TestHolonomy:
    def test_flat_loop_returns_seed(self):
        loop = path_circle([0.0, 0.0], 1.0)
        out = holonomy(_flat(2), loop, [1.0, 2.0])
        assert np.max(np.abs(out.vec - [1.0, 2.0])) < 1e-8

    def test_scalar_linear_closed_polyline(self):
        # Transport depends only on the endpoint displacement, which is zero.
        # The interior knot kinks the velocity derivative, costing the step
        # that crosses it some accuracy, so run tighter than the default.
        loop = path_polyline([[0.0], [1.0], [0.0]], [0.0, 0.5, 1.0])
        out = holonomy(_scalar(1.0), loop, [2.0], IntegratorOptions(rtol=1e-11, atol=1e-13))
        assert abs(out.vec[0] - 2.0) < 1e-8

    def test_sphere_cap_rotation(self):
        # Gauss-Bonnet oracle: rotation angle equals the area of the
        # spherical cap enclosed by the chart circle, 4 pi r^2 / (1 + r^2).
        sph = gallery("sphere-stereographic")
        for r in (0.5, 0.8):
            cap = 4 * np.pi * r**2 / (1 + r**2)
            expected = (cap + np.pi) % (2 * np.pi) - np.pi
            loop = path_circle([0.0, 0.0], r)
            for v0 in ([1.0, 0.0], [0.3, -0.7]):
                out = holonomy(sph, loop, v0).vec
                angle = np.arctan2(
                    v0[0] * out[1] - v0[1] * out[0], v0[0] * out[0] + v0[1] * out[1]
                )
                assert abs(abs(angle) - abs(expected)) < 1e-6
                # The fiber metric at the base point is conformal, so the
                # rotation also preserves euclidean length.
                assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v0), abs=1e-8)

    def test_equator_has_trivial_holonomy(self):
        # Chart radius 1 encloses a hemisphere: cap area 2 pi, a full turn.
        sph = gallery("sphere-stereographic")
        out = holonomy(sph, path_circle([0.0, 0.0], 1.0), [1.0, 0.0])
        assert np.max(np.abs(out.vec - [1.0, 0.0])) < 1e-6

    def test_non_closed_loop_rejected(self):
        with pytest.raises(ValueError):
            holonomy(_flat(1), UNIT, [1.0])


class TestIntegrationAccuracy:
    def test_order_of_convergence(self):
        loose = horizontal_lift(FIG1, UNIT, [0.0], IntegratorOptions(rtol=1e-6, atol=1e-9))
        tight = horizontal_lift(FIG1, UNIT, [0.0], IntegratorOptions(rtol=1e-10, atol=1e-13))
        e_loose = abs(loose.final_fiber[0] - TAN1)
        e_tight = abs(tight.final_fiber[0] - TAN1)
        assert e_loose / e_tight >= 1e3


class TestCompletionThreshold:
    def test_fig1_threshold_near_cot1(self):
        grid = 0.6 + 0.001 * np.arange(101)
        v_star, lo, hi = completion_threshold(FIG1, UNIT, grid)
        assert abs(v_star - 1 / TAN1) < 1e-3
        assert hi - lo == pytest.approx(0.001, rel=1e-9)

    def test_requires_straddling_grid(self):
        with pytest.raises(ValueError):
            completion_threshold(FIG1, UNIT, [0.0, 0.1, 0.2])
