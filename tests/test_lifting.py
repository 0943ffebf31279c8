import dataclasses

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pathlift import lifting
from pathlift.connections import ConnectionField, ConnectionSpec, _inline_spec, gallery
from pathlift.geometry import PathCurve, path_circle, path_polyline, path_reverse, path_segment
from pathlift.integrate import (
    COMPLETE,
    ESCAPED,
    IntegratorOptions,
    integrate_adaptive,
    integrate_lanes,
)
from pathlift.lifting import (
    TransportEscapedError,
    completion_threshold,
    holonomy,
    LiftTrajectory,
    horizontal_lift,
    horizontal_lifts,
    horizontality_defect,
    parallel_transport,
    round_trip_defect,
    transport_jacobian,
)

FIG1 = gallery("fig1")
UNIT = path_segment([0.0], [1.0])
# c' = (1 + c^2)^4 u: above order 2, so a blow-up stalls short of a large escape norm.
_PG8 = gallery(ConnectionSpec("power-growth", {"alpha": 8.0}))
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

    def test_a_fiber_whose_square_overflows_lifts_as_a_scaled_unit_fiber(self):
        # |v|^2 overflows from v = (1e200, 0) on: the sphere's lift is linear
        # in v, so it completes as 1e200 times the lift of (1, 0).
        sphere, path = gallery("sphere-stereographic"), path_segment([0.0, 0.0], [1.0, 0.5])
        big = horizontal_lift(sphere, path, [1e200, 0.0], IntegratorOptions(escape_norm=1e300))
        unit = horizontal_lift(sphere, path, [1.0, 0.0]).final_fiber * 1e200
        assert big.stop_reason == "complete"
        assert np.hypot(*(big.final_fiber - unit)) < 1e-9 * np.hypot(*unit)

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


def _custom_gamma(p, v):
    # A 2-d map that only takes one point and one fiber vector at a time.
    assert p.shape == v.shape == (2,)
    return np.array([[0.3 * v[0] * v[1], np.sin(p[0])], [-0.2 * v[1], 0.1 * v[0] ** 2]])


_CUSTOM = ConnectionField(2, _custom_gamma, name="custom-2d")

_term = st.fixed_dictionaries({
    "coeff": _floats(-2.0, 2.0),
    "monomial": st.lists(st.integers(0, 2), min_size=3, max_size=3),
    "k": st.integers(0, 2), "i": st.integers(0, 2), "j": st.integers(0, 2),
})


def _one_matrix_gamma(p, v):
    # Claims to broadcast, but makes one matrix of whatever it is given.
    return 0.5 * np.outer(np.sin(v), np.cos(p)) - np.eye(2)


_ONE_MATRIX = ConnectionField(2, _one_matrix_gamma, name="one-matrix", broadcasts=True)


@st.composite
def _lift_cases(draw):
    name = draw(st.sampled_from(
        ["fig1", "power-growth", "scalar-linear", "sphere-stereographic", "flat",
         "custom", "one-matrix", "christoffel"]))
    if name == "power-growth":
        conn = gallery(ConnectionSpec(name, {"alpha": draw(_floats(0.0, 3.0))}))
    elif name == "scalar-linear":
        conn = _scalar(draw(_floats(-3.0, 3.0)))
    elif name == "flat":
        conn = _flat(draw(st.integers(1, 3)))
    elif name == "custom":
        conn = _CUSTOM
    elif name == "one-matrix":
        conn = _ONE_MATRIX
    elif name == "christoffel":  # 1-d, without a float form of its own
        terms = [{**t, "k": 0, "i": 0, "j": 0, "monomial": t["monomial"][:1]}
                 for t in draw(st.lists(_term, max_size=3))]
        conn = gallery(ConnectionSpec(name, {"dimension": 1, "terms": terms}))
    else:
        conn = gallery(name)
    n = conn.dimension
    point = st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["segment", "polyline"] + ["circle"] * (n == 2)))
    if kind == "circle":
        path = path_circle(draw(point), draw(_floats(0.1, 1.5)))
    elif kind == "polyline":
        path = path_polyline([draw(point) for _ in range(3)], [0.0, draw(_floats(0.2, 0.8)), 1.0])
    else:
        path = path_segment(draw(point), draw(point))
    coord = st.one_of(st.sampled_from([0.0, -0.0]), _floats(-3.0, 3.0))  # signed zeros too
    v0 = draw(st.lists(coord, min_size=n, max_size=n))
    return conn, path, v0


class TestRawRhsEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(_lift_cases())
    def test_lift_matches_validated_rhs_bitwise(self, case):
        # The lift validates Gamma once and calls it raw; driving the
        # integrator with the fully validated coefficient map must give the
        # same trajectory bit for bit wherever that map stays finite.
        conn, path, v0 = case
        traj = horizontal_lift(conn, path, v0)

        def validated(t, c):
            # -Gamma gamma', each row's terms added left to right and then to
            # +0.0, as a lift adds them.
            m = -conn.coeff(path.position(t), c)
            return np.add.accumulate(m * path.velocity(t), axis=1)[:, -1] + 0.0

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


def _spy_on_integrate_lanes(monkeypatch):
    """The (field, float_rhs) of each call lifting makes to integrate_lanes, in a list."""
    captured = []

    def spy(field, Y0, opts, float_rhs):
        captured.append((field, float_rhs))
        return integrate_lanes(field, Y0, opts, float_rhs)

    monkeypatch.setattr(lifting, "integrate_lanes", spy)
    return captured


@np.errstate(all="ignore")
def test_stacked_rhs_rounds_as_the_product(monkeypatch):
    # Every row of the lift's field returns (-M) @ V, negation first, bit
    # for bit as the float forms: with m = 0.0 the product -0.0 adds to
    # +0.0, where -(M @ V) gives -0.0.  A batch of a 1-d map without a float
    # form of its own runs the field; it is fed every pair of special values
    # on one row of times and on five, for one lane and for two.
    captured = _spy_on_integrate_lanes(monkeypatch)
    box = {"m": 1.0, "v": 1.0}
    conn = ConnectionField(1, lambda p, v: np.array([[box["m"]]]))
    path = PathCurve(1, lambda t: np.array([t]), lambda t: np.array([box["v"]]))
    horizontal_lifts(conn, path, [[0.0], [0.5]])
    (field, _), = captured
    special = [0.0, -0.0, 5e-324, -1.0, 3.7, -1e300, 1e300, np.inf, -np.inf, np.nan]
    for m in special:
        for v in special:
            box.update(m=m, v=v)
            want = (-np.array([[m]]) @ np.array([v])).item()
            for s, k in [(1, 1), (1, 2), (5, 1), (5, 2)]:
                f, C = field(np.full((s, k), 0.5)), np.zeros((k, 1))
                for got in [f(r, C) for r in range(s)]:
                    assert np.shape(got) == (k, 1)
                    for x in np.ravel(got):
                        if np.isnan(want):
                            assert np.isnan(x), (m, v)
                        else:
                            assert (x, np.signbit(x)) == (want, np.signbit(want)), (m, v)


_CHRISTOFFEL1 = gallery(ConnectionSpec("christoffel", {"dimension": 1, "terms": [
    {"k": 0, "i": 0, "j": 0, "coeff": 0.8, "monomial": [1]}]}))


@pytest.mark.parametrize("conn, floats", [
    (FIG1, True),
    (gallery(_inline_spec("power-growth:3", 1)), True),
    (gallery("sphere-stereographic"), True),
    (_CHRISTOFFEL1, False),
    (ConnectionField(1, FIG1.gamma), False),
    (ConnectionField(2, lambda p, v: np.eye(2)), False),
], ids=["fig1", "power-growth", "sphere", "christoffel", "own-map", "own-map-2d"])
@pytest.mark.parametrize("seeds", [[0.5], [0.5, -0.25, 0.0]], ids=["lone", "three"])
def test_float_form_exactly_when_the_member_has_float_vertical(monkeypatch, conn, floats, seeds):
    # A lift steps in floats through float_vertical alone, in 1-d as in n-d;
    # without it, a lone seed steps stacked as a batch does.
    captured = _spy_on_integrate_lanes(monkeypatch)
    n = conn.dimension
    horizontal_lifts(conn, path_segment([0.2] * n, [1.1] * n), [[v] * n for v in seeds])
    (_, float_rhs), = captured
    assert (float_rhs is not None) == floats == (conn.float_vertical is not None)


def _assert_same_lift(a, b):
    for f in dataclasses.fields(LiftTrajectory):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert (type(x), repr(x)) == (type(y), repr(y)), f.name


_MEMBERS = ("fig1", "power-growth", "scalar-linear", "flat", "sphere-stereographic",
            "christoffel", "custom")


@st.composite
def _batch_cases(draw, members=_MEMBERS, max_seeds=8):
    name = draw(st.sampled_from(members))
    if name == "power-growth":
        conn = gallery(ConnectionSpec(name, {"alpha": draw(_floats(0.0, 3.0))}))
    elif name == "scalar-linear":
        conn = _scalar(draw(_floats(-3.0, 3.0)))
    elif name == "flat":
        conn = _flat(draw(st.integers(1, 3)))
    elif name == "christoffel":
        n = draw(st.integers(1, 3))
        terms = [{**t, "k": t["k"] % n, "i": t["i"] % n, "j": t["j"] % n,
                  "monomial": t["monomial"][:n]} for t in draw(st.lists(_term, max_size=5))]
        conn = gallery(ConnectionSpec(name, {"dimension": n, "terms": terms}))
    elif name == "custom":
        conn = _CUSTOM
    else:
        conn = gallery(name)
    n = conn.dimension
    point = st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["segment", "reversed", "polyline"] + ["circle"] * (n == 2)))
    if kind == "circle":
        path = path_circle(draw(point), draw(_floats(0.1, 1.5)))
    elif kind == "polyline":
        path = path_polyline([draw(point) for _ in range(3)], [0.0, draw(_floats(0.2, 0.8)), 1.0])
    else:
        path = path_segment(draw(point), draw(point))
        if kind == "reversed":
            path = path_reverse(path)
    coord = st.one_of(st.sampled_from([0.0, -0.0]), _floats(-3.0, 3.0))  # signed zeros too
    seeds = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1,
                          max_size=max_seeds))
    opts = IntegratorOptions(rtol=draw(st.sampled_from([1e-9, 1e-6, 1e-3])),
                             escape_norm=draw(st.sampled_from([1e8, 1e300])),
                             max_steps=draw(st.sampled_from([10**6, 60])))
    order = draw(st.permutations(range(len(seeds))))
    return conn, path, seeds, opts, order


_POLYLINE1 = path_polyline([[0.0], [0.6], [1.2]], [0.0, 0.3, 1.0])
_POLYLINE2 = path_polyline([[0.0, 0.2], [0.5, 1.0], [1.0, -0.3]], [0.0, 0.4, 1.0])


class TestHorizontalLifts:
    @settings(max_examples=60, deadline=None)
    @given(_batch_cases())
    def test_batch_equals_separate_lifts_in_any_order(self, case):
        conn, path, seeds, opts, order = case
        alone = [horizontal_lift(conn, path, v, opts) for v in seeds]
        batch = horizontal_lifts(conn, path, seeds, opts)
        shuffled = horizontal_lifts(conn, path, [seeds[i] for i in order], opts)
        assert len(batch) == len(shuffled) == len(seeds)
        for j, i in enumerate(order):
            _assert_same_lift(batch[i], alone[i])
            _assert_same_lift(shuffled[j], alone[i])

    @pytest.mark.parametrize("conn, path, seeds, opts, reasons", [
        (FIG1, UNIT, [[0.0], [0.5], [1.0], [5.0]],
         IntegratorOptions(rtol=1e-6, escape_norm=1e10, max_steps=32),
         ["complete", "complete", "max-steps", "escape-norm"]),
        (FIG1, UNIT, [[0.0], [0.5], [1.0], [5.0]], IntegratorOptions(escape_norm=1e300),
         ["complete", "complete", "escape-norm", "escape-norm"]),
        # c' = (1 + c^2)^4 blows up from 10 and 5 long before |c| = 1e300.
        (_PG8, path_segment([0.0], [0.25]), [[0.0], [-0.5], [10.0], [5.0]],
         IntegratorOptions(escape_norm=1e300), ["complete", "complete", "min-step", "min-step"]),
    ])
    def test_batch_mixes_stop_reasons(self, conn, path, seeds, opts, reasons):
        batch = horizontal_lifts(conn, path, seeds, opts)
        assert [traj.stop_reason for traj in batch] == reasons
        for v, traj in zip(seeds, batch):
            _assert_same_lift(traj, horizontal_lift(conn, path, v, opts))

    @pytest.mark.parametrize("conn, path", [
        (_CUSTOM, _POLYLINE2),
        (gallery("sphere-stereographic"), _POLYLINE2),
        (gallery("sphere-stereographic"), path_circle([0.1, -0.2], 0.5)),
        (FIG1, _POLYLINE1),
        (FIG1, path_segment([0.2], [1.1])),
        (_scalar(-1.5), _POLYLINE1),
        (_scalar(-1.5), path_segment([0.2], [1.1])),
    ], ids=["row by row", "broadcast", "sphere, circle", "fig1, polyline", "fig1, segment",
            "scalar-linear, polyline", "scalar-linear, segment"])
    def test_path_that_does_not_broadcast(self, conn, path):
        # A path of one's own callables is evaluated one time per lane, with a
        # Python float, in the stacked kernel (row by row) and in both float
        # kernels; its wrap of a segment has no fixed_velocity.  Its lanes equal
        # its lone lifts and the lifts along the path it wraps.
        types = set()

        def read(f):
            def call(t):
                types.add(type(t))
                return f(t)
            return call

        custom = PathCurve(path.dimension, read(path.position), read(path.velocity))
        assert not custom.broadcasts and custom.fixed_velocity is None
        seeds = ([[0.5, -0.25], [1.0, 0.0], [-0.75, 0.5]] if path.dimension == 2
                 else [[0.5], [-0.25], [1.0], [-0.0]])
        lanes = horizontal_lifts(conn, custom, seeds)
        for v, traj, ref in zip(seeds, lanes, horizontal_lifts(conn, path, seeds)):
            _assert_same_lift(traj, horizontal_lift(conn, custom, v))
            _assert_same_lift(traj, ref)
        assert types == {float}
        if conn is FIG1:
            assert {traj.stop_reason for traj in lanes} == {"complete", "escape-norm"}

    def test_stop_reason_tells_min_step_from_max_steps(self):
        # Both end in step-collapse: the min_step floor below the escape norm,
        # and the step budget.  power-growth:8 from 10 blows up at about
        # 1.385e-8, the integral of (1 + c^2)^-4 from 10 on.
        floor = horizontal_lift(_PG8, UNIT, [10.0], IntegratorOptions(escape_norm=1e300))
        budget = horizontal_lift(FIG1, UNIT, [1.0], IntegratorOptions(max_steps=5))
        assert floor.status == budget.status == "step-collapse"
        assert (floor.stop_reason, budget.stop_reason) == ("min-step", "max-steps")
        assert abs(floor.t[-1] - 1.3850209257e-8) < 1e-10

    @pytest.mark.parametrize("uses_base", [False, True])
    @pytest.mark.parametrize("seeds", [[[0.5]], [[0.5], [0.2], [-0.3]]])
    def test_gamma_that_ignores_the_base_gets_the_start_point(self, uses_base, seeds):
        # fig1 ignores p: with the flag false every call gets the path's
        # start, else the path's position.  dataclasses.replace keeps the
        # flag, and the lifts are the same either way.
        path = path_segment([0.25], [1.5])
        points = []

        def gamma(p, v):
            points.append(np.array(p))
            return FIG1.gamma(p, v)

        conn = dataclasses.replace(FIG1, gamma=gamma)
        if uses_base:
            conn = dataclasses.replace(conn, uses_base=True)
        for v, traj in zip(seeds, horizontal_lifts(conn, path, seeds)):
            _assert_same_lift(traj, horizontal_lift(FIG1, path, v))
        at_start = [bool(np.all(p == 0.25)) for p in points]
        assert all(at_start) if not uses_base else not all(at_start)

    def test_failing_batch_reruns_seeds_in_order(self):
        calls = []

        def gamma(p, v):
            calls.append(float(v[0]))
            if v[0] > 2.0:
                raise ZeroDivisionError(f"bad fiber {v[0]:.3f}")
            return np.array([[-(1.0 + v[0] ** 2)]])

        conn = ConnectionField(1, gamma)
        with pytest.raises(ZeroDivisionError) as alone:
            horizontal_lift(conn, UNIT, [1.0])
        with pytest.raises(ZeroDivisionError) as batch:
            horizontal_lifts(conn, UNIT, [[0.0], [1.0], [3.0]])
        # The batch fails first at seed 3 (checked before any lift starts);
        # the rerun raises seed 1's mid-lift error and never reaches seed 3.
        assert str(batch.value) == str(alone.value)
        assert 3.0 not in calls[calls.index(3.0) + 1:]

    def test_stack_of_the_wrong_shape_reruns_the_seeds_alone(self):
        # A map that claims to broadcast but returns one matrix for a stack:
        # the batch fails the stack's shape check, and each seed is rerun alone.
        conn = ConnectionField(2, lambda p, v: np.eye(2), broadcasts=True)
        with pytest.raises(ValueError, match=r"returned shape \(2, 2\), expected \(2, 2, 2\)"):
            conn.stack(np.zeros(2), np.ones((2, 2)))
        path, seeds = path_segment([0.0, 0.0], [1.0, 0.5]), [[1.0, -2.0], [0.5, 3.0]]
        for v, traj in zip(seeds, horizontal_lifts(conn, path, seeds)):
            _assert_same_lift(traj, horizontal_lift(conn, path, v))

    def test_empty_and_bad_seeds(self):
        assert horizontal_lifts(FIG1, UNIT, []) == []
        with pytest.raises(ValueError, match="dimension mismatch"):
            horizontal_lifts(FIG1, UNIT, [[0.0], [0.0, 0.0]])


_REVERSED = path_reverse(path_segment([-0.25], [1.0]))
# fig1 from -0.5 along it reaches c(1) = 2e4 in w = -1/c (past sqrt(1e8)); back from
# 2e4 along its reverse, the lift starts in w and returns to c at |c| <= 1.
_OUT_2E4 = path_segment([0.0], [np.arctan(2e4) + np.arctan(0.5)])
_POLYLINE = path_polyline([[0.0], [0.6], [1.2]], [0.0, 0.3, 1.0])
# Nine fig1 seeds that complete along _POLYLINE, then three that do not.
_TWELVE = [[v] for v in (-2.0, -1.0, -0.5, -0.0, 0.0, 0.2, 0.3, 0.35, 0.38, 0.5, 1.0, 5.0)]
# fig1: 1 escapes forward and -1 backward, the other seeds complete.
_FIG1_SEEDS = [[0.0], [0.3], [-0.3], [1.0], [-1.0]]


class TestFloatFormLifts:
    """A 1-d gallery member lifts through its float form, bit for bit as through gamma."""

    @pytest.mark.parametrize("member, path, v0, opts, reason", [
        ("fig1", UNIT, 0.0, IntegratorOptions(), "complete"),
        ("fig1", UNIT, 1.0, IntegratorOptions(), "escape-norm"),
        ("fig1", _OUT_2E4, -0.5, IntegratorOptions(), "complete"),
        ("fig1", path_reverse(_OUT_2E4), 2e4, IntegratorOptions(), "complete"),
        ("power-growth:1.5", UNIT, 4.5, IntegratorOptions(), "escape-norm"),
        ("power-growth:3", UNIT, 0.5, IntegratorOptions(escape_norm=3e5), "escape-norm"),
        # From 0.3, |c| = 3e5 lies about 5.6e-12 before the blow-up, within
        # min_step of where the floor stops the steps; 1e300 lies out of reach.
        ("power-growth:3", UNIT, 0.3, IntegratorOptions(escape_norm=3e5), "escape-norm"),
        ("power-growth:3", UNIT, 0.3, IntegratorOptions(escape_norm=1e300), "min-step"),
        # The landing attempt overflows (1 + c^2 at c = 1e300).
        ("power-growth:2", UNIT, 1e4, IntegratorOptions(escape_norm=1e300), "escape-norm"),
        ("fig1", _REVERSED, -1.0, IntegratorOptions(), "escape-norm"),
        ("fig1", UNIT, 1.0, IntegratorOptions(escape_norm=1e300), "escape-norm"),
        ("fig1", _POLYLINE, 1.0, IntegratorOptions(max_steps=40), "max-steps"),
        ("power-growth:8", UNIT, 10.0, IntegratorOptions(escape_norm=1e300), "min-step"),
        ("power-growth:3", _REVERSED, 2.0, IntegratorOptions(), "complete"),
        ("power-growth:0.5", _POLYLINE, -3.0, IntegratorOptions(rtol=1e-3), "complete"),
        ("scalar-linear:-3", UNIT, 1e154, IntegratorOptions(escape_norm=1e300), "complete"),
        ("scalar-linear:2", _POLYLINE, -0.0, IntegratorOptions(), "complete"),
        ("flat", _REVERSED, -1.5, IntegratorOptions(), "complete"),
    ])
    def test_lone_lift_equals_the_lift_through_gamma(self, member, path, v0, opts, reason):
        conn = gallery(_inline_spec(member, 1))
        plain = ConnectionField(1, conn.gamma)  # the same map, without the float form
        assert conn.float_vertical is not None and plain.float_vertical is None
        traj = horizontal_lift(conn, path, [v0], opts)
        assert traj.stop_reason == reason
        _assert_same_lift(traj, horizontal_lift(plain, path, [v0], opts))
        if member == "power-growth:8":
            assert traj.rejected > 0  # a trial stage overflowed to inf and was rejected

    @pytest.mark.parametrize("path", [UNIT, _REVERSED, _POLYLINE], ids=["segment", "reversed",
                                                                       "polyline"])
    def test_batches_of_5_and_20_lanes_use_the_float_form(self, path):
        # Every lane steps through the float form, lane after lane, until it
        # retires, however many there are; the member without it steps them
        # stacked.
        five = [[0.0], [0.5], [-0.8], [1.0], [5.0]]
        twenty = five + [[v] for v in np.linspace(-2.0, 3.0, 15)]
        opts = IntegratorOptions(escape_norm=1e10)
        plain = ConnectionField(1, FIG1.gamma, broadcasts=True, uses_base=False)
        for seeds in (five, twenty):
            for traj, ref in zip(horizontal_lifts(FIG1, path, seeds, opts),
                                 horizontal_lifts(plain, path, seeds, opts)):
                _assert_same_lift(traj, ref)

    @settings(max_examples=40, deadline=None)
    @given(_batch_cases(("fig1", "power-growth", "scalar-linear", "flat"), max_seeds=12)
           .filter(lambda case: case[0].dimension == 1))
    @example((FIG1, _POLYLINE, _TWELVE, IntegratorOptions(), None))  # escape-norm
    @example((FIG1, _POLYLINE, _TWELVE, IntegratorOptions(escape_norm=1e300), None))  # escape-norm
    @example((_PG8, _POLYLINE, _TWELVE, IntegratorOptions(escape_norm=1e300), None))  # min-step
    @example((FIG1, _POLYLINE, _TWELVE, IntegratorOptions(max_steps=400), None))  # max-steps
    def test_batch_equals_lone_lifts_in_floats(self, case):
        # Batches of up to 12 lanes, which step in floats, lane after lane,
        # as each does alone.  fig1's lanes escape at 1e300 as at 1e8;
        # power-growth:8's stop at the min_step floor, max_steps=60 others.
        conn, path, seeds, opts, _ = case
        for v, traj in zip(seeds, horizontal_lifts(conn, path, seeds, opts)):
            _assert_same_lift(traj, horizontal_lift(conn, path, v, opts))


def _without_fixed_velocity(path: PathCurve) -> PathCurve:
    return PathCurve(path.dimension, path.position, path.velocity, kind=path.kind,
                     broadcasts=path.broadcasts)


class TestSegmentSpeed:
    """A segment's constant velocity is read once by a 1-d lift in floats."""

    @pytest.mark.parametrize("member", ["fig1", "power-growth:1.5", "power-growth:3",
                                        "scalar-linear:-2", "flat"])
    @pytest.mark.parametrize("ends", [(0.2, 1.1), (1.1, 0.2)], ids=["forward", "backward"])
    def test_segment_lifts_equal_the_lifts_through_velocity(self, member, ends):
        # The same position and velocity without fixed_velocity are read once
        # per step attempt.  Batches of 1, 8 and 12 lanes, completing and escaping.
        conn = gallery(_inline_spec(member, 1))
        seg = path_segment([ends[0]], [ends[1]])
        plain = _without_fixed_velocity(seg)
        assert seg.fixed_velocity is not None and plain.fixed_velocity is None
        seeds = [[v] for v in (-8.0, -4.5, -2.0, -0.7, -0.3, -0.0, 0.0, 0.3, 0.7, 2.0, 4.5, 8.0)]
        reasons = set()
        for batch in ([[0.0]], [[8.0]], [[-8.0]], seeds[2:10], seeds):
            for traj, ref in zip(horizontal_lifts(conn, seg, batch),
                                 horizontal_lifts(conn, plain, batch)):
                _assert_same_lift(traj, ref)
                reasons.add(traj.stop_reason)
        assert "complete" in reasons
        if member not in ("scalar-linear:-2", "flat"):
            assert reasons != {"complete"}

    def test_the_speed_is_read_once(self):
        # Beyond the seed derivative and the first step's probe, a lone fig1
        # lift in floats never calls velocity.
        path, calls = _counting(path_segment([0.0], [1.0]))
        object.__setattr__(path, "fixed_velocity", path_segment([0.0], [1.0]).fixed_velocity)
        traj = horizontal_lift(FIG1, path, [0.5])
        assert traj.steps > 5 and calls["velocity"] == 2

    def test_only_segments_keep_it(self):
        seg = path_segment([0.2, -1.0], [1.1, 0.5])
        assert seg.fixed_velocity.tolist() == seg.velocity(0.3).tolist()
        assert dataclasses.replace(seg).fixed_velocity is None
        assert dataclasses.replace(seg, velocity=seg.velocity).fixed_velocity is None
        assert path_reverse(seg).fixed_velocity is None
        assert path_polyline([[0.0], [1.0]], [0.0, 1.0]).fixed_velocity is None
        assert path_circle([0.0, 0.0], 1.0).fixed_velocity is None


@st.composite
def _hook_cases(draw):
    name = draw(st.sampled_from(["sphere-stereographic", "christoffel", "flat"]))
    if name == "christoffel":
        n = draw(st.integers(1, 3))
        terms = [{**t, "k": t["k"] % n, "i": t["i"] % n, "j": t["j"] % n,
                  "monomial": t["monomial"][:n]} for t in draw(st.lists(_term, max_size=5))]
        conn = gallery(ConnectionSpec(name, {"dimension": n, "terms": terms}))
    elif name == "flat":
        conn = _flat(draw(st.integers(2, 3)))
    else:
        conn = gallery(name)
    n = conn.dimension
    point = st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["segment", "polyline"] + ["circle"] * (n > 1)))
    if kind == "circle":
        path = path_circle(draw(point), draw(_floats(0.1, 1.5)))
    elif kind == "polyline":
        path = path_polyline([draw(point) for _ in range(3)], [0.0, draw(_floats(0.2, 0.8)), 1.0])
    else:
        path = path_segment(draw(point), draw(point))
    if draw(st.booleans()):
        path = path_reverse(path)
    coord = st.one_of(st.sampled_from([0.0, -0.0]), _floats(-3.0, 3.0))
    seeds = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6))
    return conn, path, seeds


def _counting(original: PathCurve):
    """A copy of the broadcasting path ``original`` that counts its position and velocity calls."""
    calls = {"position": 0, "velocity": 0}

    def counted(name, fn):
        def call(t):
            calls[name] += 1
            return fn(t)
        return call

    path = PathCurve(original.dimension, counted("position", original.position),
                     counted("velocity", original.velocity), broadcasts=True)
    return path, calls


class TestStageHook:
    """Once per step, the path at all stage times and the tensors at all stage base points."""

    @settings(max_examples=60, deadline=None)
    @given(_hook_cases())
    def test_hook_equals_the_per_stage_route_bitwise(self, case):
        # A replaced gamma has no tensors, so it is evaluated stage by stage.
        conn, path, seeds = case
        plain = dataclasses.replace(conn, gamma=conn.gamma)
        assert plain.christoffel is None
        for traj, ref in zip(horizontal_lifts(conn, path, seeds),
                             horizontal_lifts(plain, path, seeds)):
            _assert_same_lift(traj, ref)

    @pytest.mark.parametrize("seeds", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, -2.0], [0.5, 0.5]]],
                             ids=["lone", "batch"])
    def test_one_path_call_per_step_attempt(self, seeds):
        # Beyond one position and one velocity call per step of the stack (a
        # copy without the float form), or per step attempt of each lane in
        # floats (the sphere), the lift reads the start (position), the first
        # derivatives and the first step's probe (both), and each
        # trajectory's base samples.
        sphere = gallery("sphere-stereographic")
        for conn, in_floats in ((sphere, True),
                                (dataclasses.replace(sphere, gamma=sphere.gamma), False)):
            path, calls = _counting(path_segment([0.1, -0.2], [0.9, 0.4]))
            lifts = horizontal_lifts(conn, path, seeds)
            attempts = [traj.steps + traj.rejected for traj in lifts]
            reads = sum(attempts) if in_floats else max(attempts)
            assert max(attempts) > 5
            assert calls == {"position": reads + 3 + len(seeds), "velocity": reads + 2}
        # A 1-d lane in floats reads a polyline once per step attempt too, and
        # fig1, which ignores the base point, reads no position there.
        path, calls = _counting(_POLYLINE)
        lifts = horizontal_lifts(FIG1, path, [seed[:1] for seed in seeds])
        attempts = sum(traj.steps + traj.rejected for traj in lifts)
        assert attempts > 5
        assert calls == {"position": 1 + len(seeds), "velocity": attempts + 2}


@st.composite
def _traced_cases(draw):
    # Every gallery member with a float form, 1-d and n-d.
    name = draw(st.sampled_from(["fig1", "power-growth", "scalar-linear", "flat",
                                 "sphere-stereographic"]))
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
    kind = draw(st.sampled_from(["segment", "polyline"] + ["circle"] * (n > 1)))
    if kind == "circle":
        path = path_circle(draw(point), draw(_floats(0.1, 1.5)))
    elif kind == "polyline":
        path = path_polyline([draw(point) for _ in range(3)], [0.0, draw(_floats(0.2, 0.8)), 1.0])
    else:
        path = path_segment(draw(point), draw(point))
    if draw(st.booleans()):
        path = path_reverse(path)
    coord = st.one_of(st.sampled_from([0.0, -0.0]), _floats(-3.0, 3.0))
    seeds = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=6))
    opts = IntegratorOptions(rtol=draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3])),
                             escape_norm=draw(st.sampled_from([1e8, 1e300])),
                             max_steps=draw(st.sampled_from([10**6, 60])))
    return conn, path, seeds, opts


def _assert_copies_lift_alike(conn, path, seeds, opts):
    # The copies a tracer makes to wrap gamma, position and velocity: the
    # connection loses its float form, the path its fixed_velocity, so the
    # copies lift stacked, reading the path at every step.
    traced_conn = dataclasses.replace(conn, gamma=conn.gamma)
    traced_path = dataclasses.replace(path, position=path.position, velocity=path.velocity)
    assert traced_conn.float_vertical is None
    assert traced_path.fixed_velocity is None
    batch = horizontal_lifts(conn, path, seeds, opts)
    for traj, ref in zip(batch, horizontal_lifts(traced_conn, traced_path, seeds, opts)):
        _assert_same_lift(traj, ref)
    for v in seeds:
        _assert_same_lift(horizontal_lift(conn, path, v, opts),
                          horizontal_lift(traced_conn, traced_path, v, opts))
    return batch


class TestTracedCopies:
    """Lifts through copies without the float forms have the float forms' bits."""

    @settings(max_examples=60, deadline=None)
    @given(_traced_cases())
    # Lanes that go on in w = -1/c: fig1 and power-growth:1.5 escape there; of
    # three power-growth:3 lanes one completes, and two reach the min_step
    # floor, from which they escape at 3e5 and stall at 1e300; power-growth:2
    # from 1e4 escapes at 1e300 although its landing attempt overflows.
    @example((FIG1, UNIT, [[1.0]], IntegratorOptions()))
    @example((gallery(ConnectionSpec("power-growth", {"alpha": 1.5})), UNIT, [[4.5]],
              IntegratorOptions()))
    @example((gallery(ConnectionSpec("power-growth", {"alpha": 3.0})), UNIT,
              [[-1.0], [0.5], [0.3]], IntegratorOptions(escape_norm=3e5)))
    @example((gallery(ConnectionSpec("power-growth", {"alpha": 3.0})), UNIT,
              [[-1.0], [0.5], [0.3]], IntegratorOptions(escape_norm=1e300)))
    @example((gallery(ConnectionSpec("power-growth", {"alpha": 2.0})), UNIT, [[1e4], [-1e4]],
              IntegratorOptions(escape_norm=1e300)))
    def test_copies_lift_to_the_same_bits(self, case):
        _assert_copies_lift_alike(*case)

    @pytest.mark.parametrize("path", [UNIT, _REVERSED, _POLYLINE],
                             ids=["segment", "reversed", "polyline"])
    @pytest.mark.parametrize("conn, seeds, opts, reason", [
        (FIG1, _FIG1_SEEDS, IntegratorOptions(), "escape-norm"),
        (FIG1, _FIG1_SEEDS, IntegratorOptions(escape_norm=1e300), "escape-norm"),
        # Order 3: |c| = 1e300 lies about 1e-600 before the blow-up, below the
        # min_step floor; each path takes two seeds to blow-up and two across.
        (gallery(ConnectionSpec("power-growth", {"alpha": 3.0})),
         [[0.3], [-0.3], [5.0], [-5.0]], IntegratorOptions(escape_norm=1e300), "min-step"),
        (FIG1, _FIG1_SEEDS, IntegratorOptions(max_steps=60), "max-steps"),
    ], ids=["escape-norm", "escape-norm-1e300", "min-step", "max-steps"])
    def test_one_dimensional_stop_reasons(self, path, conn, seeds, opts, reason):
        batch = _assert_copies_lift_alike(conn, path, seeds, opts)
        assert {"complete", reason} == {traj.stop_reason for traj in batch}


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

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([_scalar(1.0), _flat(2), gallery("sphere-stereographic")]),
           st.lists(_floats(-3.0, 3.0), min_size=4, max_size=4), _floats(0.0, 2 * np.pi))
    def test_round_trip_property(self, conn, coords, angle):
        # Criterion 4: there and back along a unit segment at the default
        # options returns the seed to 1e-6.
        n = conn.dimension
        unit = [np.cos(angle), np.sin(angle)] if n == 2 else [np.sign(np.cos(angle))]
        start = np.array(coords[:n])
        path = path_segment(start, start + np.array(unit))
        assert round_trip_defect(conn, path, coords[n:2 * n]) <= 1e-6


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

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.inf, np.nan])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            transport_jacobian(_scalar(1.0), UNIT, [1.3], h=h)

    @pytest.mark.parametrize("conn, path, v0, h", [
        (FIG1, path_segment([0.0], [0.6]), [0.3], 1e-17),
        (gallery("sphere-stereographic"), path_segment([0.0, 0.0], [1.0, 0.0]), [1e6, 1.0], 1e-11),
    ], ids=["fig1", "sphere"])
    def test_rejects_a_step_that_moves_no_probe(self, conn, path, v0, h):
        # v0[0] + h == v0[0]: the column would be 0 instead of an error.
        with pytest.raises(ValueError, match=r"step h=1e-\d+ does not move coordinate 0 of v0"):
            transport_jacobian(conn, path, v0, h=h)

    def _stop(self, call):
        with pytest.raises(TransportEscapedError) as info:
            call()
        return info.value.status, info.value.t_escape

    @pytest.mark.parametrize("path, v0, h, first", [
        (UNIT, [1.0], 0.1, [1.1]),                                  # +h and -h both escape
        (path_segment([1.0], [0.0]), [-0.642], 0.01, [-0.652]),     # only -h escapes
    ], ids=["plus-first", "minus-only"])
    def test_first_failing_probe_is_reported_1d(self, path, v0, h, first):
        got = self._stop(lambda: transport_jacobian(FIG1, path, v0, h=h))
        assert got == self._stop(lambda: parallel_transport(FIG1, path, first))

    def test_first_failing_probe_is_reported_2d(self):
        # Two uncoupled fig1 fibers along the diagonal.  Every probe escapes,
        # each at its own time; the error is that of probe (j=0, +h).
        conn = ConnectionField(2, lambda p, v: np.diag(-(1.0 + v * v)))
        path = path_segment([0.0, 0.0], [1.0, 1.0])
        got = self._stop(lambda: transport_jacobian(conn, path, [0.9, 0.3], h=0.1))
        assert got == self._stop(lambda: parallel_transport(conn, path, [1.0, 0.3]))
        assert got[0] == ESCAPED and abs(got[1] - np.pi / 4) < 1e-3

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


@st.composite
def _linearity_cases(draw):
    name = draw(st.sampled_from(["flat", "scalar-linear", "sphere-stereographic", "christoffel"]))
    if name == "flat":
        conn = _flat(draw(st.integers(1, 3)))
    elif name == "scalar-linear":
        conn = _scalar(draw(_floats(-3.0, 3.0)))
    elif name == "christoffel":
        n = draw(st.integers(1, 3))
        terms = [{**t, "k": t["k"] % n, "i": t["i"] % n, "j": t["j"] % n,
                  "monomial": t["monomial"][:n]} for t in draw(st.lists(_term, max_size=5))]
        conn = gallery(ConnectionSpec(name, {"dimension": n, "terms": terms}))
    else:
        conn = gallery(name)
    n = conn.dimension
    point = st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)
    knots = draw(st.integers(2, 4))
    if knots == 2:
        path, opts = path_segment(draw(point), draw(point)), None
    else:
        tenths = draw(st.lists(st.integers(1, 9), min_size=knots - 2, max_size=knots - 2,
                               unique=True))
        times = [0.0, *sorted(t / 10.0 for t in tenths), 1.0]
        path = path_polyline([draw(point) for _ in range(knots)], times)
        # The rhs has a kink at each inner knot, which the embedded error
        # estimate does not see: at the default tolerances a polyline's
        # transport is off by up to about 1e-6, so polylines run tighter.
        opts = IntegratorOptions(rtol=1e-11, atol=1e-14)
    vector = st.lists(_floats(-3.0, 3.0), min_size=n, max_size=n).map(np.array)
    u, w, a, b = draw(vector), draw(vector), draw(_floats(-2.0, 2.0)), draw(_floats(-2.0, 2.0))
    return conn, path, opts, u, w, a, b


class TestTransportLinearity:
    @settings(max_examples=30, deadline=None)
    @given(_linearity_cases())
    def test_fiber_linear_members_transport_linearly(self, case):
        # T(a u + b w) = a T(u) + b T(w) to criterion 4's bound.  The three
        # seeds are one batch, so linear members see stacked base points.
        conn, path, opts, u, w, a, b = case
        assert conn.is_linear_in_fiber
        lifts = horizontal_lifts(conn, path, [u, w, a * u + b * w], opts)
        if not all(traj.complete for traj in lifts):
            return
        tu, tw, tc = (traj.final_fiber for traj in lifts)
        defect = np.linalg.norm(tc - a * tu - b * tw)
        assert defect <= 1e-7 * (1.0 + np.linalg.norm(tu) + np.linalg.norm(tw))


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

    @settings(max_examples=25, deadline=None)
    @given(_floats(0.1, 2.0),
           st.lists(_floats(-2.0, 2.0), min_size=2, max_size=2).filter(lambda v: np.hypot(*v) >= 0.1))
    def test_sphere_holonomy_is_the_cap_area(self, r, v0):
        # Counterclockwise round the chart circle of radius r, the transport
        # turns v0 by the enclosed cap area 4 pi r^2 / (1 + r^2), mod 2 pi.
        out = holonomy(gallery("sphere-stereographic"), path_circle([0.0, 0.0], r), v0).vec
        angle = np.arctan2(v0[0] * out[1] - v0[1] * out[0], v0[0] * out[0] + v0[1] * out[1])
        cap = 4 * np.pi * r**2 / (1 + r**2)
        assert abs((angle - cap + np.pi) % (2 * np.pi) - np.pi) < 1e-6
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v0), rel=1e-8)

    def test_equator_has_trivial_holonomy(self):
        # Chart radius 1 encloses a hemisphere: cap area 2 pi, a full turn.
        sph = gallery("sphere-stereographic")
        out = holonomy(sph, path_circle([0.0, 0.0], 1.0), [1.0, 0.0])
        assert np.max(np.abs(out.vec - [1.0, 0.0])) < 1e-6

    def test_non_closed_loop_rejected(self):
        with pytest.raises(ValueError):
            holonomy(_flat(1), UNIT, [1.0])

    @pytest.mark.parametrize("radius", [1e6, 1e8, 1e12])
    def test_large_circles_close(self, radius):
        # sin(2 pi) rounds to -2.4e-16, so the end of a circle of radius 1e6
        # misses its start by 2.4e-10: the closure tolerance scales with the speed.
        loop = path_circle([0.0, 0.0], radius)
        assert np.linalg.norm(loop.position(0.0) - loop.position(1.0)) > 1e-10
        out = holonomy(_flat(2), loop, [1.0, 0.0])
        assert np.array_equal(out.vec, [1.0, 0.0])
        if radius == 1e6:
            assert np.all(np.isfinite(holonomy(gallery("sphere-stereographic"), loop,
                                               [1.0, 0.0]).vec))

    @pytest.mark.parametrize("start, end", [([1e9, 0.0], [1e9 + 0.01, 0.0]),
                                            ([0.0, 0.0], [1e-9, 0.0])],
                             ids=["far-short", "tiny"])
    def test_open_segments_rejected(self, start, end):
        with pytest.raises(ValueError, match="loop does not close"):
            holonomy(_flat(2), path_segment(start, end), [1.0, 0.0])


class TestIntegrationAccuracy:
    def test_order_of_convergence(self):
        loose = horizontal_lift(FIG1, UNIT, [0.0], IntegratorOptions(rtol=1e-6, atol=1e-9))
        tight = horizontal_lift(FIG1, UNIT, [0.0], IntegratorOptions(rtol=1e-10, atol=1e-13))
        e_loose = abs(loose.final_fiber[0] - TAN1)
        e_tight = abs(tight.final_fiber[0] - TAN1)
        assert e_loose / e_tight >= 1e3

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["fig1", "power-growth", "scalar-linear", "flat"]),
        _floats(0.0, 3.0),
        _floats(-3.0, 3.0),
        st.lists(_floats(-1.5, 1.5), min_size=2, max_size=2),
        st.booleans(),
        st.one_of(st.sampled_from([0.0, -0.0]), _floats(-3.0, 3.0)),
    )
    # A fiber so small that the error norm of scipy's DOP853 divides 0 by 0.
    @example("scalar-linear", 0.0, 1.0, [0.0, 0.5], False, 1.1600656951233855e-170)
    # A span so short that DOP853 on c itself divides 0 by 0 at every step.
    @example("fig1", 0.0, 1.0, [0.0, 5.949928767260391e-162], False, 0.0)
    def test_complete_1d_lifts_match_dop853(self, member, alpha, lam, ends, reverse, v0):
        # The 1-d float-form members at the default options (rtol 1e-9)
        # against scipy's DOP853 at rtol 1e-13 on c' = -Gamma(c) gamma'.
        # A local error made at t grows by f(c(1)) / f(c(t)) up to t = 1 (an
        # autonomous 1-d flow); kappa is the largest such ratio along the
        # reference.  Draws with kappa <= 10 (about 97 % of complete ones)
        # keep the plain 1e-8 bound; near a blow-up it grows by kappa, capped
        # at 1e3, so no draw may be off by more than 1e-5 relative.  Over
        # 2,905 complete draws (hypothesis seeds 1-60) the worst error was
        # 1.5e-9 at kappa <= 10 and 3.1e-8 at kappa up to 2.2e3.
        from scipy.integrate import solve_ivp

        params = {"power-growth": {"alpha": alpha}, "scalar-linear": {"lambda": lam}}
        conn = gallery(ConnectionSpec(member, params.get(member, {})))
        path = path_segment([ends[0]], [ends[1]])
        path = path_reverse(path) if reverse else path
        traj = horizontal_lift(conn, path, [v0])
        if not traj.complete:
            event("incomplete")
            return

        def rhs(t, c):
            return -(conn.row(path.position(t), c) @ path.velocity(t))

        # The oracle integrates the displacement in units of the initial speed,
        # u = (c - v0) / s.  Its error norm adds the squares of err / (atol + rtol
        # |y|); when a whole lift moves c by less than about 1e-150 of that scale,
        # as along a span of 6e-162, both squares underflow and DOP853 on c itself
        # divides 0 by 0 at every step.  In u the first step moves y by about h.
        s = abs(rhs(0.0, np.array([v0])).item()) or 1.0
        # Only the oracle runs under errstate: its step-size control underflows
        # on tiny fibers, where the lift under test must not warn.
        with np.errstate(invalid="ignore", under="ignore"):
            sol = solve_ivp(lambda t, u: rhs(t, v0 + s * u) / s, (0.0, 1.0), [0.0],
                            method="DOP853", rtol=1e-13, atol=1e-15,
                            t_eval=np.linspace(0.0, 1.0, 201))
        assert sol.success, sol.message
        cs = v0 + s * sol.y[0]
        ref = cs[-1]
        speeds = np.abs([rhs(t, np.array([c])).item() for t, c in zip(sol.t, cs)])
        kappa = speeds[-1] / speeds.min() if speeds.min() > 0 else 1.0
        event("complete, kappa <= 10" if kappa <= 10 else "complete, kappa > 10")
        growth = 1.0 if kappa <= 10 else min(kappa, 1e3)
        assert abs(traj.final_fiber[0] - ref) <= 1e-8 * max(1.0, abs(ref)) * growth


class TestCompletionThreshold:
    def test_fig1_threshold_near_cot1(self):
        grid = 0.6 + 0.001 * np.arange(101)
        v_star, lo, hi = completion_threshold(FIG1, UNIT, grid)
        assert abs(v_star - 1 / TAN1) < 1e-3
        assert hi - lo == pytest.approx(0.001, rel=1e-9)

    def test_requires_straddling_grid(self):
        with pytest.raises(ValueError, match="grid does not straddle the completion threshold"):
            completion_threshold(FIG1, UNIT, [0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="grid does not straddle the completion threshold"):
            completion_threshold(FIG1, UNIT, [0.7, 0.8])
        with pytest.raises(ValueError, match="grid does not straddle the completion threshold"):
            completion_threshold(FIG1, UNIT, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_checks_every_grid_value_before_lifting(self, bad):
        # The search would stop after lifting 0.0 and 0.7, below the sorted last value.
        with pytest.raises(ValueError, match="initial fiber vector must have finite entries"):
            completion_threshold(FIG1, UNIT, [0.0, 0.7, bad])

    @pytest.mark.parametrize("path, grid, lifted", [
        (UNIT, 0.6 + 1e-3 * np.arange(101), [0, 50, 25, 37, 43, 40, 41, 42]),
        (path_segment([1.0], [0.0]), [-0.7, -0.65, -0.6], [0, 2, 1]),
    ], ids=["101-point", "reversed"])
    def test_bisects_one_seed_at_a_time(self, monkeypatch, path, grid, lifted):
        batches = []

        def counting(field, Y0, opts=None, float_rhs=None):
            batches.append([float(v[0]) for v in Y0])
            return integrate_lanes(field, Y0, opts, float_rhs)

        monkeypatch.setattr(lifting, "integrate_lanes", counting)
        completion_threshold(FIG1, path, grid)
        assert batches == [[np.sort(grid)[i]] for i in lifted]

    def test_a_search_that_falls_back_checks_each_seed_once(self, monkeypatch):
        # The escaping power-growth:3 lifts end at min-step, so the search
        # falls back to lifting the rest of the grid as one batch.
        conn = gallery(_inline_spec("power-growth:3", 1))
        path = path_segment([-0.6610596154940225], [0.3389403845059775])
        grid = [-0.040428013760535106, -0.011114410679005565, 0.018199192402523975,
                0.047512795484053516, 0.07682639856558306]
        checked, coeff = [], ConnectionField.coeff
        monkeypatch.setattr(ConnectionField, "coeff",
                            lambda self, p, v: checked.append(float(v[0])) or coeff(self, p, v))
        v_star, lo, hi = completion_threshold(conn, path, grid)
        assert (lo, hi) == (grid[1], grid[2])
        assert checked == grid
        assert "min-step" in {horizontal_lift(conn, path, [v]).stop_reason for v in grid}

    def test_two_sided_blowup_is_not_monotone(self):
        # c' = c^3 blows up before t = 1 exactly when |c(0)| > 1/sqrt(2).
        cubic = ConnectionField(1, lambda p, v: np.array([[-v[0] ** 3]]))
        with pytest.raises(ValueError, match="completion is not monotone over the grid"):
            completion_threshold(cubic, UNIT, [1.0, 0.0, -1.0])

    def test_reversed_path_brackets_the_lower_end(self):
        # Along 1 -> 0 the fig1 lifts complete exactly above -cot(1).
        v_star, lo, hi = completion_threshold(FIG1, path_segment([1.0], [0.0]), [-0.7, -0.65, -0.6])
        assert (v_star, lo, hi) == (-0.625, -0.65, -0.6)
        assert lo < -1 / TAN1 < hi

    def test_completion_on_both_sides_is_not_monotone(self):
        # c' = c |c| from c(0) = v0 blows up at t = 1 / |v0| for either sign,
        # so the lifts complete exactly when |v0| < 1: completion flips twice.
        conn = ConnectionField(1, lambda p, v: np.array([[-v[0] * abs(v[0])]]))
        grid = [-2.0, -0.5, 0.0, 0.5, 2.0]
        done = [horizontal_lift(conn, UNIT, [v]).complete for v in grid]
        assert done == [False, True, True, True, False]
        with pytest.raises(ValueError, match="completion is not monotone over the grid"):
            completion_threshold(conn, UNIT, grid)

    def test_needs_one_dimension(self):
        with pytest.raises(ValueError, match="works on 1-d connections"):
            completion_threshold(_flat(2), path_segment([0, 0], [1, 1]), [0.0, 1.0])
        with pytest.raises(ValueError, match=r"grid must be a 1-d sequence .*shape \(\)"):
            completion_threshold(FIG1, UNIT, 0.5)
        with pytest.raises(ValueError, match=r"grid must be a 1-d sequence .*shape \(1, 2\)"):
            completion_threshold(FIG1, UNIT, [[0.5, 0.7]])

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([FIG1, dataclasses.replace(FIG1)]  # the copy has no float form
                        + [gallery(ConnectionSpec(*member)) for member in [
                            ("power-growth", {"alpha": 0.5}), ("power-growth", {"alpha": 1.2}),
                            ("power-growth", {"alpha": 1.5}), ("power-growth", {"alpha": 2.0}),
                            ("power-growth", {"alpha": 3.0}), ("scalar-linear", {"lambda": 1.0}),
                            ("scalar-linear", {"lambda": -2.0})]]),
        _floats(-1.0, 1.0),
        st.one_of(_floats(-1.5, -0.3), _floats(0.3, 1.5)),
        st.lists(st.integers(-100, 100), min_size=4, max_size=8, unique=True),
    )
    def test_completion_set_is_an_interval(self, conn, start, length, ticks):
        # In 1-d, lifts are ordered in their seed, so the seeds whose lone
        # lifts complete form an interval.  completion_threshold brackets its
        # upper end when it holds the lowest seed and not all, and its lower
        # end when it holds the top seed (a path run backwards).
        path = path_segment([start], [start + length])
        seeds = sorted(t / 20.0 for t in ticks)  # 0.05 apart at least
        done = [horizontal_lift(conn, path, [v]).complete for v in seeds]
        inside = [j for j, ok in enumerate(done) if ok]
        if inside:
            assert inside == list(range(inside[0], inside[-1] + 1)), done
        if not 0 < len(inside) < len(seeds):
            with pytest.raises(ValueError, match="does not straddle"):
                completion_threshold(conn, path, seeds)
        elif inside[0] > 0:
            assert inside[-1] == len(seeds) - 1, done
            lo, hi = seeds[inside[0] - 1], seeds[inside[0]]
            assert completion_threshold(conn, path, seeds) == (0.5 * (lo + hi), lo, hi)
        else:
            lo, hi = seeds[inside[-1]], seeds[inside[-1] + 1]
            assert completion_threshold(conn, path, seeds) == (0.5 * (lo + hi), lo, hi)
