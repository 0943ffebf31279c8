import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from pathlift.connections import ConnectionField, ConnectionSpec, gallery
from pathlift.uvb import (
    EUCLIDEAN,
    INCONCLUSIVE,
    NORMALIZED,
    NOT_UVB,
    UVB,
    FiberWeight,
    axis_directions,
    cross_gram_angles,
    default_radii,
    fiber_scan,
    fiber_weight,
    principal_angles,
    uvb_classify,
)
from pathlift.uvb import BETA_DECAY, BETA_FLAT, DEFAULT_EPS, _angle_stack, _default_layout, _grid

FIG1 = gallery("fig1")


def _member(name, **params):
    return gallery(ConnectionSpec(name, params))


def _const_field(mat):
    mat = np.asarray(mat, dtype=float)
    return ConnectionField(mat.shape[0], lambda p, v: mat, name="const")


def _repeat_at(grid, k):
    # |Gamma| = r, so theta ~ 1/r decays with beta near -1 under the euclidean
    # weight, except that the sample at grid[k] repeats the one before it.
    def gamma(p, v):
        r = abs(v[0])
        return np.array([[grid[k - 1] if r == grid[k] else r]])

    return ConnectionField(1, gamma, name="repeat")


class TestFiberWeight:
    def test_euclidean_is_one(self):
        assert EUCLIDEAN([3.0, 4.0]) == 1.0

    def test_normalized_value(self):
        assert NORMALIZED([3.0, 4.0]) == pytest.approx(1.0 / np.sqrt(26.0))

    def test_custom_positivity_enforced(self):
        w = FiberWeight("custom", lambda v: -1.0)
        with pytest.raises(ValueError):
            w([1.0])

    def test_modes_are_checked(self):
        with pytest.raises(ValueError, match="unknown fiber weight mode 'bogus'"):
            FiberWeight("bogus")
        with pytest.raises(ValueError, match="custom fiber weight needs a function"):
            FiberWeight("custom")

    def test_lookup(self):
        assert fiber_weight("euclidean") is EUCLIDEAN
        assert fiber_weight("normalized") is NORMALIZED
        with pytest.raises(ValueError):
            fiber_weight("hyperbolic")


class TestPrincipalAngles:
    def test_flat_spectrum_is_right_angles(self):
        conn = _member("flat", dimension=3)
        for weight in (EUCLIDEAN, NORMALIZED):
            spec = principal_angles(conn, [0, 0, 0], [1.0, 2.0, 3.0], weight)
            assert np.all(spec.angles == np.pi / 2)

    def test_scalar_sqrt3_gives_pi_over_six(self):
        conn = _const_field([[np.sqrt(3.0)]])
        spec = principal_angles(conn, [0.0], [0.0], EUCLIDEAN)
        assert abs(spec.theta_min - np.pi / 6) < 1e-12

    def test_fig1_normalized_slope(self):
        spec = principal_angles(FIG1, [0.0], [1.0], NORMALIZED)
        assert abs(spec.theta_min - np.arctan2(1.0, np.sqrt(2.0))) < 1e-12

    def test_spectrum_sorted_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            conn = _const_field(rng.normal(size=(n, n)))
            angles = principal_angles(conn, np.zeros(n), rng.normal(size=n), NORMALIZED).angles
            assert np.all(np.diff(angles) >= 0)
            assert np.all(angles > 0) and np.all(angles <= np.pi / 2)

    def test_graph_form_matches_cross_gram(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            conn = _const_field(rng.normal(size=(n, n)))
            v = rng.normal(size=n)
            for weight in (EUCLIDEAN, NORMALIZED):
                direct = principal_angles(conn, np.zeros(n), v, weight).angles
                gram = cross_gram_angles(conn, np.zeros(n), v, weight)
                assert np.max(np.abs(direct - gram)) < 1e-10

    def test_agrees_with_scipy_subspace_angles(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            conn = _const_field(rng.normal(size=(n, n)))
            v = rng.normal(size=n)
            ours = principal_angles(conn, np.zeros(n), v, EUCLIDEAN).angles
            ref = np.sort(subspace_angles(conn.horizontal_basis(np.zeros(n), v),
                                          conn.vertical_basis()))
            assert np.max(np.abs(ours - ref)) < 1e-10

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            mat = rng.normal(size=(n, n))
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v = rng.normal(size=n)
            a = principal_angles(_const_field(mat), np.zeros(n), v, EUCLIDEAN).angles
            b = principal_angles(_const_field(q1 @ mat @ q2.T), np.zeros(n), v, EUCLIDEAN).angles
            assert np.max(np.abs(a - b)) < 1e-10


@st.composite
def _rotated_members(draw):
    # A member and the same connection in a chart rotated by an orthogonal
    # Q: gamma'(p, v) = Q gamma(Q^T p, Q^T v) Q^T.
    name = draw(st.sampled_from(["christoffel", "sphere-stereographic", "power-growth"]))
    if name == "christoffel":
        n = draw(st.integers(1, 3))
        index = st.integers(0, n - 1)
        terms = draw(st.lists(st.fixed_dictionaries({
            "k": index, "i": index, "j": index, "coeff": st.floats(-3.0, 3.0),
            "monomial": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        }), max_size=6))
        conn = _member(name, dimension=n, terms=terms)
    elif name == "power-growth":
        conn = _member(name, alpha=draw(st.floats(0.0, 3.0)))
    else:
        conn = gallery(name)
    n = conn.dimension
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    q, _ = np.linalg.qr(np.array(entries).reshape(n, n))  # orthogonal even when singular
    rotated = ConnectionField(n, lambda p, v: q @ conn.gamma(q.T @ p, q.T @ v) @ q.T)
    point = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    fiber = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return conn, rotated, q, point, fiber


class TestOrthogonalInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_rotated_members())
    def test_angles_and_scans_are_invariant(self, case):
        # Principal angles at (Q p, Q v) under the rotated connection equal
        # those at (p, v); so does theta_min of a scan along the directions d Q^T.
        # The radii stay small: Q^T Q v differs from v by rounding, which
        # moves an exact right angle by about eps * r * |Gamma|.
        conn, rotated, q, p, v = case
        dirs, radii = axis_directions(conn.dimension), [1.0, 10.0, 100.0]
        for weight in (EUCLIDEAN, NORMALIZED):
            a = principal_angles(conn, p, v, weight).angles
            b = principal_angles(rotated, q @ p, q @ v, weight).angles
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)
            a = fiber_scan(conn, p, dirs, radii, weight).theta_min
            b = fiber_scan(rotated, q @ p, dirs @ q.T, radii, weight).theta_min
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)


class TestFiberScan:
    def test_flat_scan_is_flat(self):
        report = fiber_scan(_member("flat", dimension=2), [0.0, 0.0])
        assert np.all(report.theta_min == np.pi / 2)
        assert np.max(np.abs(report.beta)) < 1e-12
        assert report.verdict == UVB

    def test_fig1_decay_against_closed_form(self):
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 10.0, 100.0])
        expected = np.arctan2(1.0, np.sqrt(1.0 + np.array([1.0, 10.0, 100.0]) ** 2))
        for i in range(report.directions.shape[0]):
            assert np.max(np.abs(report.theta_min[i] - expected)) < 1e-6
            assert -1.05 <= report.beta[i] <= -0.95

    def test_scalar_linear_levels_off(self):
        report = fiber_scan(_member("scalar-linear", **{"lambda": 1.0}), [0.0])
        assert report.verdict == UVB
        # theta_m decreases toward arccot(1) = pi/4 and stays above it.
        for i in range(report.directions.shape[0]):
            vals = report.theta_min[i]
            assert np.all(np.diff(vals) <= 0)
            assert vals[-1] >= np.pi / 4 - 1e-12

    def test_linear_members_have_positive_limits(self):
        # Sampled limit within 10% of arccot(s_inf), s_inf computed
        # independently from the coefficient at unit fiber radius.
        for conn, p in [
            (_member("scalar-linear", **{"lambda": -1.0}), [0.0]),
            (gallery("sphere-stereographic"), [0.5, 0.25]),
        ]:
            report = fiber_scan(conn, p)
            for i, d in enumerate(report.directions):
                s_inf = np.linalg.norm(conn.coeff(p, d), 2)
                limit = np.arctan2(1.0, s_inf)
                assert abs(report.theta_min[i, -1] - limit) <= 0.1 * limit
                assert np.all(np.diff(report.theta_min[i]) <= 1e-15)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            fiber_scan(FIG1, [0.0], directions=[[2.0]])
        with pytest.raises(ValueError, match="directions have length 2, connection n=1"):
            fiber_scan(FIG1, [0.0], directions=[[1.0, 0.0]])
        with pytest.raises(ValueError):
            fiber_scan(FIG1, [0.0], radii=[1.0, 1.0, 2.0, 4.0])

    @pytest.mark.parametrize("directions", [None, [[1.0]]], ids=["axes", "given"])
    def test_point_of_the_wrong_length_is_refused_first(self, directions):
        # Before the directions, the radii or any sample: the axes of a
        # connection of dimension n take n^2 floats.
        with pytest.raises(ValueError, match=r"^base point has length 2, connection n=1$"):
            fiber_scan(FIG1, [0.0, 0.0], directions=directions, radii=[np.nan])

    @pytest.mark.parametrize("grid, message", [
        ({"radii": [1.0, np.nan, 4.0, 8.0]}, "radii must be"),
        ({"radii": [1.0, 2.0, 4.0, np.inf]}, "radii must be"),
        ({"directions": [[np.nan]]}, "directions must be"),
        ({"radii": [[1.0, 2.0, 4.0, 8.0]]}, "radii must be"),
        ({"directions": np.empty((0, 1))}, r"nonempty \(m, n\) array, got shape \(0, 1\)$"),
        ({"directions": np.empty((0, 1)), "conn": ConnectionField(1, lambda p, v: np.eye(1))},
         r"nonempty \(m, n\) array, got shape \(0, 1\)$"),
        ({"directions": [[[1.0]]]}, r"nonempty \(m, n\) array, got shape \(1, 1, 1\)$"),
        ({"directions": [[[1.0, 0.0]]], "conn": gallery("sphere-stereographic")},
         r"nonempty \(m, n\) array, got shape \(1, 1, 2\)$"),
    ], ids=["nan-radius", "inf-radius", "nan-direction", "2-d-radii", "no-direction",
            "no-direction-row-by-row", "3-d-directions", "3-d-directions-sphere"])
    def test_malformed_grid_is_a_grid_error(self, grid, message):
        # Every comparison with NaN is false, so the grid checks must be
        # written in positive form to reject it before any sample runs.
        # The shape is checked before any sample too.
        grid = dict(grid)
        conn = grid.pop("conn", FIG1)
        with pytest.raises(ValueError, match=message):
            fiber_scan(conn, np.zeros(conn.dimension), **grid)

    def test_failure_carries_location(self):
        bad = ConnectionField(1, lambda p, v: np.array([[np.inf if abs(v[0]) > 3 else 1.0]]))
        with pytest.raises(RuntimeError, match="radius 4"):
            fiber_scan(bad, [0.0], radii=[1.0, 2.0, 4.0, 8.0])

    def test_stack_of_the_wrong_shape(self):
        # A map that claims to broadcast but returns one matrix for a stack:
        # every sample alone is fine, so the stack's own error is raised.
        conn = ConnectionField(2, lambda p, v: np.eye(2), broadcasts=True)
        with pytest.raises(RuntimeError, match=r"^angle computation failed: coefficient map "
                           r"returned shape \(2, 2\), expected \(84, 2, 2\)$"):
            fiber_scan(conn, [0.0, 0.0])

    def test_default_grids(self):
        assert default_radii()[0] == 1.0 and default_radii()[-1] == 2.0**20
        dirs = axis_directions(2)
        assert dirs.shape == (4, 2)
        assert np.array_equal(dirs[0], [1.0, 0.0]) and np.array_equal(dirs[1], [-1.0, 0.0])


class TestClassifier:
    def test_gallery_verdicts(self):
        expectations = {
            UVB: [
                _member("flat", dimension=1),
                _member("scalar-linear", **{"lambda": 1.0}),
                _member("scalar-linear", **{"lambda": -1.0}),
                _member("power-growth", alpha=0.5),
                _member("power-growth", alpha=1.0),
            ],
            NOT_UVB: [
                FIG1,
                _member("power-growth", alpha=1.5),
                _member("power-growth", alpha=2.0),
            ],
        }
        for verdict, members in expectations.items():
            for conn in members:
                report = fiber_scan(conn, np.zeros(conn.dimension))
                assert report.verdict == verdict, conn.name

    def test_sphere_uvb_away_from_origin(self):
        sph = gallery("sphere-stereographic")
        for p in ([0.0, 0.0], [0.5, 0.0], [1.0, 0.0]):
            assert fiber_scan(sph, p).verdict == UVB

    def test_few_radii_inconclusive(self):
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 10.0, 100.0])
        assert report.verdict == INCONCLUSIVE
        assert uvb_classify(report) == INCONCLUSIVE

    def test_eps_rescaling_changes_verdict(self):
        report = fiber_scan(FIG1, [0.0])
        assert uvb_classify(report, eps=1e-3) == NOT_UVB
        # With an absurdly small margin the tail never undershoots it.
        assert uvb_classify(report, eps=1e-12) != NOT_UVB

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="eps"):
            fiber_scan(FIG1, [0.0], eps=eps)
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 10.0])
        with pytest.raises(ValueError, match="eps"):
            uvb_classify(report, eps=eps)

    def test_euclidean_weight_downgrades_linear_members(self):
        # Under the raw euclidean metric even the fiber-linear member decays;
        # the normalized weight is what reproduces the intended dichotomy.
        conn = _member("scalar-linear", **{"lambda": 1.0})
        report = fiber_scan(conn, [0.0], weight=EUCLIDEAN)
        assert report.verdict == NOT_UVB

    def test_default_plan_holds_the_top_two_decades(self):
        # Each dimension's default record holds the plan a caller's grid of the
        # same radii builds.
        for n in (1, 2, 3):
            *arrays, plan = _default_layout(n)
            vs, want = _grid(axis_directions(n), default_radii())
            assert arrays[2].tobytes() == vs.tobytes()
            assert plan[:2] == want[:2] and plan[3:] == want[3:]
            assert plan[2].tobytes() == want[2].tobytes()
            assert plan[0] == int(np.argmax(default_radii() >= 2.0**20 / 100.0)) == 14

    @pytest.mark.parametrize("radii, top", [
        (None, 14),
        (3.0 ** np.arange(10), 5),  # the top two decades start at 3^5 = 243
    ], ids=["default", "caller"])
    def test_equal_samples_in_the_top_two_decades_are_not_decreasing(self, radii, top):
        grid = default_radii() if radii is None else radii

        def scan(k):
            report = fiber_scan(_repeat_at(grid, k), [0.0], radii=radii, weight=EUCLIDEAN)
            assert report.theta_min[0, k] == report.theta_min[0, k - 1]
            assert uvb_classify(report) == report.verdict
            return report.verdict

        # A repeat that straddles the window's first radius is outside it.
        assert scan(top) == NOT_UVB
        assert scan(top + 1) == INCONCLUSIVE


class TestReportSerialization:
    def test_dict_round_trip(self):
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 2.0, 4.0, 8.0])
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert d["weight"] == "normalized"
        assert len(d["theta_min"]) == 2 and len(d["theta_min"][0]) == 4


def _reference_scan(conn, p, directions, radii, weight=NORMALIZED, eps=DEFAULT_EPS):
    """The per-sample scan: one principal_angles call per (direction, radius),
    then one np.polyfit and one verdict test per direction."""
    theta = np.empty((directions.shape[0], radii.size))
    for i, d in enumerate(directions):
        for k, r in enumerate(radii):
            try:
                theta[i, k] = principal_angles(conn, p, r * d, weight).theta_min
            except Exception as e:
                raise RuntimeError(
                    f"angle computation failed at direction {i} ({d}), radius {r}: {e}"
                ) from e
    beta = _reference_decade_fits(radii, theta)
    return theta, beta, _reference_classify(radii, theta, beta, eps)


def _decade_window(radii):
    # The largest decade of the grid, and at least its last two radii.
    window = radii >= radii[-1] / 10.0
    if window.sum() < 2:
        window[-2:] = True
    return window


def _reference_decade_fits(radii, theta):
    # Least-squares slopes of log theta vs log r over the largest decade: one
    # np.polyfit with every direction as a column.
    window = _decade_window(radii)
    return np.polyfit(np.log(radii[window]), np.log(theta[:, window]).T, 1)[0]


def _reference_classify(radii, theta, beta, eps):
    if radii.size < 4:
        return INCONCLUSIVE
    top_two = radii >= radii[-1] / 100.0
    for i in range(theta.shape[0]):
        decreasing = bool(np.all(np.diff(theta[i, top_two]) < 0))
        if decreasing and theta[i, -1] < eps and beta[i] <= BETA_DECAY:
            return NOT_UVB
    if float(theta.min()) >= eps and bool(np.all(beta >= BETA_FLAT)):
        return UVB
    return INCONCLUSIVE


_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_BIGNUM = 1.0 / _SMLNUM


def _signed(floats):
    return floats.flatmap(lambda x: st.sampled_from([x, -x]))


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


CUSTOM = FiberWeight("custom", lambda v: 1.0 / (1.0 + np.abs(v).sum()))


@st.composite
def _christoffel(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    terms = draw(st.lists(st.fixed_dictionaries({
        "k": index, "i": index, "j": index, "coeff": _floats(-3.0, 3.0),
        "monomial": st.lists(st.integers(0, 2), min_size=n, max_size=n),
    }), min_size=1, max_size=6))
    return _member("christoffel", dimension=n, terms=terms)


@st.composite
def _scan_cases(draw):
    conn = draw(st.one_of(
        st.just(FIG1),
        _floats(0.0, 3.0).map(lambda a: _member("power-growth", alpha=a)),
        _floats(-3.0, 3.0).map(lambda lam: _member("scalar-linear", **{"lambda": lam})),
        st.integers(1, 3).map(lambda n: _member("flat", dimension=n)),
        st.just(gallery("sphere-stereographic")),
        _christoffel(),
    ))
    n = conn.dimension
    p = np.array(draw(st.lists(_floats(-1.5, 1.5), min_size=n, max_size=n)))
    raw = np.array(draw(st.lists(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n),
                                 min_size=1, max_size=3)))
    norms = np.linalg.norm(raw, axis=1)
    assume(np.all(norms > 0.1))
    dirs = raw / norms[:, None]
    assume(np.all(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-12))
    if draw(st.booleans()):
        radii = default_radii()
    else:
        start = draw(_floats(0.01, 10.0))
        steps = draw(st.lists(_floats(0.01, 1e3), min_size=1, max_size=23))
        radii = np.cumsum([start, *steps])
    weight = draw(st.sampled_from([NORMALIZED, EUCLIDEAN, CUSTOM]))
    return conn, p, dirs, radii, weight


# The 3-d christoffel member of the CI reruns.
_CHRISTOFFEL3 = _member("christoffel", dimension=3, terms=[
    {"k": 0, "i": 0, "j": 1, "coeff": 0.5, "monomial": [1, 0, 0]},
    {"k": 1, "i": 2, "j": 1, "coeff": 0.75, "monomial": [1, 1, 0]},
    {"k": 2, "i": 1, "j": 1, "coeff": 1.1, "monomial": [2, 0, 1]},
])


# A caller grid whose top two decades start at 3^5 = 243.
_REPEAT_GRID = 3.0 ** np.arange(10)


def _report_bits(report):
    # Every field of a scan report, an array as its dtype, shape and bytes.
    bits = {}
    for f in dataclasses.fields(report):
        x = getattr(report, f.name)
        bits[f.name] = (x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x
    return bits


class TestStackedScan:
    # Twelve radii, a decade fit over ten points: on windows of more than seven
    # points a fit per direction rounds differently from the one fit over all
    # directions as columns, and these two pin the scan to the one fit.
    @settings(max_examples=60, deadline=None)
    @given(_scan_cases())
    @example((gallery("sphere-stereographic"), np.array([0.3, 0.1]), axis_directions(2),
              10.0 * np.arange(1, 13), NORMALIZED))
    @example((_CHRISTOFFEL3, np.array([0.2, -0.5, 0.7]), axis_directions(3),
              10.0 * np.arange(1, 13), NORMALIZED))
    # theta is equal at 3^5 and 3^6, the first two radii of the top two decades,
    # and falls below eps after them with beta near -1: Inconclusive, and NotUVB
    # under a classifier window that starts one radius late.
    @example((_repeat_at(_REPEAT_GRID, 6), np.array([0.0]), axis_directions(1),
              _REPEAT_GRID, EUCLIDEAN))
    def test_matches_per_sample_reference_bitwise(self, case):
        conn, p, dirs, radii, weight = case
        report = fiber_scan(conn, p, dirs, radii, weight)
        theta, beta, verdict = _reference_scan(conn, p, dirs, radii, weight)
        assert report.theta_min.tobytes() == theta.tobytes()
        assert report.beta.tobytes() == beta.tobytes()
        assert report.verdict == verdict

    @settings(max_examples=60, deadline=None)
    @given(_scan_cases())
    @example((gallery("sphere-stereographic"), np.array([0.3, 0.1]), axis_directions(2),
              10.0 * np.arange(1, 13), NORMALIZED))
    def test_beta_is_the_fit_of_each_direction_alone(self, case):
        # One solve for all directions moves a slope only in its last bits, and
        # not at all on windows of seven radii or fewer.
        conn, p, dirs, radii, weight = case
        report = fiber_scan(conn, p, dirs, radii, weight)
        window = _decade_window(radii)
        alone = np.array([np.polyfit(np.log(radii[window]), np.log(theta[window]), 1)[0]
                          for theta in report.theta_min])
        if window.sum() <= 7:
            assert report.beta.tobytes() == alone.tobytes()
        else:
            assert np.abs(report.beta - alone).max() <= 1e-14

    @pytest.mark.parametrize("weight", [NORMALIZED, EUCLIDEAN, CUSTOM],
                             ids=lambda weight: weight.mode)
    @pytest.mark.parametrize("conn", [
        *(gallery(name) for name in ("fig1", "sphere-stereographic")),
        *(_member("flat", dimension=n) for n in (1, 2, 3)),
        *(_member("scalar-linear", **{"lambda": lam}) for lam in (1.0, -1.0)),
        *(_member("power-growth", alpha=a) for a in (0.5, 1.0, 1.5, 2.0)),
        _CHRISTOFFEL3,
    ], ids=lambda conn: conn.name)
    def test_default_grid_is_the_explicit_grid(self, conn, weight):
        p = np.linspace(-0.4, 0.6, conn.dimension)
        default = fiber_scan(conn, p, weight=weight)
        want = _report_bits(default)
        explicit = fiber_scan(conn, p, axis_directions(conn.dimension), default_radii(), weight)
        # A caller's directions with the default radii, and the reverse.
        mixed = [fiber_scan(conn, p, axis_directions(conn.dimension), None, weight),
                 fiber_scan(conn, p, None, default_radii(), weight)]
        # A report's grid is its own: writing into it moves no later scan.
        default.radii[:] = 3.0
        default.directions[:] = 0.5
        again = fiber_scan(conn, p, weight=weight)
        assert _report_bits(explicit) == want
        assert [_report_bits(r) for r in mixed] == [want, want]
        assert _report_bits(again) == want
        assert not np.shares_memory(default.directions, again.directions)
        assert not np.shares_memory(default.radii, again.radii)

    def test_gamma_that_writes_into_its_fiber_argument_moves_no_later_scan(self):
        # One row at a time (the member does not broadcast), each row read
        # before it is overwritten: every scan must get the default grid afresh.
        def gamma(p, v):
            g = np.array([[1.0 + v[0] ** 2, v[1]], [-v[0], 2.0 + v[1] ** 2]])
            v[:] = 7.0
            return g

        conn, p = ConnectionField(2, gamma, name="overwrites"), np.array([0.3, -0.2])
        want = _report_bits(fiber_scan(conn, p, axis_directions(2), default_radii()))
        assert _report_bits(fiber_scan(conn, p)) == want
        assert _report_bits(fiber_scan(conn, p)) == want

    def test_rank_deficient_decade_fit_warns(self):
        # Two radii one ulp apart: the fit's scaled Vandermonde matrix has rank 1.
        radii = [1e6, np.nextafter(1e6, 2e6)]
        with pytest.warns(np.exceptions.RankWarning,
                          match="Polyfit may be poorly conditioned") as record:
            report = fiber_scan(FIG1, [0.0], radii=radii)
        assert len(record) == 1  # one per scan, whatever the number of directions
        assert report.beta == pytest.approx([-0.5, -0.5], abs=1e-12)
        assert report.verdict == INCONCLUSIVE

    @settings(max_examples=60, deadline=None)
    @given(_scan_cases(), _floats(1e-12, 1.0))
    def test_classify_on_a_report_is_the_reference(self, case, eps):
        conn, p, dirs, radii, weight = case
        report = fiber_scan(conn, p, dirs, radii, weight)
        for e in (DEFAULT_EPS, eps):
            assert uvb_classify(report, e) == _reference_classify(
                radii, report.theta_min, report.beta, e)

    # LAPACK's dgesdd rescales a matrix whose largest entry lies outside
    # [sqrt(tiny) / eps, its inverse], about [6.7e-139, 1.49e138].
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_signed(st.floats(_SMLNUM, _BIGNUM)), min_size=1, max_size=42))
    @example([_SMLNUM, -np.nextafter(_SMLNUM, 1.0), np.nextafter(_BIGNUM, 0.0), -_BIGNUM])
    def test_one_dimensional_angles_are_the_svds_inside_lapacks_range(self, xs):
        WG = np.array(xs)[:, None, None]
        svd = np.arctan2(1.0, np.linalg.svd(WG, compute_uv=False))
        assert _angle_stack(WG).tobytes() == svd.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_signed(st.one_of(
        st.floats(0.0, _SMLNUM, exclude_max=True),
        st.floats(_BIGNUM, np.finfo(float).max, exclude_min=True),
    )), min_size=1, max_size=42))
    @example([0.0, -0.0, 5e-324, -5e-324, np.nextafter(_SMLNUM, 0.0)])
    @example([np.nextafter(_BIGNUM, np.inf), np.finfo(float).max, -np.finfo(float).max])
    def test_one_dimensional_angles_are_exact_outside_it(self, xs):
        # The singular value used is |x| itself, where the SVD may be 1 ulp off;
        # below the range both give pi/2.
        WG = np.array(xs)[:, None, None]
        got = _angle_stack(WG)
        assert got.tobytes() == np.arctan2(1.0, np.abs(WG[:, :, 0])).tobytes()
        small = np.abs(WG[:, :, 0]) < _SMLNUM
        assert (got[small] == np.pi / 2).all()
        svd = np.arctan2(1.0, np.linalg.svd(WG, compute_uv=False))
        assert got[small].tobytes() == svd[small].tobytes()

    # Stacks of 2x2 or 3x3 matrices, some of them zero with entries of either
    # sign: a zero matrix takes no SVD but must still get the SVD's bits.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.lists(st.one_of(
        st.lists(_floats(-1e3, 1e3), min_size=n * n, max_size=n * n),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=n * n, max_size=n * n),
    ), min_size=1, max_size=42).map(lambda ms: np.array(ms).reshape(-1, n, n))))
    @example(np.array([[[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [-0.0, -0.0]]]))
    @example(np.arange(1.0, 28.0).reshape(3, 3, 3))
    @example(np.array([[[1.0, 2.0], [3.0, 4.0]], [[-0.0, 0.0], [0.0, 0.0]],
                       [[0.5, 0.0], [0.0, -0.25]]]))
    def test_zero_matrices_get_the_svds_bits(self, WG):
        svd = np.arctan2(1.0, np.linalg.svd(WG, compute_uv=False))
        assert _angle_stack(WG).tobytes() == svd.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(_floats(-1e3, 1e3), min_size=n, max_size=n)] * 2)),
        st.sampled_from([NORMALIZED, EUCLIDEAN, CUSTOM]))
    def test_flat_angles_are_right_angles(self, case, weight):
        n, p, v = case
        angles = principal_angles(_member("flat", dimension=n), p, v, weight).angles
        assert (angles == np.pi / 2).all() and angles.shape == (n,)

    def test_principal_angles_match_scalar_formula_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            mat = rng.normal(size=(n, n)) * np.exp(rng.normal(scale=3.0))
            v = rng.normal(size=n) * np.exp(rng.normal(scale=3.0))
            for weight in (EUCLIDEAN, NORMALIZED):
                ref = np.arctan2(1.0, np.linalg.svd(weight(v) * mat, compute_uv=False))
                got = principal_angles(_const_field(mat), np.zeros(n), v, weight).angles
                assert got.tobytes() == ref.tobytes()

    def test_weights_are_taken_before_gamma_runs(self):
        # A gamma that writes into its fiber argument cannot move the weights.
        def gamma(p, v):
            v[:] = 0.0
            return np.array([[1.0]])

        radii = np.array([1.0, 2.0, 4.0, 8.0])
        report = fiber_scan(ConnectionField(1, gamma), [0.0], radii=radii)
        expected = np.arctan2(1.0, 1.0 / np.sqrt(1.0 + radii**2))
        assert np.allclose(report.theta_min, expected, rtol=0, atol=1e-15)

    def test_overflow_is_reported_as_not_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as info:
                fiber_scan(_member("power-growth", alpha=1000.0), [0.0])
        message = str(info.value)
        assert "direction 0" in message and "radius 2.0" in message
        assert "not finite" in message

    def test_weighted_overflow_is_reported_as_not_finite_without_warning(self):
        # Gamma is finite everywhere, but 1e300 * Gamma overflows from radius 2^14 on.
        huge = FiberWeight("custom", lambda v: 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError) as info:
                fiber_scan(FIG1, [0.0], weight=huge)
            with pytest.raises(ValueError, match="weighted coefficient matrix is not finite"):
                principal_angles(FIG1, [0.0], [2.0**14], huge)
        message = str(info.value)
        assert "direction 0" in message and "radius 16384.0" in message
        assert "weighted coefficient matrix is not finite" in message


def _fails_beyond(radius, bad):
    # Gamma equal to 1, replaced by ``bad(v)`` on the ray -e_1 (direction 1)
    # from ``radius`` on.
    def gamma(p, v):
        return bad(v) if v[0] <= -radius else np.ones((1, 1))
    return ConnectionField(1, gamma, name="faulty")


def _raise(v):
    raise ZeroDivisionError(f"gamma blew up at {v}")


class TestStackedScanErrors:
    RADII = np.array([1.0, 2.0, 4.0, 8.0])

    @pytest.mark.parametrize("conn, p, weight", [
        (_fails_beyond(3.0, lambda v: np.ones((2, 2))), [0.0], NORMALIZED),
        (_fails_beyond(3.0, lambda v: np.ones(1)), [0.0], NORMALIZED),
        (ConnectionField(1, lambda p, v: np.ones((1, 2))), [0.0], NORMALIZED),
        (_fails_beyond(3.0, _raise), [0.0], NORMALIZED),
        (_fails_beyond(3.0, lambda v: np.array([[np.nan]])), [0.0], EUCLIDEAN),
        (_fails_beyond(3.0, lambda v: np.array([[-np.inf]])), [0.0], CUSTOM),
        (FIG1, [0.0], FiberWeight("custom", lambda v: 0.0 if v[0] <= -3.0 else 1.0)),
    ], ids=["wrong-shape", "wrong-rank", "wrong-shape-everywhere", "raises", "nan", "inf",
            "zero-weight"])
    def test_same_error_as_per_sample_reference(self, conn, p, weight):
        # The stacked pass fails as a whole; the message must still name the
        # first failing (direction, radius) exactly as the per-sample loop does.
        dirs = axis_directions(conn.dimension)
        with pytest.raises(Exception) as ref:
            _reference_scan(conn, p, dirs, self.RADII, weight)
        with pytest.raises(Exception) as got:
            fiber_scan(conn, p, dirs, self.RADII, weight)
        assert type(got.value) is type(ref.value) is RuntimeError
        assert str(got.value) == str(ref.value)

    def test_failure_that_does_not_recur_is_still_reported(self):
        # A gamma that fails once: the per-sample rerun finds no failing
        # sample, so the stacked failure itself is raised.
        calls = []

        def gamma(p, v):
            calls.append(1)
            if len(calls) == 1:
                raise ZeroDivisionError("first call fails")
            return np.ones((1, 1))

        with pytest.raises(RuntimeError, match="angle computation failed: first call fails"):
            fiber_scan(ConnectionField(1, gamma), [0.0], radii=self.RADII)

    def test_non_finite_fiber_point_names_its_radius(self):
        # A finite grid and a unit direction (to 1e-12) still overflow to an
        # infinite fiber point at the top of the float range.
        radii = np.array([1.0, 2.0, np.finfo(float).max])
        dirs = np.array([[1.0 + 5e-13]])
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as ref:
            _reference_scan(FIG1, [0.0], dirs, radii)
        with pytest.raises(RuntimeError) as got:
            fiber_scan(FIG1, [0.0], dirs, radii)
        assert str(got.value) == str(ref.value)
        assert "radius 1.7976931348623157e+308: fiber vector must have finite" in str(got.value)


class TestStackedGamma:
    def test_broadcasting_member_is_called_once_per_scan(self):
        calls = []
        sphere = gallery("sphere-stereographic")

        def gamma(p, v):
            calls.append(v.shape)
            return sphere.gamma(p, v)

        traced = dataclasses.replace(sphere, gamma=gamma)
        report = fiber_scan(traced, [0.3, -0.2])
        assert calls == [(4 * 21, 2)]
        assert report.to_dict() == fiber_scan(sphere, [0.3, -0.2]).to_dict()

    def test_custom_member_is_called_once_per_sample(self):
        calls = []

        def gamma(p, v):
            calls.append(v.shape)
            return np.array([[1.0 + v[0] ** 2]])

        fiber_scan(ConnectionField(1, gamma), [0.0])
        assert calls == [(1,)] * (2 * 21)
