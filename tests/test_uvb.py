import numpy as np
import pytest
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

FIG1 = gallery("fig1")


def _member(name, **params):
    return gallery(ConnectionSpec(name, params))


def _const_field(mat):
    mat = np.asarray(mat, dtype=float)
    return ConnectionField(mat.shape[0], lambda p, v: mat, name="const")


class TestFiberWeight:
    def test_euclidean_is_one(self):
        assert EUCLIDEAN([3.0, 4.0]) == 1.0

    def test_normalized_value(self):
        assert NORMALIZED([3.0, 4.0]) == pytest.approx(1.0 / np.sqrt(26.0))

    def test_custom_positivity_enforced(self):
        w = FiberWeight("custom", lambda v: -1.0)
        with pytest.raises(ValueError):
            w([1.0])

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
        with pytest.raises(ValueError):
            fiber_scan(FIG1, [0.0], radii=[1.0, 1.0, 2.0, 4.0])

    def test_failure_carries_location(self):
        bad = ConnectionField(1, lambda p, v: np.array([[np.inf if abs(v[0]) > 3 else 1.0]]))
        with pytest.raises(RuntimeError, match="radius 4"):
            fiber_scan(bad, [0.0], radii=[1.0, 2.0, 4.0, 8.0])

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


class TestReportSerialization:
    def test_dict_round_trip(self):
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 2.0, 4.0, 8.0])
        d = report.to_dict()
        assert d["verdict"] == report.verdict
        assert d["weight"] == "normalized"
        assert len(d["theta_min"]) == 2 and len(d["theta_min"][0]) == 4

    def test_rows_deterministic_order(self):
        report = fiber_scan(FIG1, [0.0], radii=[1.0, 2.0, 4.0, 8.0])
        rows = list(report.rows())
        assert rows[0][:2] == (0, 1.0)
        assert rows[-1][:2] == (1, 8.0)
        assert len(rows) == 8
