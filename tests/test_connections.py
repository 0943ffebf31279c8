import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlift.connections import (
    ConnectionField,
    ConnectionSpec,
    connection_from_json,
    gallery,
    gallery_members,
    make_linear_connection,
)
from pathlift.connections import _polynomial_christoffels
from pathlift.geometry import path_segment
from pathlift.lifting import parallel_transport
from pathlift.uvb import EUCLIDEAN, NORMALIZED, fiber_scan, principal_angles


def _member(name, **params):
    return gallery(ConnectionSpec(name, params))


class TestCoeff:
    def test_flat_is_zero(self):
        conn = _member("flat", dimension=3)
        assert np.array_equal(conn.coeff([1, 2, 3], [4, 5, 6]), np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_flat_results_are_not_shared(self, n):
        # A caller may write into a coefficient matrix it was given; the
        # connection must not see the write.
        conn = _member("flat", dimension=n)
        p, v = np.zeros(n), np.arange(1.0, n + 1.0)
        conn.coeff(p, v)[...] = 5.0
        conn.gamma(p, v)[...] = 5.0
        assert np.array_equal(conn.coeff(p, v), np.zeros((n, n)))
        end = parallel_transport(conn, path_segment(p, np.ones(n)), v)
        assert end.vec.tolist() == v.tolist()
        for weight in (EUCLIDEAN, NORMALIZED):
            assert np.all(principal_angles(conn, p, v, weight).angles == np.pi / 2)

    def test_fig1_value(self):
        conn = gallery("fig1")
        assert np.allclose(conn.coeff([0.0], [2.0]), [[-5.0]], atol=1e-15)

    def test_scalar_linear_value(self):
        conn = _member("scalar-linear", **{"lambda": 1.0})
        assert np.allclose(conn.coeff([0.0], [3.0]), [[3.0]], atol=1e-15)

    def test_rejects_nonfinite_input(self):
        conn = gallery("fig1")
        with pytest.raises(ValueError):
            conn.coeff([np.inf], [0.0])

    def test_rejects_dimension_mismatch(self):
        conn = gallery("fig1")
        with pytest.raises(ValueError):
            conn.coeff([0.0, 0.0], [1.0])


class TestHorizontalBasis:
    def test_flat_two_dim_columns(self):
        conn = _member("flat", dimension=2)
        basis = conn.horizontal_basis([0, 0], [0, 0])
        assert np.array_equal(basis[:, 0], [1, 0, 0, 0])
        assert np.array_equal(basis[:, 1], [0, 1, 0, 0])

    def test_fig1_at_zero(self):
        basis = gallery("fig1").horizontal_basis([0.0], [0.0])
        assert np.allclose(basis, [[1.0], [1.0]], atol=1e-15)

    def test_graph_property(self):
        # Top block exactly the identity, bottom block exactly -Gamma(p, v).
        rng = np.random.default_rng(3)
        for name in ("fig1", "sphere-stereographic"):
            conn = gallery(name)
            n = conn.dimension
            for _ in range(10):
                p, v = rng.normal(size=n), rng.normal(size=n)
                basis = conn.horizontal_basis(p, v)
                assert np.array_equal(basis[:n], np.eye(n))
                assert np.array_equal(basis[n:], -conn.coeff(p, v))


class TestComplementarity:
    def test_horizontal_plus_vertical_spans(self):
        rng = np.random.default_rng(5)
        for name in ("flat", "fig1", "scalar-linear", "sphere-stereographic"):
            conn = gallery(ConnectionSpec(name, {"lambda": 1.0} if name == "scalar-linear" else {}))
            n = conn.dimension
            p, v = rng.normal(size=n), 10 * rng.normal(size=n)
            frame = np.hstack([conn.horizontal_basis(p, v), conn.vertical_basis()])
            assert abs(np.linalg.det(frame)) > 1e-12


class TestLinearConnections:
    def test_zero_christoffels_give_flat(self):
        conn = make_linear_connection(2, lambda p: np.zeros((2, 2, 2)))
        assert conn.is_linear_in_fiber
        assert np.array_equal(conn.coeff([1.0, 2.0], [3.0, 4.0]), np.zeros((2, 2)))

    def test_constant_scalar_christoffel_matches_gallery(self):
        lam = 0.7
        built = make_linear_connection(1, lambda p: np.full((1, 1, 1), lam))
        member = _member("scalar-linear", **{"lambda": lam})
        for v in (-2.0, 0.0, 3.5):
            assert np.allclose(built.coeff([0.3], [v]), member.coeff([0.3], [v]), atol=1e-15)

    def test_stereographic_christoffels_vanish_at_origin(self):
        conn = gallery("sphere-stereographic")
        assert np.max(np.abs(conn.coeff([0.0, 0.0], [1.0, 2.0]))) < 1e-15

    def test_fiber_linearity(self):
        # Gamma(p, a v) = a Gamma(p, v) for members built from Christoffels.
        rng = np.random.default_rng(6)
        for name in ("flat", "scalar-linear", "sphere-stereographic"):
            conn = gallery(ConnectionSpec(name, {"lambda": -1.0} if name == "scalar-linear" else {}))
            n = conn.dimension
            for _ in range(25):
                p, v = rng.normal(size=n), rng.normal(size=n)
                a = rng.uniform(-10, 10)
                lhs = conn.coeff(p, a * v)
                rhs = a * conn.coeff(p, v)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_shape_mismatch_rejected(self):
        conn = make_linear_connection(2, lambda p: np.zeros((2, 2)))
        with pytest.raises(ValueError):
            conn.coeff([0.0, 0.0], [1.0, 0.0])


class TestGallery:
    def test_flags_and_growth_hints(self):
        flat = _member("flat", dimension=3)
        assert flat.is_linear_in_fiber and flat.growth_hint == 0.0
        fig1 = gallery("fig1")
        assert not fig1.is_linear_in_fiber and fig1.growth_hint == 2.0
        pg = _member("power-growth", alpha=1.0)
        assert not pg.is_linear_in_fiber and pg.growth_hint == 1.0
        sph = gallery("sphere-stereographic")
        assert sph.is_linear_in_fiber and sph.dimension == 2

    def test_power_growth_alpha_one_bound(self):
        conn = _member("power-growth", alpha=1.0)
        for v in (0.0, 1.0, 10.0, 100.0):
            ratio = abs(conn.coeff([0.0], [v])[0, 0]) / (1 + abs(v))
            assert ratio <= 1.0 + 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gallery("moebius")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            _member("power-growth", alpha=-0.5)
        with pytest.raises(ValueError):
            _member("power-growth")

    @pytest.mark.parametrize("params, match", [
        ({"lambda": float("nan")}, "scalar-linear lambda must be finite"),
        ({"lambda": float("-inf")}, "scalar-linear lambda must be finite"),
        ({"lambda": [1.0]}, "scalar-linear lambda must be finite"),
        ({"lambda": "one"}, "scalar-linear lambda must be finite"),
    ])
    def test_bad_lambda(self, params, match):
        with pytest.raises(ValueError, match=match):
            _member("scalar-linear", **params)

    def test_alpha_that_is_not_a_number(self):
        for alpha in ([1.0], "two", None):
            with pytest.raises(ValueError, match="power-growth alpha must be >= 0"):
                _member("power-growth", alpha=alpha)

    def test_growth_conformance(self):
        # ||Gamma(p, v)|| / r^alpha stays within a factor 4 of its r=1 value.
        cases = [
            (gallery("fig1"), [0.0]),
            (_member("scalar-linear", **{"lambda": 1.0}), [0.0]),
            (_member("power-growth", alpha=0.5), [0.0]),
            (_member("power-growth", alpha=2.0), [0.0]),
            (gallery("sphere-stereographic"), [0.4, -0.3]),
        ]
        rng = np.random.default_rng(7)
        for conn, p in cases:
            alpha = conn.growth_hint
            n = conn.dimension
            dirs = rng.normal(size=(8, n))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            ratio = {}
            for r in (1.0, 10.0, 100.0):
                ratio[r] = max(
                    np.linalg.norm(conn.coeff(p, r * d), 2) / r**alpha for d in dirs
                )
            for r in (10.0, 100.0):
                assert ratio[r] <= 4 * ratio[1.0]
                assert ratio[r] >= ratio[1.0] / 4

    @pytest.mark.parametrize("dimension", [2.5, 0, -1, float("nan"), float("inf"), "two", 10**400])
    def test_dimension_must_be_a_positive_integer(self, dimension):
        with pytest.raises(ValueError, match="flat dimension must be a positive integer"):
            _member("flat", dimension=dimension)
        with pytest.raises(ValueError, match="christoffel dimension must be a positive integer"):
            _member("christoffel", dimension=dimension, terms=[])
        with pytest.raises(ValueError, match="mine dimension must be a positive integer"):
            make_linear_connection(dimension, lambda p: np.zeros((2, 2, 2)), name="mine")

    def test_integral_dimension_is_accepted(self):
        assert _member("flat", dimension=2.0).dimension == 2
        assert _member("christoffel", dimension=3, terms=[]).dimension == 3
        assert make_linear_connection(2.0, lambda p: np.zeros((2, 2, 2))).dimension == 2

    def test_listing_contents(self):
        rows = {r["name"]: r for r in gallery_members()}
        assert rows["fig1"]["growth_hint"] == 2.0
        assert rows["flat"]["is_linear_in_fiber"] is True
        assert rows["sphere-stereographic"]["dimension"] == 2

    def test_listing_agrees_with_the_built_members(self):
        built = {
            "flat": _member("flat", dimension=3),
            "fig1": gallery("fig1"),
            "scalar-linear": _member("scalar-linear", **{"lambda": -0.5}),
            "power-growth": _member("power-growth", alpha=1.5),
            "sphere-stereographic": gallery("sphere-stereographic"),
            "christoffel": _member("christoffel", dimension=2, terms=[]),
        }
        rows = gallery_members()
        assert [r["name"] for r in rows] == sorted(built)
        for row in rows:
            conn, growth = built[row["name"]], row["growth_hint"]
            assert conn.name == row["name"]
            assert conn.is_linear_in_fiber is row["is_linear_in_fiber"]
            assert conn.growth_hint == (conn.params[growth] if isinstance(growth, str) else growth)
            assert row["dimension"] in ("any", conn.dimension)


class TestJsonSpecs:
    def test_named_specs(self):
        assert connection_from_json({"name": "fig1"}).name == "fig1"
        sl = connection_from_json('{"name": "scalar-linear", "lambda": -2.0}')
        assert sl.params["lambda"] == -2.0
        pg = connection_from_json({"name": "power-growth", "alpha": 2.0})
        assert pg.growth_hint == 2.0

    def test_christoffel_terms(self):
        spec = {
            "name": "christoffel",
            "dimension": 2,
            "terms": [{"k": 0, "i": 0, "j": 1, "coeff": 0.5, "monomial": [1, 0]}],
        }
        conn = connection_from_json(spec)
        # G^0_01(p) = 0.5 p_0, so (Gamma(p, v) u)^0 = 0.5 p_0 u^0 v^1.
        mat = conn.coeff([2.0, 9.0], [0.0, 3.0])
        assert np.allclose(mat, [[3.0, 0.0], [0.0, 0.0]], atol=1e-15)
        assert conn.is_linear_in_fiber

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            connection_from_json({"no_name": True})
        with pytest.raises(ValueError):
            connection_from_json({"name": "christoffel", "dimension": 2})
        with pytest.raises(ValueError):
            connection_from_json(
                {"name": "christoffel", "dimension": 1,
                 "terms": [{"k": 0, "i": 2, "j": 0, "coeff": 1.0, "monomial": [0]}]}
            )
        with pytest.raises(ValueError, match=r"monomial \[1\] must list one exponent per"):
            connection_from_json(
                {"name": "christoffel", "dimension": 2,
                 "terms": [{"k": 0, "i": 1, "j": 0, "coeff": 1.0, "monomial": [1]}]}
            )


class TestCustomField:
    def test_nonfinite_coefficient_detected(self):
        conn = ConnectionField(1, lambda p, v: np.array([[np.inf]]))
        with pytest.raises(ValueError):
            conn.coeff([0.0], [0.0])


def _counting(christoffel):
    """``christoffel`` wrapped so that each evaluation is counted."""
    calls = []

    def counted(p):
        calls.append(p.copy())
        return christoffel(p)

    return counted, calls


def _sign_sensitive(p):
    # Tensors that tell 0.0 from -0.0 in p.
    return np.copysign(1.0, p)[:, None, None] * np.arange(1.0, 1.0 + p.size**3).reshape(
        p.size, p.size, p.size)


def _fresh_gamma(christoffel, n, p, v):
    return make_linear_connection(n, christoffel).gamma(np.asarray(p, float), np.asarray(v, float))


class TestChristoffelMemo:
    """Calls a memo of the tensors would get wrong: points that repeat, signed
    zeros, failed builds, a caller that writes into its matrix, a map that
    reads a parameter.  A linear connection keeps no tensors between calls."""

    def test_one_evaluation_per_fiber_scan(self):
        chris, calls = _counting(_sign_sensitive)
        conn = make_linear_connection(3, chris)
        p1, p2 = np.array([0.3, -0.8, 1.2]), np.array([-1.5, 0.25, -0.6])
        for expected, p in enumerate((p1, p2, p1), start=1):
            fiber_scan(conn, p)  # 2n x 21 = 126 samples at one base point
            assert len(calls) == expected
            assert np.array_equal(calls[-1], p)

    def test_alternating_points_and_signed_zeros(self):
        chris, calls = _counting(_sign_sensitive)
        conn = make_linear_connection(2, chris)
        v = np.array([0.7, -1.3])
        sequence = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.5, -2.0], [0.0, 1.0], [0.0, 1.0],
                    [0.0, -0.0], [0.0, 0.0]]
        for p in sequence:
            got = conn.gamma(np.array(p), v)
            assert got.tobytes() == _fresh_gamma(_sign_sensitive, 2, p, v).tobytes()
        assert len(calls) == len(sequence)  # the back-to-back [0, 1] is built twice

    @pytest.mark.parametrize("bad, error", [
        (ZeroDivisionError("map fails"), "map fails"),
        (np.ones((1, 1)), r"christoffel map returned shape \(1, 1\), expected \(1, 1, 1\)"),
    ], ids=["raises", "wrong-shape"])
    def test_failed_evaluation_is_not_memoized(self, bad, error):
        # The map fails twice at the same point, then succeeds: each failure
        # is raised as such, and the success is not shadowed by it.
        p, v = np.array([0.4]), np.array([2.0])
        good = np.full((1, 1, 1), 3.0)
        results = [bad, bad, good]

        def christoffel(q):
            out = results.pop(0)
            if isinstance(out, Exception):
                raise out
            return out

        conn = make_linear_connection(1, christoffel)
        for _ in range(2):
            with pytest.raises((ZeroDivisionError, ValueError), match=error):
                conn.gamma(p, v)
        got = conn.gamma(p, v)
        assert got.tobytes() == _fresh_gamma(lambda q: good, 1, p, v).tobytes()

    def test_returned_matrix_is_not_the_memo(self):
        conn = make_linear_connection(2, _sign_sensitive)
        p, v = np.array([0.2, 0.3]), np.array([1.0, 1.0])
        first = conn.gamma(p, v)
        first[:] = np.nan
        assert conn.gamma(p, v).tobytes() == _fresh_gamma(_sign_sensitive, 2, p, v).tobytes()

    def test_a_map_that_reads_a_parameter_is_read_at_every_call(self):
        scale = [1.0]
        conn = make_linear_connection(1, lambda p: np.full((1, 1, 1), scale[0]))
        assert conn.coeff([0.0], [1.0])[0, 0] == 1.0
        scale[0] = 2.0
        assert conn.coeff([0.0], [1.0])[0, 0] == 2.0


_coord = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False))


@st.composite
def _memo_cases(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    terms = draw(st.lists(st.fixed_dictionaries({
        "k": index, "i": index, "j": index,
        "coeff": st.floats(-3.0, 3.0, allow_nan=False),
        "monomial": st.lists(st.integers(0, 3), min_size=n, max_size=n),
    }), max_size=6))
    vector = st.lists(_coord, min_size=n, max_size=n).map(np.array)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    calls = draw(st.lists(st.tuples(st.sampled_from(pool), vector), min_size=1, max_size=25))
    return n, terms, calls


class TestChristoffelMemoProperty:
    @settings(max_examples=80, deadline=None)
    @given(_memo_cases())
    def test_memoized_gamma_matches_einsum_reference_bitwise(self, case):
        # Base points repeat in random order; each call must equal G(p)
        # built anew and contracted with einsum.
        n, terms, calls = case
        chris = _polynomial_christoffels(n, terms)
        conn = make_linear_connection(n, chris)
        for p, v in calls:
            ref = np.einsum("kij,j->ki", chris(p), v)
            assert conn.gamma(p, v).tobytes() == ref.tobytes()


_wide = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200]),
                  st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _stack_cases(draw):
    name = draw(st.sampled_from(["flat", "fig1", "scalar-linear", "power-growth",
                                 "sphere-stereographic", "christoffel"]))
    if name == "flat":
        conn = _member(name, dimension=draw(st.integers(1, 3)))
    elif name == "scalar-linear":
        conn = _member(name, **{"lambda": draw(st.floats(-3.0, 3.0))})
    elif name == "power-growth":
        conn = _member(name, alpha=draw(st.floats(0.0, 3.0)))
    elif name == "christoffel":
        n = draw(st.integers(1, 3))
        index = st.integers(0, n - 1)
        terms = draw(st.lists(st.fixed_dictionaries({
            "k": index, "i": index, "j": index, "coeff": st.floats(-3.0, 3.0),
            "monomial": st.lists(st.integers(0, 3), min_size=n, max_size=n),
        }), max_size=6))
        conn = _member(name, dimension=n, terms=terms)
    else:
        conn = gallery(name)
    n = conn.dimension
    k = draw(st.integers(1, 6))
    rows = st.lists(st.lists(_wide, min_size=n, max_size=n), min_size=k, max_size=k)
    points = np.array(draw(rows)).reshape(k, n)
    if draw(st.booleans()):
        points[1:] = points[0]  # repeated base points, as in a scan or at t + h
    return conn, points, np.array(draw(rows)).reshape(k, n)


class TestBroadcasting:
    @settings(max_examples=80, deadline=None)
    @given(_stack_cases())
    def test_stack_equals_row_calls_bitwise(self, case):
        conn, points, fibers = case
        assert conn.broadcasts
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.array([conn.gamma(p, v) for p, v in zip(points, fibers)])
            stacked = conn.gamma(points, fibers)
            one_point = conn.gamma(points[0], fibers)
            at_first = np.array([conn.gamma(points[0], v) for v in fibers])
        assert stacked.shape == one_point.shape == rows.shape
        assert stacked.tobytes() == rows.tobytes()
        assert one_point.tobytes() == at_first.tobytes()

    def test_linear_gamma_builds_every_row_of_every_call(self):
        results = []  # what the christoffel map returns next, when set

        def christoffel(p):
            return results.pop(0) if results else _sign_sensitive(p)

        chris, calls = _counting(christoffel)
        conn = make_linear_connection(2, chris)
        p = np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2], [-0.0, 0.0], [0.0, 0.0]])
        v = np.ones((5, 2))
        first = conn.gamma(p, v)
        assert len(calls) == 5  # every row of the stack, repeated points included
        assert conn.gamma(p, v[::-1]).tobytes() == first.tobytes()  # v is all ones
        assert len(calls) == 10  # the same stack again is built again
        assert conn.gamma(p[::-1], v).tobytes() == first[::-1].tobytes()
        assert len(calls) == 15

        row = np.array([[0.3, 0.4]])
        conn.gamma(row, v[:1])
        assert len(calls) == 16
        single = conn.gamma(row[0], v[0])  # the same bytes at rank 1
        assert len(calls) == 17 and single.shape == (2, 2)
        assert single.tobytes() == _fresh_gamma(_sign_sensitive, 2, row[0], v[0]).tobytes()

        q = row[0] + 1.0
        results.append(np.ones((2, 2)))  # the next build fails its shape check
        with pytest.raises(ValueError, match=r"returned shape \(2, 2\), expected \(2, 2, 2\)"):
            conn.gamma(q, v[0])
        assert len(calls) == 18
        assert conn.gamma(row[0], v[0]).tobytes() == single.tobytes()
        assert len(calls) == 19
        assert conn.gamma(q, v[0]).tobytes() == _fresh_gamma(_sign_sensitive, 2, q, v[0]).tobytes()
        assert len(calls) == 20

    def test_custom_fields_do_not_broadcast_by_default(self):
        assert not ConnectionField(1, lambda p, v: np.eye(1)).broadcasts

    @pytest.mark.parametrize("name, params, uses_base", [
        ("flat", {"dimension": 3}, False),
        ("fig1", {}, False),
        ("scalar-linear", {"lambda": -0.5}, False),
        ("power-growth", {"alpha": 1.5}, False),
        ("sphere-stereographic", {}, True),
        ("christoffel", {"dimension": 2, "terms": [
            {"k": 0, "i": 1, "j": 0, "coeff": 1.0, "monomial": [1, 0]}]}, True),
    ])
    def test_uses_base_flag(self, name, params, uses_base):
        conn = _member(name, **params)
        assert conn.uses_base == uses_base
        n = conn.dimension
        v, vs = np.linspace(-2.0, 1.5, n), np.linspace(-2.0, 1.5, 3 * n).reshape(3, n)
        here, there = np.zeros(n), np.full(n, 0.7)
        same = [conn.gamma(here, v).tobytes() == conn.gamma(there, v).tobytes(),
                conn.gamma(here, vs).tobytes() == conn.gamma(there, vs).tobytes()]
        assert all(same) if not uses_base else not any(same)

    def test_custom_fields_use_the_base_point_by_default(self):
        assert ConnectionField(1, lambda p, v: np.eye(1)).uses_base


def _stereographic_tensor(p):
    # G^k_ij = dphi_j delta_ki + dphi_i delta_kj - dphi_k delta_ij, with dphi = -2 p / (1 + |p|^2).
    dphi = -2.0 * p / (1.0 + p @ p)
    eye = np.eye(p.size)
    return (np.einsum("j,ki->kij", dphi, eye) + np.einsum("i,kj->kij", dphi, eye)
            - np.einsum("k,ij->kij", dphi, eye))


# 1e154: p @ p overflows; 5e-324 and 1e-310 are subnormal.
_sphere_coord = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310,
                     1e154, -1e154, 1e300, -1e-300]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestStereographicClosedForm:
    """The sphere's Gamma(p, v) = (dphi . v) I + v dphi^T - dphi v^T, with no tensors."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
    def test_closed_form_is_the_christoffel_contraction(self, p, v):
        p, v = np.array(p), np.array(v)
        want = np.einsum("kij,j->ki", _stereographic_tensor(p), v)
        got = gallery("sphere-stereographic").gamma(p, v)
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * (1.0 + np.abs(v).max()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_sphere_coord, min_size=4, max_size=4), min_size=1, max_size=8))
    def test_a_stack_gives_each_rows_bits(self, rows):
        # A NaN's sign aside: where two NaNs meet, numpy's array and scalar
        # loops may keep either one's.
        points, fibers = np.array(rows)[:, :2], np.array(rows)[:, 2:]
        gamma = gallery("sphere-stereographic").gamma
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = gamma(points, fibers)
            want = np.array([gamma(p, v) for p, v in zip(points, fibers)])
        assert got.shape == want.shape == (len(rows), 2, 2)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


# sqrt of the largest double: y ** 2 overflows just above it.
_SQRT_MAX = 1.3407807929942596e154
_fiber_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, _SQRT_MAX, -_SQRT_MAX,
                     float(np.nextafter(_SQRT_MAX, np.inf)), 1e300]),
    st.floats(1.3e154, 1.4e154).flatmap(lambda y: st.sampled_from([y, -y])),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _one_dimensional_members(draw):
    name = draw(st.sampled_from(["flat", "fig1", "scalar-linear", "power-growth"]))
    if name == "scalar-linear":
        return _member(name, **{"lambda": draw(st.floats(-3.0, 3.0))})
    if name == "power-growth":
        return _member(name, alpha=draw(st.floats(0.0, 3.0)))
    return _member(name, dimension=1) if name == "flat" else gallery(name)


# The velocities u a 1-d float form is fed, and fiber values v besides the
# drawn ones: signed zeros, subnormals, infinities, NaN and values across the range.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 3.7, 1e300, -1e300,
            np.inf, -np.inf, np.nan]


def _same_bits_or_both_nan(got, want) -> bool:
    # A NaN's sign aside: Python's pow and numpy's, and numpy's array and
    # scalar loops, may keep different signs.
    return (math.isnan(got) and math.isnan(want)
            or np.float64(got).tobytes() == np.float64(want).tobytes())


# Finite values across the range, signed zeros and subnormals: products overflow
# to inf and cancel to NaN, but dphi . v stays finite (|dphi| <= 1).
_vertical_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e154, -1e154, 1e300, -1e300]),
    st.floats(-10.0, 10.0),
    st.floats(-1e300, 1e300),
)


class TestFloatForm:
    """float_vertical: -Gamma(p, v) u in floats, with the lift's product bits."""

    @settings(max_examples=300, deadline=None)
    @given(_one_dimensional_members(), st.lists(_fiber_values, min_size=1, max_size=8))
    # (1 + v^2)^1 of a -NaN: Python's pow and numpy's keep different signs.
    @example(_member("power-growth", alpha=2.0), [-math.nan, math.nan])
    def test_one_dimensional_form_equals_the_lifts_product_bitwise(self, conn, vs):
        # On Python floats, as a 1-d lane passes them: the lift's 1x1 product
        # of -gamma with the velocity u, which adds its one term to +0.0 where
        # the bare -(m * u) differs in the sign of zero.  Where v ** 2
        # overflows, inf as numpy gives.
        for v in vs + _SPECIAL:
            for u in _SPECIAL:
                got = conn.float_vertical(0.5, v, u)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = ((-conn.gamma(np.array([0.5]), np.array([v]))) @ np.array([u])).item()
                assert type(got) is float, (conn.name, v, u)
                assert _same_bits_or_both_nan(got, want), (conn.name, v, u, got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([("sphere-stereographic", {}), ("flat", {"dimension": 2}),
                            ("flat", {"dimension": 3})]),
           st.data())
    def test_n_d_form_equals_the_lifts_product_bitwise(self, member, data):
        # The lift's stacked route: (-M) times u, each row added left to right
        # and then to +0.0.
        conn = _member(member[0], **member[1])
        n = conn.dimension
        p, v, u = (data.draw(st.lists(_vertical_coord, min_size=n, max_size=n)) for _ in range(3))
        with np.errstate(over="ignore", invalid="ignore"):
            M = conn.gamma(np.array(p), np.array(v))
            want = (np.add.accumulate((-M) * np.array(u), axis=-1)[..., -1] + 0.0).tolist()
            got = conn.float_vertical(p, v, u)
        assert type(got) is list and len(got) == n
        for g, w in zip(got, want):
            assert type(g) is float
            assert _same_bits_or_both_nan(g, w), (p, v, u, got, want)

    @pytest.mark.parametrize("conn, has", [
        (_member("flat", dimension=1), True),
        (gallery("fig1"), True),
        (_member("scalar-linear", **{"lambda": -2.0}), True),
        (_member("power-growth", alpha=1.5), True),
        (_member("flat", dimension=2), True),
        (_member("flat", dimension=3), True),
        (gallery("sphere-stereographic"), True),
        (_member("christoffel", dimension=1, terms=[{"k": 0, "i": 0, "j": 0, "coeff": 1.0}]),
         False),
        (_member("christoffel", dimension=2, terms=[{"k": 0, "i": 1, "j": 0, "coeff": 1.0}]),
         False),
        (ConnectionField(1, lambda p, v: np.eye(1)), False),
        (ConnectionField(2, lambda p, v: np.eye(2)), False),
    ], ids=["flat-1d", "fig1", "scalar-linear", "power-growth", "flat-2d", "flat-3d", "sphere",
            "christoffel-1d", "christoffel-2d", "custom-1d", "custom-2d"])
    def test_every_gallery_member_but_christoffel_has_it(self, conn, has):
        assert (conn.float_vertical is not None) == has
        copy = dataclasses.replace(conn, gamma=conn.gamma)  # a replaced gamma drops it
        assert copy.float_vertical is None and copy == conn
        assert "float_vertical" not in repr(conn)
        with pytest.raises(TypeError):
            ConnectionField(conn.dimension, conn.gamma, float_vertical=conn.float_vertical)
