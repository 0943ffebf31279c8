import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift.integrate import (
    COMPLETE,
    ESCAPED,
    STEP_COLLAPSE,
    IntegratorOptions,
    _hermite_dense,
    integrate_adaptive,
)


class TestOptions:
    def test_defaults(self):
        opts = IntegratorOptions()
        assert opts.rtol == 1e-9 and opts.atol == 1e-12
        assert opts.escape_norm == 1e8 and opts.min_step == 1e-12
        assert opts.max_steps == 10**6 and opts.dense_samples == 201

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": 0.0},
            {"rtol": 1e-15},
            {"atol": -1e-12},
            {"escape_norm": 0.0},
            {"min_step": -1.0},
            {"max_steps": 0},
            {"dense_samples": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorOptions(**kwargs)


class TestBasicSolutions:
    def test_constant_rhs_is_exact(self):
        res = integrate_adaptive(lambda t, y: np.zeros_like(y), [5.0])
        assert res.status == COMPLETE
        assert res.y_final[0] == 5.0

    def test_exponential(self):
        res = integrate_adaptive(lambda t, y: y, [1.0])
        assert res.status == COMPLETE
        assert abs(res.y_final[0] - np.e) < 1e-8

    def test_tangent_blowup(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0])
        assert res.status == ESCAPED
        assert abs(res.t_escape - np.pi / 4) < 1e-3
        assert res.norm_at_escape >= 1e8
        assert np.linalg.norm(res.y[-1]) >= 1e8

    def test_vector_system(self):
        # Harmonic oscillator, one revolution fraction: exact rotation.
        def rhs(t, y):
            return np.array([y[1], -y[0]])

        res = integrate_adaptive(rhs, [1.0, 0.0])
        assert res.status == COMPLETE
        assert res.y_final == pytest.approx([np.cos(1.0), -np.sin(1.0)], abs=1e-9)


class TestDenseOutput:
    def test_grid_shape_and_span(self):
        res = integrate_adaptive(lambda t, y: y, [1.0])
        assert res.t.size == 201
        assert res.t[0] == 0.0 and res.t[-1] == 1.0
        assert np.all(np.diff(res.t) > 0)

    def test_dense_accuracy(self):
        # Interior samples are Hermite-interpolated (locally 4th order), so
        # they are looser than the endpoint, which is integrator-accurate.
        res = integrate_adaptive(lambda t, y: y, [1.0])
        err = np.max(np.abs(res.y[:, 0] - np.exp(res.t)))
        assert err < 1e-6
        assert abs(res.y_final[0] - np.e) < 1e-9

    def test_escaped_grid_ends_at_escape(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0])
        assert res.t[-1] == res.t_escape
        assert res.t.size == 201

    def test_custom_sample_count(self):
        res = integrate_adaptive(lambda t, y: y, [1.0], IntegratorOptions(dense_samples=11))
        assert res.t.size == 11

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
        st.integers(2, 201),
    )
    def test_vectorized_hermite_matches_scalar_reference(self, n, gaps, seed, samples):
        rng = np.random.default_rng(seed)
        nodes_t = [0.0]
        for g in gaps:
            nodes_t.append(nodes_t[-1] + g)
        nodes_y = list(rng.standard_normal((len(nodes_t), n)) * 10.0)
        nodes_f = list(rng.standard_normal((len(nodes_t), n)) * 100.0)
        ts = np.linspace(0.0, nodes_t[-1], samples)

        # One sample at a time, as the dense output was first written.
        t_arr = np.asarray(nodes_t)
        ref = np.empty((ts.size, n))
        for m, t in enumerate(ts):
            k = int(np.searchsorted(t_arr, t, side="right") - 1)
            k = min(max(k, 0), t_arr.size - 2)
            h = t_arr[k + 1] - t_arr[k]
            s = (t - t_arr[k]) / h
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1)
            ref[m] = (
                h00 * nodes_y[k]
                + h10 * h * nodes_f[k]
                + h01 * nodes_y[k + 1]
                + h11 * h * nodes_f[k + 1]
            )
        assert _hermite_dense(nodes_t, nodes_y, nodes_f, ts).tobytes() == ref.tobytes()


class TestFailureModes:
    def test_nan_rhs_collapses(self):
        res = integrate_adaptive(lambda t, y: np.array([np.nan]), [0.0])
        assert res.status == STEP_COLLAPSE
        assert res.t_final == 0.0

    def test_max_steps_budget(self):
        opts = IntegratorOptions(max_steps=5)
        res = integrate_adaptive(lambda t, y: np.array([np.sin(40 * t)]), [0.0], opts)
        assert res.status == STEP_COLLAPSE
        assert res.t_final < 1.0

    def test_immediate_escape(self):
        res = integrate_adaptive(lambda t, y: y, [2e8])
        assert res.status == ESCAPED
        assert res.t_escape == 0.0

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda t, y: y, [np.nan])


class TestAccuracyScaling:
    def test_tightening_tolerance_gains_three_orders(self):
        def rhs(t, y):
            return 1.0 + y**2

        loose = integrate_adaptive(rhs, [0.0], IntegratorOptions(rtol=1e-6, atol=1e-9))
        tight = integrate_adaptive(rhs, [0.0], IntegratorOptions(rtol=1e-10, atol=1e-13))
        e_loose = abs(loose.y_final[0] - np.tan(1.0))
        e_tight = abs(tight.y_final[0] - np.tan(1.0))
        assert e_loose / e_tight >= 1e3

    def test_stats_are_reported(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0])
        assert res.steps > 0
        assert res.rejected >= 0
        assert res.max_rhs_norm > 1e15  # derivative blows up with the state


class TestDeterminism:
    def test_bitwise_repeatability(self):
        def rhs(t, y):
            return np.array([np.sin(3 * t) - 0.5 * y[0]])

        a = integrate_adaptive(rhs, [0.7])
        b = integrate_adaptive(rhs, [0.7])
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)
        assert (a.steps, a.rejected) == (b.steps, b.rejected)
