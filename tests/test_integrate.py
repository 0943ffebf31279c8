import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift.integrate import (
    _A,
    _B5,
    _E,
    COMPLETE,
    ESCAPED,
    STEP_COLLAPSE,
    IntegratorOptions,
    _hermite_dense,
    _norms,
    _plain_sum,
    _stage_times,
    integrate_adaptive,
    integrate_lanes,
)


class TestOptions:
    def test_defaults(self):
        opts = IntegratorOptions()
        assert opts.rtol == 1e-9 and opts.atol == 1e-12
        assert opts.escape_norm == 1e8 and opts.min_step == 1e-12
        assert opts.max_steps == 10**5 and opts.dense_samples == 201

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": 0.0},
            {"rtol": 1e-15},
            {"atol": -1e-12},
            {"escape_norm": 0.0},
            {"min_step": -1.0},
            {"max_steps": 0},
            {"max_steps": float("nan")},
            {"max_steps": float("inf")},
            {"max_steps": 2.5},
            {"max_steps": 5.0},
            {"dense_samples": 1},
            {"dense_samples": 2.5},
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


class TestStopReason:
    def test_complete(self):
        res = integrate_adaptive(lambda t, y: y, [1.0])
        assert (res.status, res.stop_reason) == (COMPLETE, "complete")

    def test_escape_norm(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0])
        assert (res.status, res.stop_reason) == (ESCAPED, "escape-norm")

    def test_escape_norm_at_start(self):
        res = integrate_adaptive(lambda t, y: y, [2e8])
        assert (res.stop_reason, res.t_escape, res.steps) == ("escape-norm", 0.0, 0)

    def test_non_finite(self):
        # y' = 1e308 from 1e308: the accepted state at t = 1 overflows to inf,
        # just below the escape norm.
        res = integrate_adaptive(lambda t, y: np.full_like(y, 1e308), [1e308],
                                 IntegratorOptions(escape_norm=1.79e308))
        assert (res.status, res.stop_reason) == (ESCAPED, "non-finite")
        assert res.norm_at_escape == np.inf and res.t_escape == 1.0

    @pytest.mark.parametrize("float_rhs", [None, lambda t, h: lambda r, y: y],
                             ids=["stacked", "floats"])
    def test_a_state_whose_square_overflows_is_finite(self, float_rhs):
        # ||y||^2 overflows from y = 1e154 on, far below the escape norm 1e300:
        # the norm is finite, so y' = y completes at 1e154 e.
        opts = IntegratorOptions(escape_norm=1e300)
        (res,) = integrate_lanes(_lanes(lambda t, Y: Y), [[1e154]], opts, float_rhs=float_rhs)
        assert (res.status, res.stop_reason) == (COMPLETE, "complete")
        assert abs(res.y_final[0] / (1e154 * math.e) - 1.0) < 1e-8
        assert res.max_rhs_norm == res.y_final[0]

    def test_a_seed_whose_square_overflows_is_measured_as_it_is(self):
        # The seed [1e200, 1e200] has norm 1.414e200: below 1e300 it steps,
        # at or above 1e200 it escapes at t = 0 with that finite norm.
        seed = [[1e200, 1e200]]
        (res,) = integrate_lanes(_lanes(lambda t, Y: 0.0 * Y), seed,
                                 IntegratorOptions(escape_norm=1e300))
        assert res.stop_reason == "complete" and res.max_rhs_norm == 0.0
        (res,) = integrate_lanes(_lanes(lambda t, Y: Y), seed, IntegratorOptions(escape_norm=1e200))
        assert (res.stop_reason, res.t_escape) == ("escape-norm", 0.0)
        assert res.norm_at_escape == math.hypot(1e200, 1e200)
        assert res.max_rhs_norm == math.hypot(1e200, 1e200)

    @pytest.mark.parametrize("seed", [[1e-170], [1e-170, -1e-170]])
    def test_a_state_whose_square_underflows_is_measured_as_it_is(self, seed):
        # ||y||^2 underflows to 0 below about 1.5e-154: the norm is hypot's,
        # so y' = y from 1e-170 escapes at t = 0 under the escape norm 1e-200,
        # and completes with its largest derivative measured, not read as 0.
        norm = math.hypot(*seed)
        res = integrate_adaptive(lambda t, y: y, seed, IntegratorOptions(escape_norm=1e-200))
        assert (res.stop_reason, res.t_escape, res.steps) == ("escape-norm", 0.0, 0)
        assert res.norm_at_escape == res.max_rhs_norm == norm
        res = integrate_adaptive(lambda t, y: y, seed)
        assert res.stop_reason == "complete"
        assert res.max_rhs_norm == math.hypot(*res.y_final) > 2.7 * norm

    def test_min_step(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0], IntegratorOptions(escape_norm=1e300))
        assert (res.status, res.stop_reason) == (STEP_COLLAPSE, "min-step")
        assert res.t_escape is None and abs(res.t_final - np.pi / 4) < 1e-6

    def test_max_steps(self):
        res = integrate_adaptive(lambda t, y: 1.0 + y**2, [1.0], IntegratorOptions(max_steps=5))
        assert (res.status, res.stop_reason) == (STEP_COLLAPSE, "max-steps")
        assert res.steps + res.rejected == 5

    @pytest.mark.parametrize("float_rhs", [None, lambda t, h: lambda r, y: 1.0 + y * y],
                             ids=["stacked", "floats"])
    @pytest.mark.parametrize("atol", [1e-60, 1e-100, 1e-300])
    def test_a_tiny_atol_from_zero_completes(self, atol, float_rhs):
        # From y = 0 the scale is atol, so the first step's guess falls below
        # the min_step floor for atol under about 1e-58; it is floored there,
        # and y' = 1 + y^2 reaches tan(1).
        (res,) = integrate_lanes(_lanes(lambda t, Y: 1.0 + Y * Y), [[0.0]],
                                 IntegratorOptions(atol=atol), float_rhs=float_rhs)
        assert (res.stop_reason, res.t_final) == ("complete", 1.0)
        assert abs(res.y_final[0] / math.tan(1.0) - 1.0) < 1e-8


def _assert_same_result(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert (type(x), repr(x)) == (type(y), repr(y)), f.name


def _float_form(rhs):
    """``rhs`` on a 1-d state as integrate_lanes takes its float form: float_rhs(t, h)
    gives g(r, y) at the step's r-th stage time, a Python float in and out."""
    def float_rhs(t, h):
        times = _stage_times(t, h)
        return lambda r, y: rhs(times[r], np.array([y])).item()

    return float_rhs


def _lanes(rhs):
    """The field of integrate_lanes for ``rhs(t, Y)``, t the (k,) times of the live lanes."""
    return lambda T: lambda r, Y: rhs(T[r], Y)


class TestLanes:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([1e8, -1e300])),
                 min_size=1, max_size=8),
        st.sampled_from([1e-9, 1e-6, 1e-3]),
        st.sampled_from([1e8, 1e300]),
        st.sampled_from([10**6, 60]),
    )
    def test_each_lane_equals_its_lone_integration(self, seeds, rtol, escape_norm, max_steps):
        # Tangent blow-up, growth, decay: lanes complete, escape, hit the
        # min_step floor or the step budget, with rejected steps, side by side.
        # Rows from 1e8 (at the escape norm 1e8) and from -1e300 escape at
        # t = 0 beside them.  No two results share memory, and none is a view of a
        # lane's node buffer.
        opts = IntegratorOptions(rtol=rtol, escape_norm=escape_norm, max_steps=max_steps)

        def lone(t, y):
            return np.array([1.0 + y[0] * y[0], np.sin(3.0 * t) - y[1]])

        def stack(t, Y):
            return np.stack([1.0 + Y[:, 0] * Y[:, 0], np.sin(3.0 * t) - Y[:, 1]], axis=1)

        y0 = np.array([[s, 2.0 * s] for s in seeds])
        got = integrate_lanes(_lanes(stack), y0, opts)
        assert len(got) == len(seeds)
        for row, res in zip(y0, got):
            _assert_same_result(res, integrate_adaptive(lone, row, opts))
        arrays = [x for res in got for x in (res.t, res.y)]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        assert all(res.y.flags.owndata for res in got)

    def test_rhs_sees_only_live_lanes(self):
        sizes = []

        def rhs(t, Y):
            sizes.append(len(t))
            assert Y.shape == (len(t), 1)
            return 1.0 + Y * Y

        res = integrate_lanes(_lanes(rhs), [[0.0], [1.0], [2e8]])
        assert [r.stop_reason for r in res] == ["complete", "escape-norm", "escape-norm"]
        assert sizes[0] == 3 and max(sizes[1:]) == 2 and min(sizes) == 1  # start, then live only

    @pytest.mark.parametrize("nan_above", [None, 20.0])
    @pytest.mark.parametrize("partners", [[0.0], [0.0, -0.5], [15.0, 12.0], [1e9, 15.0]])
    def test_nonfinite_trial_stages_match_lone_integration(self, nan_above, partners):
        # y' = 1 + y^8 from 10 blows up within 1.5e-8: trial stages overflow
        # (or, with nan_above, return NaN) and are rejected.  With float_rhs
        # the batch steps in the float kernel, lane after lane, while the
        # lone integration steps stacked.
        nonfinite = []

        def rhs(t, y):
            f = 1.0 + y**8
            if nan_above is not None:
                f = np.where(y < nan_above, f, np.nan)
            nonfinite.append(not np.all(np.isfinite(f)))
            return f

        lone = integrate_adaptive(rhs, [10.0])
        assert lone.rejected > 0 and any(nonfinite)
        lanes = integrate_lanes(_lanes(rhs), [[10.0]] + [[p] for p in partners],
                                float_rhs=_float_form(rhs))
        _assert_same_result(lanes[0], lone)

    @pytest.mark.parametrize("y0, error", [
        ([1.0, 2.0], "must form an"),
        ([[0.0], [np.inf]], "must be finite"),
        ([[]], "at least one component, got dimension 0"),
        (np.empty((0, 0)), "at least one component, got dimension 0"),
    ])
    def test_rejects_bad_initial_states(self, y0, error):
        with pytest.raises(ValueError, match=error):
            integrate_lanes(_lanes(lambda t, Y: Y), y0)

    def test_a_state_of_dimension_0_is_a_clean_error(self):
        with pytest.raises(ValueError, match="at least one component, got dimension 0"):
            integrate_adaptive(lambda t, y: y, [])

    @pytest.mark.parametrize("m", [1, 8, 9, 33])
    def test_float_kernel_steps_every_lane(self, m):
        # y' = 1 + y^2: the lane from 5 escapes at t = pi/2 - atan(5), the
        # others complete.  Whatever the lane count, every step is in floats,
        # with one float_rhs call per step attempt: the field makes only the
        # first evaluation and the step-size probe, one row each.
        rows, float_calls = [], []

        def rhs(t, Y):
            return 1.0 + Y * Y

        def field(T):
            rows.append(T.shape)
            return lambda r, Y: rhs(T[r], Y)

        def float_rhs(t, h):
            float_calls.append(t)
            return lambda r, y: 1.0 + y * y

        y0 = [[5.0]] + [[v] for v in np.linspace(-0.5, 0.5, m - 1)]
        got = integrate_lanes(field, y0, float_rhs=float_rhs)
        assert [r.status for r in got] == [ESCAPED] + [COMPLETE] * (m - 1)
        assert len(float_calls) == sum(r.steps + r.rejected for r in got)
        assert rows == [(1, m), (1, m)]
        for res, ref in zip(got, integrate_lanes(_lanes(rhs), y0)):
            _assert_same_result(res, ref)

    def test_no_lanes(self):
        assert integrate_lanes(_lanes(lambda t, Y: Y), np.empty((0, 2))) == []


# Signed zeros, subnormals, infinities, NaN and values across the range.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1.0, -1.0, 3.7,
            1e300, -1e300, np.inf, -np.inf, np.nan]


def _same_float(a, b) -> bool:
    """Equal, or both NaN; the sign bit compared for every non-NaN value."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and np.signbit(a) == np.signbit(b)


class TestLoneOneDimensionalLane:
    """A 1-d lane steps in Python floats, each stage sum added left to right,
    as the stacked kernel sums a 1-d stack."""

    @np.errstate(all="ignore")
    def test_stacked_sums_are_the_float_kernel_sums(self):
        # The stacked kernel's 1-d stage, new-state and error sums, on 1 and 3
        # lanes, against the float kernel's w0*k0 + w1*k1 + ... in Python
        # floats, zero weights included: special values, and every sign
        # pattern of zeros.
        rng = np.random.default_rng(20261018)
        # The stacked kernel keeps a step's stage derivatives as (k, n, 7).
        zeros = [np.array(signs)[None, None, :]
                 for signs in itertools.product([0.0, -0.0], repeat=7)]
        draws = [rng.choice(_SPECIAL, size=(k, 1, 7))
                 * rng.choice([1.0, 1.0, rng.uniform(0.1, 10.0)], size=(k, 1, 7))
                 for k in (1, 3) for _ in range(2000)]
        for K in zeros + draws:
            for w, i in [(_A[i], i) for i in range(1, 7)] + [(_E, 7)]:
                got = _plain_sum(w * K[..., :i])
                assert got.shape == (len(K), 1)
                ws = w.tolist()
                for lane, g in zip(K[:, 0, :i].tolist(), got[:, 0].tolist()):
                    want = ws[0] * lane[0]
                    for wj, kj in zip(ws[1:], lane[1:]):
                        want += wj * kj
                    assert _same_float(g, want), (i, lane)

    @np.errstate(all="ignore")
    def test_the_new_state_is_stage_six_state(self):
        # FSAL: the kernels take stage 6's state, A[6] . K[:, :6], as the new
        # state in place of B5 . K, the same sum with a trailing zero weight.
        # As matrix products on n-d stacks they agree bit for bit, sign of
        # zero included, whenever k6 is finite; when k6 is not finite the
        # error estimate E . K is not finite either, so the step is rejected
        # whatever its new state.  The kernels sum left to right instead
        # (test_stacked_sums_are_the_float_kernel_sums).
        rng = np.random.default_rng(20261019)
        for k in (1, 2, 3, 8, 9, 12):
            for n in (2, 3):
                for _ in range(40):
                    K = rng.choice(_SPECIAL, size=(k, 7, n))
                    K *= rng.choice([1.0, 1.0, rng.uniform(0.1, 10.0)], size=K.shape)
                    finite = np.isfinite(K[:, 6])
                    new, stage6 = _B5 @ K, _A[6] @ K[:, :6]
                    for x, y in zip(new[finite], stage6[finite]):
                        assert _same_float(x, y), (k, n, K)
                    assert not np.isfinite((_E @ K)[~finite]).any(), (k, n, K)

    @pytest.mark.parametrize("y0", [1.0, -2.5])
    def test_an_infinite_first_stage_rejects_the_step(self, y0):
        # y' = 1, but inf in a narrow band of y and finite outside it, at
        # +-inf and NaN too: the first step's stage 1 lands in the band.
        # Stages 2 to 5 weigh k1 by nonzero weights, so their states are not
        # finite and their derivatives finite again; the zero weight A[6][1]
        # still carries k1 into the new state, NaN, which makes the error
        # scale NaN (as E[1] makes the error sum), and the step is rejected.
        # Both kernels make the same evaluations and return the same bits.
        def first_stage_state():
            seen = []
            integrate_lanes(_lanes(lambda t, Y: np.ones_like(Y)), [[y0]],
                            float_rhs=lambda t, h: lambda r, y: seen.append(y) or 1.0)
            return seen[0]

        s1 = first_stage_state()
        lo, hi = s1 - 1e-3 * abs(s1 - y0), s1 + 1e-3 * abs(s1 - y0)

        def band(y):
            return 1e200 * 1e200 if lo < y < hi else 1.0

        def run(in_floats):
            seen = []  # the state of every evaluation, in order

            def rhs(t, Y):
                seen.extend(Y[:, 0].tolist())
                return np.array([[band(y)] for y in Y[:, 0].tolist()])

            def g(r, y):
                seen.append(y)
                return band(y)

            (res,) = integrate_lanes(_lanes(rhs), [[y0]],
                                     float_rhs=(lambda t, h: g) if in_floats else None)
            return res, seen

        (floats, seen_f), (stacked, seen_s) = run(True), run(False)
        _assert_same_result(floats, stacked)
        assert len(seen_f) == len(seen_s) and all(map(_same_float, seen_f, seen_s))
        # After the seed and the probe, the first step's six stage states.
        first = seen_f[2:8]
        assert first[0] == s1 and band(s1) == math.inf
        assert all(not math.isfinite(y) for y in first[1:]), first
        assert math.isnan(first[5]), first  # stage 6's state, through A[6][1]
        assert floats.rejected >= 1 and floats.stop_reason == "complete"
        assert floats.y_final[0] == pytest.approx(y0 + 1.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 3.0, -3.0]),
                 min_size=1, max_size=10),
        st.sampled_from(["riccati", "nan-above", "zero-sign"]),
        st.sampled_from([1e-9, 1e-3]),
    )
    def test_lone_rhs_lane_equals_the_stacked_lane(self, seeds, form, rtol):
        # The float kernel (float_rhs given) against the stacked kernel
        # (float_rhs None), each lane alone and among up to nine partners,
        # which the float kernel steps lane after lane.
        def lone(t, y):
            if form == "riccati":
                return 1.0 + y * y
            if form == "nan-above":
                return np.where(y < 20.0, 1.0 + y**8, np.nan)
            # -0.0 at t = 0 from y = -0.0, then a sign that follows the
            # stage state's zero: a flipped zero flips the derivative.
            return np.copysign(t, y) + y

        def stack(t, Y):
            return lone(t[:, None], Y)

        opts = IntegratorOptions(rtol=rtol)
        y0 = [[s] for s in seeds]
        floats = integrate_lanes(_lanes(stack), y0, opts, float_rhs=_float_form(lone))
        stacked = integrate_lanes(_lanes(stack), y0, opts)
        for a, b in zip(floats, stacked):
            _assert_same_result(a, b)
        alone = integrate_lanes(_lanes(stack), [[seeds[0]]], opts, float_rhs=_float_form(lone))[0]
        _assert_same_result(alone, stacked[0])

    @pytest.mark.parametrize("seed", [5e-324, -5e-324, 2.2e-308, 1e-170, -1e-170])
    @pytest.mark.parametrize("escape_factor", [None, 100.0])
    def test_tiny_states_are_measured_alike_in_both_kernels(self, seed, escape_factor):
        # y' = 20 y grows e^20 times over [0, 1], from states whose square
        # underflows: under an escape norm 100 times the seed's, both kernels
        # see the norm cross it at the same step.
        opts = IntegratorOptions(escape_norm=1e8 if escape_factor is None else escape_factor * abs(seed))
        floats = integrate_lanes(_lanes(lambda t, Y: 20.0 * Y), [[seed]], opts,
                                 float_rhs=lambda t, h: lambda r, y: 20.0 * y)[0]
        stacked = integrate_lanes(_lanes(lambda t, Y: 20.0 * Y), [[seed]], opts)[0]
        _assert_same_result(floats, stacked)
        assert floats.stop_reason == ("complete" if escape_factor is None else "escape-norm")
        assert 0.0 < floats.max_rhs_norm

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(), st.sampled_from(_SPECIAL + [1e-170, -1.5e-154, 1.4e154])))
    def test_the_float_kernel_norm_is_the_norm_of_a_one_element_row(self, y):
        # The float kernel measures a state by abs(y); the stacked kernel by _norms.
        with np.errstate(over="ignore"):
            assert _same_float(abs(y), _norms(np.array([[y]]))[0])


# 2-d systems with the same plain arithmetic on a stack and on n-lists of floats:
# y' = (y0^2, y0 y1 - t) blows up with y0, and y' = (1e308, t) overflows an
# accepted state while every stage derivative stays finite.
_SYSTEMS = {
    "coupled": (lambda t, Y: np.stack([Y[:, 0] * Y[:, 0], Y[:, 0] * Y[:, 1] - t], axis=1),
                lambda t, y: [y[0] * y[0], y[0] * y[1] - t]),
    "flood": (lambda t, Y: np.stack([np.full(len(t), 1e308), t], axis=1),
              lambda t, y: [1e308, t]),
}


def _vector_float_rhs(rhs, calls):
    """``rhs(t, y)`` on n-lists as integrate_lanes takes an n-d float rhs, recording the
    stage times of each call."""
    def float_rhs(t, h):
        times = _stage_times(t, h)
        calls.append(times)
        return lambda r, y: rhs(times[r], y)

    return float_rhs


class TestVectorFloatKernel:
    """An n-d lane steps in Python floats with the stacked kernel's bits."""

    @pytest.mark.parametrize("system, seeds, opts, reasons", [
        # Complete, and escape by the norm, beside seeds at the escape norm.
        ("coupled", [[0.5, 1.0], [1e8, 0.0], [-0.75, 2.0], [0.0, -0.0], [2.0, 1.0], [0.0, -1e8]],
         IntegratorOptions(), ["complete", "escape-norm", "complete", "complete", "escape-norm",
                               "escape-norm"]),
        ("coupled", [[2.0, 1.0], [0.5, -0.0]], IntegratorOptions(escape_norm=1e300),
         ["min-step", "complete"]),
        ("coupled", [[0.9, -1.0], [-0.0, 3.0]], IntegratorOptions(rtol=1e-12, max_steps=30),
         ["max-steps", "complete"]),
        ("flood", [[1e308, 0.0], [0.0, 0.0]], IntegratorOptions(escape_norm=1.79e308),
         ["non-finite", "complete"]),
    ], ids=["complete-escape", "min-step", "max-steps", "non-finite"])
    def test_equals_the_stacked_kernel_bitwise(self, system, seeds, opts, reasons):
        stack, rhs = _SYSTEMS[system]
        calls = []
        floats = integrate_lanes(_lanes(stack), seeds, opts, float_rhs=_vector_float_rhs(rhs, calls))
        stacked = integrate_lanes(_lanes(stack), seeds, opts)
        assert [res.stop_reason for res in floats] == reasons
        for a, b in zip(floats, stacked):
            _assert_same_result(a, b)
        # One call per step attempt of each lane that steps, lane after lane.
        assert len(calls) == sum(res.steps + res.rejected for res in floats)
        assert all(len(times) == 5 for times in calls)
        # A lone lane's calls get the stacked kernel's stage times, in order;
        # the stacked field's first two calls are the seed derivative and the probe.
        lone, rows = [], []

        def field(T):
            rows.append(T[:, 0].tolist())
            return _lanes(stack)(T)

        integrate_lanes(_lanes(stack), seeds[:1], opts, float_rhs=_vector_float_rhs(rhs, lone))
        integrate_lanes(field, seeds[:1], opts)
        assert rows[2:] == lone

    @np.errstate(over="ignore", invalid="ignore")
    def test_norms_add_the_squares_left_to_right(self):
        # As the vector kernel measures a state: sqrt(x0*x0 + x1*x1 + ...), or
        # hypot where that is infinite, or tiny for a nonzero row.  An FMA
        # chain, as np.vecdot computes, differs in about a sixth of the draws.
        rng = np.random.default_rng(20261020)
        special = _SPECIAL + [1e-170, 1.4e154]
        for n in (2, 3):
            scale = rng.choice([1.0, 1e-3, 1e5], (3000, 1))
            rows = np.concatenate([rng.normal(size=(3000, n)) * scale,
                                   rng.choice(special, size=(500, n))])
            for row, got in zip(rows.tolist(), _norms(rows)):
                sq = 0.0
                for x in row:
                    sq += x * x
                want = math.sqrt(sq)
                if want == math.inf or want < 2.0**-511 and any(row):
                    want = math.hypot(*row)
                assert _same_float(got, want), row

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 3).flatmap(lambda n: st.lists(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 0.3, -0.6, 1.5, -2.0, 1e8, 1e154]),
            min_size=n, max_size=n), min_size=1, max_size=6)),
        st.sampled_from([1e-9, 1e-6, 1e-3]),
        st.sampled_from([1e8, 1e300]),
    )
    def test_drawn_lanes_equal_the_stacked_kernel_and_their_lone_lanes(self, seeds, rtol,
                                                                       escape_norm):
        # y' = (y0^2, y0 y1 - t, ...), one more y0 y_i - t per component.
        def stack(t, Y):
            return np.concatenate([Y[:, :1] * Y[:, :1], Y[:, :1] * Y[:, 1:] - t[:, None]], axis=1)

        def rhs(t, y):
            return [y[0] * y[0]] + [y[0] * x - t for x in y[1:]]

        opts = IntegratorOptions(rtol=rtol, escape_norm=escape_norm, max_steps=400)
        floats = integrate_lanes(_lanes(stack), seeds, opts, float_rhs=_vector_float_rhs(rhs, []))
        stacked = integrate_lanes(_lanes(stack), seeds, opts)
        for seed, a, b in zip(seeds, floats, stacked):
            _assert_same_result(a, b)
            (alone,) = integrate_lanes(_lanes(stack), [seed], opts,
                                       float_rhs=_vector_float_rhs(rhs, []))
            _assert_same_result(alone, a)
