"""Unit tests for the quadrature engines."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaw.context import NonConvergence, WindowFailure
from qaw.quad import _trapezoid, integrate_line_even_window, integrate_theta

EPS = float(np.finfo(float).eps)


class TestIntegrateTheta:
    def test_constant(self):
        res = integrate_theta(lambda th: np.ones_like(th))
        assert res.value == pytest.approx(math.pi, rel=1e-12)
        assert res.window is None

    def test_result_fields_are_plain_python_numbers(self):
        res = integrate_theta(lambda th: np.cos(th) ** 2)
        assert type(res.value) is complex and type(res.est_error) is float
        res = integrate_line_even_window(lambda t: np.exp(-t * t))
        assert type(res.value) is complex and type(res.est_error) is float

    def test_integrand_sees_each_level_as_one_array(self):
        # levels 0 and 1 (65 + 64 nodes) in one call; cos^2 is accepted there
        calls = []

        def f(th):
            calls.append(th.shape)
            return np.cos(th) ** 2

        res = integrate_theta(f)
        assert calls == [(129,)] and res.nodes_used == 129

    def test_scalar_returning_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_theta(lambda th: 1.0)

    def test_cosine(self):
        res = integrate_theta(lambda th: np.cos(th))
        assert abs(res.value) < 1e-12

    def test_cosine_squared(self):
        res = integrate_theta(lambda th: np.cos(th) ** 2)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)


class TestIntegrateLine:
    def test_gaussian(self):
        res = integrate_line_even_window(lambda t: np.exp(-t * t))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert res.window is not None and res.window[1] > 0

    def test_gaussian_times_cosh(self):
        alpha = 1.0
        res = integrate_line_even_window(
            lambda t: np.exp(-t * t) * np.cosh(alpha * t)
        )
        want = math.sqrt(math.pi) * math.exp(alpha * alpha / 4.0)
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        res = integrate_line_even_window(lambda t: t * np.exp(-t * t))
        assert abs(res.value) < 1e-13

    def test_window_probes_both_ends_in_one_call(self):
        # the first batch of 8 half-widths, each T next to -T
        calls = []

        def f(t):
            calls.append(t.tolist())
            return np.exp(-t * t)

        integrate_line_even_window(f)
        assert calls[0] == [s * 1.5**k for k in range(8) for s in (1.0, -1.0)]

    def test_nondecaying_tail_raises(self):
        with pytest.raises(WindowFailure) as exc:
            integrate_line_even_window(lambda t: np.ones_like(t))
        assert exc.value.probes  # probed log-magnitudes are attached


class TestGrowthWindow:
    def test_gaussian_log_magnitude(self):
        # first point of {1, 1.5, 1.5^2, ...} with T e^{-T^2} < 1e-16:
        # 1.5^4 = 5.06 gives 2.5e-11, 1.5^5 = 7.59 gives 7e-25
        res = integrate_line_even_window(lambda t: np.exp(-t * t))
        assert res.window == (-(1.5**5), 1.5**5)

    def test_flat_small_magnitude_first_probe(self):
        res = integrate_line_even_window(lambda t: np.full(t.shape, 1e-300))
        assert res.window == (-1.0, 1.0)

    def test_growing_magnitude_raises(self):
        # every probe below 50 is tried and reported with log(T e^T)
        with pytest.raises(WindowFailure) as exc:
            integrate_line_even_window(lambda t: np.exp(np.abs(t)))
        probes = exc.value.probes
        assert list(probes) == [1.5**k for k in range(10)]
        for T, lm in probes.items():
            assert lm == pytest.approx(T + math.log(T), abs=1e-12)

    def test_window_monotonicity(self):
        # enlarging the window beyond the automatic choice changes the value
        # by less than the reported error estimate
        f = lambda t: np.exp(-t * t) * np.cos(t)
        auto = integrate_line_even_window(f)
        T = auto.window[1] * 2.0
        bigger = _trapezoid(f, -T, T)
        assert abs(bigger.value - auto.value) <= max(auto.est_error, 1e-14)


def _recording(f, calls):
    def g(x):
        calls.append(x.copy())
        return f(x)

    return g


class TestNestedTrapezoid:
    def test_cosines_exact_below_twice_the_intervals(self):
        # the 64 intervals on [0, pi] of the first level are the 128-point
        # periodic rule on [0, 2 pi].  cos k theta is taken at the exact node
        # pi j / 128 of the first two levels, since the rounding of k theta
        # (up to 4e-14 at k = 127) would exceed the rounding floor
        # 4 eps h sum|f| (under 2e-15) that accepts a zero value
        def cosine(k):
            return lambda th: np.cos(np.pi * np.mod(k * np.rint(th * (128 / np.pi)), 256) / 128)

        for k in range(128):
            res = integrate_theta(cosine(k))
            want = math.pi if k == 0 else 0.0
            assert abs(res.value - want) <= 1e-14 and res.nodes_used == 129

    def test_levels_reuse_every_node(self):
        # one call for levels 0 and 1, then one per refinement on its new
        # nodes; 1 / (a - cos theta) near its pole at a = 1.001 takes four
        calls = []
        f = lambda th: 1.0 / (0.001 + 2.0 * np.sin(0.5 * th) ** 2)
        res = integrate_theta(_recording(f, calls))
        nodes = np.concatenate(calls)
        assert len(calls) >= 3 and [c.size for c in calls] == [129] + [
            128 * 2**i for i in range(len(calls) - 1)]
        assert np.unique(nodes).size == nodes.size == res.nodes_used
        assert nodes.min() == 0.0 and nodes.max() == math.pi

    def test_window_nodes_are_exact_negatives(self):
        calls = []
        f = lambda t: np.exp(-t * t) * np.cosh(t) * (1.0 + 0.5j * np.sinh(t))
        res = integrate_line_even_window(_recording(f, calls))
        T = res.window[1]
        # one probe batch: pairs (T_k, -T_k) with T among them
        probes = calls[0].reshape(-1, 2)
        assert np.array_equal(probes[:, 1], -probes[:, 0]) and T in probes[:, 0]
        nodes = np.sort(np.concatenate(calls[1:]))
        assert np.unique(nodes).size == nodes.size == res.nodes_used
        assert np.array_equal(nodes, -nodes[::-1]) and nodes[-1] == T

    def test_error_estimate_bounds_the_error_theta(self):
        for a in np.linspace(1.02, 4.0, 200):
            # a - cos(theta), written without cancellation near theta = 0
            res = integrate_theta(lambda th: 1.0 / ((a - 1.0) + 2.0 * np.sin(0.5 * th) ** 2))
            want = math.pi / math.sqrt((a - 1.0) * (a + 1.0))
            assert abs(res.value - want) <= res.est_error, a

    def test_node_cap_raises_with_the_last_value(self):
        # theta^15 is not periodic, so the column converges algebraically
        # and is still moving at 2^16 intervals; the largest call is the
        # last refinement's 32768 new nodes
        calls = []
        with pytest.raises(NonConvergence) as exc:
            integrate_theta(_recording(lambda th: th**15, calls))
        assert sum(c.size for c in calls) == 65537 and max(c.size for c in calls) == 32768
        want = math.pi**16 / 16
        assert math.isfinite(abs(exc.value.partial))
        assert abs(exc.value.partial - want) <= 1e-6 * want and exc.value.last_term > 0
        assert "65537 nodes" in str(exc.value)

    def test_noise_stops_at_the_rounding_floor(self):
        # 1 + 1e8 cos theta integrates to pi, so its sum cancels 1e8-fold,
        # and noise of 1e-8 of the value moves every level by more than
        # 1e-10 of it; the rounding floor accepts the first refinement and
        # its estimate covers the error
        rng = np.random.default_rng(7)
        f = lambda th: 1.0 + 1e8 * np.cos(th) + 1e-8 * math.pi * rng.standard_normal(th.shape)
        res = integrate_theta(f)
        floor = 4.0 * EPS * (2e8 + math.pi)
        assert res.nodes_used == 129
        assert res.est_error == pytest.approx(floor, rel=1e-2) and res.est_error > 1e-10 * math.pi
        assert abs(res.value - math.pi) <= res.est_error

    def test_error_estimate_bounds_the_error_window(self):
        for s in np.linspace(0.1, 4.0, 200):
            res = integrate_line_even_window(lambda t: np.exp(-s * t * t) * np.cos(t))
            want = math.sqrt(math.pi / s) * math.exp(-0.25 / s)
            assert abs(res.value - want) <= res.est_error, s

    @given(
        a=st.floats(1.1, 4.0),
        coeffs=st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    )
    def test_trig_polynomial_over_cosine_pole(self, a, coeffs):
        # int_0^pi cos(k theta) / (a - cos theta) = pi r^k / sqrt(a^2 - 1),
        # r = a - sqrt(a^2 - 1)
        root = math.sqrt((a - 1.0) * (a + 1.0))
        r = a - root

        def f(th):
            poly = sum(c * np.cos(k * th) for k, c in enumerate(coeffs))
            return poly / ((a - 1.0) + 2.0 * np.sin(0.5 * th) ** 2)

        res = integrate_theta(f)
        want = math.pi / root * sum(c * r**k for k, c in enumerate(coeffs))
        assert abs(res.value - want) <= res.est_error


def _one_rung_window(f):
    """The window search with one half-width per call: (T, value) or WindowFailure."""
    probes, T = {}, 1.0
    while T < 50.0:
        mag = float(np.max(np.abs(f(np.array([T, -T]))))) * T
        probes[T] = -math.inf if mag == 0 else math.log(mag)
        if probes[T] < math.log(1e-16):
            return T, _trapezoid(f, -T, T).value
        T *= 1.5
    raise WindowFailure("no decayed half-width", probes=probes)


def _gaussian(s):
    return lambda t: np.exp(-s * t * t)


def _failing_beyond(s, cutoff, fail):
    """exp(-s t^2), calling ``fail`` when a node lies beyond ``cutoff``."""

    def f(t):
        if np.abs(t).max() > cutoff:
            fail()
        return np.exp(-s * t * t)

    return f


def _raise():
    raise ValueError("integrand failed")


def _warn():
    warnings.warn("beyond the window", RuntimeWarning)


class TestBatchedWindow:
    """The batched probes pick what one half-width per call picks."""

    @pytest.mark.parametrize("f", [
        *(pytest.param(_gaussian(s), id=f"gaussian-{s}") for s in (4.0, 1.0, 0.3, 0.1, 0.05, 0.01)),
        pytest.param(lambda t: np.exp(np.abs(t)), id="growing"),  # no half-width decays
        pytest.param(lambda t: np.full(t.shape, 1e-300), id="flat-1e-300"),
        # T = 1.5^5; the rest of the first batch, from 1.5^6 on, fails
        pytest.param(_failing_beyond(1.0, 8.0, _raise), id="raises-beyond-T"),
        pytest.param(_failing_beyond(1.0, 8.0, _warn), id="warns-beyond-T"),
        # T = 1.5^8, the first half-width of the second batch; 1.5^9 fails
        pytest.param(_failing_beyond(0.1, 30.0, _raise), id="raises-beyond-T-second-batch"),
    ])
    def test_agrees_with_one_rung_search(self, f):
        try:
            want = _one_rung_window(f)
        except WindowFailure as exc:
            with pytest.raises(WindowFailure) as got:
                integrate_line_even_window(f)
            assert got.value.probes == exc.probes
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_line_even_window(f)
        assert (res.window[1], res.value) == want

    def test_failure_at_first_half_width_propagates(self):
        with pytest.raises(ValueError, match="integrand failed"):
            integrate_line_even_window(lambda t: _raise())


class TestNonFinite:
    def test_nan_node_on_theta_ends_at_first_level(self):
        # one NaN node: no refinement can make the sum finite
        calls = []

        def f(th):
            return np.where(th == 0.0, np.nan, np.cos(th))

        with pytest.raises(NonConvergence) as exc:
            integrate_theta(_recording(f, calls))
        assert sum(c.size for c in calls) == 129
        assert exc.value.partial is None and math.isnan(exc.value.last_term)
        assert "node 0.0" in str(exc.value)

    def test_nan_node_at_a_later_level(self):
        # theta^15 is not accepted at level 1; every new node of level 2 is
        # NaN, so the partial value is level 1's trapezoid sum
        def f(th):
            return np.full(th.shape, np.nan) if th.size == 128 else th**15

        with pytest.raises(NonConvergence) as exc:
            integrate_theta(f)
        fx = np.linspace(0.0, math.pi, 129) ** 15
        level1 = math.pi / 128 * (fx[1:-1].sum() + 0.5 * (fx[0] + fx[-1]))
        assert exc.value.partial == pytest.approx(level1, rel=1e-13)

    def test_nan_integrand_on_the_line_is_a_window_failure(self):
        with pytest.raises(WindowFailure) as exc:
            integrate_line_even_window(lambda t: np.full(t.shape, np.nan))
        assert len(exc.value.probes) == 10
        assert all(math.isnan(m) for m in exc.value.probes.values())

    def test_nan_probe_is_not_decayed(self):
        # NaN at +-1 only: the search goes on to the Gaussian's own window
        f = lambda t: np.where(np.abs(t) == 1.0, np.nan, np.exp(-t * t))
        res = integrate_line_even_window(f)
        assert res.window == (-(1.5**5), 1.5**5)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_nan_node_in_window_ends_at_first_level(self):
        calls = []
        f = lambda t: np.where(t == 0.0, np.nan, np.exp(-t * t))
        with pytest.raises(NonConvergence) as exc:
            integrate_line_even_window(_recording(f, calls))
        assert [c.size for c in calls] == [16, 129] and exc.value.partial is None


class TestPastTheDoubleRange:
    """Levels whose parts are finite but whose modulus is not: abs() of
    such a complex raises OverflowError, the modulus test does not."""

    def test_level_modulus_past_the_range_is_non_convergence(self):
        # about sqrt(pi) (9e307 + 9e307i): each part finite, the modulus not
        with pytest.raises(NonConvergence, match="65 new nodes is not finite: sum overflowed$"):
            integrate_line_even_window(lambda t: np.exp(-t * t) * 9e307 * (1 + 1j))

    def test_move_past_the_range_is_no_overflow_error(self):
        # level 1 is 200 A and level 2 -200 A, both finite; their difference
        # has finite parts and a modulus past the range, and so has the sum
        # of |f| that sets the rounding floor.  The floor is then taken from
        # scaled values, so level 2 is not accepted, and the sum of level 3
        # passes the range
        a = 4e305 * (1 - 1j)

        def f(t):
            return np.where(np.arange(t.size) < 65, a, -3 * a)

        with pytest.raises(NonConvergence, match="256 new nodes is not finite: sum overflowed$"):
            _trapezoid(f, -100.0, 100.0)

    def test_floor_past_the_range_accepts_no_level(self):
        # each |f_j| is about 7e307, so h * sum|f_j| passes the range while
        # the level's sum stays finite: the floor must stay finite too
        try:
            res = integrate_line_even_window(lambda t: np.exp(-t * t) * 5e307 * (1 + 1j))
        except NonConvergence:
            return
        assert res.est_error < math.inf
        assert res.value == pytest.approx(math.sqrt(math.pi) * 5e307 * (1 + 1j), rel=1e-10)
