"""Unit tests for the quadrature engines."""

import math

import numpy as np
import pytest

from qaw.context import WindowFailure
from qaw.quad import (
    QuadratureConfig,
    estimate_theta_growth_window,
    integrate_line_even_window,
    integrate_theta,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-10 and cfg.initial_nodes == 64

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_refinements=0)
        with pytest.raises(ValueError):
            QuadratureConfig(window_growth=1.0)


class TestIntegrateTheta:
    def test_constant(self):
        res = integrate_theta(lambda th: np.ones_like(th))
        assert res.value == pytest.approx(math.pi, rel=1e-12)
        assert res.converged and res.window is None

    def test_result_fields_are_plain_python_numbers(self):
        res = integrate_theta(lambda th: np.cos(th) ** 2)
        assert type(res.value) is complex and type(res.est_error) is float
        res = integrate_line_even_window(lambda t: np.exp(-t * t))
        assert type(res.value) is complex and type(res.est_error) is float

    def test_integrand_sees_each_level_as_one_array(self):
        calls = []

        def f(th):
            calls.append(th.shape)
            return np.cos(th) ** 2

        res = integrate_theta(f)
        assert calls == [(64,), (128,)] and res.nodes_used == 128

    def test_scalar_returning_integrand_rejected(self):
        with pytest.raises(ValueError):
            integrate_theta(lambda th: 1.0)

    def test_cosine(self):
        res = integrate_theta(lambda th: np.cos(th))
        assert abs(res.value) < 1e-12

    def test_cosine_squared(self):
        res = integrate_theta(lambda th: np.cos(th) ** 2)
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_polynomial_exactness(self):
        # Gauss-Legendre with n nodes is exact to degree 2n-1
        for deg in (3, 7, 15):
            res = integrate_theta(lambda th: th**deg)
            want = math.pi ** (deg + 1) / (deg + 1)
            assert res.value == pytest.approx(want, rel=1e-13)


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
        calls = []

        def f(t):
            calls.append(t.tolist())
            return np.exp(-t * t)

        integrate_line_even_window(f)
        assert calls[0] == [1.0, -1.0] and calls[1] == [1.5, -1.5]

    def test_nondecaying_tail_raises(self):
        with pytest.raises(WindowFailure) as exc:
            integrate_line_even_window(lambda t: np.ones_like(t))
        assert exc.value.probes  # probed log-magnitudes are attached


class TestGrowthWindow:
    def test_gaussian_log_magnitude(self):
        # first point of {1, 1.5, 1.5^2, ...} past sqrt(16 ln 10) = 6.066
        T = estimate_theta_growth_window(lambda t: -t * t)
        assert T == pytest.approx(1.5**5)

    def test_flat_small_magnitude_first_probe(self):
        assert estimate_theta_growth_window(lambda t: -1000.0) == 1.0

    def test_growing_magnitude_raises(self):
        with pytest.raises(WindowFailure) as exc:
            estimate_theta_growth_window(lambda t: t)
        assert 1.0 in exc.value.probes

    def test_window_monotonicity(self):
        # enlarging the window beyond the automatic choice changes the value
        # by less than the reported error estimate
        f = lambda t: np.exp(-t * t) * np.cos(t)
        auto = integrate_line_even_window(f)
        T = auto.window[1] * 2.0
        from qaw.quad import _refine

        edges = list(np.linspace(-T, T, 2 * max(2, math.ceil(T)) + 1))
        bigger = _refine(f, edges, QuadratureConfig(), 16, (-T, T))
        assert abs(bigger.value - auto.value) <= max(auto.est_error, 1e-14)
