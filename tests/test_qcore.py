"""Unit tests for the scalar layer: Pochhammer symbols, q-gamma, series, weights."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from qaw.context import DivisionByZero, DomainError, NonConvergence, PoleError, QContext
from qaw.qcore import (
    INFINITE,
    HypergeometricSpec,
    detect_terminating,
    h_cos,
    h_sinh,
    h_sinh_log,
    phi_series,
    q_bracket,
    q_gamma,
    q_pochhammer,
    q_pochhammer_infinite,
    q_pochhammer_infinite_log,
    q_pochhammer_multi,
)

# Frozen multiprecision reference values (independent 40-digit product oracle,
# factor cutoff 1e-35).
POCH_03_05_INF = 0.51011782663398757183  # (0.3;0.5)_inf
POCH_02_05_INF = 0.65036594212098510764  # (0.2;0.5)_inf
POCH_05_05_INF = 0.28878809508660242128  # (0.5;0.5)_inf
PHI_1PHI0 = 1.5262202671135457785  # 1phi0(0.4;;0.5,0.3) = (0.12;0.5)inf/(0.3;0.5)inf
POCH_M025_025_INF = 1.3559096738634793803  # (-0.25;0.25)_inf
GAMMA_Q_25 = 1.1905936250275274868  # Gamma_q(2.5) at q=0.5


@pytest.fixture
def ctx():
    return QContext(q=0.5)


class TestQPochhammer:
    def test_finite_hand_value(self, ctx):
        assert q_pochhammer(0.5, 2, ctx) == pytest.approx(0.375, rel=1e-15)

    def test_order_zero_is_one(self, ctx):
        assert q_pochhammer(0.73 + 0.2j, 0, ctx) == 1.0

    def test_negative_order_rejected(self, ctx):
        with pytest.raises(DomainError):
            q_pochhammer(0.5, -1, ctx)

    def test_infinite_against_frozen_oracle(self, ctx):
        assert q_pochhammer(0.3, INFINITE, ctx) == pytest.approx(
            POCH_03_05_INF, rel=1e-13
        )

    def test_fractional_at_a_equal_one_vanishes(self, ctx):
        assert q_pochhammer(1.0, 1.7, ctx) == 0.0

    def test_recurrence(self, ctx):
        rng = random.Random(7)
        for _ in range(20):
            a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            n = rng.randrange(0, 12)
            lhs = q_pochhammer(a, n + 1, ctx)
            rhs = q_pochhammer(a, n, ctx) * (1.0 - a * ctx.q**n)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)

    def test_splitting(self, ctx):
        rng = random.Random(8)
        for _ in range(20):
            a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            n = rng.randrange(0, 21)
            whole = q_pochhammer(a, INFINITE, ctx)
            split = q_pochhammer(a, n, ctx) * q_pochhammer(
                a * ctx.q**n, INFINITE, ctx
            )
            assert whole == pytest.approx(split, rel=1e-12)

    def test_fractional_consistency_at_integers(self, ctx):
        for m in range(11):
            a = 0.37
            assert q_pochhammer(a, float(m), ctx) == pytest.approx(
                q_pochhammer(a, m, ctx), rel=1e-12
            )

    def test_multi_empty_is_one(self, ctx):
        assert q_pochhammer_multi([], INFINITE, ctx) == 1.0

    def test_multi_singleton(self, ctx):
        assert q_pochhammer_multi([0.3], INFINITE, ctx) == q_pochhammer(
            0.3, INFINITE, ctx
        )

    def test_multi_product(self, ctx):
        got = q_pochhammer_multi([0.2, 0.3], INFINITE, ctx)
        assert got == pytest.approx(POCH_02_05_INF * POCH_03_05_INF, rel=1e-12)


class TestQBracketGamma:
    def test_bracket_values(self, ctx):
        assert q_bracket(1.0, ctx) == pytest.approx(1.0)
        assert q_bracket(0.0, ctx) == 0.0
        assert q_bracket(2.0, ctx) == pytest.approx(1.5)

    def test_gamma_one_and_two(self, ctx):
        assert q_gamma(1.0, ctx) == pytest.approx(1.0, rel=1e-13)
        assert q_gamma(2.0, ctx) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_frozen_value(self, ctx):
        assert q_gamma(2.5, ctx) == pytest.approx(GAMMA_Q_25, rel=1e-13)

    def test_gamma_functional_equation(self, ctx):
        for x in (0.5, 1.5, 2.5, math.pi):
            lhs = q_gamma(x + 1.0, ctx)
            rhs = q_bracket(x, ctx) * q_gamma(x, ctx)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0])
    def test_gamma_poles(self, ctx, x):
        with pytest.raises(PoleError):
            q_gamma(x, ctx)


class TestDetectTerminating:
    def test_exact_powers(self, ctx):
        assert detect_terminating(1.0, ctx) == 0
        assert detect_terminating(ctx.q**-3, ctx) == 3

    def test_non_powers(self, ctx):
        assert detect_terminating(0.97, ctx) is None
        assert detect_terminating(0.3, ctx) is None
        assert detect_terminating(0.0, ctx) is None
        assert detect_terminating(2.001, ctx) is None


class TestPhiSeries:
    def test_z_zero_is_one(self, ctx):
        spec = HypergeometricSpec(numer=(0.3, 0.2), denom=(0.1,), z=0.0)
        assert phi_series(spec, ctx) == 1.0

    def test_terminating_k_zero_is_one(self, ctx):
        spec = HypergeometricSpec(numer=(0.3,), denom=(0.1,), z=0.7,
                                  terminating_k=0)
        assert phi_series(spec, ctx) == 1.0

    def test_q_binomial_1phi0(self, ctx):
        spec = HypergeometricSpec(numer=(0.4,), denom=(), z=0.3)
        assert phi_series(spec, ctx) == pytest.approx(PHI_1PHI0, rel=1e-13)

    def test_detected_terminating_matches_explicit(self, ctx):
        explicit = HypergeometricSpec(numer=(0.3,), denom=(0.2,), z=0.9,
                                      terminating_k=4)
        detected = HypergeometricSpec(numer=(ctx.q**-4, 0.3), denom=(0.2,), z=0.9)
        assert phi_series(detected, ctx) == pytest.approx(
            phi_series(explicit, ctx), rel=1e-12
        )

    def test_terminating_invariant_under_max_terms(self, ctx):
        spec = HypergeometricSpec(numer=(0.3,), denom=(0.2,), z=1.1,
                                  terminating_k=5)
        tight = QContext(q=0.5, max_terms=6)
        loose = QContext(q=0.5, max_terms=100_000)
        assert phi_series(spec, tight) == phi_series(spec, loose)

    def test_nonterminating_r_too_large_rejected(self, ctx):
        spec = HypergeometricSpec(numer=(0.3, 0.2, 0.1), denom=(0.4,), z=0.5)
        with pytest.raises(DomainError):
            phi_series(spec, ctx)

    def test_r_equals_s_plus_one_needs_unit_disk(self, ctx):
        spec = HypergeometricSpec(numer=(0.3, 0.2), denom=(0.4,), z=1.0)
        with pytest.raises(DomainError):
            phi_series(spec, ctx)

    def test_negative_terminating_k_rejected(self):
        with pytest.raises(DomainError):
            HypergeometricSpec(terminating_k=-1)


class TestWeights:
    def test_h_cos_zero_param(self, ctx):
        assert h_cos(1.1, [0.0], ctx) == 1.0

    def test_h_cos_right_angle(self, ctx):
        got = h_cos(math.pi / 2.0, [0.5], ctx)
        assert got.real == pytest.approx(POCH_M025_025_INF, rel=1e-12)
        assert abs(got.imag) < 1e-12 * abs(got)

    def test_h_cos_multi_is_product(self, ctx):
        theta = 0.8
        combined = h_cos(theta, [0.3, -0.2], ctx)
        split = h_cos(theta, [0.3], ctx) * h_cos(theta, [-0.2], ctx)
        assert combined == pytest.approx(split, rel=1e-13)

    def test_h_cos_real_for_real_params(self, ctx):
        for theta in (0.0, 0.4, 1.3, 2.9):
            v = h_cos(theta, [0.3, -0.5, 0.1], ctx)
            assert abs(v.imag) < 1e-12 * abs(v)

    def test_h_sinh_t_zero(self, ctx):
        assert h_sinh(1.3, 0.0, ctx) == 1.0

    def test_h_sinh_x_zero_base_squared(self, ctx):
        # (it, -it;q)_inf = (-t^2;q^2)_inf for real t
        t = 0.4
        got = h_sinh(0.0, t, ctx)
        ctx2 = QContext(q=ctx.q**2)
        want = q_pochhammer(-t * t, INFINITE, ctx2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_h_sinh_conjugate_symmetry(self, ctx):
        v1 = h_sinh(-0.7, 0.3, ctx)
        v2 = h_sinh(0.7, 0.3, ctx)
        assert v1 == pytest.approx(v2.conjugate(), rel=1e-13)

    def test_h_sinh_matches_factor_product(self, ctx):
        x, t = 0.9, 0.25
        direct = complex(1.0)
        for k in range(200):
            qk = ctx.q**k
            direct *= 1.0 - 2j * qk * t * math.sinh(x) + qk * qk * t * t
        assert h_sinh(x, t, ctx) == pytest.approx(direct, rel=1e-12)

    def test_h_sinh_log_agrees_with_linear_path(self, ctx):
        x, t = 1.2, 0.3
        assert cmath.exp(h_sinh_log(x, t, ctx)) == pytest.approx(
            h_sinh(x, t, ctx), rel=1e-12
        )


def _rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


# the bases of the shipped suites: the Gaussian family's exp(-2) and q = 0.5
ARRAY_Q = [math.exp(-2.0), 0.5]
COMPLEX_PARAMS = [0.3 + 0.2j, -0.5, 0.1 - 0.4j, 0.8j]


class TestArrayPath:
    """Node arrays through the products and weights versus the scalar loops."""

    @pytest.mark.parametrize("q", ARRAY_Q)
    def test_h_cos_equals_scalar_calls(self, q):
        ctx = QContext(q=q)
        theta = np.array([0.0, 1e-9, 0.7, math.pi - 1e-9, math.pi])
        got = h_cos(theta, COMPLEX_PARAMS, ctx)
        assert isinstance(got, np.ndarray) and got.shape == theta.shape
        want = np.array([h_cos(t, COMPLEX_PARAMS, ctx) for t in theta.tolist()])
        assert _rel(got, want) <= 1e-14

    @pytest.mark.parametrize("q", ARRAY_Q)
    @pytest.mark.parametrize("t", [0.3, 0.1 + 0.05j, -0.9j])
    def test_h_sinh_log_equals_scalar_calls(self, q, t):
        ctx = QContext(q=q)
        x = np.linspace(-17.0, 17.0, 35)
        got = h_sinh_log(x, t, ctx)
        want = np.array([h_sinh_log(v, t, ctx) for v in x.tolist()])
        assert _rel(got, want) <= 1e-14

    @pytest.mark.parametrize("q", ARRAY_Q)
    def test_log_product_equals_scalar_calls(self, q):
        ctx = QContext(q=q)
        a = np.logspace(-3.0, 6.0, 46) * np.exp(1j * np.linspace(-3.0, 3.0, 46))
        got = q_pochhammer_infinite_log(a, ctx)
        want = np.array([q_pochhammer_infinite_log(v, ctx) for v in a.tolist()])
        assert _rel(got, want) <= 1e-14

    def test_product_equals_scalar_calls(self, ctx):
        a = np.linspace(-0.95, 3.0, 40) * np.exp(0.3j)
        got = q_pochhammer_infinite(a, ctx)
        want = np.array([q_pochhammer_infinite(v, ctx) for v in a.tolist()])
        assert _rel(got, want) <= 1e-14

    def test_zero_weight_parameters_keep_the_shape(self, ctx):
        x = np.array([0.5, -0.5])
        assert np.array_equal(h_sinh_log(x, 0.0, ctx), np.zeros(2))
        assert np.array_equal(h_cos(x, [0.0], ctx), np.ones(2))

    def test_exact_zero_factor_raises(self, ctx):
        # the factor 1 - 2 q is exactly 0 at q = 1/2
        with pytest.raises(DivisionByZero):
            q_pochhammer_infinite_log(np.array([0.3, 2.0, 0.1j]), ctx)
        # the plain product just vanishes there, as the scalar loop does
        got = q_pochhammer_infinite(np.array([0.3, 2.0]), ctx)
        assert got[1] == 0 and got[0] == q_pochhammer_infinite(0.3, ctx)

    def test_factor_cap_raises_with_partial(self):
        ctx = QContext(q=0.5, max_factors=5)
        with pytest.raises(NonConvergence) as exc:
            q_pochhammer_infinite_log(np.array([0.3, 0.1]), ctx)
        assert exc.value.partial.shape == (2,) and exc.value.last_term > 0
        want = sum(cmath.log(1.0 - 0.3 * 0.5**k) for k in range(5))
        assert exc.value.partial[0] == pytest.approx(want, rel=1e-14)

    def test_h_cos_against_multiprecision(self):
        mp = pytest.importorskip("mpmath")
        q = 0.5
        try:
            mp.mp.dps = 60

            def poch_inf(c):
                p, term = mp.mpc(1), mp.mpc(c)
                while abs(term) > mp.mpf(10) ** -70:
                    p *= 1 - term
                    term *= mp.mpf(q)
                return p

            theta = np.array([0.2, 1.3, 2.9])
            got = h_cos(theta, COMPLEX_PARAMS, QContext(q=q))
            for th, g in zip(theta.tolist(), got):
                e = mp.expjpi(mp.mpf(th) / mp.pi)
                want = mp.mpc(1)
                for a in COMPLEX_PARAMS:
                    want *= poch_inf(mp.mpc(a) * e) * poch_inf(mp.mpc(a) / e)
                assert abs(g - complex(want)) <= 1e-14 * abs(complex(want))
        finally:
            mp.mp.dps = 15

    def test_scratch_memory_bounded_near_q_one(self):
        # a (576 nodes x ~1300 factors) array in one piece would take 12 MB
        ctx = QContext(q=0.97)
        theta = np.linspace(0.0, math.pi, 576)
        x = np.linspace(-17.0, 17.0, 576)
        tracemalloc.start()
        try:
            h_cos(theta, COMPLEX_PARAMS, ctx)
            h_sinh_log(x, 0.3, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestContextValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_bad_q_rejected(self, q):
        with pytest.raises(DomainError):
            QContext(q=q)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(DomainError):
            QContext(q=0.5, eps_term=0.0)
        with pytest.raises(DomainError):
            QContext(q=0.5, max_terms=0)
