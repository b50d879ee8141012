"""Unit tests for the operator layer: q-integrals, D_c, the Cauchy operator."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import qops
from qaw.context import DomainError, NonConvergence, QContext
from qaw.qcore import (
    CONSECUTIVE_SMALL,
    EPS_TERM,
    INFINITE,
    MAX_TERMS,
    q_gamma,
    q_pochhammer,
    q_pochhammer_infinite,
)
from qaw.qops import (
    cauchy_T_apply,
    cauchy_T_reciprocal_closed,
    difference_eq_residual,
    fractional_q_integral,
    jackson_q_integral,
    q_difference,
)


@pytest.fixture
def ctx():
    return QContext(q=0.5)


class TestJacksonIntegral:
    def test_constant(self, ctx):
        assert jackson_q_integral(np.ones_like, 0.0, 0.7, ctx) == pytest.approx(0.7)

    def test_linear_unit_interval(self, ctx):
        got = jackson_q_integral(lambda t: t, 0.0, 1.0, ctx)
        assert got == pytest.approx(1.0 / (1.0 + ctx.q), rel=1e-13)

    def test_linear_generic_interval(self, ctx):
        a, b = 0.2, 0.9
        got = jackson_q_integral(lambda t: t, a, b, ctx)
        assert got == pytest.approx((b * b - a * a) / (1.0 + ctx.q), rel=1e-13)

    def test_linearity(self, ctx):
        f = lambda t: t * t
        g = lambda t: 1.0 / (1.0 + t)
        alpha, beta = 1.3, -0.4
        lhs = jackson_q_integral(lambda t: alpha * f(t) + beta * g(t), 0.1, 0.8, ctx)
        rhs = alpha * jackson_q_integral(f, 0.1, 0.8, ctx) + beta * jackson_q_integral(
            g, 0.1, 0.8, ctx
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_interval_splitting(self, ctx):
        rng = random.Random(3)
        f = lambda t: np.exp(-t) * t
        for _ in range(5):
            a = rng.uniform(0.05, 0.4)
            b = rng.uniform(a + 0.1, 0.95)
            whole = jackson_q_integral(f, a, b, ctx)
            split = jackson_q_integral(f, 0.0, b, ctx) - jackson_q_integral(
                f, 0.0, a, ctx
            )
            assert whole == pytest.approx(split, rel=1e-12)


class TestFractionalIntegral:
    def test_mu_one_constant(self, ctx):
        got = fractional_q_integral(np.ones_like, 0.6, 0.2, 1.0, ctx)
        assert got == pytest.approx(0.4, rel=1e-12)

    def test_closed_form_generic_mu(self, ctx):
        x, a, mu = 0.6, 0.2, 1.7
        got = fractional_q_integral(np.ones_like, x, a, mu, ctx)
        want = (
            (1.0 - ctx.q) ** mu
            * x**mu
            * q_pochhammer(a / x, mu, ctx)
            / q_pochhammer(ctx.q, mu, ctx)
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_lower_limit_matches_limit_of_small_a(self, ctx):
        x, mu = 0.5, 2.0
        got = fractional_q_integral(np.ones_like, x, 0.0, mu, ctx)
        want = (
            (1.0 - ctx.q) ** mu * x**mu / q_pochhammer(ctx.q, mu, ctx)
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_mu_one_equals_jackson(self, ctx):
        rng = random.Random(11)
        integrands = [
            np.ones_like,
            lambda t: t,
            lambda t: t * t,
            lambda t: np.exp(-t),
            lambda t: 1.0 / (1.0 + t),
        ]
        for f in integrands:
            a = rng.uniform(0.05, 0.3)
            x = rng.uniform(0.5, 0.9)
            frac = fractional_q_integral(f, x, a, 1.0, ctx)
            plain = jackson_q_integral(f, a, x, ctx)
            assert frac == pytest.approx(plain, rel=1e-10)

    @pytest.mark.parametrize("mu,nu", [(0.5, 0.5), (0.5, 1.5), (1.5, 1.5)])
    def test_semigroup_at_zero_lower_limit(self, ctx, mu, nu):
        for f in (np.ones_like, lambda t: t):
            inner = lambda s: np.array(
                [fractional_q_integral(f, v, 0.0, nu, ctx) for v in s]
            )
            nested = fractional_q_integral(inner, 0.5, 0.0, mu, ctx)
            direct = fractional_q_integral(f, 0.5, 0.0, mu + nu, ctx)
            assert nested == pytest.approx(direct, rel=1e-8)

    def test_domain_errors(self, ctx):
        with pytest.raises(DomainError):
            fractional_q_integral(lambda t: 1.0, 0.5, 0.6, 1.0, ctx)
        with pytest.raises(DomainError):
            fractional_q_integral(lambda t: 1.0, 0.5, -0.1, 1.0, ctx)
        with pytest.raises(DomainError):
            fractional_q_integral(lambda t: 1.0, 0.5, 0.2, 0.0, ctx)

    @pytest.mark.parametrize("q, mu", [(0.5, 1e-17), (0.5, 5e-324), (0.99, 1e-15)])
    def test_order_with_q_power_one_is_a_domain_error(self, q, mu):
        # q^mu rounds to 1, so (q^mu;q)_inf = 0 and Gamma_q(mu) is not finite
        with pytest.raises(DomainError, match="q\\^mu rounds to 1"):
            fractional_q_integral(np.ones_like, 0.6, 0.0, mu, QContext(q=q))

    def test_tiny_order_with_q_power_below_one_is_finite(self, ctx):
        assert math.isfinite(abs(fractional_q_integral(np.ones_like, 0.6, 0.2, 1e-16, ctx)))


class TestQDifference:
    def test_constant_killed(self):
        assert q_difference(lambda c: 3.7, 0.4, 0.5) == 0.0

    def test_identity_function(self):
        assert q_difference(lambda c: c, 0.4, 0.5) == pytest.approx(0.5)

    def test_reciprocal_pochhammer(self):
        ctx = QContext(q=0.5)
        t = 0.3
        f = lambda c: 1.0 / q_pochhammer(c * t, INFINITE, ctx)
        got = q_difference(f, 0.4, ctx.q)
        want = t / q_pochhammer(0.4 * t, INFINITE, ctx)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            q_difference(lambda c: c, 0.0, 0.5)


class TestCauchyOperator:
    def test_b_zero_returns_point_value(self, ctx):
        f = lambda c: c * c + 1.0
        assert cauchy_T_apply(0.3, 0.0, f, 0.4, 10, ctx) == f(0.4)

    def test_constant_fixed(self, ctx):
        got = cauchy_T_apply(0.3, 0.2, lambda c: np.full_like(c, 5.0), 0.4, 20, ctx)
        assert got == pytest.approx(5.0, rel=1e-13)

    def test_matches_closed_form(self, ctx):
        t = 0.4
        f = lambda c: 1.0 / q_pochhammer(c * t, INFINITE, ctx)
        got = cauchy_T_apply(0.3, 0.2, f, 0.4, 40, ctx)
        want = cauchy_T_reciprocal_closed(0.3, 0.2, 0.4, t, ctx)
        assert got == pytest.approx(want, rel=1e-10)

    def test_c_zero_rejected(self, ctx):
        with pytest.raises(DomainError):
            cauchy_T_apply(0.3, 0.2, lambda c: c, 0.0, 10, ctx)

    def test_closed_form_degenerate_cases(self, ctx):
        assert cauchy_T_reciprocal_closed(0.3, 0.0, 0.4, 0.5, ctx) == pytest.approx(
            1.0 / q_pochhammer(0.2, INFINITE, ctx), rel=1e-13
        )
        assert cauchy_T_reciprocal_closed(0.3, 0.2, 0.4, 0.0, ctx) == 1.0

    def test_closed_form_domain(self, ctx):
        with pytest.raises(DomainError):
            cauchy_T_reciprocal_closed(0.3, 2.5, 0.4, 0.5, ctx)


class TestDifferenceEqResidual:
    def test_constant_function_satisfies(self):
        got = difference_eq_residual(lambda a, b, c: 2.0, 0.3, 0.2, 0.4, 0.5)
        assert abs(got) < 1e-14

    def test_generic_function_fails(self):
        got = difference_eq_residual(lambda a, b, c: b * b, 0.3, 0.2, 0.4, 0.5)
        assert abs(got) > 1e-6


# --------------------------------------------------------------------------
# the term-by-term loops that the batched operators replace, kept as the
# reference; the q-integrals also return the number of terms they summed
# --------------------------------------------------------------------------

def _reference_jackson(f, a, b, ctx):
    q = ctx.q
    total = complex(0.0)
    qn = 1.0
    small = 0
    for n in range(MAX_TERMS):
        term = complex(0.0)
        if b != 0:
            term += b * f(b * qn)
        if a != 0:
            term -= a * f(a * qn)
        term *= qn
        total += term
        if abs(term) < EPS_TERM * max(abs(total), 1e-300):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return (1.0 - q) * total, n + 1
        else:
            small = 0
        qn *= q
    raise AssertionError("reference Jackson sum did not converge")


def _reference_fractional(f, x, a, mu, ctx):
    q = ctx.q
    pref = x ** (mu - 1.0) * (1.0 - q) / q_gamma(mu, ctx)
    cx = q_pochhammer_infinite(q, ctx) / q_pochhammer_infinite(q**mu, ctx)
    ax = a / x
    if a != 0:
        ca = q_pochhammer_infinite(ax * q, ctx) / q_pochhammer_infinite(
            ax * q**mu, ctx
        )
    total = complex(0.0)
    qn = 1.0
    small = 0
    for n in range(MAX_TERMS):
        term = x * cx * f(x * qn)
        if a != 0:
            term -= a * ca * f(a * qn)
        term *= qn
        total += term
        if abs(term) < EPS_TERM * max(abs(total), 1e-300):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return pref * total, n + 1
        else:
            small = 0
        cx *= (1.0 - q ** (n + mu)) / (1.0 - q ** (n + 1))
        if a != 0:
            ca *= (1.0 - ax * q ** (n + mu)) / (1.0 - ax * q ** (n + 1))
        qn *= q
    raise AssertionError("reference fractional sum did not converge")


def _reference_cauchy(a, b, f, c, n_max, ctx):
    q = ctx.q
    if b == 0:
        return f(c)
    level = [f(c * q**j) for j in range(n_max + 1)]
    total = complex(level[0])
    poch_ratio = complex(1.0)
    bn = complex(1.0)
    prev_mag = abs(total)
    last_mag = prev_mag
    small = 0
    for n in range(1, n_max + 1):
        level = [
            (level[j] - level[j + 1]) / (c * q**j) for j in range(len(level) - 1)
        ]
        poch_ratio *= (1.0 - a * q ** (n - 1)) / (1.0 - q**n)
        bn *= b
        term = poch_ratio * bn * level[0]
        mag = abs(term)
        scale = max(abs(total), 1e-300)
        if mag > last_mag and last_mag <= 1e-8 * scale:
            return total
        total += term
        if mag < EPS_TERM * scale:
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
        prev_mag, last_mag = last_mag, mag
    return total


def _draws(seed, count=50):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.uniform(0.2, 0.95)
        x = rng.uniform(0.3, 1.0)
        yield (QContext(q=q), rng.uniform(0.0, 0.9) * x, x,
               rng.uniform(0.3, 3.0), rng.uniform(0.0, 3.0))


def _assert_sums_terms(integral, n, ctx, monkeypatch):
    """integral(ctx) stops after exactly n terms: n are enough, n - 1 are not."""
    with monkeypatch.context() as m:
        m.setattr(qops, "MAX_TERMS", n)
        integral(ctx)
        m.setattr(qops, "MAX_TERMS", n - 1)
        with pytest.raises(NonConvergence):
            integral(ctx)


class TestBatchedAgainstReference:
    """The blocks reproduce the term-by-term loops and stop at the same n."""

    def test_jackson_power(self, monkeypatch):
        for ctx, a, b, _, p in _draws(1):
            want, n = _reference_jackson(lambda t: t**p, a, b, ctx)

            def integral(c):
                return jackson_q_integral(lambda t: t**p, a, b, c)
            assert integral(ctx) == pytest.approx(want, rel=1e-15, abs=0)
            _assert_sums_terms(integral, n, ctx, monkeypatch)

    def test_fractional_power(self, monkeypatch):
        for ctx, a, x, mu, p in _draws(2):
            want, n = _reference_fractional(lambda t: t**p, x, a, mu, ctx)

            def integral(c):
                return fractional_q_integral(lambda t: t**p, x, a, mu, c)
            assert integral(ctx) == pytest.approx(want, rel=1e-15, abs=0)
            _assert_sums_terms(integral, n, ctx, monkeypatch)

    def test_constant_integrand_is_exact(self):
        for ctx, a, x, mu, _ in _draws(3):
            want, _ = _reference_jackson(lambda t: 1.0, a, x, ctx)
            assert jackson_q_integral(np.ones_like, a, x, ctx) == want
            want, _ = _reference_fractional(lambda t: 1.0, x, a, mu, ctx)
            assert fractional_q_integral(np.ones_like, x, a, mu, ctx) == want

    def test_cauchy(self):
        rng = random.Random(4)
        for _ in range(50):
            ctx = QContext(q=rng.uniform(0.78, 0.85))
            a, b = rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.3)
            c, t = rng.uniform(0.85, 0.95), rng.uniform(0.2, 0.6)
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

            # real arithmetic times a complex constant rounds alike in
            # Python and numpy, so both routes see the same values of f
            def f(z):
                return w * (1.0 / (1.0 - t * z))

            want = _reference_cauchy(a, b, f, c, 40, ctx)
            got = cauchy_T_apply(a, b, f, c, 40, ctx)
            assert got == pytest.approx(want, rel=1e-15, abs=0)


class TestIntegrandCalls:
    """One call of f per block and branch; the Cauchy operator calls it once."""

    @staticmethod
    def _recording(f):
        sizes = []

        def g(t):
            sizes.append(t.size)
            return f(t)

        return g, sizes

    def test_jackson_blocks(self):
        g, sizes = self._recording(np.ones_like)
        jackson_q_integral(g, 0.2, 0.9, QContext(q=0.9))  # about 330 terms
        assert sizes == [64, 64, 128, 128, 256, 256]

    def test_fractional_single_branch(self):
        g, sizes = self._recording(lambda t: t)
        fractional_q_integral(g, 0.6, 0.0, 1.5, QContext(q=0.5))
        assert sizes == [64]

    def test_blocks_capped_at_max_terms(self, monkeypatch):
        g, sizes = self._recording(np.ones_like)
        monkeypatch.setattr(qops, "MAX_TERMS", 100)
        with pytest.raises(NonConvergence):
            jackson_q_integral(g, 0.0, 0.9, QContext(q=0.9))
        assert sizes == [64, 36]

    def test_cauchy_calls_once(self):
        g, sizes = self._recording(lambda z: 1.0 / (1.0 - 0.3 * z))
        cauchy_T_apply(0.3, 0.2, g, 0.9, 40, QContext(q=0.8))
        assert sizes == [41]
        g, sizes = self._recording(lambda z: 1.0 / (1.0 - 0.3 * z))
        assert cauchy_T_apply(0.3, 0.0, g, 0.9, 40, QContext(q=0.8)) == 1.0 / 0.73
        assert sizes == [1]


class TestFailures:
    def test_term_cap_carries_partial_and_last_term(self, monkeypatch):
        ctx = QContext(q=0.5)
        monkeypatch.setattr(qops, "MAX_TERMS", 5)
        a, b = 0.2, 0.9
        terms = [0.5**n * (b * b * 0.5**n - a * a * 0.5**n) for n in range(5)]
        with pytest.raises(NonConvergence) as exc:
            jackson_q_integral(lambda t: t, a, b, ctx)
        assert exc.value.partial == pytest.approx(0.5 * sum(terms), rel=1e-15)
        assert exc.value.last_term == pytest.approx(abs(terms[-1]), rel=1e-15)
        with pytest.raises(NonConvergence) as exc:
            fractional_q_integral(lambda t: t, 0.6, 0.2, 1.5, ctx)
        assert exc.value.partial != 0 and exc.value.last_term > 0

    @pytest.mark.parametrize("call", [
        lambda f, ctx: jackson_q_integral(f, 0.2, 0.9, ctx),
        lambda f, ctx: fractional_q_integral(f, 0.6, 0.2, 1.5, ctx),
        lambda f, ctx: cauchy_T_apply(0.3, 0.2, f, 0.4, 20, ctx),
        lambda f, ctx: cauchy_T_apply(0.3, 0.0, f, 0.4, 20, ctx),
    ])
    def test_scalar_integrand_rejected(self, ctx, call):
        with pytest.raises(ValueError, match="shape"):
            call(lambda t: 1.0, ctx)

    def test_non_finite_term_raises_with_partial(self, ctx):
        with pytest.raises(NonConvergence) as exc:
            jackson_q_integral(lambda t: t**-1.0, 0.0, 1.0, ctx)
        # every term is q^n (q^n)^-1 = 1 until q^n underflows
        assert exc.value.partial == pytest.approx(0.5 * 1024, rel=1e-15)
        assert not math.isfinite(exc.value.last_term)


class TestClosedFormsAtTheEdge:
    """Closed forms over q in [0.05, 0.97] (the ones benchmarks/oracle.py uses)."""

    @settings(max_examples=40)
    @given(
        q=st.floats(0.05, 0.97),
        a=st.floats(0.0, 0.4),
        b=st.floats(0.5, 1.0),
        p=st.floats(0.0, 4.0),
    )
    def test_jackson_power(self, q, a, b, p):
        mp = pytest.importorskip("mpmath")
        got = jackson_q_integral(lambda t: t**p, a, b, QContext(q=q))
        with mp.workdps(30):
            qm, pm = mp.mpf(q), mp.mpf(p)
            want = (1 - qm) * (mp.mpf(b) ** (pm + 1) - mp.mpf(a) ** (pm + 1)) / (
                1 - qm ** (pm + 1)
            )
            assert abs(got - complex(want)) <= 1e-12 * abs(complex(want))

    @settings(max_examples=40)
    @given(
        q=st.floats(0.05, 0.97),
        x=st.floats(0.3, 1.0),
        mu=st.floats(0.3, 3.0),
        p=st.floats(0.0, 3.0),
    )
    def test_fractional_power(self, q, x, mu, p):
        mp = pytest.importorskip("mpmath")
        got = fractional_q_integral(lambda t: t**p, x, 0.0, mu, QContext(q=q))
        with mp.workdps(30):
            qm, pm = mp.mpf(q), mp.mpf(p)
            want = (mp.qgamma(pm + 1, qm) / mp.qgamma(pm + mu + 1, qm)
                    * mp.mpf(x) ** (pm + mu))
            assert abs(got - complex(want)) <= 1e-11 * abs(complex(want))
