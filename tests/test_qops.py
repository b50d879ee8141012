"""Unit tests for the operator layer: q-integrals, D_c, the Cauchy operator."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import qcore, qops
from qaw.context import DomainError, NonConvergence, QContext
from qaw.identities import GeneratingParams, _generating_integrand
from qaw.quad import integrate_line_even_window, integrate_theta
from qaw.qcore import (
    CONSECUTIVE_SMALL,
    EPS_TERM,
    INFINITE,
    MAX_TERMS,
    _factor_counts,
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

import mp_oracle


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

    @pytest.mark.parametrize("x, a, mu, message", [
        (0.0, math.nan, 0.5, "need 0 <= a < x, x finite, got a=nan, x=0.0"),
        (0.5, math.nan, 1.0, "need 0 <= a < x, x finite, got a=nan, x=0.5"),
        (math.nan, 0.2, 1.0, "need 0 <= a < x, x finite, got a=0.2, x=nan"),
        (math.inf, 0.2, 1.0, "need 0 <= a < x, x finite, got a=0.2, x=inf"),
        (0.5, 0.2, math.nan, "fractional order must be positive, got nan")])
    def test_nan_or_infinite_arguments_are_domain_errors(self, ctx, x, a, mu, message):
        # a NaN fails every comparison, so each test of the domain must
        # read a NaN as outside it
        with pytest.raises(DomainError) as exc:
            fractional_q_integral(np.ones_like, x, a, mu, ctx)
        assert str(exc.value) == message

    @pytest.mark.parametrize("x, a, mu, name, typename", [
        (0.6 + 0j, 0.0, 1.5, "x", "complex"),
        (0.6, None, 1.5, "a", "NoneType"),
        (0.6, 0.2 + 0j, 1.5, "a", "complex"),
        (0.6, 0.0, "1.5", "mu", "str")])
    def test_an_argument_that_is_no_real_number_is_a_domain_error(self, ctx, x, a, mu, name,
                                                                 typename):
        want = f"fractional_q_integral: {name} must be a real number, got {typename}"
        with pytest.raises(DomainError, match=f"^{want}$"):
            fractional_q_integral(np.ones_like, x, a, mu, ctx)

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

    def test_cap_raises_with_the_partial_sum(self):
        # six terms are far from settled here: the partial sum is 9.5e-3 off
        # the closed form, and was returned as the value
        q, a, b, c, t = 0.8, 0.3, 0.5, 0.9, 0.6
        ctx = QContext(q=q)
        f = lambda z: 1.0 / q_pochhammer(z * t, INFINITE, ctx)
        level = [f(c * q**j) for j in range(6)]
        terms, ratio = [level[0]], 1.0
        for n in range(1, 6):
            level = [(level[j] - level[j + 1]) / (c * q**j) for j in range(len(level) - 1)]
            ratio *= (1.0 - a * q ** (n - 1)) / (1.0 - q**n) * b
            terms.append(ratio * level[0])
        with pytest.raises(NonConvergence,
                           match="^Cauchy operator did not converge in 5 terms$") as exc:
            cauchy_T_apply(a, b, f, c, 5, ctx)
        assert exc.value.partial == pytest.approx(sum(terms), rel=1e-13)
        assert exc.value.last_term == pytest.approx(abs(terms[-1]), rel=1e-13)
        closed = cauchy_T_reciprocal_closed(a, b, c, t, ctx)
        assert abs(exc.value.partial / closed - 1) == pytest.approx(9.5e-3, rel=0.01)

    # a bool is no count: True ran one term and ended in the cap error
    # "did not converge in True terms"
    @pytest.mark.parametrize("n_max", [-1, 2.5, True, False])
    def test_n_max_is_a_nonnegative_int(self, ctx, n_max):
        with pytest.raises(DomainError, match=f"integer n_max >= 0, got {n_max}$"):
            cauchy_T_apply(0.3, 0.2, lambda c: c, 0.4, n_max, ctx)

    def test_numpy_integer_n_max_is_its_int(self, ctx):
        f = lambda c: 1.0 / q_pochhammer_infinite(0.4 * c, ctx)
        assert cauchy_T_apply(0.3, 0.2, f, 0.4, np.int64(20), ctx) == cauchy_T_apply(
            0.3, 0.2, f, 0.4, 20, ctx)

    def test_closed_form_degenerate_cases(self, ctx):
        assert cauchy_T_reciprocal_closed(0.3, 0.0, 0.4, 0.5, ctx) == pytest.approx(
            1.0 / q_pochhammer(0.2, INFINITE, ctx), rel=1e-13
        )
        assert cauchy_T_reciprocal_closed(0.3, 0.2, 0.4, 0.0, ctx) == 1.0

    def test_closed_form_domain(self, ctx):
        with pytest.raises(DomainError):
            cauchy_T_reciprocal_closed(0.3, 2.5, 0.4, 0.5, ctx)


_PARAM = st.one_of(st.floats(-0.9, 0.9),
                   st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
# complex values of f whose imaginary parts are all 0 (of either sign), and
# float values
_REAL_VALUED = {
    "product": lambda t, ctx: lambda y: 1.0 / q_pochhammer_infinite(t * y, ctx),
    "-0": lambda t, ctx: lambda y: np.conj(1.0 / q_pochhammer_infinite(t * y, ctx)),
    "float": lambda t, ctx: lambda y: 1.0 / (1.0 - t * y),
}


class TestCauchyFloatLevels:
    """At a real c the nested differences of complex values with zero
    imaginary parts run on floats, with the complex levels' outcome."""

    # tiny c and q underflow the points c q^j to 0
    @settings(max_examples=300, deadline=None)
    @given(q=st.one_of(st.floats(0.05, 0.95), st.floats(1e-30, 1e-3)), a=_PARAM, b=_PARAM,
           c=st.one_of(st.floats(0.05, 1.2), st.floats(5e-324, 1e-290)),
           sign=st.sampled_from([1.0, -1.0]), t=st.floats(-0.95, 0.95),
           kind=st.sampled_from(sorted(_REAL_VALUED)))
    def test_float_levels_have_the_complex_levels_outcome(self, q, a, b, c, sign, t, kind):
        ctx = QContext(q=q)
        f = _REAL_VALUED[kind](t, ctx)
        assert _outcome(cauchy_T_apply, a, b, f, sign * c, 40, ctx) == _outcome(
            _complex_levels, a, b, f, sign * c, 40, ctx)

    @pytest.mark.parametrize("f, c, q, kind", [
        (lambda y: 1.0 / q_pochhammer_infinite(0.4 * y, QContext(q=0.8)), 0.9, 0.8, "f"),
        (lambda y: 1.0 / q_pochhammer_infinite(0.4 * y, QContext(q=0.8)), -0.9, 0.8, "f"),
        (lambda y: (1.0 + 0.5j) / q_pochhammer_infinite(0.4 * y, QContext(q=0.8)), 0.9, 0.8,
         "c"),
        (lambda y: 1.0 / (1.0 - 0.4 * y) + 0j, 0.9 + 0j, 0.8, "c"),
        # a NaN imaginary part past the first point ends the sum at term 1
        (lambda y: 1.0 / (1.0 - 0.4 * y) + 1j * np.where(y == y[0], 0.0, math.nan), 0.9, 0.8,
         "c"),
        # the points c q^j from j = 1 on underflow to 0: 0/0 ends the sum at term 2
        (lambda y: 1.0 / (1.0 - 0.4 * y) + 0j, 1e-200, 1e-200, "f"),
    ], ids=["real", "real-c-negative", "complex-f", "complex-c", "nan-imaginary", "zero-point"])
    def test_which_levels(self, monkeypatch, f, c, q, kind):
        seen = set()
        divide = qops._divide
        monkeypatch.setattr(qops, "_divide", lambda num, den: seen.add(num.dtype.kind)
                            or divide(num, den))
        ctx = QContext(q=q)
        assert _outcome(cauchy_T_apply, 0.3, 0.2, f, c, 40, ctx) == _outcome(
            _complex_levels, 0.3, 0.2, f, c, 40, ctx)
        assert seen == {kind}


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
    last_mag = abs(total)
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
        last_mag = mag
    raise AssertionError("reference Cauchy sum did not converge")


def _complex_levels(a, b, f, c, n_max, ctx):
    """cauchy_T_apply as it differenced every complex f before its float
    levels: the nested differences on complex levels, summed as the
    operator sums them."""
    q = ctx.q
    points = np.array([c * q**j for j in range(n_max + 1)] if b != 0 else [c])

    def terms(level):
        total = complex(level[0])
        yield total
        if b == 0:
            yield None
        last, ratio, bn = abs(total), complex(1.0), complex(1.0)
        for n in range(1, n_max + 1):
            level = qcore._divide(level[:-1] - level[1:], points[: n_max + 1 - n])
            ratio *= (1.0 - a * q ** (n - 1)) / (1.0 - q**n)
            bn *= b
            term = ratio * bn * complex(level[0])
            mag = qcore._modulus(term)
            if mag > last and last <= 1e-8 * max(abs(total), 1e-300):
                yield None
            yield term
            total, last = total + term, mag

    with np.errstate(all="ignore"):
        values = np.asarray(f(points)).astype(complex)
        return qcore._series_sum(terms(values), "Cauchy operator", n_max)


def _outcome(f, *args):
    """The value of f(*args) as the hex of both parts, or the error's
    message, partial and last term, each as hex."""
    def bits(v):
        v = complex(v)
        return v.real.hex(), v.imag.hex()
    try:
        return bits(f(*args))
    except NonConvergence as exc:
        return str(exc), bits(exc.partial), bits(exc.last_term)


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
    """One call of f per block and branch; the Cauchy operator calls it once.

    The first block holds the terms that the stop rule takes where they
    fall like q^n: at q = 0.9, 350 to pass below EPS_TERM (1 - q) and 4 more.
    """

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
        assert sizes == [354, 354]

    def test_fractional_single_branch(self):
        g, sizes = self._recording(lambda t: t)
        fractional_q_integral(g, 0.6, 0.0, 1.5, QContext(q=0.5))
        assert sizes == [55]

    def test_blocks_capped_at_max_terms(self, monkeypatch):
        g, sizes = self._recording(np.ones_like)
        monkeypatch.setattr(qops, "MAX_TERMS", 100)
        with pytest.raises(NonConvergence):
            jackson_q_integral(g, 0.0, 0.9, QContext(q=0.9))
        assert sizes == [100]

    @pytest.mark.parametrize("integral", [
        lambda f, ctx: jackson_q_integral(f, 0.0, 0.9, ctx),
        lambda f, ctx: jackson_q_integral(f, 0.2, 0.9, ctx),
        lambda f, ctx: fractional_q_integral(f, 0.6, 0.0, 1.5, ctx),
        lambda f, ctx: fractional_q_integral(f, 0.6, 0.2, 1.5, ctx),
    ], ids=["jackson-a0", "jackson", "fractional-a0", "fractional"])
    @pytest.mark.parametrize("name", ["power", "generating"])
    @pytest.mark.parametrize("q", [0.3, 0.7])
    def test_value_bits_do_not_depend_on_first_block(self, monkeypatch, integral, name, q):
        # q^n, the coefficient products and every term come from one
        # sequential arithmetic, wherever a block ends
        ctx = QContext(q=q)
        p = GeneratingParams(q=q, a=0.2, x=0.6, mu=1.5, b=0.3, r=0.4, s=0.25, t=0.15, u=0.1,
                             z=0.2)
        f = {"power": lambda t: t**1.3,
             "generating": lambda y: _generating_integrand(y, p, ctx)}[name]
        series_sum = qops._series_sum

        def bits(first):
            # the value and every term that the sum took, as hex
            taken = []

            def recording_sum(terms, *args, **kwargs):
                def tee():
                    for t in terms:
                        taken.append(t)
                        yield t
                return series_sum(tee(), *args, **kwargs)

            g, sizes = self._recording(f)
            with monkeypatch.context() as m:
                m.setattr(qops, "_series_sum", recording_sum)
                if first is not None:
                    m.setattr(qops, "_factor_counts", lambda *_: first - CONSECUTIVE_SMALL - 1)
                value = integral(g, ctx)
            return sizes[0], [(complex(v).real.hex(), complex(v).imag.hex())
                              for v in (value, *taken)]

        computed, want = bits(None)
        assert computed == _factor_counts(1.0, q, EPS_TERM * (1.0 - q)) + CONSECUTIVE_SMALL + 1
        for first in (1, 7, 64, computed):
            assert bits(first) == (first, want)

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

    @pytest.mark.parametrize("call", [
        lambda f, ctx: integrate_theta(f),
        lambda f, ctx: integrate_line_even_window(f),
        lambda f, ctx: jackson_q_integral(f, 0.2, 0.9, ctx),
        lambda f, ctx: fractional_q_integral(f, 0.6, 0.2, 1.5, ctx),
        lambda f, ctx: cauchy_T_apply(0.3, 0.2, f, 0.4, 20, ctx),
    ], ids=["theta", "line", "jackson", "fractional", "cauchy"])
    @pytest.mark.parametrize("dtype", ["U8", "S8", "M8[s]", "m8[s]", "V8"])
    def test_values_that_hold_no_number_rejected(self, ctx, call, dtype):
        # str values ended in numpy's UFuncTypeError, or in complex()'s
        # "malformed string"
        want = re.escape(f"integrand returned values of dtype {np.dtype(dtype)}, not numbers")
        with pytest.raises(ValueError, match=want + "$"):
            call(lambda t: np.zeros(t.shape, dtype=dtype), ctx)

    def test_object_values_of_numbers_are_numbers(self, ctx):
        got = jackson_q_integral(lambda t: (t * t).astype(object), 0.0, 1.0, ctx)
        assert got == pytest.approx(1.0 / (1.0 + ctx.q + ctx.q**2), rel=1e-15)

    @pytest.mark.parametrize("b, c, n", [(0.2, 0.8, 0), (0.0, 0.8, 0), (0.2, 1.0, 0),
                                         (0.2, 1.25, 1)])
    def test_cauchy_pole_names_its_term(self, b, c, n):
        # at q = 0.8, 1/(1.25 y;q)_inf has its poles at 0.8 q^-k, so at c
        # itself for c = 0.8 and 1.0; 1/(y - 1.25 q) at the point c q
        ctx = QContext(q=0.8)
        if n == 0:
            def f(y):
                return 1.0 / q_pochhammer_infinite(1.25 * y, ctx)
        else:
            def f(y):
                return 1.0 / (y - 1.25 * 0.8)
        with pytest.raises(NonConvergence, match=f"^Cauchy operator: term {n} or the partial "
                                                 "sum through it is not finite$") as exc:
            cauchy_T_apply(0.3, b, f, c, 40, ctx)
        assert exc.value.partial == (0 if n == 0 else f(c))
        assert exc.value.last_term == math.inf

    # each part finite, the modulus past the double range: abs() of it raises
    # OverflowError, and the sums test the modulus
    @pytest.mark.parametrize("call, n", [
        (lambda f, ctx: jackson_q_integral(f, 0.2, 0.9, ctx), 1),
        (lambda f, ctx: jackson_q_integral(f, 0.0, 0.9, ctx), 0),
        (lambda f, ctx: fractional_q_integral(f, 0.6, 0.0, 1.5, ctx), 3),
        (lambda f, ctx: cauchy_T_apply(0.3, 0.2, f, 0.9, 40, ctx), 0),
        (lambda f, ctx: cauchy_T_apply(0.3, 0.0, f, 0.9, 40, ctx), 0),
    ], ids=["jackson", "jackson-from-0", "fractional", "cauchy", "cauchy-b-0"])
    def test_constant_past_the_double_range(self, ctx, call, n):
        big = 1.5e308 + 1.5e308j
        with pytest.raises(NonConvergence, match=f": term {n} or the partial sum through it "
                                                 "is not finite$") as exc:
            call(lambda t: np.full(t.shape, big), ctx)
        assert np.isfinite(exc.value.partial)

    def test_closed_form_rule_reads_a_modulus_past_the_range_as_inf(self, ctx):
        with pytest.raises(DomainError, match=r"max\(\|bt\|, \|ct\|\) < 1, got inf$"):
            cauchy_T_reciprocal_closed(0.1, 1.5e308 + 1.5e308j, 0.1, 1.0, ctx)

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
        got = jackson_q_integral(lambda t: t**p, a, b, QContext(q=q))
        want = mp_oracle.jackson_power(a, b, p, q)
        assert abs(got - want) <= 1e-12 * abs(want)

    @settings(max_examples=40)
    @given(
        q=st.floats(0.05, 0.97),
        x=st.floats(0.3, 1.0),
        mu=st.floats(0.3, 3.0),
        p=st.floats(0.0, 3.0),
    )
    def test_fractional_power(self, q, x, mu, p):
        got = fractional_q_integral(lambda t: t**p, x, 0.0, mu, QContext(q=q))
        want = mp_oracle.fractional_power(x, mu, p, q)
        assert abs(got - want) <= 1e-11 * abs(want)
