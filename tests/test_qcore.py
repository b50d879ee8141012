"""Unit tests for the scalar layer: Pochhammer symbols, q-gamma, series, weights."""

import cmath
import dataclasses
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from qaw.context import DivisionByZero, DomainError, NonConvergence, PoleError, QContext
from qaw import qcore
from qaw.qcore import (
    INFINITE,
    LOG_RADIUS,
    MAX_FACTORS,
    MAX_TERMS,
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

    def test_terminating_invariant_under_max_terms(self, ctx, monkeypatch):
        spec = HypergeometricSpec(numer=(0.3,), denom=(0.2,), z=1.1,
                                  terminating_k=5)
        monkeypatch.setattr(qcore, "MAX_TERMS", 6)
        tight = phi_series(spec, ctx)
        monkeypatch.setattr(qcore, "MAX_TERMS", 100_000)
        assert tight == phi_series(spec, ctx)

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

    @pytest.mark.parametrize("numer, denom, z", [
        ((0.3, math.nan), (0.2,), 0.5),
        ((0.3,), (0.2,), math.nan),
        ((0.3,), (complex(0.2, math.inf),), 0.5),
        ((-math.inf,), (), 0.5),
        ((0.3,), (0.2,), math.inf),
    ])
    def test_non_finite_parameter_or_z_is_a_domain_error(self, ctx, numer, denom, z):
        spec = HypergeometricSpec(numer=numer, denom=denom, z=z)
        with pytest.raises(DomainError, match="must be finite"):
            phi_series(spec, ctx)

    @pytest.mark.parametrize("q, spec", [
        # 2.0 is q^-k for k of about 6.9e12, which used to be summed term by term
        (0.9999999999999, HypergeometricSpec(numer=(2.0,), z=0.5)),
        (0.99, HypergeometricSpec(numer=(0.99**-(MAX_TERMS + 1),), z=0.5)),
        (0.5, HypergeometricSpec(z=0.5, terminating_k=MAX_TERMS + 1)),
        (0.5, HypergeometricSpec(z=0.5, terminating_k=10**15)),
    ])
    def test_terminating_order_above_the_term_cap_is_a_domain_error(self, q, spec):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="exceeds the 10000-term cap"):
            phi_series(spec, QContext(q=q))
        assert time.perf_counter() - t0 < 1.0

    def test_terminating_order_at_the_term_cap_is_summed(self, ctx, monkeypatch):
        monkeypatch.setattr(qcore, "MAX_TERMS", 5)
        assert phi_series(HypergeometricSpec(numer=(0.3,), z=0.5, terminating_k=5), ctx) == (
            phi_series(HypergeometricSpec(numer=(0.3, ctx.q**-5), z=0.5), ctx))
        with pytest.raises(DomainError, match="exceeds the 5-term cap"):
            phi_series(HypergeometricSpec(numer=(0.3, ctx.q**-6), z=0.5), ctx)


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


def _mp_log_poch(z, q):
    """log (z;q)_inf as an mpmath number at the working precision, for mpmath
    z and q, its phase the sum of the factors' principal logs: the product of
    the factors while |z q^k| >= 1/100, whose log takes the winding of a
    double-precision sum of the factors' phases, then
    -sum_n w^n / (n (1 - q^n)) at w the first term below 1/100, to 1e-45.
    """
    mp = pytest.importorskip("mpmath")
    prod, phase = mp.mpc(1), 0.0
    while abs(z) >= 0.01:
        prod *= 1 - z
        phase += cmath.phase(1 - complex(z))
        z *= q
    lg = mp.log(prod)
    lg += 2j * mp.pi * round((phase - float(lg.imag)) / (2 * math.pi))
    zn, n = z, 1
    while abs(zn) > mp.mpf(10) ** -45:
        lg -= zn / (n * (1 - q**n))
        zn, n = zn * z, n + 1
    return lg


def _log_poch_oracle(a, q):
    """log (a;q)_inf to 40 digits (:func:`_mp_log_poch`) as a complex."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return complex(_mp_log_poch(mp.mpc(a), mp.mpf(q)))


def _capped_log(a, q):
    """The exact sum of the logs of the first MAX_FACTORS factors."""
    logs, term = [], a
    for _ in range(MAX_FACTORS):
        logs.append(math.log(1.0 - term))
        term *= q
    return math.fsum(logs)


def _worst_oracle_error(got, args, q):
    """The largest elementwise relative error of got against the oracle at args."""
    return max(abs(g - w) / abs(w) for g, w in zip(got.tolist(), (
        _log_poch_oracle(v, q) for v in args)))


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

    # elementwise against the oracle: near q = 1 the scalar loop is the less
    # accurate side (1.6e-14 at q = 0.9, t = 0.1 + 0.05j, x = 0)
    @pytest.mark.parametrize("q", [*ARRAY_Q, 0.9, 0.97])
    @pytest.mark.parametrize("t", [0.3, 0.1 + 0.05j, -0.9j])
    def test_h_sinh_log_against_multiprecision(self, q, t):
        x = np.linspace(-17.0, 17.0, 35)
        got = h_sinh_log(x, t, QContext(q=q))
        ex = np.exp(x)
        want = np.array([_log_poch_oracle(u, q) + _log_poch_oracle(v, q) for u, v in
                         zip((1j * t * ex).tolist(), (-1j * t / ex).tolist())])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("q", ARRAY_Q)
    def test_log_product_against_multiprecision(self, q):
        a = np.logspace(-3.0, 6.0, 46) * np.exp(1j * np.linspace(-3.0, 3.0, 46))
        got = q_pochhammer_infinite_log(a, QContext(q=q))
        assert _worst_oracle_error(got, a.tolist(), q) <= 1e-14

    @pytest.mark.parametrize("q", [*ARRAY_Q, 0.9, 0.97, 0.99])
    def test_log_product_head_and_series_against_multiprecision(self, q):
        # |a| from 1e-3 to 1e6, and entries whose |a q^k| sit just above and
        # just below LOG_RADIUS, where an entry's head ends
        edge = [LOG_RADIUS * q**-k * (1.0 + s) * cmath.exp(1j * phi)
                for k in (0, 5) for s in (-1e-12, 1e-12) for phi in (0.4, math.pi)]
        a = np.array([*(np.logspace(-3.0, 6.0, 10) * np.exp(1j * np.linspace(-3.0, 3.0, 10))),
                      *edge, -2.5, 40.0])
        got = q_pochhammer_infinite_log(a, QContext(q=q))
        assert _worst_oracle_error(got, a.tolist(), q) <= 1e-14

    @pytest.mark.parametrize("q", [math.exp(-2.0), 0.97])
    def test_log_product_entry_independent_of_its_batch(self, q):
        # 3000 entries take more than one group of rows and, at q = 0.97,
        # more than one block of factors
        ctx = QContext(q=q)
        rng = np.random.default_rng(11)
        a = 10.0 ** rng.uniform(-3.0, 6.0, 3000) * np.exp(1j * rng.uniform(-3.1, 3.1, 3000))
        batch = q_pochhammer_infinite_log(a, ctx)[::30]
        alone = np.array([q_pochhammer_infinite_log(v, ctx)[0] for v in np.split(a, 3000)[::30]])
        assert np.all(np.abs(batch - alone) <= 4 * np.spacing(np.abs(alone)))

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
        # at q = 1 - 1e-5 the factor 0.3 q^k is still 0.27 after MAX_FACTORS;
        # 0.3 takes MAX_FACTORS head factors, 0.1 none and two series
        ctx = QContext(q=1.0 - 1e-5)
        with pytest.raises(NonConvergence) as exc:
            q_pochhammer_infinite_log(np.array([0.3, 0.1]), ctx)
        assert exc.value.partial.shape == (2,) and exc.value.last_term > 0
        for i, a in enumerate([0.3, 0.1]):
            assert exc.value.partial[i] == pytest.approx(_capped_log(a, ctx.q), rel=1e-14)
            with pytest.raises(NonConvergence) as scalar:
                q_pochhammer_infinite_log(a, ctx)
            assert scalar.value.partial == pytest.approx(_capped_log(a, ctx.q), rel=1e-14)

    def test_factor_cap_is_cheap(self):
        # the (q e^{2i theta};q)_inf rows of the Askey-Wilson weight at
        # q = 0.997 on a 129-node level: no entry forms more factors than
        # its own head, not MAX_FACTORS each
        ctx = QContext(q=0.997)
        a = 0.997 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 1290))
        t0 = time.process_time()
        with pytest.raises(NonConvergence):
            q_pochhammer_infinite_log(a, ctx)
        assert time.process_time() - t0 < 0.25

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


class TestScalarLogProduct:
    """The scalar log product: the heads of the array path, then Horner on
    the q-log series, in plain Python."""

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.8, 0.95])
    def test_against_multiprecision(self, q):
        # |a| from 1e-6 to 1e7; the factor-by-factor loop this replaces was
        # up to 3.1e-10 off on small |a|
        ctx = QContext(q=q)
        args = (np.logspace(-6.0, 7.0, 27) * np.exp(1j * np.linspace(-3.0, 3.0, 27))).tolist()
        for a in [*args, -0.0015 - 0.00043j, 0.5, -2.5]:
            got = q_pochhammer_infinite_log(a, ctx)
            assert isinstance(got, complex)
            want = _log_poch_oracle(a, q)
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", [*ARRAY_Q, 0.9, 0.97])
    def test_h_sinh_log_against_multiprecision(self, q):
        ctx = QContext(q=q)
        for x in (-3.0, 0.0, 2.5):
            for t in (0.3, 0.1 + 0.05j, -0.9j):
                ex = math.exp(x)
                want = _log_poch_oracle(1j * t * ex, q) + _log_poch_oracle(-1j * t / ex, q)
                assert abs(h_sinh_log(x, t, ctx) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", ARRAY_Q)
    def test_equals_array_entries(self, q):
        ctx = QContext(q=q)
        a = np.logspace(-3.0, 6.0, 19) * np.exp(1j * np.linspace(-3.0, 3.0, 19))
        want = q_pochhammer_infinite_log(a, ctx)
        got = np.array([q_pochhammer_infinite_log(v, ctx) for v in a.tolist()])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_exact_zero_factor_raises(self, ctx):
        # the factor 1 - 2 q is exactly 0 at q = 1/2
        with pytest.raises(DivisionByZero):
            q_pochhammer_infinite_log(2.0, ctx)
        assert q_pochhammer_infinite_log(0.0, ctx) == 0


class TestContextValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_bad_q_rejected(self, q):
        with pytest.raises(DomainError):
            QContext(q=q)

    def test_the_base_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(QContext)] == ["q"]
