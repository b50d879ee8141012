"""Unit tests for the scalar layer: Pochhammer symbols, q-gamma, series, weights."""

import cmath
import math
import random
import re
import time
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

import mp_oracle

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

    @pytest.mark.parametrize("a, q", [(0.5, 0.5), (0.3 + 0.4j, 0.9), (-2.5 + 1.5j, 0.97),
                                      (0.5, 0.999999), (0.3 + 0.4j, 0.999999)])
    def test_huge_order_stops_once_the_factors_stall(self, a, q):
        # the loop stops at the first factor that leaves the product as it
        # is: factor 54 at q = 0.5, about 360 at 0.9 and 1200 at 0.97; at
        # q = 0.999999, where a q^k would take some 7e8 factors to underflow,
        # about 1100 and 3500, with the product a subnormal unit from 0
        ctx = QContext(q=q)
        want, aq = complex(1.0), complex(a)
        for _ in range(30_000):
            want *= 1.0 - aq
            aq *= q
        t0 = time.perf_counter()
        got = q_pochhammer(a, 10**12 if q < 0.99 else 10**20, ctx)
        assert time.perf_counter() - t0 < 0.2
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_stalled_loop_matches_the_full_loop(self):
        # orders past the cap, against the loop taken to its end
        rng = random.Random(11)
        for _ in range(40):
            q = rng.uniform(0.05, 0.9)
            a = rng.choice([rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-3, 3))])
            n = MAX_FACTORS + rng.randrange(1, 5000)
            p, aq = complex(1.0), complex(a)
            for _ in range(n):
                p *= 1.0 - aq
                aq *= q
            got = q_pochhammer(a, n, QContext(q=q))
            assert (got.real.hex(), got.imag.hex()) == (p.real.hex(), p.imag.hex())

    @pytest.mark.parametrize("a", [0.3, 0.2 - 0.7j])
    def test_numpy_integer_order_is_the_finite_product(self, ctx, a):
        # an integral order that is not a bool is finite, whatever its type;
        # the fractional ratio differs in the last bits
        got, want = q_pochhammer(a, np.int64(3), ctx), q_pochhammer(a, 3, ctx)
        assert type(got) is complex
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("order", [3, 0, 1.5, -1])
    def test_array_takes_the_infinite_order_only(self, ctx, order):
        with pytest.raises(DomainError, match=f"needs the infinite order, got {order}$"):
            q_pochhammer(np.array([0.1, 0.2]), order, ctx)

    def test_multi_empty_is_one(self, ctx):
        assert q_pochhammer_multi([], INFINITE, ctx) == 1.0

    def test_multi_singleton(self, ctx):
        assert q_pochhammer_multi([0.3], INFINITE, ctx) == q_pochhammer(
            0.3, INFINITE, ctx
        )

    def test_multi_product(self, ctx):
        got = q_pochhammer_multi([0.2, 0.3], INFINITE, ctx)
        assert got == pytest.approx(POCH_02_05_INF * POCH_03_05_INF, rel=1e-12)


def _complex_loop(a, order, q):
    """The scalar loop of q_pochhammer at an integer order, all in complex
    arithmetic, as every argument took it before the float loop."""
    p, aq = complex(1.0), complex(a)
    if order <= MAX_FACTORS:
        for _ in range(order):
            p *= 1.0 - aq
            aq *= q
        return p
    for _ in range(order):
        p, prev = p * (1.0 - aq), p
        if p == prev or not cmath.isfinite(p):
            return p
        aq *= q
    return p


def _reference(a, order, q):
    """(a;q)_order as q_pochhammer forms it, on the complex loop alone."""
    if isinstance(order, int):
        return _complex_loop(a, order, q)
    if order == INFINITE:
        n = qcore._factor_counts(abs(a), q)
        p = _complex_loop(a, n, q)
        if n < MAX_FACTORS:
            return p
        raise NonConvergence("capped", p, abs(a) * q**MAX_FACTORS)
    num, den = _reference(a, INFINITE, q), _reference(a * q**order, INFINITE, q)
    if den == 0:
        raise DivisionByZero("0")
    return num / den


def _outcome(f, *args):
    """The value of f(*args) as the hex of both parts (:func:`_bits`), or the
    error's class, partial and last term."""
    try:
        return _bits(f(*args))
    except NonConvergence as exc:
        return ("capped", _bits(exc.partial), _bits(exc.last_term))
    except DivisionByZero:
        return ("0/0",)


_REAL = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
# a real a in (-1, 1) as each Python number type that takes the float loop
_AS = {"float": float, "int": int, "bool": lambda x: bool(int(x)), "float64": np.float64,
       "complex": lambda x: complex(x, 0.0), "complex -0": lambda x: complex(x, -0.0)}
_ORDERS = st.one_of(st.integers(0, 400), st.integers(MAX_FACTORS - 5, MAX_FACTORS),
                    st.integers(MAX_FACTORS + 1, 3 * MAX_FACTORS), st.just(INFINITE),
                    st.floats(0.0, 40.0))
_BASES = st.one_of(st.floats(0.0, 1.0 - 1e-12, exclude_min=True),
                   st.floats(1e-12, 1e-3).map(lambda d: 1.0 - d))


class TestFloatLoop:
    """A real a in (-1, 1) takes the float loop, with the complex loop's bits."""

    @settings(max_examples=300)
    @given(x=_REAL, kind=st.sampled_from(sorted(_AS)), order=_ORDERS, q=_BASES)
    def test_float_loop_has_the_complex_loops_outcome(self, x, kind, order, q):
        a = _AS[kind](x)
        assert _outcome(q_pochhammer, a, order, QContext(q=q)) == _outcome(_reference, a, order, q)

    @pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, -(1 - 2**-53),
                                   complex(-0.0, -0.0), complex(1 - 2**-53, -0.0)])
    @pytest.mark.parametrize("order", [0, 1, 37, MAX_FACTORS, MAX_FACTORS + 7, INFINITE, 2.5])
    @pytest.mark.parametrize("q", [0.5, 1.0 - 1e-12])
    def test_edges_of_the_interval(self, a, order, q):
        assert _outcome(q_pochhammer, a, order, QContext(q=q)) == _outcome(_reference, a, order, q)

    @pytest.mark.parametrize("a, loops", [
        (0.5, [float]), (complex(-0.3, -0.0), [float]),
        (1.0, [complex]), (-1.0, [complex]), (0.3 + 1e-300j, [complex]),
        (np.float32(0.5), [complex]), (1.5, [complex])])
    def test_which_loop(self, monkeypatch, a, loops):
        # only a Python number whose imaginary part is 0 and whose real part
        # lies in (-1, 1) takes the float loop
        seen = []
        product = qcore._product
        monkeypatch.setattr(qcore, "_product",
                            lambda aq, *rest: seen.append(type(aq)) or product(aq, *rest))
        got = q_pochhammer(a, 12, QContext(q=0.7))
        assert seen == loops
        assert _outcome(lambda: got) == _outcome(_reference, a, 12, 0.7)

    def test_product_past_the_double_range_reruns_the_complex_loop(self, monkeypatch):
        # 1505 factors near 1.67: the float product is inf, and the complex
        # loop's inf * 0 makes both parts NaN
        seen = []
        product = qcore._product
        monkeypatch.setattr(qcore, "_product",
                            lambda aq, *rest: seen.append(type(aq)) or product(aq, *rest))
        got = q_pochhammer(-0.67, 1505, QContext(q=1.0 - 1e-12))
        assert seen == [float, complex]
        assert math.isnan(got.real) and math.isnan(got.imag)
        assert _outcome(lambda: got) == _outcome(_complex_loop, -0.67, 1505, 1.0 - 1e-12)


def _complex_rows(a, q):
    """(a;q)_inf of an uncapped array a as the array product formed every
    entry before its float rows: each entry's factors 1 - a q^k, k below its
    count, in complex arithmetic, the terms by repeated multiplication by q
    and the products by np.multiply.accumulate, in one block."""
    flat = a.ravel()
    counts = qcore._factor_counts(np.abs(flat), q).astype(int)
    width = int(counts.max(initial=0))
    f = np.ones((width + 1, flat.size), dtype=complex)
    if width:
        f[1] = flat
        for j in range(2, width + 1):
            np.multiply(f[j - 1], q, out=f[j])
        np.subtract(1.0, f[1:], out=f[1:])
        np.multiply.accumulate(f, axis=0, out=f)
    return f[counts, np.arange(flat.size)].reshape(a.shape)


def _array_bits(x):
    """An array's entries as the hex of both parts."""
    return [_bits(v) for v in x.ravel().tolist()]


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, -(1 - 2**-53)])
# a real array in (-1, 1) as each dtype that takes the float rows
_ROWS = {"float": lambda xs: np.array(xs), "int": lambda xs: np.array([int(x) for x in xs]),
         "bool": lambda xs: np.array([bool(int(x)) for x in xs]),
         "float32": lambda xs: np.array(xs, dtype=np.float32),
         "complex": lambda xs: np.array([complex(x, 0.0) for x in xs]),
         "complex -0": lambda xs: np.array([complex(x, -0.0) for x in xs])}


class TestFloatRows:
    """An array whose every entry is real in (-1, 1) takes float rows, with
    the complex rows' bits, and stays a complex array."""

    @settings(max_examples=300)
    @given(xs=st.lists(st.one_of(_REAL, _EDGES), min_size=1, max_size=12),
           kind=st.sampled_from(sorted(_ROWS)), q=_BASES)
    def test_float_rows_have_the_complex_rows_outcome(self, xs, kind, q):
        a = _ROWS[kind](xs)
        ctx = QContext(q=q)
        if qcore._factor_counts(float(np.abs(a).max()), q) >= MAX_FACTORS:
            # the largest |a| raises the scalar product's cap error
            i = int(np.argmax(np.abs(a)))
            with pytest.raises(NonConvergence) as exc:
                q_pochhammer_infinite(a, ctx)
            assert _same_failure(exc.value, _cap_failure(q_pochhammer_infinite, a[i].item(), ctx))
            return
        got = q_pochhammer_infinite(a, ctx)
        assert got.dtype == complex and got.shape == a.shape
        assert _array_bits(got) == _array_bits(_complex_rows(a, q))
        assert not got.imag.any() and not np.signbit(got.imag).any()

    @pytest.mark.parametrize("a, dtype", [
        ([0.5, -0.3], float), ([complex(-0.3, -0.0), 0.2], float),
        (np.array([0.5, 0.25], dtype=np.float32), float), ([0, 0], float), ([False], float),
        ([0.5, 1.0], complex), ([0.5, -1.0], complex), ([True], complex),
        ([0.5, 0.3 + 1e-300j], complex), ([0.5, 1.5], complex), ([0.5, -2.5], complex),
        # a NaN entry raises its cap error before any row is formed
        ([0.5, math.nan], None), ([0.5, complex(0.2, math.nan)], None)])
    def test_which_rows(self, monkeypatch, a, dtype):
        # only an array whose every entry is real with |a| < 1 takes float
        # rows; the others take complex rows, with the same bits as before
        seen = []
        blocks = qcore._factor_blocks
        monkeypatch.setattr(qcore, "_factor_blocks",
                            lambda *args: seen.append(args[-1]) or blocks(*args))
        a, ctx = np.asarray(a), QContext(q=0.7)
        if dtype is None:
            with pytest.raises(NonConvergence):
                q_pochhammer_infinite(a, ctx)
            assert seen == []
            return
        got = q_pochhammer_infinite(a, ctx)
        assert seen == [dtype]
        assert _array_bits(got) == _array_bits(_complex_rows(a, 0.7))


class TestTypedInputs:
    """An a that is neither a number nor an array, or an order that is not
    a real number, is a DomainError naming its type."""

    @pytest.mark.parametrize("call, what, typename", [
        (lambda c: q_pochhammer("0.5", 3, c), "a", "str"),
        (lambda c: q_pochhammer("0.5", INFINITE, c), "a", "str"),
        (lambda c: q_pochhammer(None, 3, c), "a", "NoneType"),
        (lambda c: q_pochhammer([0.5], 2.5, c), "a", "list"),
        (lambda c: q_pochhammer(0.5, "3", c), "order", "str"),
        (lambda c: q_pochhammer(0.5, "inf", c), "order", "str"),
        (lambda c: q_pochhammer(0.5, None, c), "order", "NoneType"),
        (lambda c: q_pochhammer(0.5, 1j, c), "order", "complex"),
        (lambda c: q_pochhammer(0.5, 3 + 0j, c), "order", "complex"),
        (lambda c: q_pochhammer(np.array([0.5]), "3", c), "order", "str"),
        (lambda c: q_pochhammer_infinite("0.5", c), "a", "str"),
        (lambda c: q_pochhammer_infinite(None, c), "a", "NoneType"),
        (lambda c: q_pochhammer_infinite_log("0.5", c), "a", "str"),
        (lambda c: q_pochhammer_infinite_log([0.5], c), "a", "list"),
        (lambda c: q_pochhammer_multi([0.3, "0.5"], 3, c), "a", "str"),
        (lambda c: q_pochhammer_multi([0.3], "3", c), "order", "str"),
        (lambda c: q_pochhammer_multi([], "3", c), "order", "str"),
        # an array whose dtype holds no number names its dtype
        (lambda c: q_pochhammer_infinite(np.array(["0.5"]), c), "array", "dtype <U3"),
        (lambda c: q_pochhammer_infinite(np.array([0.5, None]), c), "array", "dtype object"),
        (lambda c: q_pochhammer_infinite(np.array([1], dtype="m8[s]"), c), "array",
         "dtype timedelta64[s]"),
        (lambda c: q_pochhammer_infinite_log(np.array(["0.5"]), c), "array", "dtype <U3"),
        (lambda c: q_pochhammer_infinite_log(np.array([0.5, None]), c), "array", "dtype object"),
        (lambda c: q_pochhammer_infinite_log(np.array([1], dtype="m8[s]"), c), "array",
         "dtype timedelta64[s]"),
        (lambda c: q_pochhammer(np.array(["0.5"]), INFINITE, c), "array", "dtype <U3"),
        (lambda c: q_pochhammer(np.array([0.5, None]), INFINITE, c), "array", "dtype object"),
        (lambda c: q_pochhammer(np.array([1], dtype="m8[s]"), INFINITE, c), "array",
         "dtype timedelta64[s]"),
        (lambda c: q_pochhammer(np.array([b"0.5"]), INFINITE, c), "array", "dtype |S3"),
    ])
    def test_names_the_type(self, ctx, call, what, typename):
        want = {"a": "a must be a number or an array", "array": "a must be an array of numbers",
                "order": "the order must be a real number"}[what]
        with pytest.raises(DomainError, match=f"{re.escape(want)}, got {re.escape(typename)}$"):
            call(ctx)

    @pytest.mark.parametrize("a, order, same_a, same_order", [
        (np.float32(0.3), 3, float(np.float32(0.3)), 3),
        (np.int64(0), INFINITE, 0.0, INFINITE),
        (0.3, np.float32(1.5), 0.3, 1.5),
        (0.3, np.int64(4), 0.3, 4),
        (0.3, True, 0.3, 1.0),
        (0.3, np.float64(3.0), 0.3, 3.0),
        (np.bool_(True), 3, True, 3),
        (np.bool_(False), INFINITE, False, INFINITE),
        (np.bool_(False), 2.5, False, 2.5),
    ])
    def test_numpy_scalars_and_a_bool_order_keep_their_values(self, ctx, a, order, same_a,
                                                              same_order):
        assert _outcome(q_pochhammer, a, order, ctx) == _outcome(q_pochhammer, same_a, same_order, ctx)


class TestQBracketGamma:
    def test_bracket_values(self, ctx):
        assert q_bracket(1.0, ctx) == pytest.approx(1.0)
        assert q_bracket(0.0, ctx) == 0.0
        assert q_bracket(2.0, ctx) == pytest.approx(1.5)

    def test_bracket_past_the_double_range_names_q_and_a(self, ctx):
        want = "q_bracket: q^a is past the double range at q=0.5, a=-2000.0"
        with pytest.raises(OverflowError, match=f"^{re.escape(want)}$"):
            q_bracket(-2000.0, ctx)

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

    @pytest.mark.parametrize("param, q", [
        (math.nan, 0.5), (math.inf, 0.5), (complex(-1.3e308, 1.3e308), 0.5),
        # q^-1 = 1e320 is past the double range
        (1e200, 1e-320),
    ])
    def test_outside_the_double_range(self, param, q):
        assert detect_terminating(param, QContext(q=q)) is None

    def test_difference_past_the_double_range(self):
        # q^-1000 = 1.5e308 is the power nearest 1.2e308i, and their
        # difference has finite parts and a modulus past the double range
        ctx = QContext(q=1.5e308 ** -0.001)
        assert detect_terminating(1.2e308j, ctx) is None
        with pytest.raises(NonConvergence, match="^phi series: term 2 or"):
            phi_series(HypergeometricSpec(numer=(1.2e308j,), z=0.5), ctx)


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

    @pytest.mark.parametrize("k", [2.0, 2.5, True, False, "2", 2 + 0j])
    def test_terminating_k_must_be_an_integer(self, k):
        with pytest.raises(DomainError, match="^terminating_k must be a nonnegative integer$"):
            HypergeometricSpec(numer=(0.2,), denom=(0.3,), z=0.5, terminating_k=k)

    def test_numpy_integer_terminating_k_is_its_int(self, ctx):
        spec = HypergeometricSpec(numer=(0.2,), denom=(0.3,), z=0.5, terminating_k=np.int64(2))
        assert type(spec.terminating_k) is int
        got = phi_series(spec, ctx)
        want = phi_series(HypergeometricSpec(numer=(0.2,), denom=(0.3,), z=0.5,
                                             terminating_k=2), ctx)
        assert type(got) is complex
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, -1.3e308 - 1.3e308j])
    def test_unit_disk_rule_reads_a_modulus_past_the_range_as_inf(self, ctx, z):
        with pytest.raises(DomainError, match=r"^1phi0 requires \|z\| < 1 for convergence, "
                                              r"got \|z\|=inf$"):
            phi_series(HypergeometricSpec(numer=(0.1,), z=z), ctx)

    def test_term_with_a_modulus_past_the_range_is_not_finite(self):
        # term 1 is about 1.18 z: both parts finite, its modulus not
        z = 1.1e308 * (1 + 1j)
        with pytest.raises(NonConvergence, match="^phi series: term 1 or the partial sum "
                                                 "through it is not finite$") as exc:
            phi_series(HypergeometricSpec(numer=(0.1,), denom=(0.2,), z=z), QContext(q=0.05))
        assert exc.value.partial == 1.0 and exc.value.last_term == math.inf

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

    # at q = 0.5 the factor q^(n - k) of term 1 is past the double range; at
    # q = 0.9 the terms pass it at n = 9
    @pytest.mark.parametrize("q, k, n", [(0.5, 2000, 1), (0.9, 800, 9)])
    def test_overflowing_series_names_its_term(self, q, k, n):
        with pytest.raises(NonConvergence, match=f"^phi series: term {n} or the partial sum "
                                                 "through it is not finite$") as exc:
            phi_series(HypergeometricSpec(z=0.5, terminating_k=k), QContext(q=q))
        assert cmath.isfinite(exc.value.partial) and not math.isfinite(exc.value.last_term)

    def test_terminating_order_at_the_term_cap_is_summed(self, ctx, monkeypatch):
        monkeypatch.setattr(qcore, "MAX_TERMS", 5)
        assert phi_series(HypergeometricSpec(numer=(0.3,), z=0.5, terminating_k=5), ctx) == (
            phi_series(HypergeometricSpec(numer=(0.3, ctx.q**-5), z=0.5), ctx))
        with pytest.raises(DomainError, match="exceeds the 5-term cap"):
            phi_series(HypergeometricSpec(numer=(0.3, ctx.q**-6), z=0.5), ctx)


class TestSeriesSum:
    """``_series_sum`` reads its terms from any iterable."""

    def test_none_term_ends_the_sum(self):
        assert qcore._series_sum([1.0, 0.5, None, 1e300], "s", 4, scale=2.0) == 3.0

    def test_running_out_of_terms_is_the_cap_error(self):
        with pytest.raises(NonConvergence, match="^s did not converge in 2 terms$") as exc:
            qcore._series_sum(iter([1.0, 0.5]), "s", 2, scale=2.0)
        assert (exc.value.partial, exc.value.last_term) == (3.0, 0.5)


class TestWeights:
    def test_h_cos_zero_param(self, ctx):
        assert h_cos(1.1, [0.0], ctx) == 1.0

    def test_h_cos_right_angle(self, ctx):
        got = h_cos(math.pi / 2.0, [0.5], ctx)
        assert got.real == pytest.approx(POCH_M025_025_INF, rel=1e-12)
        assert got.imag == 0.0

    def test_h_cos_multi_is_product(self, ctx):
        theta = 0.8
        combined = h_cos(theta, [0.3, -0.2], ctx)
        split = h_cos(theta, [0.3], ctx) * h_cos(theta, [-0.2], ctx)
        assert combined == pytest.approx(split, rel=1e-13)

    def test_h_cos_real_for_real_params(self, ctx):
        # h(cos theta; a) = |(a e^{i theta};q)_inf|^2 at a real a
        for theta in (0.0, 0.4, 1.3, 2.9):
            v = h_cos(theta, [0.3, -0.5, 0.1], ctx)
            assert v.imag == 0.0

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

    @pytest.mark.parametrize("x", [-800.0, -1e308, 800.0, 1e308, math.nan])
    def test_h_sinh_log_needs_a_finite_nonzero_exp(self, ctx, x):
        with pytest.raises(OverflowError, match=re.escape(f"e^x is 0 or not finite at x={x}")):
            h_sinh_log(x, 0.2, ctx)
        with pytest.raises(DomainError, match="h_sinh_log: x must be a number"):
            h_sinh_log(np.array([0.3, x]), 0.2, ctx)
        # t = 0 gives the empty product whatever x
        assert h_sinh_log(x, 0.0, ctx) == 0

    @pytest.mark.parametrize("t", [1e308, complex(-1e308, 1e308)])
    def test_scalar_log_of_a_huge_argument(self, ctx, t):
        # |t e^x| / LOG_RADIUS overflows, but the head is counted by logs:
        # about 1026 factors at q = 1/2; the complex |t e^x| overflows, and so
        # is capped
        if isinstance(t, complex):
            with pytest.raises(NonConvergence, match="did not converge in 10000 factors$"):
                h_sinh_log(0.3, t, ctx)
        else:
            assert h_sinh_log(0.3, t, ctx).real == pytest.approx(726327.5, abs=0.05)

    def test_h_sinh_finite_above_log_magnitude_709(self, ctx):
        # log-magnitude 709.4: past the 709 that h_sinh once refused, yet a
        # double, -4.2369e307 - 1.1505e308i
        x = 31.00075150058043
        with mp.workdps(mp_oracle.DPS):
            ex = mp.exp(x)
            want = complex(mp_oracle.qp(1j * ex, 0.5) * mp_oracle.qp(-1j / ex, 0.5))
        got = h_sinh(x, 1.0, ctx)
        assert h_sinh_log(x, 1.0, ctx).real > 709.0
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("arg", [np.array([0.3, 1.2]), np.array(0.3)])
    @pytest.mark.parametrize("weight, name, rest", [
        (h_cos, "h_cos: theta", ([0.3, -0.2],)),
        (h_sinh_log, "h_sinh_log: x", (0.3,)),
        (h_sinh, "h_sinh_log: x", (0.3,)),
    ])
    def test_weights_take_a_number(self, ctx, arg, weight, name, rest):
        # the checks take the weights' factors as log rows on their nodes,
        # so an array of angles or points is no input of theirs
        with pytest.raises(DomainError, match=f"^{name} must be a number, got an array"):
            weight(arg, *rest, ctx)
        value = weight(np.float64(0.3), *rest, ctx)
        assert type(value) is complex and _bits(value) == _bits(weight(0.3, *rest, ctx))


def _rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


def _capped_log(a, q):
    """The exact sum of the logs of the first MAX_FACTORS factors."""
    logs, term = [], a
    for _ in range(MAX_FACTORS):
        logs.append(math.log(1.0 - term))
        term *= q
    return math.fsum(logs)


def _cap_failure(product, a, ctx):
    """The NonConvergence that product raises on a."""
    with pytest.raises(NonConvergence) as exc:
        product(a, ctx)
    return exc.value


def _bits(x):
    """A float or complex as the hex of its parts, so NaN equals NaN."""
    return tuple(float.hex(float(v)) for v in (x.real, x.imag))


def _same_failure(got, want):
    """Two NonConvergence errors alike in message, partial and last_term."""
    return (str(got), _bits(got.partial), _bits(got.last_term)) == (
        str(want), _bits(want.partial), _bits(want.last_term))


def _worst_oracle_error(got, args, q):
    """The largest elementwise relative error of got against the oracle at args."""
    return max(abs(g - w) / abs(w) for g, w in zip(got.tolist(), (
        mp_oracle.log_poch(v, q) for v in args)))


def _end(call):
    """How call() ends: the complex value of a scalar or of a one-entry
    array, or the class of the error it raises, a warning included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call()
        except Exception as e:
            return type(e)
    return complex(got) if isinstance(got, complex) else complex(got.item())


def _ends_alike(scalar, array):
    """The same error class, or a value within 1e-13 of the scalar's
    modulus in each part, a NaN part matching a NaN part."""
    if isinstance(scalar, type) or isinstance(array, type):
        return scalar == array
    scale = math.hypot(scalar.real, scalar.imag)
    return all(math.isnan(s) and math.isnan(a) or s == a or abs(s - a) <= 1e-13 * scale
               for s, a in [(scalar.real, array.real), (scalar.imag, array.imag)])


# |a| from 10^-30 to 10^30 at any phase
_WIDE = st.builds(lambda e, phase: 10.0**e * cmath.exp(1j * phase),
                  st.floats(-30.0, 30.0), st.floats(-math.pi, math.pi))

# the bases of the shipped suites: the Gaussian family's exp(-2) and q = 0.5
ARRAY_Q = [math.exp(-2.0), 0.5]
COMPLEX_PARAMS = [0.3 + 0.2j, -0.5, 0.1 - 0.4j, 0.8j]


class TestArrayPath:
    """Node arrays through the products versus the scalar loops, and the
    weights at inputs past the double range."""

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

    @pytest.mark.parametrize("q", [math.exp(-2.0), 0.97])
    def test_product_entry_independent_of_its_batch(self, q):
        ctx = QContext(q=q)
        rng = np.random.default_rng(12)
        a = 10.0 ** rng.uniform(-3.0, 0.5, 3000) * np.exp(1j * rng.uniform(-3.1, 3.1, 3000))
        batch = q_pochhammer_infinite(a, ctx)[::30]
        alone = np.array([q_pochhammer_infinite(v, ctx)[0] for v in np.split(a, 3000)[::30]])
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("q", [*ARRAY_Q, 0.9, 0.97])
    def test_real_product_entries_equal_the_scalar_loop(self, q):
        # real entries, with exact zeros and entries that need no factor,
        # among complex ones
        ctx = QContext(q=q)
        real = [*np.linspace(-3.0, 3.0, 201).tolist(), 1.0 / q, 0.0, 1e-30, -2e-17]
        a = np.array([*real, *(0.5j * np.array(real[:50]))])
        got = q_pochhammer_infinite(a, ctx)[: len(real)]
        assert np.array_equal(got, [q_pochhammer_infinite(v, ctx) for v in real])

    def test_product_equals_scalar_calls(self, ctx):
        a = np.linspace(-0.95, 3.0, 40) * np.exp(0.3j)
        got = q_pochhammer_infinite(a, ctx)
        want = np.array([q_pochhammer_infinite(v, ctx) for v in a.tolist()])
        assert _rel(got, want) <= 1e-14

    def test_product_keeps_the_shape_of_its_array(self, ctx):
        a = np.array([[0.3, -0.5j, 2.0], [0.1, 1.5, -0.25]])
        got = q_pochhammer_infinite(a, ctx)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), q_pochhammer_infinite(a.ravel(), ctx))
        assert q_pochhammer_infinite(np.array(0.3), ctx) == q_pochhammer_infinite(0.3, ctx)

    def test_log_products_keep_the_shape_of_their_array(self, ctx):
        a = np.array([[0.3, -0.5j, 2.5], [0.1, 1.5, -0.25]])
        got = q_pochhammer_infinite_log(a, ctx)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), q_pochhammer_infinite_log(a.ravel(), ctx))
        got = q_pochhammer_infinite_log(np.array(0.3), ctx)
        assert got.shape == ()
        assert np.array_equal(got, q_pochhammer_infinite_log(np.array([0.3]), ctx)[0])

    def test_exact_zero_factor_gives_minus_inf(self, ctx):
        # the factor 1 - 2 q is exactly 0 at q = 1/2: the log of the
        # vanishing product, each other entry as in a call without it
        got = q_pochhammer_infinite_log(np.array([0.3, 2.0, 0.1j]), ctx)
        assert got[1] == complex(-math.inf)
        alone = q_pochhammer_infinite_log(np.array([0.3, 0.1j]), ctx)
        assert np.all(np.abs(got[::2] - alone) <= 4 * np.spacing(np.abs(alone)))
        # the plain product just vanishes there, as the scalar loop does
        got = q_pochhammer_infinite(np.array([0.3, 2.0]), ctx)
        assert got[1] == 0 and got[0] == q_pochhammer_infinite(0.3, ctx)

    def test_factor_cap_raises_with_partial(self):
        # at q = 1 - 1e-5 the factor 0.3 q^k is still 0.27 after MAX_FACTORS:
        # the array fails as its largest entry alone does, with the log of
        # that entry's first MAX_FACTORS factors
        ctx = QContext(q=1.0 - 1e-5)
        got = _cap_failure(q_pochhammer_infinite_log, np.array([0.1, 0.3]), ctx)
        assert _same_failure(got, _cap_failure(q_pochhammer_infinite_log, 0.3, ctx))
        assert type(got.partial) is complex and got.last_term > 0
        assert got.partial == pytest.approx(_capped_log(0.3, ctx.q), rel=1e-14)

    # 0.5 takes about 40 000 factors at q = 0.999, 0.25 about 39 000
    @pytest.mark.parametrize("a, largest", [
        (np.array([0.25, -0.5]), -0.5),
        (np.array([[0.25j, 0.1], [-0.3 + 0.4j, 0.2]]), -0.3 + 0.4j),
        (np.array([0.25, math.nan, 0.5]), math.nan),
        (np.array([0.25, complex(0.1, math.nan), -0.5j]), complex(0.1, math.nan)),
    ])
    @pytest.mark.parametrize("product, what", [(q_pochhammer_infinite, "(a;q)_inf"),
                                               (q_pochhammer_infinite_log, "log (a;q)_inf")])
    def test_every_cap_path_has_one_message_form(self, a, largest, product, what):
        ctx = QContext(q=0.999)
        got = _cap_failure(product, a, ctx)
        assert str(got) == f"{what} with a={largest} did not converge in 10000 factors"
        assert _same_failure(got, _cap_failure(product, largest, ctx))
        assert _bits(got.last_term) == _bits(abs(largest) * 0.999**MAX_FACTORS)

    def test_capped_product_partial(self):
        # at q = 0.996 the entries 0.5 and -0.25 stop after 9823 and 9650
        # factors, and 2.0 is capped: the partial is the first MAX_FACTORS
        # factors of 2.0 alone
        ctx = QContext(q=0.996)
        got = _cap_failure(q_pochhammer_infinite, np.array([0.5, 2.0, -0.25]), ctx)
        assert _same_failure(got, _cap_failure(q_pochhammer_infinite, 2.0, ctx))
        assert got.partial == q_pochhammer(2.0, MAX_FACTORS, ctx)

    def test_zero_factor_past_two_chunks(self, ctx):
        # at q = 1/2 the head of 2^40 is 44 factors, three chunks of
        # _SUM_CHUNK, and its factor k = 40 is exactly 0
        a = np.array([0.3, 2.0**40, 1e6 * cmath.exp(0.7j), -7.0])
        assert qcore._factor_counts(2.0**40, 0.5, LOG_RADIUS) > 2 * qcore._SUM_CHUNK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = q_pochhammer_infinite_log(a, ctx)
        assert _bits(got[1]) == _bits(complex(-math.inf))
        others = np.delete(a, 1)
        alone = [q_pochhammer_infinite_log(v, ctx)[0] for v in np.split(others, others.size)]
        assert np.array_equal(np.delete(got, 1), alone)

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
        q = 0.5
        for th in (0.2, 1.3, 2.9):
            g = h_cos(th, COMPLEX_PARAMS, QContext(q=q))
            want = complex(mp_oracle.h_cos(th, COMPLEX_PARAMS, q))
            assert abs(g - want) <= 1e-14 * abs(want)

    # past the double range the scalar loop's complex arithmetic gives inf
    # or NaN quietly, and so does the array under an error filter
    def test_product_past_the_double_range_ends_as_the_scalar(self):
        ctx = QContext(q=0.5)
        a = 4.732480068591569e26 - 7.770597362456968e25j
        want = _end(lambda: q_pochhammer_infinite(a, ctx))
        assert cmath.isnan(want)
        assert _ends_alike(want, _end(lambda: q_pochhammer_infinite(np.array([a]), ctx)))

    @pytest.mark.parametrize("q, theta, params, want", [
        # products past the double range
        (0.5, [0.3, 1.0], [3e25, 2e25], [complex("nan+nanj")] * 2),
        # each real parameter's |(a e^{i theta};q)_inf|^2 is finite (1.2e303),
        # and their product overflows to a real inf
        (0.01, [1.8810733085437361], [4.1871470891278156e23] * 2, [complex(math.inf, 0.0)]),
        # a e^{-i theta} rounds to 1, so its first factor is 0
        (0.15863217765180948, [0.42736649388573245], [0.9100604282149585 + 0.41447559276416546j],
         [0j]),
    ])
    def test_h_cos_ends_as_the_scalar(self, q, theta, params, want):
        ctx = QContext(q=q)
        for th, w in zip(theta, want):
            assert _ends_alike(w, _end(lambda: h_cos(th, params, ctx)))

    @pytest.mark.parametrize("q, x, t, want", [
        # e^x is subnormal: its reciprocal passes the double range, -i t / e^x not
        (0.9, -741.2786739865339, -4.914817226132213e-20 + 3.417087134255657e-19j,
         2317386.991498896 - 19889.18267528081j),
        # -i t / e^x passes the double range itself, and the log is capped
        (0.11454481117076996, -733.360896844838,
         -147547802895297.22 - 64693710768985.875j, NonConvergence),
    ])
    def test_h_sinh_log_at_a_subnormal_exp_ends_as_the_scalar(self, q, x, t, want):
        ctx = QContext(q=q)
        assert _ends_alike(want, _end(lambda: h_sinh_log(x, t, ctx)))

    @settings(max_examples=250)
    @given(q=st.floats(0.01, 0.99), a=_WIDE)
    def test_one_entry_array_ends_as_the_scalar(self, q, a):
        ctx = QContext(q=q)
        for f in (q_pochhammer_infinite, q_pochhammer_infinite_log):
            scalar = _end(lambda: f(a, ctx))
            array = _end(lambda: f(np.array([a]), ctx))
            assert _ends_alike(scalar, array), f.__name__

    def test_scratch_memory_bounded_near_q_one(self):
        # the eight rows a e^{+-i theta} of the Askey-Wilson weight and the
        # two of an h_sinh pair, 576 nodes each: a (576 nodes x ~1300
        # factors) array in one piece would take 12 MB
        ctx = QContext(q=0.97)
        e = np.exp(1j * np.linspace(0.0, math.pi, 576))
        rows = np.array([a * u for a in COMPLEX_PARAMS for u in (e, e.conj())])
        ex = np.exp(np.linspace(-17.0, 17.0, 576))
        tracemalloc.start()
        try:
            q_pochhammer_infinite(rows, ctx)
            q_pochhammer_infinite_log(np.array([0.3j * ex, -0.3j / ex]), ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _loop_count(mag, q):
    """The stop rule as a loop over the factors, as the scalar product
    applied it before its closed form: the first k with |a q^k| below
    EPS_FACTOR and the tail bound |a q^k| / ((1 - q)(1 - |a q^k|)) below
    EPS_TERM, or None (capped) if there is none below MAX_FACTORS."""
    for k in range(MAX_FACTORS):
        if mag < qcore.EPS_FACTOR and mag / ((1.0 - q) * (1.0 - mag)) < qcore.EPS_TERM:
            return k
        mag *= q
    return None


def _loop_product(a, q):
    """(a;q)_inf by the scalar loop that tested the stop rule at every factor."""
    p, term = complex(1.0), complex(a)
    for _ in range(MAX_FACTORS):
        mag = abs(term)
        if mag < qcore.EPS_FACTOR and mag / ((1.0 - q) * (1.0 - mag)) < qcore.EPS_TERM:
            return p
        p *= 1.0 - term
        term *= q
    return None


class TestFactorCounts:
    """The stop rule in closed form against the loop it replaced."""

    # two draws at the cap that a first closed form called uncapped
    CAP_EDGE = [(0.9996924577035181, 6.662732553557349e-18),
                (0.9954890747862133, 193.84713595433507)]

    def test_equals_the_loop_count_and_cap(self):
        rng = random.Random(18)
        draws = [(rng.uniform(0.001, 0.999), 10.0 ** rng.uniform(-25.0, 6.0)) for _ in range(3000)]
        for q, mag in [*draws, *self.CAP_EDGE]:
            want = _loop_count(mag, q)
            assert qcore._factor_counts(mag, q) == (MAX_FACTORS if want is None else want)
        assert all(_loop_count(mag, q) is None for q, mag in self.CAP_EDGE)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.97, 0.9995])
    def test_array_counts_equal_the_float_counts(self, q):
        mag = np.array([0.0, 1e-300, 1e-20, 1e-17, 0.3, 1.0, 40.0, 1e300, math.inf, math.nan])
        want = [qcore._factor_counts(m, q) for m in mag.tolist()]
        assert qcore._factor_counts(mag, q).tolist() == want
        loop = [_loop_count(m, q) for m in mag[:-2].tolist()]
        assert want == [MAX_FACTORS if n is None else n for n in loop] + [MAX_FACTORS] * 2

    def test_scalar_product_equals_the_loop(self):
        rng = random.Random(19)
        for _ in range(2000):
            q = rng.uniform(0.001, 0.99)
            a = cmath.rect(10.0 ** rng.uniform(-20.0, 1.0), rng.uniform(-math.pi, math.pi))
            assert q_pochhammer_infinite(a, QContext(q=q)) == _loop_product(a, q)


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
            want = mp_oracle.log_poch(a, q)
            assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", [*ARRAY_Q, 0.9, 0.97])
    def test_h_sinh_log_against_multiprecision(self, q):
        ctx = QContext(q=q)
        for x in (-3.0, 0.0, 2.5, *np.linspace(-17.0, 17.0, 35).tolist()):
            for t in (0.3, 0.1 + 0.05j, -0.9j):
                ex = math.exp(x)
                want = mp_oracle.log_poch(1j * t * ex, q) + mp_oracle.log_poch(-1j * t / ex, q)
                assert abs(h_sinh_log(x, t, ctx) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("q", ARRAY_Q)
    def test_equals_array_entries(self, q):
        ctx = QContext(q=q)
        a = np.logspace(-3.0, 6.0, 19) * np.exp(1j * np.linspace(-3.0, 3.0, 19))
        want = q_pochhammer_infinite_log(a, ctx)
        got = np.array([q_pochhammer_infinite_log(v, ctx) for v in a.tolist()])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("q", [0.93, 0.99, 0.997, 0.9999])
    def test_cap_decision_is_the_factor_counts(self, q):
        # |a| of MAX_FACTORS - 1 and MAX_FACTORS factors, and |a| a few
        # factors either side: the log raises exactly where the product does
        # (whose value may pass the double range)
        ctx, rate = QContext(q=q), -math.log(q)
        edge = math.log(qcore._tau(q)) + (MAX_FACTORS - 1.5) * rate
        mags = [math.exp(edge), math.exp(edge + rate)]
        assert [qcore._factor_counts(m, q) for m in mags] == [MAX_FACTORS - 1, MAX_FACTORS]
        mags += [math.exp(edge) * 2.0**j for j in range(-4, 4)]
        for mag in mags:
            capped = qcore._factor_counts(mag, q) >= MAX_FACTORS
            for a in (mag, -1j * mag):
                for product in (q_pochhammer_infinite, q_pochhammer_infinite_log):
                    if capped:
                        with pytest.raises(NonConvergence):
                            product(a, ctx)
                    else:
                        product(a, ctx)
                assert capped or cmath.isfinite(q_pochhammer_infinite_log(a, ctx))

    def test_exact_zero_factor_gives_minus_inf(self, ctx, zero_factor_scale):
        # the factor 1 - 2 q is exactly 0 at q = 1/2, as on the array path
        assert q_pochhammer_infinite_log(2.0, ctx) == complex(-math.inf)
        assert q_pochhammer_infinite(2.0, ctx) == 0
        assert q_pochhammer_infinite_log(0.0, ctx) == 0
        # h_sinh at t = -i c, x = 1 has the factor 1 - q c e = 0
        t = -1j * zero_factor_scale
        assert h_sinh_log(1.0, t, ctx).real == -math.inf and h_sinh(1.0, t, ctx) == 0
        assert cmath.isfinite(h_sinh_log(0.5, t, ctx))
        # dividing by the vanishing product still raises: (4;q)_1 = (4;q)_inf / (2;q)_inf
        with pytest.raises(DivisionByZero):
            q_pochhammer(4.0, 1.0, ctx)


class TestContextValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_bad_q_rejected(self, q):
        with pytest.raises(DomainError):
            QContext(q=q)

    def test_the_base_is_the_only_field(self):
        assert [f.name for f in QContext.fields] == ["q"]


# the oracle itself: against mpmath.qp up to q = 0.97 (it does not converge
# at 0.99), then an explicit factor loop, 0.2 s an argument at q = 0.995
@pytest.mark.parametrize("q, args", [
    *((q, [0.3, -0.5, 0.1 + 0.4j, 0.8j, 2.5, -0.96]) for q in (0.3, 0.5, 0.9, 0.97)),
    (0.99, [0.3]), (0.995, [-0.5])])
def test_oracle_product_to_35_digits(q, args):
    assert mp_oracle.self_check(q, args) < 1e-35
