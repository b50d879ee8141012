"""Tests for the identity checks, the stable outer k-sum, and the suite runner."""

import cmath
import gc
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import cli, identities, qcore, quad
from qaw.context import (
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QawError,
    QContext,
    WindowFailure,
)
from qaw.identities import (
    IDENTITY_REGISTRY,
    AtakishiyevParams,
    AWParams,
    GeneratingParams,
    ReversalParams,
    ksum,
    run_check,
    run_suite,
)
from qaw.suite import default_suite, expand_suite

import mp_oracle

EPS = float(np.finfo(float).eps)
# the six fractional rows of the quadrature families
FRACTIONAL_QUADRATURE = [f"fractional-{family}{form}"
                         for family in ("askey-wilson", "reversal-askey-wilson", "atakishiyev")
                         for form in ("", "-3phi2")]


class TestKSumOracle:
    # x/a = 2.33, 2.82 (1.41 times a power of 2, midway between two on a
    # log scale) and 1.001, where 1 / (a/x;q)_inf bounds the weights
    # w_m / s^m near 1000
    @pytest.mark.parametrize("a, x, numer", [
        (0.15, 0.35, [0.1, 0.05, 0.08]),
        (0.2, 0.564, [0.05, 0.03, 0.04]),
        (0.3, 0.3003, [0.12, 0.05, 0.08])], ids=["x/a=2.33", "x/a=2.82", "x/a=1.001"])
    def test_against_multiprecision_oracle(self, a, x, numer):
        """The stable Taylor-kernel route versus the direct multiprecision sum."""
        # small numerator parameters keep the outer terms decaying fast
        # (ratio x max|numerator| / a at most 0.233), so the oracle's k range
        # stays short enough for quadratically growing working precision
        q, mu = 0.5, 1.5
        denom = [0.25, 0.12, 0.18]
        got = ksum(x, a, mu, numer, denom, QContext(q=q))
        want = mp_oracle.direct_ksum(x, a, mu, q, numer, denom)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_degenerate_collapse(self):
        # with no series parameters only the k=0 term survives: the bare
        # k-series starts at c_0 = 1
        assert ksum(0.6, 0.2, 1.5, [], [], QContext(q=0.5)) == 1.0


# the fractional Askey-Wilson k-sum at the angles theta: numerator
# (abcd, a e^{i theta}, a e^{-i theta}), denominator (ab, ac, ad)
AW_POINT = dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)
# a criterion-style random draw with x near the top of [0.45, 0.8]
AW_EDGE_POINT = dict(q=0.681, a=0.202, b=0.071, c=0.106, d=-0.268, x=0.692, mu=1.90)


def _aw_ksum_params(theta, q, a, b, c, d, x, mu):
    e = np.exp(1j * np.asarray(theta))
    return [a * b * c * d, a * e, a / e], [a * b, a * c, a * d]


def _aw_pair_params(theta, q, a, b, c, d, x, mu):
    """The Askey-Wilson check's own k-sum parameters at the angles theta,
    its node pair a e^{+-i theta} one ``identities._Pair`` entry."""
    p = AWParams(q=q, a=a, b=b, c=c, d=d, x=x, mu=mu)
    return identities._aw_series(np.asarray(theta), p)


def _members(params):
    """k-sum parameters with each pair u, conj(u) as its two members."""
    return [m for v in params
            for m in ((v.u, np.conj(v.u)) if isinstance(v, identities._Pair) else (v,))]


def _reversal_ksum_params(t, q, a, b, c, d, x, mu):
    e = np.exp(np.asarray(t))
    return [q * a * b, q * a * c, q * a * d], [1j * a * q * e, -1j * a * q / e, q * a * b * c * d]


def _gaussian_ksum_params(t, q, alpha_g, a, b, c, d, x, mu):
    e = np.exp(alpha_g * np.asarray(t))
    return [a * b / q, a * c / q, a * d / q], [1j * a * e, -1j * a / e, a * b * c * d / q**3]


def _with_base(p):
    """A Gaussian-family point with its base q = exp(-2 alpha_g^2)."""
    return {**p, "q": math.exp(-2.0 * p["alpha_g"] ** 2)}


def _ksum_against_oracle(p, nodes, series=_aw_ksum_params):
    """One batched ksum call at the nodes (AW angles by default), each
    node within 1e-13 of the 60-digit oracle; ``series(nodes, **p)``
    gives the k-sum's parameters, scalars or one entry per node, pairs
    among them (the oracle takes a pair's two members).  Returns the
    values."""
    numer, denom = series(np.array(nodes), **p)
    got = ksum(p["x"], p["a"], p["mu"], numer, denom, QContext(q=p["q"]))
    want = mp_oracle.stable_ksum(p["x"], p["a"], p["mu"], p["q"], _members(numer), denom)
    for node, g, w in zip(nodes, got, want, strict=True):
        assert abs(g - w) <= 1e-13 * abs(w), node
    return got


def _uniform(rng, w):
    """a, b, c and d drawn from [-w, w], in that order."""
    return {k: rng.uniform(-w, w) for k in "abcd"}


class TestQuadratureOracle:
    """Sides of the identities against their 40-digit closed forms
    (:func:`mp_oracle.closed_side`)."""

    TOL = 2e-15

    # the draws of acceptance criteria 06, 08 and 09, in their order
    @pytest.mark.parametrize("name, seed, draw", [
        ("askey-wilson", 106, lambda rng: [
            {"q": rng.uniform(0.3, 0.7), **_uniform(rng, 0.6)} for _ in range(20)]),
        ("reversal-askey-wilson", 108, lambda rng: [
            {"q": rng.uniform(0.4, 0.6), **_uniform(rng, 0.2)} for _ in range(5)]),
        ("atakishiyev", 109, lambda rng: [{"alpha_g": 0.8}, {"alpha_g": 1.0}] + [
            {"alpha_g": [0.8, 1.0][i % 2], **_uniform(rng, 0.1)} for i in range(5)]),
    ])
    def test_draws(self, name, seed, draw):
        for p in draw(random.Random(seed)):
            exact = mp_oracle.closed_side(name, p)
            assert mp_oracle.rel_err(run_check(name, p).lhs, exact) < self.TOL, p

    @pytest.mark.parametrize("name", IDENTITY_REGISTRY)
    def test_both_sides_at_the_fixed_points(self, name):
        """Both reported sides, so that a factor common to both (such as
        ``frac_prefactor``), which the check itself cannot see, is tested."""
        report = run_check(name, FIXED_POINTS[name])
        exact = mp_oracle.closed_side(name, FIXED_POINTS[name])
        assert mp_oracle.rel_err(report.lhs, exact) < self.TOL
        assert mp_oracle.rel_err(report.rhs, exact) < self.TOL

    # the plain Askey-Wilson and reversal sides towards q = 1
    @pytest.mark.parametrize("q", [0.9, 0.95, 0.98, 0.99, 0.995])
    def test_sides_near_q_one(self, q):
        p = {"q": q, **AW_NEAR_ONE}
        aw = run_check("askey-wilson", p)
        exact = mp_oracle.closed_side("askey-wilson", p)
        assert max(mp_oracle.rel_err(aw.lhs, exact), mp_oracle.rel_err(aw.rhs, exact)) < 1e-13
        reversal = run_check("reversal-askey-wilson", p)
        exact = mp_oracle.closed_side("reversal-askey-wilson", p)
        assert mp_oracle.rel_err(reversal.rhs, exact) < 1e-13
        lhs_ok = mp_oracle.rel_err(reversal.lhs, exact) < 1e-11
        # from q = 0.98 on the reversal quadrature loses its value: never a pass
        assert lhs_ok if q <= 0.95 else lhs_ok or not reversal.passed


# the quadrature rows and the bound on the real and imaginary parts of
# their complex b, c and d
COMPLEX_DRAW_WIDTH = {
    "askey-wilson": 0.4,
    "fractional-askey-wilson": 0.1,
    "fractional-askey-wilson-3phi2": 0.1,
    "reversal-askey-wilson": 0.15,
    "fractional-reversal-askey-wilson": 0.07,
    "fractional-reversal-askey-wilson-3phi2": 0.07,
    "atakishiyev": 0.07,
    "fractional-atakishiyev": 0.03,
    "fractional-atakishiyev-3phi2": 0.03,
}


class TestComplexQuadratureParameters:
    """The quadrature rows with complex b, c, d that are not conjugate to
    each other, so that the value has an imaginary part: the real-line
    integrand has no symmetry f(-t) = conj f(t), and the Askey-Wilson
    weight takes two rows for each such parameter.  Each check passes, and
    both sides agree with 40 digits."""

    @pytest.mark.parametrize("name, width", COMPLEX_DRAW_WIDTH.items())
    def test_seeded_draws(self, name, width):
        rng = random.Random(5)
        fixed = FIXED_POINTS[name]
        drawn = "bc" if name.endswith("-3phi2") else "bcd"
        for _ in range(8):
            base = ({"alpha_g": rng.uniform(0.8, 1.0)} if "alpha_g" in fixed
                    else {"q": rng.uniform(0.4, 0.6)})
            p = {**fixed, **base, **{k: complex(rng.uniform(-width, width),
                                                rng.uniform(-width, width)) for k in drawn}}
            (oc,) = run_suite([{"identity": name, "params": p}])
            assert oc.status == "passed", (p, oc.reason or oc.report.failure)
            exact = mp_oracle.closed_side(name, p)
            assert mp_oracle.rel_err(oc.report.lhs, exact) < 5e-15, p
            assert mp_oracle.rel_err(oc.report.rhs, exact) < 5e-15, p


class TestBatchedKSum:
    def test_batched_equals_per_node_calls(self):
        ctx = QContext(q=AW_POINT["q"])
        p = AW_POINT
        theta = np.linspace(0.01, math.pi - 0.01, 33)
        numer, denom = _aw_ksum_params(theta, **p)
        batched = ksum(p["x"], p["a"], p["mu"], numer, denom, ctx)
        assert isinstance(batched, np.ndarray) and batched.shape == theta.shape
        for i, th in enumerate(theta):
            n1, d1 = _aw_ksum_params(float(th), **p)
            single = ksum(p["x"], p["a"], p["mu"], n1, d1, ctx)
            assert type(single) is complex
            assert abs(batched[i] - single) <= 1e-13 * abs(single)

    def test_complex_nodes_against_multiprecision_oracle(self):
        # the node pair as two complex parameters, and as the check hands it
        # over, one real factor: float64 values at real parameters
        nodes = [0.0, 0.01, 0.7, 1.9, 3.1, math.pi - 1e-9]
        _ksum_against_oracle(AW_POINT, nodes)
        assert _ksum_against_oracle(AW_POINT, nodes, _aw_pair_params).dtype == np.float64

    def test_complex_nodes_at_the_x_edge_against_multiprecision_oracle(self):
        # x = 0.692: the outer terms fall slowly, and near theta = pi the
        # swapped sum cancels most (sum |g_m w_m| ~ 300 |S G(1)| at 2.75);
        # 2.75 and 3.1 are the nodes of the CHANGES.md FOUND line on it
        nodes = [0.3, 1.5, 2.75, 3.1]
        _ksum_against_oracle(AW_EDGE_POINT, nodes)
        assert _ksum_against_oracle(AW_EDGE_POINT, nodes, _aw_pair_params).dtype == np.float64

    def test_unsettled_sum_raises_with_partial(self):
        # the numerator 0.5 puts the nearest pole of G at y = 2, so the terms
        # grow like (x * 0.5 / a)^k = 1.5^k; node 0 (numerator 0.1) converges
        # and the error reports the first unsettled node, node 1
        ctx = QContext(q=0.5)
        with pytest.raises(KSumDivergence) as exc:
            ksum(0.6, 0.2, 1.5, [np.array([0.1, 0.5]), 0.05], [0.25, 0.12], ctx)
        err = exc.value
        assert type(err.k) is int and 64 < err.k <= 4096
        assert err.term_magnitude > 1.0 and math.isfinite(err.term_magnitude)
        assert type(err.partial) is complex and math.isfinite(abs(err.partial))
        with pytest.raises(KSumDivergence) as single:
            ksum(0.6, 0.2, 1.5, [0.5, 0.05], [0.25, 0.12], ctx)
        assert (single.value.k, single.value.partial) == (err.k, err.partial)

    def test_divergent_sum_stops_at_its_first_non_finite_step(self, monkeypatch):
        # the k-sum of DIVERGENT_GAUSSIAN at the node 0, which its check's
        # domain rule skips: the partial sums overflow past 2455 rows; the
        # growth step there is at most 320 rows, so no row past 2455 + 320
        # is formed
        p = _with_base(DIVERGENT_GAUSSIAN)
        numer, denom = _gaussian_ksum_params(0.0, **p)
        formed = []
        taylor_rows = identities._taylor_rows

        def counting(g, start, stop, *rest):
            formed.append(stop)
            return taylor_rows(g, start, stop, *rest)

        monkeypatch.setattr(identities, "_taylor_rows", counting)
        with pytest.raises(KSumDivergence) as exc:
            ksum(p["x"], p["a"], p["mu"], numer, denom, QContext(q=p["q"]))
        assert exc.value.k == 2455 and 2455 < max(formed) <= 2455 + 320
        assert str(exc.value).startswith("outer k-sum is not finite past 2455 Taylor coefficients")
        assert str(exc.value).endswith("x*max|numerator|/a=1.33)")

    # fractional-generating points inside the ratio rule whose k-sums take
    # thousands of rows: scaled by the power of 2 nearest x/a, whose tilt
    # f = x / (a s) is 1.389 and 0.739 here, their rows leave the double
    # range ("not finite past 2158" and "past 2460 Taylor coefficients")
    @pytest.mark.parametrize("p, rows", [
        ({"q": 0.5, "a": 0.252, "x": 0.7, "mu": 1.5, "b": 0.3, "r": 0.4, "s": 1.4142,
          "t": 0.2, "u": 0.1, "z": 0.1}, 3568),
        ({"q": 0.1134, "a": 0.1286, "x": 0.3802, "mu": 0.9216, "b": -0.678, "r": -1.103,
          "s": -2.596, "t": 1.742, "u": 0.5782, "z": 2.346}, 2496)])
    def test_long_sum_keeps_its_rows_in_the_double_range(self, p, rows):
        report = run_check("fractional-generating", p)
        assert report.passed and report.rel_err < 1e-13
        assert report.rhs_diag["k_terms"] == rows
        # complex rows take the same tables, as complex
        numer = identities._generating_numerator(GeneratingParams(**p))
        denom = [p["a"] * p["b"] * p["z"], p["a"] * p["t"], p["a"] * p["r"] * p["u"]]
        ctx = QContext(q=p["q"])
        real = ksum(p["x"], p["a"], p["mu"], numer, denom, ctx)
        tilted = ksum(p["x"], p["a"], p["mu"], [numer[0] + 1e-300j, *numer[1:]], denom, ctx)
        assert abs(tilted - real) < 1e-13 * abs(real)

    @pytest.mark.parametrize("x, a, mu, q", [(0.7, 0.252, 1.5, 0.5),
                                             (0.3802, 0.1286, 0.9216, 0.1134)])
    def test_tables_keep_their_prefix_and_the_double_range(self, x, a, mu, q):
        # the two long sums above (x/a = 2.778 and 2.956): a table's rows do
        # not depend on its length, no table passes 2^501, and the weights
        # and 1 / (1 - q^m) stay above 2^-501 (s^-m and q^(m-j) fall below
        # the double range with the terms they scale)
        short = identities._tables(x, a, mu, q, 3, 1024, float)
        long = identities._tables(x, a, mu, q, 3, 4096, float)
        for head, table in zip(short, long):
            assert np.array_equal(np.broadcast_to(head, table[:1024].shape), table[:1024])
            assert np.abs(table).max() <= 2.0**501
        w, down, _, inv = long
        assert np.abs(w).min() > 2.0**-501 and np.abs(inv).min() >= 2.0**-501

    @pytest.mark.parametrize("x, a, mu", [
        (0.6, 0.0, 1.5), (0.6, -0.2, 1.5), (math.nan, 0.2, 1.5), (0.6, math.nan, 1.5),
        (0.0, 0.2, 1.5), (-0.6, 0.2, 1.5), (math.inf, 0.2, 1.5), (0.6, 5e-324, 1.5),
        (5e-324, 0.6, 1.5), (0.6, 0.2, 0.0), (0.6, 0.2, -1.0), (0.6, 0.2, math.inf),
        (0.6, 0.2, math.nan)])
    def test_outside_its_scaling_raises_a_domain_error(self, x, a, mu):
        # the rows are scaled by x/a: a zero, negative or NaN a or x, an x/a
        # or a/x past the double range, or a mu not in (0, inf) has no scale
        with pytest.raises(DomainError) as exc:
            ksum(x, a, mu, [0.1], [0.25], QContext(q=0.5))
        assert str(exc.value).endswith(f"got x={x}, a={a}, mu={mu}")

    def test_short_sum_allocates_for_its_own_rows(self):
        # 4096 rows at 129 nodes would take 8.4 MB per array
        p = AW_POINT
        numer, denom = _aw_ksum_params(np.linspace(0.0, math.pi, 129), **p)
        ctx = QContext(q=p["q"])
        ksum(p["x"], p["a"], p["mu"], numer, denom, ctx)
        tracemalloc.start()
        try:
            ksum(p["x"], p["a"], p["mu"], numer, denom, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_digits_lost_at_the_x_edge(self):
        # at theta = 2.75 sum |g_m w_m| is about 314 |sum g_m w_m|
        p = AW_EDGE_POINT
        numer, denom = _aw_ksum_params(np.array([2.75]), **p)
        diag = {}
        ksum(p["x"], p["a"], p["mu"], numer, denom, QContext(q=p["q"]), diag=diag)
        assert diag["k_digits_lost"] == pytest.approx(math.log10(314), abs=0.01)

    def test_diag_holds_the_call_alone(self):
        # the values replace what diag held; a digit count is at least 0
        p = AW_EDGE_POINT
        numer, denom = _aw_ksum_params(np.array([2.75]), **p)
        fresh, held = {}, {"k_terms": 4096, "k_digits_lost": 15.0, "g1_digits_lost": 15.0}
        for diag in (fresh, held):
            ksum(p["x"], p["a"], p["mu"], numer, denom, QContext(q=p["q"]), diag=diag)
        assert held == fresh and held["k_terms"] < 4096
        assert min(held["k_digits_lost"], held["g1_digits_lost"]) >= 0.0

    def test_distinct_q_retain_no_memory(self):
        # a table kept per q would hold ~1.6 MB for each of the 200 bases
        ksum(0.6, 0.2, 1.5, [0.1, 0.05], [0.25, 0.12], QContext(q=0.5))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q in np.linspace(0.3, 0.7, 200).tolist():
                ksum(0.6, 0.2, 1.5, [0.1, 0.05], [0.25, 0.12], QContext(q=q))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    def test_gaussian_family_divergence_is_reported(self):
        # at this point the numerator ab/q = 0.249 puts a pole of G at
        # y = 4.02, so the outer terms fall like (x * 0.249 / a)^k = 0.995^k,
        # too slowly to settle within 4096 rows
        with pytest.raises(KSumDivergence) as exc:
            run_check("fractional-atakishiyev", SLOW_KSUM_GAUSSIAN)
        err = exc.value
        assert err.k == 4096 and 0.0 < err.term_magnitude < 1.0
        # a convergent sum, told apart from a divergent one
        assert str(err).endswith(
            "x*max|numerator|/a=0.995: convergent, too slow for 4096 coefficients)")
        assert isinstance(err.partial, complex) and math.isfinite(abs(err.partial))
        entry = {"identity": "fractional-atakishiyev", "params": SLOW_KSUM_GAUSSIAN}
        (oc,) = run_suite([entry])
        assert oc.status == "diverged" and oc.reason.startswith("KSumDivergence")
        # the report keeps what is needed to re-run the entry
        assert oc.report is None and oc.params == entry["params"]


def _criterion_07_draws():
    """The ten parameter sets of acceptance criterion 07, in its order."""
    rng = random.Random(107)
    return [dict(q=rng.uniform(0.3, 0.7), a=rng.uniform(0.15, 0.3), b=rng.uniform(-0.3, 0.3),
                 c=rng.uniform(-0.3, 0.3), d=rng.uniform(-0.3, 0.3), x=rng.uniform(0.45, 0.8),
                 mu=[1.0, 1.5][i % 2]) for i in range(10)]


class TestNodePair:
    """The Askey-Wilson check hands ``ksum`` its node pair a e^{+-i theta}
    as one entry, the real quadratic factor 1 - 2 Re(s u) y + |s u|^2 y^2:
    at real parameters its rows and values are float64."""

    def test_real_parameters_give_float_values(self):
        p, ctx = AW_POINT, QContext(q=AW_POINT["q"])
        theta = np.linspace(0.0, math.pi, 129)
        got = ksum(p["x"], p["a"], p["mu"], *_aw_pair_params(theta, **p), ctx)
        assert got.dtype == np.float64
        # the pair as two complex parameters keeps complex rows
        plain = ksum(p["x"], p["a"], p["mu"], *_aw_ksum_params(theta, **p), ctx)
        assert plain.dtype == np.complex128
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()

    def test_non_real_b_keeps_complex_rows(self):
        p = {**AW_POINT, "b": 0.2 + 0.1j}
        assert _ksum_against_oracle(p, [0.01, 1.9, 3.1], _aw_pair_params).dtype == np.complex128
        name = "fractional-askey-wilson"
        report = run_check(name, p)
        assert report.passed and report.lhs.imag != 0.0
        assert mp_oracle.rel_err(report.lhs, mp_oracle.closed_side(name, p)) < 5e-15

    @pytest.mark.parametrize("name", ["askey-wilson", "fractional-askey-wilson",
                                      "fractional-askey-wilson-3phi2"])
    def test_lhs_is_real_to_the_bit(self, name):
        # the plain row's weight takes one pair-log row per conjugate pair;
        # the fractional rows add the k-sum's real node pair
        pin = {"d": 0.0} if name.endswith("-3phi2") else {}
        draws = [] if name == "askey-wilson" else _criterion_07_draws()
        for p in [FIXED_POINTS[name]] + [{**p, **pin} for p in draws]:
            report = run_check(name, p)
            assert report.passed and report.lhs.imag == 0.0, p

    def test_divergence_names_the_pair_modulus(self):
        # |u| = 0.5 gives the ratio x |u| / a = 1.5 at every node
        u = 0.5 * np.exp(1j * np.array([0.3, 1.2]))
        with pytest.raises(KSumDivergence) as exc:
            ksum(0.6, 0.2, 1.5, [identities._Pair(u)], [0.25], QContext(q=0.5))
        assert str(exc.value).endswith("x*max|numerator|/a=1.5)")


class TestRealTablesKeepNumpysBits:
    """The k-sum kernel multiplies its complex arrays by real tables kept
    as complex r + 0j (``identities._tables``): by r + 0j where the plain
    form takes the real r, and by 1/d + 0j where it divides by d.  Both
    agree bit for bit with numpy's own forms on finite arrays of wide
    magnitudes; if a numpy release rounds either otherwise, the kernel's
    values move with it."""

    @staticmethod
    def _arrays(seed):
        rng = np.random.default_rng(seed)
        shape = (97, 129)
        z = 10.0 ** rng.uniform(-100, 100, shape) * np.exp(2j * math.pi * rng.random(shape))
        real = rng.choice([-1.0, 1.0], 97) * 10.0 ** rng.uniform(-100, 100, 97)
        return z, real[:, None]

    def test_times_a_real_table(self):
        z, r = self._arrays(1)
        assert np.array_equal((z * r).view(np.uint64), (z * r.astype(complex)).view(np.uint64))

    def test_over_a_real_table(self):
        z, d = self._arrays(2)
        assert np.array_equal((z / d).view(np.uint64),
                              (z * (1.0 / d).astype(complex)).view(np.uint64))


# a fractional Gaussian point whose outer k-series truly diverges: ab/q = 0.33
# gives x * 0.33 / a = 1.33 > 1, so the check's domain rule skips it
DIVERGENT_GAUSSIAN = {"alpha_g": 1.0, "a": 0.15, "b": 0.3, "c": 0.3, "d": 0.01,
                      "x": 0.6, "mu": 1.5}
# inside the domain, at the ratio x * (ab/q) / a = 0.995, the k-sum is not
# settled at 4096 rows and the check ends diverged
SLOW_KSUM_GAUSSIAN = {"alpha_g": 1.0, "a": 0.15, "b": 0.224431, "c": 0.02, "d": 0.02,
                      "x": 0.6, "mu": 1.5}
# nearby, at b = c = d = 0.06, the series converges
FORMER_FALSE_DIVERGENCE = {**DIVERGENT_GAUSSIAN, "b": 0.06, "c": 0.06, "d": 0.06}


class TestRealLineKSumOracle:
    """The reversal and Gaussian k-sums of the fixed points, and nearer
    q = 1, against the 60-digit oracle at nodes inside the window each
    check integrates over (half-widths 5.06 and 1.5 for the reversal
    points, 17.1 and 7.6 for the Gaussian ones)."""

    REVERSAL = "fractional-reversal-askey-wilson"
    GAUSSIAN = "fractional-atakishiyev"

    def test_reversal_at_the_fixed_point(self):
        _ksum_against_oracle(FIXED_POINTS[self.REVERSAL], [0.0, 1.0, -2.5, 5.0],
                             _reversal_ksum_params)

    def test_reversal_at_q_09(self):
        _ksum_against_oracle({**FIXED_POINTS[self.REVERSAL], "q": 0.9}, [0.0, 0.7, -1.5],
                             _reversal_ksum_params)

    def test_gaussian_at_alpha_1(self):
        _ksum_against_oracle(_with_base(FIXED_POINTS[self.GAUSSIAN]), [0.0, 1.0, -2.5, 8.0],
                             _gaussian_ksum_params)

    def test_gaussian_at_alpha_023(self):
        _ksum_against_oracle(_with_base({**FIXED_POINTS[self.GAUSSIAN], "alpha_g": 0.23}),
                             [0.0, 1.0, -2.5, 4.0], _gaussian_ksum_params)


class TestOpenItemPoints:
    """Points where a rule of 20 growing outer terms used to report divergence."""

    def test_gaussian_family_at_b_c_d_006_passes(self):
        # the outer terms peak near 1e11 at k = 20 and then decay
        report = run_check("fractional-atakishiyev", FORMER_FALSE_DIVERGENCE)
        assert report.passed and report.rel_err < 1e-13

    def test_fractional_aw_at_q_09_passes(self):
        report = run_check("fractional-askey-wilson", {**AW_POINT, "q": 0.9})
        assert report.passed and report.rel_err < 1e-13

    def test_ksum_at_q_09_against_multiprecision_oracle(self):
        _ksum_against_oracle({**AW_POINT, "q": 0.9}, [0.3, 1.0, 1.6])

    def test_large_x_over_a_does_not_overflow(self):
        # c_k grows like (x/a)^k = 4.5^k and would overflow past k ~ 470,
        # before the terms, which shrink like x^k = 0.9^k, have decayed
        params = {"q": 0.5, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.1, "x": 0.9, "mu": 1.5}
        report = run_check("fractional-askey-wilson", params)
        assert report.passed and report.rel_err < 1e-13

    def test_reversal_family_at_q_098_ends_in_an_outcome(self):
        params = {"q": 0.98, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.05, "x": 0.6, "mu": 1.5}
        (oc,) = run_suite([{"identity": "fractional-reversal-askey-wilson",
                            "params": params}])
        assert oc.status in {"passed", "failed", "diverged"}


SAMPLE_GEN = dict(
    q=0.5, a=0.2, x=0.6, mu=1.5, b=0.3, s=0.25, t=0.15, u=0.1, r=0.4, z=0.2
)


class TestLemmaAndGenerating:
    def test_lemma_residual_small(self):
        report = run_check("lemma-three-term", SAMPLE_GEN)
        assert report.passed and report.rel_err < 1e-12

    def test_lemma_degenerate_s_equals_u(self):
        p = dict(
            q=0.5, a=0.2, x=0.6, mu=1.0, b=0.3, s=0.25, t=0.15, u=0.25, r=0.4, z=0.2
        )
        report = run_check("lemma-three-term", p)
        assert abs(report.lhs) < 1e-12 and abs(report.rhs) < 1e-12
        # both sides vanish; the sum of the rhs terms' magnitudes scales the residual
        assert report.rhs_diag["abs_terms"] > 0.1
        assert report.passed and report.rel_err < 1e-14

    def test_generating_sample_point(self):
        report = run_check("fractional-generating", SAMPLE_GEN)
        assert report.passed and report.rel_err < 1e-8

    @pytest.mark.parametrize("q", [0.6, 0.65, 0.7])
    def test_generating_lhs_calls_its_integrand_once_per_branch(self, monkeypatch, q):
        # the q-integral's first block holds every term its stop rule takes:
        # 74-105 terms here, where a first block of 64 took two more calls
        calls = []
        integrand = identities._generating_integrand

        def counted(y, p, ctx):
            calls.append(y.size)
            return integrand(y, p, ctx)

        monkeypatch.setattr(identities, "_generating_integrand", counted)
        assert run_check("fractional-generating", {**SAMPLE_GEN, "q": q}).passed
        assert len(calls) == 2  # a != 0: the branches at x q^n and a q^n

    def test_invalid_params_raise(self):
        p = dict(q=0.5, a=0.7, x=0.6, mu=1.5)  # a >= x
        with pytest.raises(DomainError):
            run_check("fractional-generating", p)


def _lemma_by_24_products(p):
    """lhs, rhs, abs_terms and rel_err of lemma-three-term at the mapping p,
    with each of its four ratios from two ``q_pochhammer_multi`` calls:
    24 scalar products, as the check formed them one by one."""
    a, b, r, s, t, u, z, q = (p[k] for k in "abrstuzq")
    ctx = QContext(q=q)

    def side(numer, denom):
        return (qcore.q_pochhammer_multi(numer, qcore.INFINITE, ctx)
                / qcore.q_pochhammer_multi(denom, qcore.INFINITE, ctx))

    lhs = complex((s - u) * side([a * b * z, a * t, a * r * u], [a * s, a * z, a * u]))
    terms = (
        u * r * side([a * b * z, a * t, a * r * u * q], [a * s * q, a * z, a * u * q]),
        -u * side([a * b * z, a * t, a * r * u], [a * s * q, a * z, a * u]),
        (s - u * r) * side([a * b * z, a * t, a * r * u * q], [a * s, a * z, a * u * q]),
    )
    rhs = complex(terms[0] + terms[1] + terms[2])
    abs_terms = sum(map(abs, terms))
    scale = max(abs(lhs), abs(rhs), abs_terms)
    abs_err = abs(lhs - rhs)
    return lhs, rhs, abs_terms, abs_err / scale if scale else (0.0 if abs_err == 0 else math.inf)


def _hex(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


class TestLemmaProducts:
    """The lemma forms each distinct argument's (v;q)_inf once per check,
    through the module-level name, with the values of its 24 products."""

    @pytest.mark.parametrize("change, distinct", [
        ({}, 9), ({"s": 0.2}, 7), ({"mu": 1.0, "u": 0.25}, 7), ({"s": 0.2, "u": 0.2}, 6)])
    def test_one_scalar_product_per_distinct_argument(self, monkeypatch, change, distinct):
        # at SAMPLE_GEN, abz, at, aru, aruq, as, asq, az, au and auq differ;
        # s = z joins as and az, and at q = 1/2 asq and au; s = u joins as
        # and au, asq and auq
        p = {**SAMPLE_GEN, **change}
        a, b, r, s, t, u, z, q = (p[k] for k in "abrstuzq")
        want = {a * b * z, a * t, a * r * u, a * r * u * q, a * s, a * s * q, a * z, a * u, a * u * q}
        args = []
        real = qcore.q_pochhammer_infinite

        def counted(v, ctx):
            args.append(v)
            return real(v, ctx)

        monkeypatch.setattr(identities, "q_pochhammer_infinite", counted)
        monkeypatch.setattr(qcore, "q_pochhammer_infinite", counted)
        assert run_check("lemma-three-term", p).passed
        assert len(args) == len(want) == distinct and set(args) == want

    # SAMPLE_GEN, the s = u point of test_lemma_degenerate_s_equals_u and
    # the a b z = 1 point of test_two_exact_zeros_agree
    @pytest.mark.parametrize("p", [SAMPLE_GEN, {**SAMPLE_GEN, "mu": 1.0, "u": 0.25},
                                   {**SAMPLE_GEN, "b": 25.0}])
    def test_values_equal_the_24_product_formula_bit_for_bit(self, p):
        lhs, rhs, abs_terms, rel_err = _lemma_by_24_products(p)
        report = run_check("lemma-three-term", p)
        assert _hex(report.lhs) == _hex(lhs) and _hex(report.rhs) == _hex(rhs)
        assert report.rhs_diag["abs_terms"].hex() == abs_terms.hex()
        assert report.rel_err.hex() == rel_err.hex()


class TestLemmaNearQOne:
    """lemma-three-term at q in [0.9, 0.995], s, z and u up to 0.999 / a:
    no draw is a false pass against the multiprecision oracle."""

    @settings(max_examples=25)
    @given(q=st.floats(0.9, 0.995), a=st.floats(0.05, 0.99),
           s=st.floats(-0.999, 0.999), z=st.floats(-0.999, 0.999), u=st.floats(-0.999, 0.999),
           b=st.floats(-3.0, 3.0), r=st.floats(-3.0, 3.0), t=st.floats(-3.0, 3.0))
    def test_no_false_pass_against_the_oracle(self, q, a, s, z, u, b, r, t):
        p = {**SAMPLE_GEN, "q": q, "a": a, "s": s / a, "z": z / a, "u": u / a,
             "b": b, "r": r, "t": t}
        try:
            report = run_check("lemma-three-term", p)
        except (QawError, OverflowError):
            return
        abs_terms = report.rhs_diag["abs_terms"]
        if not report.passed:
            # only a side or a term past the double range fails the check
            assert not (cmath.isfinite(report.lhs) and cmath.isfinite(report.rhs)
                        and math.isfinite(abs_terms))
            return
        exact = mp_oracle.closed_side("lemma-three-term", p)
        bound = report.tolerance * max(float(abs(exact)), abs_terms)
        assert float(abs(report.lhs - exact)) <= bound
        assert float(abs(report.rhs - exact)) <= bound


def _closed_arguments(name, p):
    """The distinct arguments of the closed side of row ``name`` at the
    mapping p, as the paper's products name them."""
    if name == "fractional-generating":
        a, b, r, s, t, u, z = (p[k] for k in "abrstuz")
        return {a * b * z, a * t, a * r * u, a * s, a * z, a * u}
    a, b, c, d = (p[k] for k in "abcd")
    if name == "askey-wilson":
        return {a * b * c * d, p["q"], a * b, a * c, a * d, b * c, b * d, c * d}
    if name == "reversal-askey-wilson":
        q = p["q"]
        return {q * a * b * c * d, q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d,
                q * c * d}
    q = AtakishiyevParams(p["alpha_g"]).q
    return {a * b * c * d / q**3, a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q}


def _ulps_apart(x, y, n):
    return all(abs(u - v) <= n * math.ulp(v) for u, v in ((x.real, y.real), (x.imag, y.imag)))


class TestClosedSides:
    """Every closed side comes from one evaluator, which forms each distinct
    argument's (v;q)_inf once per check, with the values of the products
    written out in full."""

    # the askey-wilson point has b = 0.2, so c = 0.2 joins ab and ac, bd and
    # cd; the reversal point has b = c = 2d and q = 1/2, so qab = qac,
    # qad = qbc and qbd = qcd; the atakishiyev point has a = b = c = d
    # (TestLemmaProducts counts the lemma's 9)
    @pytest.mark.parametrize("name, change, distinct", [
        ("askey-wilson", {}, 8), ("askey-wilson", {"c": 0.2}, 6),
        ("reversal-askey-wilson", {}, 5), ("reversal-askey-wilson", {"c": 0.15}, 8),
        ("atakishiyev", {}, 2),
        ("atakishiyev", {"a": 0.05, "b": 0.04, "c": 0.03, "d": 0.02}, 7),
        ("fractional-generating", {}, 6)])
    def test_one_scalar_product_per_distinct_argument(self, monkeypatch, name, change, distinct):
        p = {**FIXED_POINTS[name], **change}
        args = []
        real = qcore.q_pochhammer_infinite

        def counted(v, ctx):
            args.append(v)
            return real(v, ctx)

        monkeypatch.setattr(identities, "q_pochhammer_infinite", counted)
        assert run_check(name, p).passed
        want = _closed_arguments(name, p)
        assert len(args) == len(want) == distinct and set(args) == want

    def _products(self, args, q):
        ctx = QContext(q=q)
        return qcore.q_pochhammer_multi(args, qcore.INFINITE, ctx)

    def test_reversal_rhs_bit_for_bit(self):
        p = FIXED_POINTS["reversal-askey-wilson"]
        a, b, c, d, q = (p[k] for k in "abcdq")
        pairs = [q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d]
        want = self._products(pairs, q) / self._products([q * a * b * c * d], q) * math.log(1.0 / q)
        assert _hex(run_check("reversal-askey-wilson", p).rhs) == _hex(want)

    def test_atakishiyev_rhs_bit_for_bit(self):
        p = FIXED_POINTS["atakishiyev"]
        a, b, c, d = (p[k] for k in "abcd")
        q = AtakishiyevParams(p["alpha_g"]).q
        pairs = [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q]
        closed = self._products(pairs, q) / self._products([a * b * c * d / q**3], q)
        want = math.sqrt(math.pi) * q ** (-0.125) * closed
        assert _hex(run_check("atakishiyev", p).rhs) == _hex(want)

    def test_generating_rhs_bit_for_bit(self):
        p = FIXED_POINTS["fractional-generating"]
        a, b, r, s, t, u, z, q = (p[k] for k in "abrstuzq")
        x, mu = p["x"], p["mu"]
        ctx = QContext(q=q)
        numer, denom = [a * s, a * z, a * u], [a * b * z, a * t, a * r * u]
        pref = ((1.0 - q) ** mu * identities.frac_prefactor(x, a, mu, ctx)
                * (self._products(denom, q) / self._products(numer, q)))
        want = pref * ksum(x, a, mu, numer, denom, ctx)
        assert _hex(run_check("fractional-generating", p).rhs) == _hex(want)

    def test_askey_wilson_rhs_within_two_ulps(self):
        # the check multiplies the quotient by 2 pi, not the numerator: the last bits move
        p = FIXED_POINTS["askey-wilson"]
        a, b, c, d, q = (p[k] for k in "abcdq")
        top = 2.0 * math.pi * self._products([a * b * c * d], q)
        want = top / self._products([q, a * b, a * c, a * d, b * c, b * d, c * d], q)
        assert _ulps_apart(run_check("askey-wilson", p).rhs, want, 2)


# a lemma point inside its domain whose left ratio passes the double range
# (products near 1e118 over 1e-196), and one whose denominator product
# underflows to 0
LEMMA_PAST_RANGE = {"q": 0.99087, "a": 0.47039, "s": 1.85625, "z": 2.07294, "u": 1.93262,
                    "b": -0.81218, "r": -1.67723, "t": -1.63893, "x": 0.6, "mu": 1.0}
LEMMA_ZERO_DENOMINATOR = {"q": 0.995, "a": 0.5, "s": 1.998, "z": 1.998, "u": 1.997,
                          "b": 0.1, "r": 0.1, "t": 0.1, "x": 0.6, "mu": 1.0}
PAST_RANGE = "closed side past the double range: products "


class TestClosedSidePastTheDoubleRange:
    """A closed side whose value is not finite is an OverflowError, which
    ends diverged, not a report with NaN or infinite sides."""

    @pytest.mark.parametrize("p, products", [
        (LEMMA_PAST_RANGE, "3.76e+118 over 6.94e-196"),
        (LEMMA_ZERO_DENOMINATOR, "6.26e-23 over 0")])
    def test_run_check_raises(self, p, products):
        with pytest.raises(OverflowError) as exc:
            run_check("lemma-three-term", p)
        assert str(exc.value) == PAST_RANGE + products

    @pytest.mark.parametrize("p", [LEMMA_PAST_RANGE, LEMMA_ZERO_DENOMINATOR])
    def test_suite_entry_is_diverged(self, p):
        (oc,) = run_suite([{"identity": "lemma-three-term", "params": p}])
        assert oc.status == "diverged" and oc.details == {} and oc.report is None
        assert oc.reason.startswith("OverflowError: " + PAST_RANGE)

    def test_check_exits_2_with_nothing_on_stdout(self, capsys):
        argv = ["check", "lemma-three-term"]
        for k, v in LEMMA_PAST_RANGE.items():
            argv += [f"--{k}", str(v)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"OverflowError: {PAST_RANGE}3.76e+118 over 6.94e-196\n"


# the generating integrand at x = 1/2 reaches an exact zero factor
# 1 - v y q^k at its first point y = x: each case with its status
ZERO_FACTOR_GEN = {"q": 0.5, "a": 0.2, "x": 0.5, "mu": 1.5, "b": 0.3, "s": 0.25,
                   "t": 0.15, "z": 0.2, "r": 0.4, "u": 0.1}
AW_NEAR_ONE = {"a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4}


class TestZeroFactorsAndCap:
    """Exact zero factors and the factor cap end as the plain products did."""

    @pytest.mark.parametrize("overrides, status", [
        ({"t": 2.0}, "passed"),  # t x = 1: the numerator is 0 at y = x
        # a zero of the denominator at y = x makes the k-sum's ratio at least 1
        ({"s": 2.0}, "skipped"),  # s x = 1
        ({"z": 2.0, "b": 1.0}, "skipped"),  # b z x = z x = 1: 0 / 0
    ])
    def test_generating_zero_factor_outcome(self, overrides, status):
        params = {**ZERO_FACTOR_GEN, **overrides}
        (oc,) = run_suite([{"identity": "fractional-generating", "params": params}])
        assert oc.status == status, oc.reason
        if status == "skipped":
            assert oc.reason == "k-sum diverges: need x*max|numerator|/a < 1, got 1"

    def test_generating_integrand_at_a_zero_factor(self):
        ctx = QContext(q=0.5)
        y = np.array([0.5, 0.25])
        vanishing = GeneratingParams(**{**ZERO_FACTOR_GEN, "t": 2.0})
        value = identities._generating_integrand(y, vanishing, ctx)
        assert value[0] == 0 and value[1] != 0 and np.isfinite(value).all()
        pole = GeneratingParams(**{**ZERO_FACTOR_GEN, "s": 2.0})
        value = identities._generating_integrand(y, pole, ctx)
        assert not np.isfinite(value[0]) and np.isfinite(value[1])

    def test_askey_wilson_at_the_factor_cap_ends_fast(self):
        # at q = 0.997 the weight's (q e^{2i theta};q)_inf needs more than
        # MAX_FACTORS factors; best of 3 against a noisy host
        entry = {"identity": "askey-wilson", "params": {"q": 0.997, **AW_NEAR_ONE}}
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            (oc,) = run_suite([entry])
            times.append(time.perf_counter() - t0)
            assert oc.status == "diverged" and oc.reason.startswith("NonConvergence")
        assert min(times) < 0.1

    def test_capped_weight_reports_its_largest_argument(self):
        # the entry names the one argument whose cap error it carries, not
        # one partial per node and row
        entry = {"identity": "askey-wilson", "params": {"q": 0.997, **AW_NEAR_ONE}}
        (oc,) = run_suite([entry])
        assert oc.reason.startswith("NonConvergence: log (a;q)_inf with a=(")
        assert oc.reason.endswith(") did not converge in 10000 factors")
        assert type(oc.details["partial"]) is complex
        assert type(oc.details["last_term"]) is float
        assert len(cli._dumps(cli._outcome_obj(oc))) < 1000

    @pytest.mark.parametrize("b", [0.998, 0.998j])
    def test_capped_weight_names_its_largest_row(self, b):
        # one cap check over the pair-log rows and a non-real parameter's
        # two rows: the b rows, |b| = 0.998 > q, carry the cap error
        p = AWParams(q=0.997, a=0.3, b=b, c=0.1, d=0.2)
        with pytest.raises(NonConvergence) as exc:
            identities._aw_weight(np.linspace(0.0, math.pi, 9), p, QContext(q=p.q))
        assert exc.value.last_term / 0.997**10_000 == pytest.approx(0.998, rel=1e-12)

    def test_askey_wilson_below_the_factor_cap_passes(self):
        (oc,) = run_suite([{"identity": "askey-wilson", "params": {"q": 0.995, **AW_NEAR_ONE}}])
        assert oc.status == "passed", oc.reason

    def test_aw_weight_scratch_memory_bounded_near_q_one(self):
        # at q = 0.995 the rows' heads run to 414 factors: one (head, row,
        # node) block over 65 537 nodes would take 414 x 5 x 65 537 complex
        # entries, 2.2 GB; cut into node spans of _BLOCK_ELEMENTS entries,
        # the call keeps little more than its row arrays (5 MB each), below
        # the 38.8 MB that the per-entry blocks of qcore's array log took
        p = AWParams(q=0.995, **AW_NEAR_ONE)
        theta = np.linspace(0.0, math.pi, 65537)
        tracemalloc.start()
        try:
            identities._aw_weight(theta, p, QContext(q=p.q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000


INTEGRAND_Q = [0.3, 0.5, 0.9, 0.99]
AW_WEIGHT_PARAMS = [dict(a=0.3, b=0.2, c=0.1, d=0.4), dict(a=-0.6, b=0.5 + 0.3j, c=0.5 - 0.3j)]
GEN_INTEGRAND_PARAMS = [
    dict(a=0.2, x=0.6, mu=1.5, b=0.3, s=0.25, t=0.15, z=0.2, r=0.4, u=0.1),
    dict(a=0.2, x=0.6, mu=1.5, b=-0.9 + 0.2j, s=0.9, t=-0.8, z=0.7j, r=0.4, u=-0.9),
]
# mirrored rows only, and one non-real parameter with its two rows
REAL_LINE_PARAMS = [dict(a=0.3, b=0.2, c=-0.1, d=0.4), dict(a=0.3, b=0.1 + 0.05j, c=-0.1, d=0.4)]


class TestIntegrandsAgainstMultiprecision:
    """The weights and the generating integrand against 40 digits.

    Each value is exp of a sum of logs, so its rounding grows with the size
    of those logs: the bound is 8 eps (1 + sum |log (v;q)_inf|) over the
    rows, about 1e-15 at q = 1/2 and 1e-12 at q = 0.99.
    """

    @pytest.mark.parametrize("q", INTEGRAND_Q)
    @pytest.mark.parametrize("params", AW_WEIGHT_PARAMS)
    def test_aw_weight(self, q, params):
        p = AWParams(q=q, **params)
        theta = np.linspace(0.05, math.pi - 0.05, 7)
        got = identities._aw_weight(theta, p, QContext(q=q))
        for g, t in zip(got.tolist(), theta.tolist()):
            want, scale = mp_oracle.aw_weight(t, q, (p.a, p.b, p.c, p.d))
            assert abs(g - want) <= 8 * EPS * (1 + scale) * abs(want)

    @pytest.mark.parametrize("q", INTEGRAND_Q[:3])
    def test_aw_weight_is_real_at_real_parameters(self, q):
        # each row stands for a conjugate pair: the weight's imaginary part
        # is 0 to the bit on the first level, theta = 0 and pi included,
        # where it is h(cos 2 theta; 1) / h(cos theta; a, b, c, d) (every
        # 8th node, for the oracle's time)
        p = AWParams(q=q, **AW_WEIGHT_PARAMS[0])
        theta, _ = next(quad._levels(lambda t: t, 0.0, math.pi))
        assert theta[0] == 0.0 and theta[-1] == math.pi
        got = identities._aw_weight(theta, p, QContext(q=q))
        assert np.all(np.imag(got) == 0.0)
        assert got[0] == 0.0
        params = (p.a, p.b, p.c, p.d)
        for g, t in zip(got[8::8].tolist(), theta[8::8].tolist()):
            want = mp_oracle.h_cos(2 * t, [1], q) / mp_oracle.h_cos(t, params, q)
            _, scale = mp_oracle.aw_weight(t, q, params)
            assert abs(g - want) <= 8 * EPS * (1 + scale) * abs(want), t

    @pytest.mark.parametrize("q", INTEGRAND_Q)
    @pytest.mark.parametrize("params", REAL_LINE_PARAMS)
    def test_real_line_weights(self, q, params):
        # on the first level of a window, symmetric about 0, where a real
        # parameter's pair takes one row (every 8th node, for the oracle's
        # time)
        t, _ = next(quad._levels(lambda t: t, -6.0, 6.0))
        assert np.array_equal(t, -t[::-1])
        p = AWParams(q=q, **params)
        got = identities._reversal_weight(t, p, QContext(q=q))
        for g, x in zip(got[::8].tolist(), t[::8].tolist()):
            want, scale = mp_oracle.reversal_weight(x, q, (p.a, p.b, p.c, p.d))
            assert abs(g - want) <= 8 * EPS * (1 + scale) * abs(want), x
        p = AtakishiyevParams(alpha_g=math.sqrt(-math.log(q) / 2), **params)
        got = identities._gaussian_weight(t, p, QContext(q=p.q))
        for g, x in zip(got[::8].tolist(), t[::8].tolist()):
            want, scale = mp_oracle.gaussian_weight(x, p.alpha_g, p.q, (p.a, p.b, p.c, p.d))
            assert abs(g - want) <= 8 * EPS * (1 + scale) * abs(want), x

    @pytest.mark.parametrize("q", INTEGRAND_Q)
    @pytest.mark.parametrize("params", GEN_INTEGRAND_PARAMS)
    def test_generating_integrand(self, q, params):
        p = GeneratingParams(q=q, **params)
        y = 0.6 * q ** np.arange(0.0, 40.0, 3.0)
        got = identities._generating_integrand(y, p, QContext(q=q))
        for g, v in zip(got.tolist(), y.tolist()):
            want, scale = mp_oracle.quotient((p.b * p.z, p.t, p.r * p.u), (p.s, p.z, p.u), q, v)
            assert abs(g - want) <= 8 * EPS * (1 + scale) * abs(want)


class TestNodeIndependentOfItsCall:
    """A node alone and the same node inside a 129-node call agree within
    4 ulps: every integrand makes one per-entry log-product call, and
    adds its rows in order."""

    @pytest.mark.parametrize("q", INTEGRAND_Q)
    def test_integrands(self, q):
        ctx = QContext(q=q)
        theta = np.concatenate([np.linspace(0.0, math.pi, 65),
                                (np.arange(64) + 0.5) * (math.pi / 64)])
        t = np.linspace(-12.0, 12.0, 129)
        cases = [
            (identities._aw_weight, theta, AWParams(q=q, a=0.3, b=-0.2 + 0.1j, c=0.1, d=0.4)),
            (identities._generating_integrand, 0.6 * q ** np.arange(129.0),
             GeneratingParams(q=q, **GEN_INTEGRAND_PARAMS[0])),
            (identities._reversal_weight, t, AWParams(q=q, a=0.3, b=-0.2 + 0.1j, c=0.1, d=0.4)),
            (identities._gaussian_weight, t,
             AtakishiyevParams(alpha_g=math.sqrt(-math.log(q) / 2), a=0.3, b=0.2, c=0.1, d=0.05)),
        ]
        for f, nodes, p in cases:
            batch = f(nodes, p, ctx)
            alone = np.array([f(nodes[i : i + 1], p, ctx)[0] for i in range(nodes.size)])
            assert np.all(np.abs(batch - alone) <= 4 * np.spacing(np.abs(alone))), f.__name__


class TestAskeyWilson:
    def test_sample_point(self):
        report = run_check("askey-wilson", dict(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        assert report.passed and report.rel_err < 1e-8

    def test_permutation_invariance(self):
        r1 = run_check("askey-wilson", dict(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        r2 = run_check("askey-wilson", dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.4))
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)

    def test_magnitude_invariant_violation(self):
        with pytest.raises(DomainError):
            run_check("askey-wilson", dict(q=0.5, a=1.2))

    def test_fractional_sample_point(self):
        report = run_check(
            "fractional-askey-wilson", dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)
        )
        assert report.passed and report.rel_err < 1e-6
        # conjugate symmetry keeps the quadrature value essentially real
        assert abs(report.lhs.imag) <= 10.0 * report.lhs_diag["est_error"]


class TestRealLineFamilies:
    def test_reversal_sample_point(self):
        report = run_check("reversal-askey-wilson", dict(q=0.5, a=0.2, b=0.1, c=0.15, d=0.1))
        assert report.passed and report.rel_err < 1e-6

    def test_atakishiyev_sample_point(self):
        report = run_check("atakishiyev", dict(alpha_g=1.0, a=0.1, b=0.05, c=0.08, d=0.02))
        assert report.passed and report.rel_err < 1e-6

    def test_atakishiyev_permutation_invariance(self):
        r1 = run_check("atakishiyev", dict(alpha_g=1.0, a=0.1, b=0.05))
        r2 = run_check("atakishiyev", dict(alpha_g=1.0, a=0.05, b=0.1))
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)

    def test_atakishiyev_base_coupling(self):
        p = AtakishiyevParams(alpha_g=0.8)
        assert p.q == pytest.approx(math.exp(-2 * 0.64))


class TestWholeLevelWeights:
    @staticmethod
    def _count_log_products(monkeypatch, name, params):
        calls, levels = [], []
        log_poch, evaluate = qcore.q_pochhammer_infinite_log, quad._evaluate

        def counted_log_poch(a, ctx):
            calls.append(a)
            return log_poch(a, ctx)

        def counted_evaluate(f, nodes):
            levels.append(nodes.size)
            return evaluate(f, nodes)

        monkeypatch.setattr(qcore, "q_pochhammer_infinite_log", counted_log_poch)
        monkeypatch.setattr(quad, "_evaluate", counted_evaluate)
        assert run_check(name, params).passed
        return calls, levels

    @pytest.mark.parametrize("b, rows", [(0.1, 5), (0.1 + 0.05j, 6)])
    def test_log_products_called_per_level_not_per_node(self, monkeypatch, b, rows):
        calls, levels = self._count_log_products(
            monkeypatch, "reversal-askey-wilson", dict(q=0.5, a=0.2, b=b, c=0.15, d=0.1))
        # per window probe batch and per refinement level, each symmetric
        # about 0: one product on one row for the h_sinh pair of each real
        # parameter and for the (-q e^{+-2t};q)_inf pair, whose members sit
        # at +-t, and two rows for a non-real parameter, at every node
        assert [a.size for a in calls] == [rows * n for n in levels]
        assert all(isinstance(a, np.ndarray) for a in calls)

    @pytest.mark.parametrize("b, rows", [(0.2, 5), (0.2 + 0.1j, 6)])
    def test_aw_log_products_called_per_level_not_per_node(self, monkeypatch, b, rows):
        # the weight takes its logs once per level: one pair-log row for the
        # (q e^{+-2i theta};q)_inf pair and for the h_cos pair of each real
        # parameter, and one array-log call on the two rows of a non-real
        # one, each row over every node of the level
        lone = 2 if b.imag else 0
        pairs = rows - lone
        weights, pair_log = [], qcore._pair_log

        def counted_pair_log(pair_rows, ctx, lone_rows):
            weights.append([v.size for _, _, v in pair_rows])
            return pair_log(pair_rows, ctx, lone_rows)

        monkeypatch.setattr(identities, "_pair_log", counted_pair_log)
        calls, levels = self._count_log_products(
            monkeypatch, "askey-wilson", dict(q=0.5, a=0.3, b=b, c=0.1, d=0.4))
        assert weights == [[n] * pairs for n in levels]
        assert [a.size for a in calls] == [lone * n for n in levels if lone]
        assert all(isinstance(a, np.ndarray) for a in calls)

    @pytest.mark.parametrize("b, rows", [(-0.04, 4), (0.1 + 0.05j, 5)])
    def test_gaussian_log_products_called_per_level_not_per_node(self, monkeypatch, b, rows):
        calls, levels = self._count_log_products(
            monkeypatch, "atakishiyev", dict(alpha_g=1.0, a=0.05, b=b, c=0.03, d=0.02))
        # one row for the h_sinh pair of each real parameter, two for a
        # non-real one
        assert [a.size for a in calls] == [rows * n for n in levels]
        assert all(isinstance(a, np.ndarray) for a in calls)


# the real-line weights at real parameters and at one non-real b; each
# case's (h_sinh and denominator) pairs, and its rows on a symmetric node set
REAL_LINE_WEIGHTS = {
    "reversal": (identities._reversal_weight, lambda b: AWParams(q=0.5, a=0.2, b=b, c=-0.15, d=0.1),
                 5),
    "gaussian": (identities._gaussian_weight,
                 lambda b: AtakishiyevParams(alpha_g=1.0, a=0.05, b=b, c=-0.03, d=0.02), 4),
}


def _real_line_calls(T):
    """The node arrays of the real-line engine's calls on [-T, T]: levels 0
    and 1 in one call, level 2, and the first batch of window probes,
    [T1, -T1, T2, -T2, ...]."""
    calls = []

    def record(x):
        calls.append(x)
        return x

    levels = quad._levels(record, -T, T)
    for _ in range(3):
        next(levels)
    quad._probe(record, quad._LADDER[: quad._WINDOW_BATCH])
    return calls


class TestMirroredRows:
    """On nodes symmetric about 0 a real-line weight takes one log row per
    pair of factors whose members sit at +-t; elsewhere two.  A node's
    value is the same to the bit in a mirrored call, in an unmirrored call
    and alone."""

    @pytest.mark.parametrize("b", [0.3, 0.1 + 0.05j])
    @pytest.mark.parametrize("name", sorted(REAL_LINE_WEIGHTS))
    def test_value_is_bit_equal_in_any_call(self, monkeypatch, name, b):
        weight, params, pairs = REAL_LINE_WEIGHTS[name]
        p = params(b)
        ctx = QContext(q=p.q)
        sizes, log_poch = [], qcore.q_pochhammer_infinite_log

        def counted_log_poch(a, ctx):
            sizes.append(a.size)
            return log_poch(a, ctx)

        monkeypatch.setattr(qcore, "q_pochhammer_infinite_log", counted_log_poch)
        # a non-real b takes its two rows in every call
        mirrored_rows = pairs + (b.imag != 0)
        calls = _real_line_calls(6.0)
        assert [x.size for x in calls] == [129, 128, 16]
        for nodes in calls:
            sizes.clear()
            mirrored = weight(nodes, p, ctx)
            # without its first node the set is not symmetric
            unmirrored = weight(nodes[1:], p, ctx)
            alone = np.concatenate([weight(nodes[i : i + 1], p, ctx) for i in range(nodes.size)])
            assert sizes[:2] == [mirrored_rows * nodes.size, 2 * pairs * (nodes.size - 1)]
            assert set(sizes[2:]) == {2 * pairs}
            bits = mirrored.view(np.uint64)
            assert np.array_equal(bits[2:], unmirrored.view(np.uint64))
            assert np.array_equal(bits, alone.view(np.uint64))

    def test_mirror_of_a_node_set(self):
        t = np.array([0.5, -1.0, 0.0, 1.0, -0.5])
        assert qcore._mirror(t).tolist() == [4, 3, 2, 1, 0]
        assert qcore._mirror(np.array([2.0, -2.0, 3.0, -3.0])).tolist() == [1, 0, 3, 2]
        for t in ([0.5, -0.25], [0.0], [1.0, math.nan, -1.0]):
            assert qcore._mirror(np.array(t)) is None


class TestIntegrandCalls:
    """Integrand calls per check at the benchmark's fixed points.

    An integrand call costs about as much for 2 nodes as for 129 (one k-sum
    and its log-products per call), so the quadrature batches its nodes: the
    first two trapezoid levels come in one call and a window's probes in
    one call per batch of 8 half-widths.
    """

    @pytest.mark.parametrize("name, params, want", [
        # one call for the 129 nodes of levels 0 and 1
        ("fractional-askey-wilson",
         dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5), [129]),
        # T = 1.5^7 is in the first probe batch of 8 half-widths; then
        # levels 0 and 1
        ("fractional-atakishiyev",
         dict(alpha_g=1.0, a=0.15, b=0.02, c=0.02, d=0.02, x=0.6, mu=1.5),
         [16, 129]),
    ])
    def test_calls_at_fixed_points(self, monkeypatch, name, params, want):
        sizes, evaluate = [], quad._evaluate

        def counted_evaluate(f, x):
            sizes.append(x.size)
            return evaluate(f, x)

        monkeypatch.setattr(quad, "_evaluate", counted_evaluate)
        report = run_check(name, params)
        # the node count of each call, one entry per call
        assert report.passed and sizes == want


class TestReportSemantics:
    def test_residual_fields_consistent(self):
        r = run_check("askey-wilson", dict(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        scale = max(abs(r.lhs), abs(r.rhs))
        assert r.rel_err == pytest.approx(r.abs_err / scale)
        assert r.failure is None

    def test_tolerance_only_changes_passed(self):
        p = dict(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4)
        loose = run_check("askey-wilson", p, tol=1e-6)
        absurd = run_check("askey-wilson", p, tol=1e-30)
        assert loose.lhs == absurd.lhs and loose.rhs == absurd.rhs
        assert loose.passed and not absurd.passed

    def test_diagnostics_are_plain_python_numbers(self):
        r = run_check(
            "fractional-askey-wilson", dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)
        )
        assert type(r.lhs_diag["est_error"]) is float
        assert type(r.lhs_diag["nodes"]) is int
        assert type(r.lhs_diag["k_terms"]) is int
        assert type(r.lhs) is complex and type(r.rel_err) is float
        r = run_check("atakishiyev", dict(alpha_g=1.0, a=0.1, b=0.05))
        assert all(type(t) is float for t in r.lhs_diag["window"])
        assert type(r.lhs_diag["est_error"]) is float

    def test_a_check_computes_on_its_params_base_only(self):
        # a context argument could carry a base other than the report's q
        with pytest.raises(TypeError):
            IDENTITY_REGISTRY["askey-wilson"][1](AWParams(q=0.5, a=0.3), ctx=QContext(q=0.7))


# real-line weights past the double range at every window probe
OVERFLOWING_WEIGHT = [
    ("reversal-askey-wilson", {"q": 0.5, "a": 1e100, "b": 1e-100}),
    ("atakishiyev", {"alpha_g": 1.0, "a": 1e100, "b": 1e-100}),
]


class TestSuiteRunner:
    def test_empty_suite(self):
        assert run_suite([]) == []

    def test_three_trivial_checks(self):
        entry = {
            "identity": "askey-wilson",
            "params": {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4},
        }
        outcomes = run_suite([entry] * 3)
        assert len(outcomes) == 3
        assert all(oc.status == "passed" for oc in outcomes)

    def test_domain_violation_becomes_skipped(self):
        entry = {"identity": "askey-wilson", "params": {"q": 0.5, "a": 1.2}}
        (oc,) = run_suite([entry])
        assert oc.status == "skipped" and "1" in oc.reason

    @pytest.mark.parametrize("name", ["fractional-generating", "fractional-generating-3phi2"])
    def test_order_with_q_power_one_becomes_skipped(self, name):
        # q^mu rounds to 1, where the fractional q-integral's Gamma_q(mu) is not finite
        params = {**FIXED_POINTS[name], "mu": 1e-17}
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == "skipped" and "rounds to 1" in oc.reason and oc.params == params

    def test_unknown_identity_rejected(self):
        with pytest.raises(KeyError):
            run_check("no-such-identity", {})

    def test_unknown_identity_becomes_skipped(self):
        # expand_suite rejects it (qaw suite exits 64), run_suite reports it
        with pytest.raises(KeyError) as exc:
            identities.identity_entry("no-such-identity")
        known = {"identity": "askey-wilson", "params": FIXED_POINTS["askey-wilson"]}
        unknown, passed = run_suite([{"identity": "no-such-identity", "params": {"q": 0.5}}, known])
        assert (unknown.status, unknown.reason, unknown.params) == (
            "skipped", exc.value.args[0], {"q": 0.5})
        assert passed.status == "passed"

    @pytest.mark.parametrize("params, message", [
        ({"q": 0.5, "a": 0.3, "e": 0.5, "x": 0.6}, "PlainAWParams has no field(s) e, x"),
        ({"q": 0.5}, "PlainAWParams needs the field(s) a"),
        ({"b": 0.1}, "PlainAWParams needs the field(s) q, a"),
        ([0.5, 0.3], None),
    ], ids=["unknown", "missing", "two-missing", "not-a-mapping"])
    def test_bad_params_keys_are_a_domain_error(self, params, message):
        # never the TypeError of the params class, and skipped in a suite
        with pytest.raises(DomainError, match="^parameters of askey-wilson: ") as exc:
            run_check("askey-wilson", params)
        assert message is None or str(exc.value).endswith(message)
        (oc,) = run_suite([{"identity": "askey-wilson", "params": params}])
        assert (oc.status, oc.reason, oc.params) == ("skipped", str(exc.value), params)

    @pytest.mark.parametrize("tol", ["abc", math.inf, math.nan, -1.0])
    def test_invalid_tolerance_becomes_skipped(self, tol):
        params = {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4}
        with pytest.raises(DomainError, match="tolerance must be a finite real > 0"):
            run_check("askey-wilson", params, tol=tol)
        (oc,) = run_suite([{"identity": "askey-wilson", "params": params, "tolerance": tol}])
        assert oc.status == "skipped" and "tolerance" in oc.reason
        assert oc.params == params

    def test_vanishing_factor_passes(self, zero_factor_scale):
        # i (q b) e^{t} = 1 exactly at the first window probe t = 1, where
        # the weight is 0, as the product of its factors is
        b = -1j * zero_factor_scale
        params = {"q": 0.5, "a": 0.2, "b": b}
        weight = identities._reversal_weight(np.array([1.0, 0.5]), ReversalParams(**params),
                                             QContext(q=0.5))
        assert weight[0] == 0 and weight[1] != 0
        (oc,) = run_suite([{"identity": "reversal-askey-wilson", "params": params}])
        assert oc.status == "passed", oc.reason
        exact = mp_oracle.closed_side("reversal-askey-wilson", params)
        assert mp_oracle.rel_err(oc.report.lhs, exact) < 2e-15

    @pytest.mark.parametrize("params", [
        {"alpha_g": 11.2},
        {"alpha_g": 12.0},
        {"alpha_g": 11.2, "a": 0.1, "b": 0.1, "c": 0.1, "d": 0.1},
    ])
    def test_underflowing_gaussian_base_becomes_skipped(self, params):
        # q = exp(-2 alpha^2): q^3 underflows to 0 and |abcd/q^3| is undefined
        (oc,) = run_suite([{"identity": "atakishiyev", "params": params}])
        assert oc.status == "skipped" and "underflow" in oc.reason
        assert oc.params == params
        with pytest.raises(DomainError):
            run_check("atakishiyev", params)

    @pytest.mark.parametrize("name", [
        "atakishiyev", "fractional-atakishiyev", "fractional-atakishiyev-3phi2"])
    def test_gaussian_base_past_the_square_range_becomes_skipped(self, name):
        # alpha_g^2 is past the double range, so q = 0; Python's float power
        # raised OverflowError there and the entry ended diverged
        params = {**FIXED_POINTS[name], "alpha_g": 1e155}
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert (oc.status, oc.reason) == (
            "skipped", "q^3 = exp(-6 alpha_g^2) underflows to 0 at alpha_g=1e+155")
        with pytest.raises(DomainError, match="underflows to 0"):
            run_check(name, params)

    @pytest.mark.parametrize("name", ["atakishiyev", "fractional-atakishiyev"])
    @pytest.mark.parametrize("alpha_g", [1e-9, -1e-9])
    def test_gaussian_base_rounding_to_one_becomes_skipped(self, name, alpha_g):
        # q = exp(-2 alpha_g^2) is 1.0: the base the check would build
        # raised "q must lie in (0, 1), got 1.0", a q the params never held
        params = {**FIXED_POINTS[name], "alpha_g": alpha_g}
        reason = f"q = exp(-2 alpha_g^2) rounds to 1 at alpha_g={alpha_g}"
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert (oc.status, oc.reason, oc.params) == ("skipped", reason, params)
        with pytest.raises(DomainError, match=re.escape(reason)):
            run_check(name, params)

    @pytest.mark.parametrize("name", [
        "fractional-askey-wilson", "fractional-reversal-askey-wilson",
        "fractional-atakishiyev", "fractional-generating",
    ])
    def test_underflowing_x_to_the_mu_becomes_skipped(self, name):
        # the first three passed with lhs = rhs = 0; the generating row
        # ended in an OverflowError
        params = {**FIXED_POINTS[name], "mu": 1500.0}
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == "skipped" and oc.details is None
        assert oc.reason == "x^mu is below the smallest normal double at x=0.6, mu=1500.0"

    @pytest.mark.parametrize("name", FRACTIONAL_QUADRATURE)
    def test_small_x_to_the_mu_still_passes(self, name):
        # x^mu = 1.5e-222: the prefactor multiplies both sides after the
        # quadrature, so the integrand keeps its size and its window
        params = {**FIXED_POINTS[name], "mu": 1000.0}
        report = run_check(name, params)
        assert report.passed and report.lhs_diag["nodes"] == 129
        exact = mp_oracle.closed_side(name, params)
        assert mp_oracle.rel_err(report.lhs, exact) < 2e-15
        assert mp_oracle.rel_err(report.rhs, exact) < 2e-15

    @pytest.mark.parametrize("name", ["fractional-generating", "fractional-generating-3phi2"])
    @pytest.mark.parametrize("mu, status", [(500.0, "passed"), (600.0, "skipped"),
                                            (1000.0, "skipped")])
    def test_generating_scale_below_the_normal_doubles_is_skipped(self, name, mu, status):
        # both sides carry (1 - q)^mu x^mu = 0.3^mu: at mu = 1000 they were
        # both 0 and at mu = 600 both subnormal, and each check passed
        params = {**FIXED_POINTS[name], "mu": mu}
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == status, oc.reason
        if status == "skipped":
            assert oc.reason == ("(1-q)^mu x^mu is below the smallest normal double "
                                 f"at q=0.5, x=0.6, mu={mu}")
        else:
            assert 1e-262 < abs(oc.report.rhs) < 1e-261

    @pytest.mark.parametrize("name, params", OVERFLOWING_WEIGHT)
    def test_overflowing_weight_becomes_diverged(self, name, params):
        # inside |q abcd| < 1, the weight leaves the double range at every
        # window probe; no numpy warning escapes
        with pytest.raises(WindowFailure):
            run_check(name, params)
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == "diverged" and oc.reason.startswith("WindowFailure: ")
        assert set(oc.details) == {"probes"} and oc.params == params

    def test_divergence_carries_its_data(self):
        entry = {"identity": "fractional-atakishiyev", "params": SLOW_KSUM_GAUSSIAN}
        (oc,) = run_suite([entry])
        assert oc.status == "diverged" and set(oc.details) == {
            "k", "term_magnitude", "partial"}
        # the terms fall like 0.995^m, and at 4096 Taylor coefficients the
        # last is still near 2.6e-9 of G(1)
        assert oc.details["k"] == 4096 and type(oc.details["k"]) is int
        assert 1e-9 < oc.details["term_magnitude"] < 1e-8
        assert type(oc.details["partial"]) is complex

    @pytest.mark.parametrize("exc, details", [
        (NonConvergence("stalled", partial=np.array([1.0 + 2.0j]),
                        last_term=np.float64(0.5)),
         {"partial": [1.0 + 2.0j], "last_term": 0.5}),
        (WindowFailure("no window", probes={1.0: -3.0, 1.5: -2.0}),
         {"probes": {1.0: -3.0, 1.5: -2.0}}),
        (OverflowError("math range error"), {}),
    ])
    def test_failure_fields_become_plain_details(self, monkeypatch, exc, details):
        def failing(p, tol=None):
            raise exc

        monkeypatch.setitem(identities.IDENTITY_REGISTRY, "askey-wilson",
                            (AWParams, failing))
        (oc,) = run_suite([{"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3}}])
        assert oc.status == "diverged" and oc.details == details
        assert type(oc.details.get("last_term", 0.0)) is float

    @pytest.mark.parametrize("identity, params", [
        ("fractional-askey-wilson", {**AW_POINT}),
        ("fractional-generating", {"q": 0.5, "x": 0.6, "mu": 1.5, "b": 0.3, "s": 0.25,
                                   "t": 0.15, "z": 0.2, "r": 0.4, "u": 0.1}),
    ])
    @pytest.mark.parametrize("a, status", [
        (1e-310, "skipped"),  # x/a overflows
        (5e-324, "skipped"),
        (4e-309, "passed"),  # x/a = 1.5e308, finite
        (1e-308, "passed"),
    ])
    def test_subnormal_lower_limit_ends_in_an_outcome(self, identity, params, a, status):
        (oc,) = run_suite([{"identity": identity, "params": {**params, "a": a}}])
        assert oc.status == status, oc.reason
        if status == "skipped":
            assert "x/a" in oc.reason and oc.params["a"] == a

    def test_passed_and_skipped_entries_have_no_details(self):
        (passed, skipped) = run_suite([
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3}},
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 1.5}},
        ])
        assert passed.status == "passed" and skipped.status == "skipped"
        assert passed.details is None and skipped.details is None

    def test_pole_becomes_skipped(self, monkeypatch):
        def at_pole(p, tol=None):
            raise PoleError("q-gamma pole at x=0")

        monkeypatch.setitem(identities.IDENTITY_REGISTRY, "askey-wilson",
                            (AWParams, at_pole))
        params = {"q": 0.5, "a": 0.3}
        (oc,) = run_suite([{"identity": "askey-wilson", "params": params}])
        assert oc.status == "skipped" and "pole" in oc.reason and oc.params == params


class TestSuiteSpec:
    def test_expansion_deterministic(self):
        spec = default_suite()
        assert expand_suite(spec) == expand_suite(spec)

    def test_seed_required(self):
        with pytest.raises(ValueError):
            expand_suite({"checks": []})

    def test_unknown_identity_in_spec(self):
        with pytest.raises(KeyError):
            expand_suite({"seed": 1, "checks": [{"identity": "bogus"}]})

    def test_unknown_parameter_name_rejected(self):
        with pytest.raises(ValueError, match="e for askey-wilson"):
            expand_suite({"seed": 1, "checks": [
                {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.1, "e": 0.5}}
            ]})

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ValueError, match="missing parameter.* a for askey-wilson"):
            expand_suite({"seed": 1, "checks": [
                {"identity": "askey-wilson", "params": {"q": 0.5}}
            ]})

    @pytest.mark.parametrize("value", ["0.2", [0.1], [0.1, "0.3"], True, None, {"lo": 0.1}])
    def test_non_real_parameter_value_rejected(self, value):
        with pytest.raises(ValueError, match="parameter a of askey-wilson"):
            expand_suite({"seed": 1, "checks": [
                {"identity": "askey-wilson", "params": {"q": 0.5, "a": value}}
            ]})

    @pytest.mark.parametrize("spec, message", [
        ({"seed": 1, "sead": 5}, "unknown key(s) sead in the suite spec; known: checks, seed"),
        ({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3}, "tolerence": 1e-30},
        ]}, "unknown key(s) tolerence in checks[0]; known: draws, identity, params, tolerance"),
        ({"seed": 1, "checks": [
            {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.3}},
            {"identity": "askey-wilson", "param": {}, "draw": 2},
        ]}, "unknown key(s) draw, param in checks[1]"),
        (5, "suite spec must be a mapping, got int"),
        ([{"seed": 1}], "suite spec must be a mapping, got list"),
        ({"seed": 1, "checks": None}, "checks of a suite spec must be a list of mappings"),
        ({"seed": 1, "checks": {"identity": "askey-wilson"}}, "must be a list of mappings"),
        ({"seed": 1, "checks": [5]}, "must be a list of mappings"),
        ({"seed": 1, "checks": [{"params": {"q": 0.5}}]}, "checks[0] needs an identity name, got None"),
        ({"seed": 1, "checks": [{"identity": ["askey-wilson"]}]}, "checks[0] needs an identity name"),
        ({"seed": 1, "checks": [{"identity": "askey-wilson", "params": [0.5, 0.3]}]},
         "params of askey-wilson must be a mapping, got list"),
    ])
    def test_malformed_spec_rejected_by_name(self, spec, message):
        with pytest.raises(ValueError) as exc:
            expand_suite(spec)
        assert message in str(exc.value)

    def test_draw_count_validated(self):
        with pytest.raises(ValueError):
            expand_suite(
                {"seed": 1, "checks": [{"identity": "askey-wilson", "draws": 0}]}
            )

    @pytest.mark.parametrize("key, value", [
        ("draws", 0), ("draws", 2.7), ("draws", 2.0), ("draws", True), ("draws", "2"),
        ("tolerance", "abc"), ("tolerance", True), ("tolerance", 0.0), ("tolerance", -1e-8),
        ("tolerance", math.inf), ("tolerance", math.nan), ("tolerance", None),
    ])
    def test_draws_and_tolerance_validated(self, key, value):
        check = {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.1}, key: value}
        with pytest.raises(ValueError, match=f"{key} of askey-wilson must be"):
            expand_suite({"seed": 1, "checks": [check]})

    def test_integer_tolerance_accepted(self):
        check = {"identity": "askey-wilson", "params": {"q": 0.5, "a": 0.1}, "tolerance": 1}
        (entry,) = expand_suite({"seed": 1, "checks": [check]})
        assert entry["tolerance"] == 1

    def test_range_draws_inside_bounds(self):
        spec = {
            "seed": 5,
            "checks": [
                {
                    "identity": "askey-wilson",
                    "params": {"q": [0.3, 0.7], "a": 0.1},
                    "draws": 4,
                }
            ],
        }
        entries = expand_suite(spec)
        assert len(entries) == 4
        for e in entries:
            assert 0.3 <= e["params"]["q"] <= 0.7 and e["params"]["a"] == 0.1


# the fixed points of the benchmark workloads (benchmarks/workloads.py)
_G = {"q": 0.5, "a": 0.2, "x": 0.6, "mu": 1.5, "b": 0.3, "s": 0.25, "t": 0.15, "z": 0.2}
FIXED_POINTS = {
    "lemma-three-term": {**_G, "r": 0.4, "u": 0.1},
    "fractional-generating": {**_G, "r": 0.4, "u": 0.1},
    "fractional-generating-3phi2": _G,
    "askey-wilson": {"q": 0.5, "a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4},
    "fractional-askey-wilson":
        {"q": 0.5, "a": 0.2, "b": 0.3, "c": 0.1, "d": 0.15, "x": 0.6, "mu": 1.5},
    "fractional-askey-wilson-3phi2":
        {"q": 0.5, "a": 0.2, "b": 0.3, "c": 0.1, "x": 0.6, "mu": 1.5},
    "reversal-askey-wilson": {"q": 0.5, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.05},
    "fractional-reversal-askey-wilson":
        {"q": 0.5, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.05, "x": 0.6, "mu": 1.5},
    "fractional-reversal-askey-wilson-3phi2":
        {"q": 0.5, "a": 0.2, "b": 0.1, "c": 0.1, "x": 0.6, "mu": 1.5},
    "atakishiyev": {"alpha_g": 1.0, "a": 0.05, "b": 0.05, "c": 0.05, "d": 0.05},
    "fractional-atakishiyev":
        {"alpha_g": 1.0, "a": 0.15, "b": 0.02, "c": 0.02, "d": 0.02, "x": 0.6, "mu": 1.5},
    "fractional-atakishiyev-3phi2":
        {"alpha_g": 1.0, "a": 0.15, "b": 0.05, "c": 0.05, "x": 0.6, "mu": 1.5},
}

# the rows (k_terms, in steps of 16 from 32) and digits lost (k_digits_lost)
# of the k-sums at each fractional fixed point, over the integrated nodes: a
# reversal check's window probe at 1.5^7 takes 48 rows, its window of
# half-width 1.5^4 32
K_SUM_DIAG = {
    "fractional-generating": (32, 0.0),
    "fractional-generating-3phi2": (32, 0.0),
    "fractional-askey-wilson": (96, 2.50),
    "fractional-askey-wilson-3phi2": (96, 2.37),
    "fractional-reversal-askey-wilson": (32, 0.71),
    "fractional-reversal-askey-wilson-3phi2": (32, 0.72),
    "fractional-atakishiyev": (48, 0.19),
    "fractional-atakishiyev-3phi2": (48, 0.14),
}

# the digits the division by G(1) can cost (g1_digits_lost) in the k-sums
# at each fractional fixed point
G1_DIGITS = {
    "fractional-generating": 0.0,
    "fractional-generating-3phi2": 0.0,
    "fractional-askey-wilson": 0.89,
    "fractional-askey-wilson-3phi2": 0.84,
    "fractional-reversal-askey-wilson": 0.72,
    "fractional-reversal-askey-wilson-3phi2": 0.73,
    "fractional-atakishiyev": 0.24,
    "fractional-atakishiyev-3phi2": 0.23,
}

# the only params fields that change neither side of their check, each with
# its reason
_LEMMA_XMU = ("the lemma reads no x or mu; the benchmark's fixed-point line "
              "passes --x 0.6 --mu 1.5")
INERT_FIELDS = {
    ("lemma-three-term", "x"): _LEMMA_XMU,
    ("lemma-three-term", "mu"): _LEMMA_XMU,
}

# each -3phi2 form with a pinned d, at a nonzero d (the generating 3phi2
# row takes no u, so a u is a DomainError: test_generating_3phi2_takes_no_r_or_u)
NONZERO_DROPPED = {
    "fractional-askey-wilson-3phi2":
        {"q": 0.5, "a": 0.2, "b": 0.3, "c": 0.1, "d": 0.15, "x": 0.6, "mu": 1.5},
    "fractional-reversal-askey-wilson-3phi2":
        {"q": 0.5, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.05, "x": 0.6, "mu": 1.5},
    "fractional-atakishiyev-3phi2":
        {"alpha_g": 1.0, "a": 0.15, "b": 0.05, "c": 0.05, "d": 0.02, "x": 0.6, "mu": 1.5},
}

# points past the fixed points that each check passes, with the window
# half-width of a real-line check.  1.5^7 is the last half-width of the
# first window probe batch, so a batching change that moves T fails here.
# At q = 0.9 and alpha_g = 0.23 (q about 0.9) the reversal and Gaussian
# weights take hundreds of head factors per entry, and at q = 0.99 every
# Askey-Wilson and generating node thousands.
PASSING_POINTS = [
    ("fractional-atakishiyev", FIXED_POINTS["fractional-atakishiyev"], 1.5**7),
    ("reversal-askey-wilson", {"q": 0.9, **AW_NEAR_ONE}, 1.5),
    ("atakishiyev", {**FIXED_POINTS["atakishiyev"], "alpha_g": 0.23}, 1.5**5),
    ("askey-wilson", {"q": 0.99, **AW_NEAR_ONE}, None),
    ("fractional-generating", {**FIXED_POINTS["fractional-generating"], "q": 0.99}, None),
]


class TestCheckTable:
    def test_fixed_points_cover_the_registry(self):
        assert set(FIXED_POINTS) == set(identities.IDENTITY_REGISTRY)

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    def test_report_params_rerun_the_check(self, name):
        report = run_check(name, FIXED_POINTS[name])
        again = run_check(name, report.params)
        assert again.params == report.params
        assert again.lhs == report.lhs and again.rhs == report.rhs

    @pytest.mark.parametrize("name, fields", [
        ("askey-wilson", ["q", "a", "b", "c", "d"]),
        ("reversal-askey-wilson", ["q", "a", "b", "c", "d"]),
        ("atakishiyev", ["alpha_g", "a", "b", "c", "d"]),
    ])
    def test_plain_rows_take_no_x_or_mu(self, name, fields):
        assert list(run_check(name, FIXED_POINTS[name]).params) == fields
        with pytest.raises(DomainError, match="has no field\\(s\\) x$"):
            run_check(name, {**FIXED_POINTS[name], "x": 0.6})

    @pytest.mark.parametrize("field", ["r", "u"])
    def test_generating_3phi2_takes_no_r_or_u(self, field):
        name = "fractional-generating-3phi2"
        report = run_check(name, FIXED_POINTS[name])
        assert list(report.params) == ["q", "a", "x", "mu", "b", "s", "t", "z"]
        with pytest.raises(DomainError, match=f"has no field\\(s\\) {field}$"):
            run_check(name, {**FIXED_POINTS[name], field: 0.0})

    @pytest.mark.parametrize("r", [0.0, 0.4, -7.0])
    def test_generating_3phi2_is_the_generating_row_at_u_zero(self, r):
        # r enters the generating row only through r u, so at u = 0 the two
        # rows compute the same bits
        rng = random.Random(33)
        for _ in range(10):
            p = {"q": rng.uniform(0.3, 0.7), "a": rng.uniform(0.15, 0.25),
                 "x": rng.uniform(0.5, 0.7), "mu": rng.uniform(0.5, 2.5),
                 **{k: rng.uniform(-0.3, 0.3) for k in "bstz"}}
            reduced = run_check("fractional-generating-3phi2", p)
            full = run_check("fractional-generating", {**p, "r": r, "u": 0.0})
            assert (reduced.lhs, reduced.rhs) == (full.lhs, full.rhs)
            assert (reduced.lhs_diag, reduced.rhs_diag) == (full.lhs_diag, full.rhs_diag)

    @pytest.mark.parametrize("name, field", [
        (name, f.name) for name in sorted(FIXED_POINTS)
        for f in IDENTITY_REGISTRY[name][0].fields
    ])
    def test_every_field_changes_its_check(self, name, field):
        # a field moved by 0.01 inside the domain changes a side, or it is
        # a -3phi2 form's pinned field, whose rule names it
        cls = IDENTITY_REGISTRY[name][0]
        base = run_check(name, FIXED_POINTS[name])
        value = getattr(cls(**FIXED_POINTS[name]), field) + 0.01
        try:
            moved = run_check(name, {**FIXED_POINTS[name], field: value})
        except DomainError as exc:
            assert str(exc) == f"{name} needs {field} = 0, got {field}={value}"
            return
        changed = (moved.lhs, moved.rhs) != (base.lhs, base.rhs)
        assert changed != ((name, field) in INERT_FIELDS)

    def test_derived_base_is_a_diagnostic(self):
        report = run_check("atakishiyev", FIXED_POINTS["atakishiyev"])
        assert "q" not in report.params
        assert report.rhs_diag["q"] == AtakishiyevParams(alpha_g=1.0).q

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    def test_no_check_forms_a_plain_array_product(self, monkeypatch, name):
        # every integrand takes the per-entry log products; the plain array
        # product gives each entry the factor count of the largest |a|
        def refuse(a, ctx):
            raise AssertionError("plain array product")

        monkeypatch.setattr(qcore, "_array_product", refuse)
        assert run_check(name, FIXED_POINTS[name]).passed

    @pytest.mark.parametrize("name", sorted(K_SUM_DIAG))
    def test_k_sum_takes_the_rows_its_tail_rule_needs(self, name):
        report = run_check(name, FIXED_POINTS[name])
        diag = report.rhs_diag if "generating" in name else report.lhs_diag
        rows, digits = K_SUM_DIAG[name]
        assert diag["k_terms"] == rows and type(diag["k_terms"]) is int
        assert type(diag["k_digits_lost"]) is float
        assert diag["k_digits_lost"] == pytest.approx(digits, abs=0.05)

    @pytest.mark.parametrize("name", sorted(G1_DIGITS))
    def test_g1_digits_lost_at_the_fixed_points(self, name):
        report = run_check(name, FIXED_POINTS[name])
        diag = report.rhs_diag if "generating" in name else report.lhs_diag
        assert type(diag["g1_digits_lost"]) is float
        assert diag["g1_digits_lost"] == pytest.approx(G1_DIGITS[name], abs=0.05)

    def test_g1_digits_lost_reports_a_cancelling_g1(self):
        # a b z = q^-1 at b = 50: (a b z y;q)_inf, so G, vanishes at y = 1.
        # Near it the division by G(1) costs 10 digits, which k_digits_lost
        # does not see, and the check fails by rounding noise that those
        # digits explain: its rel_err is within 10^g1_digits_lost eps
        near = {**FIXED_POINTS["fractional-generating"], "b": 50.0000001}
        report = run_check("fractional-generating", near)
        assert not report.passed and report.rel_err > report.tolerance
        assert report.rel_err <= 10 ** report.rhs_diag["g1_digits_lost"] * EPS
        assert report.rhs_diag["k_digits_lost"] == pytest.approx(2.36, abs=0.05)
        assert report.rhs_diag["g1_digits_lost"] == pytest.approx(10.27, abs=0.05)
        # at b = 50 G(1) is 0: the check is a domain error, and the k-sum
        # of its rhs reports every digit lost
        p = GeneratingParams(**{**near, "b": 50.0})
        with pytest.raises(DomainError, match=r"a\*b\*z=2 = q\^-1"):
            run_check("fractional-generating", vars(p))
        diag = {}
        ksum(p.x, p.a, p.mu, [p.a * p.s, p.a * p.z, p.a * p.u],
             [p.a * p.b * p.z, p.a * p.t, p.a * p.r * p.u], QContext(p.q), diag=diag)
        assert diag["g1_digits_lost"] == identities._ALL_DIGITS

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    def test_fractional_prefactor_is_formed_once_a_check(self, monkeypatch, name):
        # both sides of a fractional check take the one prefactor; the
        # k-sums and the plain checks take none
        calls = []
        prefactor = identities.frac_prefactor

        def counting(*args):
            calls.append(args)
            return prefactor(*args)

        monkeypatch.setattr(identities, "frac_prefactor", counting)
        assert run_check(name, FIXED_POINTS[name]).passed
        assert len(calls) == (1 if name.startswith("fractional-") else 0)

    @pytest.mark.parametrize("name, params, half_width", PASSING_POINTS)
    def test_point_passes_with_its_window(self, name, params, half_width):
        report = run_check(name, params)
        assert report.passed, report.failure
        window = None if half_width is None else [-half_width, half_width]
        assert report.lhs_diag.get("window") == window

    @pytest.mark.parametrize("name", sorted(NONZERO_DROPPED))
    def test_nonzero_dropped_parameter_is_a_domain_error(self, name):
        params = NONZERO_DROPPED[name]
        cls, check = identities.IDENTITY_REGISTRY[name]
        with pytest.raises(DomainError, match="= 0"):
            check(cls(**params))
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == "skipped" and oc.params == params
        assert oc.report is None


# Points that break one domain rule, as overrides of a fixed point, with the
# rule's message.  Each message and its order are those of the rules before
# they moved into the table rows.
_Q = ({"q": 1.5}, "q must lie in (0,1), got 1.5")
_FRACTIONAL = [
    ({"a": 0.7}, "need 0 < a < x < 1, got a=0.7, x=0.6"),
    ({"a": 1e-310}, "need x/a finite, got a=1e-310, x=0.6"),
    ({"mu": 0.0}, "mu must be positive, got 0.0"),
    # 0.6^1500 underflows to 0: both sides were 0 and the check passed
    ({"mu": 1500.0}, "x^mu is below the smallest normal double at x=0.6, mu=1500.0"),
]
_RATIO = "k-sum diverges: need x*max|numerator|/a < 1, got 1.1"
# both generating sides carry (1 - q)^mu x^mu = 0.3^1000, which underflows to 0
_GENERATING_SCALE = ({"mu": 1000.0}, "(1-q)^mu x^mu is below the smallest normal "
                                      "double at q=0.5, x=0.6, mu=1000.0")
_GENERATING = ({"t": 6.0}, "need max(|at|,|az|,|aru|) < 1, got 1.2")
# a b z = 2 = q^-1, where G(1) = 0 (test_g1_digits_lost_reports_a_cancelling_g1)
_REMOVABLE = ({"b": 50.0}, "need a*b*z != q^-k, got a*b*z=2 = q^-1")
_AW = ({"b": 1.5}, "need max(|a|,|b|,|c|,|d|) < 1, got 1.5")
_BIG_BCD = {"b": 5.0, "c": 5.0, "d": 5.0}
_REVERSAL = (_BIG_BCD, "need |qabcd| < 1, got 12.5")
_GAUSSIAN_BASE = [
    ({"alpha_g": 0.0}, "alpha_g must be nonzero"),
    ({"alpha_g": 12.0}, "q^3 = exp(-6 alpha_g^2) underflows to 0 at alpha_g=12.0"),
]
RULE_BREAKS = {
    "lemma-three-term": [_Q, ({"s": 6.0}, "need max(|as|,|az|,|au|) < 1, got 1.2")],
    "fractional-generating": [_Q, *_FRACTIONAL, _GENERATING_SCALE, ({"s": 1.833}, _RATIO),
                              _GENERATING, _REMOVABLE],
    "fractional-generating-3phi2":
        [_Q, *_FRACTIONAL, _GENERATING_SCALE, ({"s": 1.833}, _RATIO), _GENERATING, _REMOVABLE],
    "askey-wilson": [_Q, _AW],
    "fractional-askey-wilson": [_Q, _AW, *_FRACTIONAL],
    "fractional-askey-wilson-3phi2": [
        _Q, _AW, *_FRACTIONAL,
        ({"d": 0.15}, "fractional-askey-wilson-3phi2 needs d = 0, got d=0.15"),
    ],
    "reversal-askey-wilson": [_Q, _REVERSAL],
    "fractional-reversal-askey-wilson": [_Q, _REVERSAL, *_FRACTIONAL, ({"b": 3.667}, _RATIO)],
    # |qabcd| >= 1 needs d != 0, which the pin forbids: see SEVERAL_BREAKS
    "fractional-reversal-askey-wilson-3phi2": [
        _Q, *_FRACTIONAL, ({"b": 3.667}, _RATIO),
        ({"d": 0.15}, "fractional-reversal-askey-wilson-3phi2 needs d = 0, got d=0.15"),
    ],
    "atakishiyev": [*_GAUSSIAN_BASE, (_BIG_BCD, "need |abcd/q^3| < 1, got 2.52e+03")],
    "fractional-atakishiyev": [
        *_GAUSSIAN_BASE, (_BIG_BCD, "need |abcd/q^3| < 1, got 7.56e+03"), *_FRACTIONAL,
        ({"b": 0.248}, _RATIO),
        # DIVERGENT_GAUSSIAN, which ran 2458 rows before its partial sums overflowed
        ({"b": 0.3, "c": 0.3, "d": 0.01},
         "k-sum diverges: need x*max|numerator|/a < 1, got 1.33"),
    ],
    "fractional-atakishiyev-3phi2": [
        *_GAUSSIAN_BASE, *_FRACTIONAL, ({"b": 0.248}, _RATIO),
        ({"d": 0.15}, "fractional-atakishiyev-3phi2 needs d = 0, got d=0.15"),
    ],
}

# One point breaking several rules of each identity: these overrides, less
# the fields the identity does not take, and the joined messages.
_SEVERAL = {"q": 1.5, "mu": 0.0, "b": 5.0, "c": 5.0, "d": 5.0, "s": 6.0, "t": 6.0,
            "u": 0.1}
_Q_MSG, _MU_MSG = "q must lie in (0,1), got 1.5", "mu must be positive, got 0.0"
_AW_MSG = "need max(|a|,|b|,|c|,|d|) < 1, got 5"
_REV_MSG = "need |qabcd| < 1, got 37.5"
SEVERAL_BREAKS = {
    "lemma-three-term": [_Q_MSG, "need max(|as|,|az|,|au|) < 1, got 1.2"],
    "fractional-generating": [_Q_MSG, _MU_MSG, _GENERATING[1]],
    "fractional-generating-3phi2": [_Q_MSG, _MU_MSG, _GENERATING[1]],
    "askey-wilson": [_Q_MSG, _AW_MSG],
    "fractional-askey-wilson": [_Q_MSG, _AW_MSG, _MU_MSG],
    "fractional-askey-wilson-3phi2":
        [_Q_MSG, _AW_MSG, _MU_MSG, "fractional-askey-wilson-3phi2 needs d = 0, got d=5.0"],
    "reversal-askey-wilson": [_Q_MSG, _REV_MSG],
    "fractional-reversal-askey-wilson": [_Q_MSG, _REV_MSG, _MU_MSG],
    "fractional-reversal-askey-wilson-3phi2": [
        _Q_MSG, _REV_MSG, _MU_MSG,
        "fractional-reversal-askey-wilson-3phi2 needs d = 0, got d=5.0",
    ],
    "atakishiyev": ["need |abcd/q^3| < 1, got 2.52e+03"],
    "fractional-atakishiyev": ["need |abcd/q^3| < 1, got 7.56e+03", _MU_MSG],
    "fractional-atakishiyev-3phi2": [
        "need |abcd/q^3| < 1, got 7.56e+03", _MU_MSG,
        "fractional-atakishiyev-3phi2 needs d = 0, got d=5.0",
    ],
}


# a complex whose modulus, about 2.1e308, is past the double range
_HUGE = 1.5e308 + 1.5e308j


def _domain_message(name, overrides):
    cls, check = identities.IDENTITY_REGISTRY[name]
    fields = {f.name for f in cls.fields}
    params = {**FIXED_POINTS[name], **{k: v for k, v in overrides.items() if k in fields}}
    with pytest.raises(DomainError) as exc:
        check(cls(**params))
    return str(exc.value)


class TestDomainRules:
    def test_every_identity_has_cases(self):
        assert set(RULE_BREAKS) == set(SEVERAL_BREAKS) == set(identities.IDENTITY_REGISTRY)

    @pytest.mark.parametrize("name, overrides, message", [
        (name, overrides, message)
        for name, cases in RULE_BREAKS.items() for overrides, message in cases
    ])
    def test_one_broken_rule(self, name, overrides, message):
        assert _domain_message(name, overrides) == message

    @pytest.mark.parametrize("name", sorted(SEVERAL_BREAKS))
    def test_several_broken_rules_in_row_order(self, name):
        assert _domain_message(name, _SEVERAL) == "; ".join(SEVERAL_BREAKS[name])

    def test_nan_bound_is_a_violation(self):
        # |qabcd| is about 5e497, but the complex product is NaN (inf * 0),
        # which used to pass the rule and end diverged
        params = {"q": 0.1, "a": -1e300, "b": 1e200j, "c": 0.3 + 0.4j, "d": 0.1}
        with pytest.raises(DomainError, match=r"^need \|qabcd\| < 1, got nan$"):
            run_check("reversal-askey-wilson", params)
        (oc,) = run_suite([{"identity": "reversal-askey-wilson", "params": params}])
        assert oc.status == "skipped"

    @pytest.mark.parametrize("name, overrides, message", [
        ("lemma-three-term", {"a": 1.0, "s": _HUGE}, "need max(|as|,|az|,|au|) < 1, got inf"),
        ("fractional-generating", {"a": 1.0, "t": _HUGE},
         "need 0 < a < x < 1, got a=1.0, x=0.6; need max(|at|,|az|,|aru|) < 1, got inf"),
        ("askey-wilson", {"b": _HUGE}, "need max(|a|,|b|,|c|,|d|) < 1, got inf"),
        ("reversal-askey-wilson", {"a": 3e154, "b": 1e154 + 1e154j, "c": 1.0, "d": 1.0},
         "need |qabcd| < 1, got inf"),
        ("atakishiyev", {"a": 1.0, "b": 4e305 + 4e305j, "c": 1.0, "d": 1.0},
         "need |abcd/q^3| < 1, got inf"),
        ("fractional-atakishiyev", {"b": _HUGE, "c": 0.0, "d": 0.0},
         "k-sum diverges: need x*max|numerator|/a < 1, got inf"),
    ])
    def test_modulus_past_the_double_range_is_inf(self, name, overrides, message):
        # both parts are finite, so abs() of the complex would raise
        assert _domain_message(name, overrides) == message

    def test_reversal_params_are_the_askey_wilson_params(self):
        assert ReversalParams is AWParams
        assert not hasattr(AWParams, "violations")

    # a parameter of each row's k-sum numerator at the ratio 0.90 and 1.10
    @pytest.mark.parametrize("name, field, inside, outside", [
        ("fractional-atakishiyev", "b", 0.203, 0.248),
        ("fractional-reversal-askey-wilson", "b", 3.0, 3.667),
        ("fractional-generating", "s", 1.5, 1.833),
    ])
    def test_k_sum_ratio_on_each_side_of_one(self, name, field, inside, outside):
        # at 1.10 each check ended diverged, the Gaussian one at 4096 rows
        below, above = run_suite([{"identity": name, "params": {**FIXED_POINTS[name], field: v}}
                                  for v in (inside, outside)])
        assert below.status == "passed", below.reason or below.report.failure
        assert above.status == "skipped" and above.reason == _RATIO


# points near q = 1 whose sides lie far below 1e-12 and whose trapezoid
# sums cancel: an absolute tolerance would pass all four
NEAR_ONE_REVERSAL = [
    ("reversal-askey-wilson", {"q": q, "a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4})
    for q in (0.98, 0.99, 0.995)
] + [("fractional-reversal-askey-wilson",
      {"q": 0.99, "a": 0.2, "b": 0.1, "c": 0.1, "d": 0.05, "x": 0.6, "mu": 1.5})]
# fractional-atakishiyev at q about 0.99: every level moves by about the
# rounding floor of its sum, 5e-6 of the value
SLOW_GAUSSIAN = {"alpha_g": 0.0709, "a": 0.15, "b": 0.05, "c": 0.05, "d": 0.05,
                 "x": 0.6, "mu": 1.5}


def _scaled_closed_side(monkeypatch, name, factor):
    row = identities._TABLE[name]

    def sides(p, ctx):
        lhs, rhs, lhs_diag, rhs_diag = row.sides(p, ctx)
        return lhs, factor * rhs, lhs_diag, rhs_diag

    monkeypatch.setitem(identities._TABLE, name, row._replace(sides=sides))


class TestPassRule:
    """A check passes only when rel_err <= tol and est_error <= tol |rhs|."""

    @pytest.mark.parametrize("name, params", NEAR_ONE_REVERSAL)
    def test_tiny_values_near_q_one_fail(self, name, params):
        (oc,) = run_suite([{"identity": name, "params": params}])
        assert oc.status == "failed"
        assert "rel_err" in oc.report.failure and "est_error" in oc.report.failure

    @pytest.mark.parametrize("name", ["askey-wilson", "reversal-askey-wilson"])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.98, 0.99])
    def test_closed_side_scaled_by_1000_fails(self, monkeypatch, name, q):
        params = {**FIXED_POINTS[name], "q": q}
        _scaled_closed_side(monkeypatch, name, 1000.0)
        report = run_check(name, params)
        assert not report.passed and report.rel_err > 0.99
        assert report.failure.startswith("rel_err")

    def test_failure_names_each_bound_broken(self):
        # the fixed point at q = 0.4, where the sides differ (at q = 0.5
        # they agree to the bit)
        params = {**FIXED_POINTS["askey-wilson"], "q": 0.4}
        report = run_check("askey-wilson", params)
        est = report.lhs_diag["est_error"] / abs(report.rhs)
        assert report.passed and 0 < report.rel_err < est
        between = run_check("askey-wilson", params, tol=math.sqrt(report.rel_err * est))
        assert not between.passed and between.failure.startswith("est_error")
        below = run_check("askey-wilson", params, tol=report.rel_err / 2)
        assert below.failure.startswith("rel_err") and "; est_error" in below.failure

    def test_floor_limited_quadrature_ends_within_seconds(self):
        # no level can move by under 1e-10 of the value, so only the floor
        # accepts one; the pass rule then judges that floor as est_error
        t0 = time.perf_counter()
        report = run_check("fractional-atakishiyev", SLOW_GAUSSIAN)
        assert time.perf_counter() - t0 < 5.0
        est = report.lhs_diag["est_error"]
        assert est > 1e-10 * abs(report.lhs)
        tol = report.tolerance
        assert report.passed == (report.rel_err <= tol and est <= tol * abs(report.rhs))

    def test_two_exact_zeros_agree(self):
        # a b z = 1: every product of the lemma has the factor 1 - abz = 0
        report = run_check("lemma-three-term", {**FIXED_POINTS["lemma-three-term"], "b": 25.0})
        assert report.lhs == report.rhs == 0 and report.rhs_diag["abs_terms"] == 0
        assert report.passed and report.rel_err == 0.0

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_a_domain_error(self, name, value):
        cls, check = identities.IDENTITY_REGISTRY[name]
        for f in cls.fields:
            params = {**FIXED_POINTS[name], f.name: value}
            with pytest.raises(DomainError, match=f"must be finite, got {f.name}="):
                check(cls(**params))
        (oc,) = run_suite([{"identity": name, "params": {**FIXED_POINTS[name], "a": value}}])
        assert oc.status == "skipped" and "finite" in oc.reason

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    @pytest.mark.parametrize("value, shown", [
        (10**400, "1.000e+400"), (-(10**400), "-1.000e+400"), (10**5000, "1.000e+5000"),
    ], ids=["10**400", "-10**400", "10**5000"])
    def test_int_past_the_double_range_is_a_domain_error(self, name, value, shown):
        # cmath.isfinite raises OverflowError for such an int, which a suite
        # reported as diverged; in a float field and in a complex one it is
        # no finite parameter.  The message names it in a few digits: str()
        # of an int past 4300 digits raises ValueError
        cls, _ = identities.IDENTITY_REGISTRY[name]
        for f in cls.fields:
            params = {**FIXED_POINTS[name], f.name: value}
            message = f"parameters must be finite, got {f.name}={shown}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                run_check(name, params)
            (oc,) = run_suite([{"identity": name, "params": params}])
            assert (oc.status, oc.reason, oc.params) == ("skipped", message, params)

    @pytest.mark.parametrize("name", sorted(FIXED_POINTS))
    def test_wrongly_typed_parameter_is_a_domain_error(self, name):
        # a complex value in a float field, and a value that is no number
        # in any field, ends as a DomainError naming the field, never as a
        # TypeError of the sides or the rules
        cls, check = identities.IDENTITY_REGISTRY[name]
        for f in cls.fields:
            real = f.type == "float"
            for value in ["0.5", None, True, *([0.5 + 0.1j, np.complex128(0.5)] if real else [])]:
                params = {**FIXED_POINTS[name], f.name: value}
                kind = "real number" if real else "number"
                with pytest.raises(DomainError, match=f"^{f.name} must be a {kind}, got "):
                    check(cls(**params))
                (oc,) = run_suite([{"identity": name, "params": params}])
                assert oc.status == "skipped" and oc.reason.startswith(f.name), (f.name, value)
        # a numpy real is a number of both kinds
        assert check(cls(**{k: np.float64(v) for k, v in FIXED_POINTS[name].items()})).passed
