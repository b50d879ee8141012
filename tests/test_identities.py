"""Tests for the identity checks, the stable outer k-sum, and the suite runner."""

import cmath
import gc
import math
import tracemalloc

import numpy as np
import pytest

from qaw import identities, qcore, quad
from qaw.context import (
    DivisionByZero,
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QContext,
)
from qaw.identities import (
    AtakishiyevParams,
    AWParams,
    GeneratingParams,
    ReversalParams,
    check_askey_wilson,
    check_atakishiyev,
    check_fractional_atakishiyev,
    check_fractional_aw,
    check_fractional_generating,
    check_lemma_three_term,
    check_reversal_aw,
    frac_prefactor,
    ksum,
    run_check,
    run_suite,
)
from qaw.suite import default_suite, expand_suite


class TestKSumOracle:
    def test_against_multiprecision_oracle(self):
        """The stable Taylor-kernel route versus a direct multiprecision sum.

        The direct double-precision sum of the terminating series with
        numerator q^-k at argument q loses all digits past k of about 6
        (intermediate terms reach q^{-k(k+1)/2}); the oracle therefore runs
        in adaptive multiprecision, with the working precision growing
        quadratically in k.
        """
        mp = pytest.importorskip("mpmath")
        # small numerator parameters keep the outer terms decaying fast
        # (ratio ~ (x/a) * max numerator magnitude), so the oracle's k range
        # stays short enough for quadratically growing working precision
        q, a, x, mu = 0.5, 0.15, 0.35, 1.5
        numer = [0.1, 0.05, 0.08]
        denom = [0.25, 0.12, 0.18]
        ctx = QContext(q=q)
        got = ksum(x, a, mu, numer, denom, ctx)

        qm = mp.mpf(q)

        def poch(c, n):
            p = mp.mpf(1)
            for j in range(n):
                p *= 1 - c * qm**j
            return p

        def poch_inf(c):
            p = mp.mpf(1)
            term = mp.mpmathify(c)
            while abs(term) > mp.mpf(10) ** (-mp.mp.dps - 5):
                p *= 1 - term
                term *= qm
            return p

        def poch_frac(c, alpha):
            return poch_inf(c) / poch_inf(c * qm**alpha)

        total = mp.mpf(0)
        for k in range(40):
            mp.mp.dps = 40 + int(k * (k + 1) / 2 * math.log10(1.0 / q))
            phi = mp.mpf(0)
            term = mp.mpf(1)
            for n in range(k + 1):
                phi += term
                ratio = (1 - qm ** (n - k)) * qm / (1 - qm ** (n + 1))
                for p in numer:
                    ratio *= 1 - p * qm**n
                for p in denom:
                    ratio /= 1 - p * qm**n
                term *= ratio
            coef = (
                mp.mpf(x) ** (mu + k)
                * poch_frac(mp.mpf(a) / x, mu + k)
                / (mp.mpf(a) ** k * poch_frac(qm, mu + k))
            )
            total += coef * phi
        mp.mp.dps = 40
        assert abs(got - complex(total)) < 1e-12 * abs(complex(total))

    def test_degenerate_collapse(self):
        # with no series parameters only the k=0 term survives and the sum
        # equals the bare fractional prefactor
        ctx = QContext(q=0.5)
        got = ksum(0.6, 0.2, 1.5, [], [], ctx)
        assert got == pytest.approx(frac_prefactor(0.6, 0.2, 1.5, ctx), rel=1e-13)


# the fractional Askey-Wilson k-sum at the angles theta: numerator
# (abcd, a e^{i theta}, a e^{-i theta}), denominator (ab, ac, ad)
AW_POINT = dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)


def _aw_ksum_params(theta, q, a, b, c, d, x, mu):
    e = np.exp(1j * np.asarray(theta))
    return [a * b * c * d, a * e, a / e], [a * b, a * c, a * d]


class _MpStableKSum:
    """The Taylor-kernel formula of the module docstring, in 60 digits.

    The Taylor coefficients of G(y) = prod (d y;q)_inf / prod (n y;q)_inf
    come from products of the power series of its factors, not from the
    q-difference recurrence used in double precision, and G(1) from the
    infinite products themselves.
    """

    M = 170

    def __init__(self, mp, q):
        self.mp = mp
        self.q = mp.mpf(q)
        self.qpow = [self.q**m for m in range(self.M)]
        self.qfac = [self.poch(self.q, m) for m in range(self.M)]

    def poch(self, c, n):
        p = self.mp.mpf(1)
        for j in range(n):
            p *= 1 - c * self.q**j
        return p

    def poch_inf(self, c):
        return self.poch(c, 220)

    def times(self, g, h):
        return [self.mp.fdot(g[: m + 1], h[m::-1]) for m in range(self.M)]

    def taylor(self, numer, denom, start=None):
        """Coefficients of G and G(1), times an earlier result ``start``."""
        mp = self.mp
        g, G1 = start or ([mp.mpc(1)] + [mp.mpc(0)] * (self.M - 1), mp.mpc(1))
        for d in map(mp.mpc, denom):
            g = self.times(g, [(-d) ** m * self.q ** (m * (m - 1) // 2) / self.qfac[m]
                               for m in range(self.M)])
            G1 *= self.poch_inf(d)
        for n in map(mp.mpc, numer):
            g = self.times(g, [n**m / self.qfac[m] for m in range(self.M)])
            G1 /= self.poch_inf(n)
        return g, G1

    def ksum(self, x, a, mu, g, G1):
        mp, q = self.mp, self.q
        x, a, mu = mp.mpf(x), mp.mpf(a), mp.mpf(mu)
        # x^mu (a/x;q)_mu / (q;q)_mu, then the ratio of consecutive coefficients
        coef = x**mu * self.poch_inf(a / x) * self.poch_inf(q ** (mu + 1)) / (
            self.poch_inf(a / x * q**mu) * self.poch_inf(q)
        )
        total = mp.mpc(0)
        P = [mp.mpf(1)] * self.M  # P[m] = (q^{m+1-k};q)_k, advanced in k
        for k in range(self.M - 60):
            term = coef * mp.fdot(g[k:], P[k:]) / G1
            total += term
            if abs(term) < mp.mpf(10) ** -18 * abs(total):
                return complex(total)
            P = [P[m] * (1 - self.qpow[m - k]) if m > k else mp.mpf(0)
                 for m in range(self.M)]
            coef *= x * (1 - a / x * q ** (mu + k)) / (a * (1 - q ** (mu + k + 1)))
        raise AssertionError("oracle k-sum did not settle")


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
        mp = pytest.importorskip("mpmath")
        p = AW_POINT
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        ctx = QContext(q=p["q"])
        theta = np.array([0.01, 0.7, 1.9, 3.1, math.pi - 1e-9])
        numer, denom = _aw_ksum_params(theta, **p)
        got = ksum(p["x"], a, p["mu"], numer, denom, ctx)
        try:
            mp.mp.dps = 60
            oracle = _MpStableKSum(mp, p["q"])
            fixed = oracle.taylor([a * b * c * d], [a * b, a * c, a * d])
            for i, th in enumerate(theta.tolist()):
                e = cmath.exp(1j * th)
                g, G1 = oracle.taylor([a * e, a / e], [], fixed)
                want = oracle.ksum(p["x"], a, p["mu"], g, G1)
                assert abs(got[i] - want) <= 1e-13 * abs(want), th
        finally:
            mp.mp.dps = 15

    def test_unsettled_sum_raises_with_partial(self):
        ctx = QContext(q=0.5)
        with pytest.raises(NonConvergence) as exc:
            ksum(0.6, 0.2, 1.5, [0.1, 0.05], [0.25, 0.12], ctx, kmax=4)
        assert exc.value.partial is not None and exc.value.last_term > 0

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
        # b = c = d >= 0.06 at this point is a known limit of the double-
        # precision k-sum: the outer terms grow, and the check says so
        p = AtakishiyevParams(alpha_g=1.0, a=0.15, b=0.06, c=0.06, d=0.06,
                              x=0.6, mu=1.5)
        with pytest.raises(KSumDivergence) as exc:
            check_fractional_atakishiyev(p)
        err = exc.value
        assert err.k >= 19 and err.term_magnitude > 1.0
        assert isinstance(err.partial, complex) and math.isfinite(abs(err.partial))
        entry = {"identity": "fractional-atakishiyev",
                 "params": {"alpha_g": 1.0, "a": 0.15, "b": 0.06, "c": 0.06,
                            "d": 0.06, "x": 0.6, "mu": 1.5}}
        (oc,) = run_suite([entry])
        assert oc.status == "diverged" and oc.reason.startswith("KSumDivergence")
        # the report keeps what is needed to re-run the entry
        assert oc.report is None and oc.params == entry["params"]


SAMPLE_GEN = GeneratingParams(
    q=0.5, a=0.2, x=0.6, mu=1.5, b=0.3, s=0.25, t=0.15, u=0.1, r=0.4, z=0.2
)


class TestLemmaAndGenerating:
    def test_lemma_residual_small(self):
        report = check_lemma_three_term(SAMPLE_GEN)
        assert report.passed and report.rel_err < 1e-12

    def test_lemma_degenerate_s_equals_u(self):
        p = GeneratingParams(
            q=0.5, a=0.2, x=0.6, mu=1.0, b=0.3, s=0.25, t=0.15, u=0.25, r=0.4, z=0.2
        )
        report = check_lemma_three_term(p)
        assert abs(report.lhs) < 1e-12 and abs(report.rhs) < 1e-12

    def test_generating_sample_point(self):
        report = check_fractional_generating(SAMPLE_GEN)
        assert report.passed and report.rel_err < 1e-8

    def test_invalid_params_raise(self):
        p = GeneratingParams(q=0.5, a=0.7, x=0.6, mu=1.5)  # a >= x
        with pytest.raises(DomainError):
            check_fractional_generating(p)


class TestAskeyWilson:
    def test_sample_point(self):
        report = check_askey_wilson(AWParams(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        assert report.passed and report.rel_err < 1e-8

    def test_permutation_invariance(self):
        r1 = check_askey_wilson(AWParams(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        r2 = check_askey_wilson(AWParams(q=0.5, a=0.2, b=0.3, c=0.1, d=0.4))
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)

    def test_magnitude_invariant_violation(self):
        with pytest.raises(DomainError):
            check_askey_wilson(AWParams(q=0.5, a=1.2))

    def test_fractional_sample_point(self):
        report = check_fractional_aw(
            AWParams(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)
        )
        assert report.passed and report.rel_err < 1e-6
        # conjugate symmetry keeps the quadrature value essentially real
        assert abs(report.lhs.imag) <= 10.0 * report.lhs_diag["est_error"]


class TestRealLineFamilies:
    def test_reversal_sample_point(self):
        report = check_reversal_aw(ReversalParams(q=0.5, a=0.2, b=0.1, c=0.15, d=0.1))
        assert report.passed and report.rel_err < 1e-6

    def test_atakishiyev_sample_point(self):
        report = check_atakishiyev(
            AtakishiyevParams(alpha_g=1.0, a=0.1, b=0.05, c=0.08, d=0.02)
        )
        assert report.passed and report.rel_err < 1e-6

    def test_atakishiyev_permutation_invariance(self):
        r1 = check_atakishiyev(AtakishiyevParams(alpha_g=1.0, a=0.1, b=0.05))
        r2 = check_atakishiyev(AtakishiyevParams(alpha_g=1.0, a=0.05, b=0.1))
        assert r1.lhs == pytest.approx(r2.lhs, rel=1e-12)
        assert r1.rhs == pytest.approx(r2.rhs, rel=1e-12)

    def test_atakishiyev_base_coupling(self):
        p = AtakishiyevParams(alpha_g=0.8)
        assert p.q == pytest.approx(math.exp(-2 * 0.64))


class TestWholeLevelWeights:
    def test_log_products_called_per_level_not_per_node(self, monkeypatch):
        calls, levels = [], []
        log_poch, evaluate = qcore.q_pochhammer_infinite_log, quad._evaluate

        def counted_log_poch(a, ctx):
            calls.append(a)
            return log_poch(a, ctx)

        def counted_evaluate(f, nodes):
            levels.append(nodes.size)
            return evaluate(f, nodes)

        monkeypatch.setattr(qcore, "q_pochhammer_infinite_log", counted_log_poch)
        monkeypatch.setattr(identities, "q_pochhammer_infinite_log", counted_log_poch)
        monkeypatch.setattr(quad, "_evaluate", counted_evaluate)
        report = check_reversal_aw(ReversalParams(q=0.5, a=0.2, b=0.1, c=0.15, d=0.1))
        assert report.passed
        # per window probe and per refinement level: two products for each of
        # the 4 parameters (through h_sinh_log) and the (-q e^{+-2t};q)_inf pair,
        # each on every node of the level at once
        assert len(calls) == 10 * len(levels)
        assert all(isinstance(a, np.ndarray) for a in calls)
        assert sum(a.size for a in calls) == 10 * sum(levels)


class TestReportSemantics:
    def test_residual_fields_consistent(self):
        r = check_askey_wilson(AWParams(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4))
        scale = max(abs(r.lhs), abs(r.rhs), 1e-12)
        assert r.rel_err == pytest.approx(r.abs_err / scale)

    def test_tolerance_only_changes_passed(self):
        p = AWParams(q=0.5, a=0.3, b=0.2, c=0.1, d=0.4)
        loose = check_askey_wilson(p, tol=1e-6)
        absurd = check_askey_wilson(p, tol=1e-30)
        assert loose.lhs == absurd.lhs and loose.rhs == absurd.rhs
        assert loose.passed and not absurd.passed

    def test_diagnostics_are_plain_python_numbers(self):
        r = check_fractional_aw(
            AWParams(q=0.5, a=0.2, b=0.3, c=0.1, d=0.15, x=0.6, mu=1.5)
        )
        assert type(r.lhs_diag["est_error"]) is float
        assert type(r.lhs_diag["nodes"]) is int
        assert type(r.lhs_diag["k_terms"]) is int
        assert type(r.lhs) is complex and type(r.rel_err) is float
        r = check_atakishiyev(AtakishiyevParams(alpha_g=1.0, a=0.1, b=0.05))
        assert all(type(t) is float for t in r.lhs_diag["window"])
        assert type(r.lhs_diag["est_error"]) is float

    def test_residual_invariant_under_tighter_context(self):
        p = SAMPLE_GEN
        default = check_fractional_generating(p)
        tight = check_fractional_generating(
            p, ctx=QContext(q=p.q, eps_term=1e-16, eps_factor=1e-18)
        )
        assert abs(default.lhs - tight.lhs) < 1e-10
        assert abs(default.rhs - tight.rhs) < 1e-10


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

    def test_unknown_identity_rejected(self):
        with pytest.raises(KeyError):
            run_check("no-such-identity", {})

    def test_vanishing_factor_becomes_skipped(self, zero_factor_scale):
        # i (q b) e^{t} = 1 exactly at the first window probe t = 1
        b = -1j * zero_factor_scale
        params = {"q": 0.5, "a": 0.2, "b": b}
        (oc,) = run_suite([{"identity": "reversal-askey-wilson", "params": params}])
        assert oc.status == "skipped" and oc.reason.startswith("DivisionByZero")
        assert oc.params == params

    def test_pole_becomes_skipped(self, monkeypatch):
        def at_pole(p, ctx=None, tol=None):
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

    def test_draw_count_validated(self):
        with pytest.raises(ValueError):
            expand_suite(
                {"seed": 1, "checks": [{"identity": "askey-wilson", "draws": 0}]}
            )

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
