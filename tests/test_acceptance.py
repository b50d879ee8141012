"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Each test draws its own seeded parameters, runs the relevant checks at the
stated tolerances, and enforces its runtime budget.  The printed line is
emitted outside pytest's capture so a plain ``pytest -v`` run shows one
verdict per criterion.
"""

import json
import random
import time

import numpy as np
import pytest

from qaw import cli
from qaw.context import QContext
from qaw.identities import (
    frac_prefactor,
    run_check,
    run_suite,
)
from qaw.qcore import (
    INFINITE,
    q_bracket,
    q_gamma,
    q_pochhammer,
    q_pochhammer_multi,
)
from qaw.qops import (
    cauchy_T_apply,
    cauchy_T_reciprocal_closed,
    difference_eq_residual,
    fractional_q_integral,
)
from qaw.suite import default_suite, expand_suite

import mp_oracle


@pytest.fixture
def verdict(capsys):
    """Emit one pass/fail line per criterion, bypassing output capture."""

    lines = []

    def record(label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        lines.append((f"criterion {label}: {status}{suffix}", ok, detail))

    yield record
    with capsys.disabled():
        for text, _, _ in lines:
            print(text)
    for text, ok, detail in lines:
        assert ok, text


def _within(t0, budget):
    return time.perf_counter() - t0 < budget


def test_criterion_01_scalar_layer(verdict):
    t0 = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(0.2, 0.8)
        ctx = QContext(q=q)
        a = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        a *= 0.9 / max(abs(a), 0.9)
        n = rng.randrange(0, 15)
        # recurrence
        r1 = abs(
            q_pochhammer(a, n + 1, ctx) - q_pochhammer(a, n, ctx) * (1 - a * q**n)
        ) / max(abs(q_pochhammer(a, n + 1, ctx)), 1e-300)
        # splitting
        whole = q_pochhammer(a, INFINITE, ctx)
        split = q_pochhammer(a, n, ctx) * q_pochhammer(a * q**n, INFINITE, ctx)
        r2 = abs(whole - split) / max(abs(whole), 1e-300)
        # fractional order at integers
        m = rng.randrange(0, 8)
        fr = q_pochhammer(a, float(m), ctx)
        fi = q_pochhammer(a, m, ctx)
        r3 = abs(fr - fi) / max(abs(fi), 1e-12)
        # q-gamma functional equation
        x = rng.uniform(0.3, 3.5)
        r4 = abs(
            q_gamma(x + 1.0, ctx) - q_bracket(x, ctx) * q_gamma(x, ctx)
        ) / abs(q_gamma(x + 1.0, ctx))
        worst = max(worst, r1, r2, r3, r4)
    ok = worst < 1e-12 and _within(t0, 5.0)
    verdict("01 scalar layer", ok,
            f"worst rel err {worst:.2e}, {time.perf_counter() - t0:.1f}s")


def test_criterion_02_three_term_residual(verdict):
    t0 = time.perf_counter()
    rng = random.Random(102)
    worst = 0.0
    for _ in range(50):
        q = rng.uniform(0.3, 0.7)
        ctx = QContext(q=q)
        a = rng.uniform(0.1, 0.5)
        b, t, z = (rng.uniform(-0.8, 0.8) for _ in range(3))

        def family(r, u, s):
            return q_pochhammer_multi(
                [a * b * z, a * t, a * r * u], INFINITE, ctx
            ) / q_pochhammer_multi([a * s, a * z, a * u], INFINITE, ctx)

        bound = 0.8 / a
        r_, u_, s_ = (rng.uniform(-bound, bound) * 0.5 for _ in range(3))
        worst = max(worst, abs(difference_eq_residual(family, r_, u_, s_, q)))
    ok = worst < 1e-12 and _within(t0, 5.0)
    verdict("02 three-term residual", ok,
            f"worst abs residual {worst:.2e}, {time.perf_counter() - t0:.1f}s")


def test_criterion_03_cauchy_operator(verdict):
    t0 = time.perf_counter()
    # q and c chosen where the nested-difference noise floor sits below 1e-10
    # for the whole grid (smaller q amplifies roundoff as q^{-n(n-1)/2})
    ctx = QContext(q=0.8)
    c = 0.9
    worst = 0.0
    for a in (0.1, 0.3, 0.5):
        for b in (0.1, 0.2, 0.3):
            for tt in (0.2, 0.4, 0.6):
                f = lambda cc: 1.0 / q_pochhammer(cc * tt, INFINITE, ctx)
                got = cauchy_T_apply(a, b, f, c, 40, ctx)
                want = cauchy_T_reciprocal_closed(a, b, c, tt, ctx)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-10 and _within(t0, 10.0)
    verdict("03 Cauchy operator vs closed form", ok,
            f"worst rel err {worst:.2e}, {time.perf_counter() - t0:.1f}s")


def test_criterion_04_fractional_generating(verdict):
    t0 = time.perf_counter()
    rng = random.Random(104)
    mus = [0.5, 1.0, 1.5, 2.7]
    worst = 0.0
    for i in range(20):
        p = dict(
            q=rng.uniform(0.3, 0.7),
            a=rng.uniform(0.1, 0.3),
            x=rng.uniform(0.45, 0.8),
            mu=mus[i % 4],
            b=rng.uniform(-0.4, 0.4),
            r=rng.uniform(-0.4, 0.4),
            s=rng.uniform(-0.4, 0.4),
            t=rng.uniform(-0.4, 0.4),
            u=rng.uniform(-0.4, 0.4),
            z=rng.uniform(-0.4, 0.4),
        )
        worst = max(worst, run_check("fractional-generating", p).rel_err)
    # degenerate closed form b=s=t=u=z=0
    ctx = QContext(q=0.5)
    x, a, mu = 0.6, 0.2, 1.7
    degen = run_check("fractional-generating", dict(q=0.5, a=a, x=x, mu=mu))
    closed = (1.0 - 0.5) ** mu * frac_prefactor(x, a, mu, ctx)
    degen_err = max(
        abs(degen.lhs - closed) / abs(closed), abs(degen.rhs - closed) / abs(closed)
    )
    mu1 = fractional_q_integral(np.ones_like, x, a, 1.0, ctx)
    mu1_err = abs(mu1 - (x - a)) / (x - a)
    ok = (
        worst < 1e-8
        and degen_err < 1e-10
        and mu1_err < 1e-12
        and _within(t0, 60.0)
    )
    verdict("04 fractional generating identity", ok,
            f"worst rel err {worst:.2e}, degenerate err {degen_err:.2e}, "
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_05_reduction_coherence(verdict):
    t0 = time.perf_counter()
    pairs = []
    g = dict(q=0.5, a=0.2, x=0.6, mu=1.5, b=0.3, s=0.25, t=0.15,
                         u=0.0, r=0.4, z=0.2)
    pairs.append((run_check("fractional-generating", g),
                  run_check("fractional-generating-3phi2", g)))
    aw = dict(q=0.5, a=0.2, b=0.3, c=0.1, d=0.0, x=0.6, mu=1.5)
    pairs.append((run_check("fractional-askey-wilson", aw), run_check("fractional-askey-wilson-3phi2", aw)))
    rv = dict(q=0.5, a=0.2, b=0.1, c=0.1, d=0.0, x=0.6, mu=1.5)
    pairs.append((run_check("fractional-reversal-askey-wilson", rv),
                  run_check("fractional-reversal-askey-wilson-3phi2", rv)))
    at = dict(alpha_g=1.0, a=0.15, b=0.05, c=0.05, d=0.0, x=0.6,
                           mu=1.5)
    pairs.append((run_check("fractional-atakishiyev", at),
                  run_check("fractional-atakishiyev-3phi2", at)))
    worst = 0.0
    for full, reduced in pairs:
        scale = max(abs(full.lhs), abs(full.rhs), 1e-12)
        worst = max(
            worst,
            abs(full.lhs - reduced.lhs) / scale,
            abs(full.rhs - reduced.rhs) / scale,
        )
    ok = worst < 1e-12
    verdict("05 u=0 / d=0 reduction coherence", ok,
            f"worst pairwise err {worst:.2e}, {time.perf_counter() - t0:.1f}s")


def test_criterion_06_askey_wilson(verdict):
    t0 = time.perf_counter()
    rng = random.Random(106)
    worst = 0.0
    for _ in range(20):
        p = dict(
            q=rng.uniform(0.3, 0.7),
            a=rng.uniform(-0.6, 0.6),
            b=rng.uniform(-0.6, 0.6),
            c=rng.uniform(-0.6, 0.6),
            d=rng.uniform(-0.6, 0.6),
        )
        worst = max(worst, run_check("askey-wilson", p).rel_err)
    zero = run_check("askey-wilson", dict(q=0.5, a=0.0))
    # against 2 pi / (q;q)_inf to 40 digits
    zero_err = mp_oracle.rel_err(zero.lhs, mp_oracle.closed_side("askey-wilson", {"q": 0.5}))
    ok = worst < 1e-8 and zero_err < 1e-10 and _within(t0, 30.0)
    verdict("06 Askey-Wilson integral", ok,
            f"worst rel err {worst:.2e}, zero-case err {zero_err:.2e} "
            f"(40-digit anchor), {time.perf_counter() - t0:.1f}s")


def test_criterion_07_fractional_askey_wilson(verdict):
    t0 = time.perf_counter()
    rng = random.Random(107)
    worst = 0.0
    realness_ok = True
    for i in range(10):
        p = dict(
            q=rng.uniform(0.3, 0.7),
            a=rng.uniform(0.15, 0.3),
            b=rng.uniform(-0.3, 0.3),
            c=rng.uniform(-0.3, 0.3),
            d=rng.uniform(-0.3, 0.3),
            x=rng.uniform(0.45, 0.8),
            mu=[1.0, 1.5][i % 2],
        )
        r = run_check("fractional-askey-wilson", p)
        worst = max(worst, r.rel_err)
        if abs(r.lhs.imag) >= 10.0 * max(r.lhs_diag["est_error"], 1e-300):
            realness_ok = False
    ok = worst < 1e-6 and realness_ok and _within(t0, 120.0)
    verdict("07 fractional Askey-Wilson", ok,
            f"worst rel err {worst:.2e}, realness {realness_ok}, "
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_08_reversal_family(verdict):
    t0 = time.perf_counter()
    rng = random.Random(108)
    worst = 0.0
    for _ in range(5):
        p = dict(
            q=rng.uniform(0.4, 0.6),
            a=rng.uniform(-0.2, 0.2),
            b=rng.uniform(-0.2, 0.2),
            c=rng.uniform(-0.2, 0.2),
            d=rng.uniform(-0.2, 0.2),
        )
        worst = max(worst, run_check("reversal-askey-wilson", p).rel_err)
    for _ in range(5):
        p = dict(
            q=rng.uniform(0.4, 0.6),
            a=rng.uniform(0.15, 0.25),
            b=rng.uniform(-0.1, 0.1),
            c=rng.uniform(-0.1, 0.1),
            d=rng.uniform(-0.1, 0.1),
            x=0.6,
            mu=1.5,
        )
        worst = max(worst, run_check("fractional-reversal-askey-wilson", p).rel_err)
    exact = mp_oracle.closed_side("reversal-askey-wilson", {"q": 0.5})
    zero_err = mp_oracle.rel_err(run_check("reversal-askey-wilson", dict(q=0.5, a=0.0)).lhs, exact)
    ok = worst < 1e-5 and zero_err < 1e-8 and _within(t0, 120.0)
    verdict("08 reversal Askey-Wilson family", ok,
            f"worst rel err {worst:.2e}, zero-case err {zero_err:.2e}, "
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_09_gaussian_family(verdict):
    t0 = time.perf_counter()
    rng = random.Random(109)
    zero_err = 0.0
    for ag in (0.8, 1.0):
        zero = run_check("atakishiyev", dict(alpha_g=ag))
        exact = mp_oracle.closed_side("atakishiyev", {"alpha_g": ag})
        zero_err = max(zero_err, mp_oracle.rel_err(zero.lhs, exact))
    worst = 0.0
    for i in range(5):
        p = dict(
            alpha_g=[0.8, 1.0][i % 2],
            a=rng.uniform(-0.1, 0.1),
            b=rng.uniform(-0.1, 0.1),
            c=rng.uniform(-0.1, 0.1),
            d=rng.uniform(-0.1, 0.1),
        )
        worst = max(worst, run_check("atakishiyev", p).rel_err)
    for i in range(5):
        # b, c, d in [0.01, 0.04], as in the shipped suite; the k-sum also
        # converges beyond that (b = c = d = 0.06 passes): its terms go like
        # (x * rho / a)^k, rho the largest of |ab/q|, |ac/q|, |ad/q|
        p = dict(
            alpha_g=[0.8, 1.0][i % 2],
            a=rng.uniform(0.1, 0.2),
            b=rng.uniform(0.01, 0.04),
            c=rng.uniform(0.01, 0.04),
            d=rng.uniform(0.01, 0.04),
            x=0.6,
            mu=1.5,
        )
        worst = max(worst, run_check("fractional-atakishiyev", p).rel_err)
    ok = worst < 1e-5 and zero_err < 1e-10 and _within(t0, 120.0)
    verdict("09 Gaussian-weighted family", ok,
            f"worst rel err {worst:.2e}, Gaussian anchor err {zero_err:.2e}, "
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_10_suite_free_of_divergence(verdict):
    t0 = time.perf_counter()
    entries = expand_suite(default_suite())
    outcomes = run_suite(entries)
    bad = [
        oc for oc in outcomes
        if oc.status == "diverged"
        or (oc.reason or "").startswith(("KSumDivergence", "WindowFailure"))
    ]
    failed = [oc for oc in outcomes if oc.status != "passed"]
    detail = f"{len(outcomes)} checks, {time.perf_counter() - t0:.1f}s"
    if bad:
        detail += "; divergence diagnostics: " + "; ".join(
            f"{oc.identity_name}: {oc.reason}" for oc in bad
        )
    if failed and not bad:
        detail += "; non-passing: " + "; ".join(
            f"{oc.identity_name}={oc.status}" for oc in failed
        )
    verdict("10 shipped suite free of divergence", not bad and not failed, detail)


def test_criterion_11_cli_determinism(verdict, tmp_path, capsys):
    t0 = time.perf_counter()

    def run_once(path):
        code = cli.main(["suite", "--out", str(path)])
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert code == 0

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != "wall_time"}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        return json.dumps(strip(doc), sort_keys=True)

    first = run_once(tmp_path / "r1.json")
    second = run_once(tmp_path / "r2.json")
    ok = first == second
    verdict("11 CLI determinism", ok,
            f"reports {'identical' if ok else 'differ'} modulo wall_time, "
            f"{time.perf_counter() - t0:.1f}s")
