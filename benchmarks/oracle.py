"""Independent multiprecision checks of qaw outputs, built on mpmath alone.

Nothing here imports qaw: every reference value is computed from the
definitions (closed products, the fractional q-integral sum, mpmath's own
q-functions), so a fault in qaw cannot make both sides agree.  Each check
returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 25

_TINY = 1e-12


def _num(v):
    """A report value: a float, or a complex encoded as {"re", "im"}."""
    if isinstance(v, dict):
        v = complex(v["re"], v["im"])
    if isinstance(v, complex):
        return mp.mpf(v.real) if v.imag == 0 else mp.mpc(v.real, v.imag)
    return mp.mpf(v)


def qinf_many(params, q):
    """prod (a;q)_inf over the params, through mpmath.qp."""
    p = mp.mpf(1)
    for a in params:
        p *= mp.qp(a, q)
    return p


def qfrac(a, q, alpha):
    """(a;q)_alpha by its ratio definition.

    mpmath.qp(a, q, n) with a non-integer n is not this ratio (it returns
    0.595 for a=0.3, q=0.5, n=1.5, where the ratio gives 0.6357).
    """
    return mp.qp(a, q) / mp.qp(a * q**alpha, q)


def frac_prefactor(x, a, mu, q):
    """x^mu (a/x;q)_mu / (q;q)_mu."""
    return x**mu * qfrac(a / x, q, mu) / qfrac(q, q, mu)


def rel_diff(got, want):
    got = mp.mpc(got)
    return float(abs(got - want) / max(abs(want), _TINY))


# --------------------------------------------------------------------------
# identity checks, by the closed-product side of each identity
# --------------------------------------------------------------------------

def _aw_closed(p, drop_d):
    q, a, b, c, d = p["q"], p["a"], p["b"], p["c"], p["d"]
    if drop_d:
        return 2 * mp.pi / qinf_many([q, a * b, a * c, b * c], q)
    return 2 * mp.pi * mp.qp(a * b * c * d, q) / qinf_many(
        [q, a * b, a * c, a * d, b * c, b * d, c * d], q)


def _reversal_closed(p, drop_d):
    q, a, b, c, d = p["q"], p["a"], p["b"], p["c"], p["d"]
    if drop_d:
        val = qinf_many([q, q * a * b, q * a * c, q * b * c], q)
    else:
        val = qinf_many([q, q * a * b, q * a * c, q * a * d, q * b * c,
                         q * b * d, q * c * d], q) / mp.qp(q * a * b * c * d, q)
    return val * mp.log(1 / q)


def _gaussian_closed(p, drop_d):
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    q = mp.exp(-2 * p["alpha_g"] ** 2)
    if drop_d:
        val = qinf_many([a * b / q, a * c / q, b * c / q], q)
    else:
        val = qinf_many([a * b / q, a * c / q, a * d / q, b * c / q,
                         b * d / q, c * d / q], q) / mp.qp(a * b * c * d / q**3, q)
    return mp.sqrt(mp.pi) * q ** mp.mpf(-0.125) * val


def _with_prefactor(closed):
    def f(p, drop_d):
        q = mp.exp(-2 * p["alpha_g"] ** 2) if "alpha_g" in p else p["q"]
        return closed(p, drop_d) * frac_prefactor(p["x"], p["a"], p["mu"], q)
    return f


# identity -> (closed-product side, whether d is dropped)
QUADRATURE_IDENTITIES = {
    "askey-wilson": (_aw_closed, False),
    "fractional-askey-wilson": (_with_prefactor(_aw_closed), False),
    "fractional-askey-wilson-3phi2": (_with_prefactor(_aw_closed), True),
    "reversal-askey-wilson": (_reversal_closed, False),
    "fractional-reversal-askey-wilson": (_with_prefactor(_reversal_closed), False),
    "fractional-reversal-askey-wilson-3phi2": (_with_prefactor(_reversal_closed), True),
    "atakishiyev": (_gaussian_closed, False),
    "fractional-atakishiyev": (_with_prefactor(_gaussian_closed), False),
    "fractional-atakishiyev-3phi2": (_with_prefactor(_gaussian_closed), True),
}


def _suffix_products(c, q, n_max):
    """[prod_{k>=n} (1 - c q^k) for n = 0..n_max], the infinite products
    evaluated from their tail upwards."""
    out = [mp.mpf(0)] * (n_max + 1)
    p = mp.qp(c * q ** (n_max + 1), q)
    for n in range(n_max, -1, -1):
        p *= 1 - c * q**n
        out[n] = p
    return out


def fractional_integral(numer, denom, x, a, mu, q):
    """Fractional q-integral of y -> prod (n y;q)_inf / prod (d y;q)_inf.

    Direct sum of the definition
        x^{mu-1} (1-q) / Gamma_q(mu) * sum_n q^n [x (q^{n+1};q)_{mu-1} f(x q^n)
                                             - a (a q^{n+1}/x;q)_{mu-1} f(a q^n)]
    with every Pochhammer symbol taken as its ratio of infinite products.
    """
    n_max = int(math.ceil((mp.mp.dps + 3) * math.log(10) / -math.log(float(q))))
    total = mp.mpf(0)
    for point, weight, lo in ((x, x, q), (a, -a, a * q / x)):
        if point == 0:
            continue
        ups = [_suffix_products(v * point, q, n_max) for v in numer]
        downs = [_suffix_products(v * point, q, n_max) for v in denom]
        pnum = _suffix_products(lo, q, n_max)
        pden = _suffix_products(lo * q ** (mu - 1), q, n_max)
        for n in range(n_max + 1):
            f = mp.mpf(1)
            for s in ups:
                f *= s[n]
            for s in downs:
                f /= s[n]
            total += q**n * weight * pnum[n] / pden[n] * f
    return x ** (mu - 1) * (1 - q) / mp.qgamma(mu, q) * total


def _generating_lhs(p, include_ru):
    q, a, x, mu = p["q"], p["a"], p["x"], p["mu"]
    b, r, s, t, u, z = (p.get(k, 0) for k in "brstuz")
    numer = [b * z, t] + ([r * u] if include_ru else [])
    denom = [s, z] + ([u] if include_ru else [])
    return fractional_integral(numer, denom, x, a, mu, q)


def _lemma_sides(p):
    q, a = p["q"], p["a"]
    b, r, s, t, u, z = (p.get(k, 0) for k in "brstuz")

    def side(numer, denom):
        return qinf_many(numer, q) / qinf_many(denom, q)

    lhs = (s - u) * side([a * b * z, a * t, a * r * u], [a * s, a * z, a * u])
    rhs = (u * r * side([a * b * z, a * t, a * r * u * q], [a * s * q, a * z, a * u * q])
           - u * side([a * b * z, a * t, a * r * u], [a * s * q, a * z, a * u])
           + (s - u * r) * side([a * b * z, a * t, a * r * u * q],
                                [a * s, a * z, a * u * q]))
    return lhs, rhs


def check_report(report):
    """Check one ``qaw check`` / suite report (the CLI's JSON object)."""
    name = report["identity"]
    p = {k: _num(v) for k, v in report["params"].items()}
    lhs = _num(report["lhs"])
    tol = report["tolerance"]
    if name == "lemma-three-term":
        want_l, want_r = _lemma_sides(p)
        scale = max(abs(want_l), abs(want_r), _TINY)
        err = max(abs(lhs - want_l), abs(_num(report["rhs"]) - want_r)) / scale
        return None if err <= tol else f"{name}: sides off mpmath by {float(err):.2e}"
    if name in ("fractional-generating", "fractional-generating-3phi2"):
        want = _generating_lhs(p, include_ru=name == "fractional-generating")
        err = rel_diff(lhs, want)
        return None if err <= tol else f"{name}: lhs off the direct sum by {err:.2e}"
    closed, drop_d = QUADRATURE_IDENTITIES[name]
    err = rel_diff(lhs, closed(p, drop_d))
    if err > tol:
        return f"{name}: lhs off the mpmath closed product by {err:.2e}"
    if all(mp.im(v) == 0 for v in p.values()):
        est = report["diagnostics"]["lhs"]["est_error"]
        if abs(float(mp.im(lhs))) > 10 * est:
            return f"{name}: |Im lhs| {float(abs(mp.im(lhs))):.2e} > 10 est_error {est:.2e}"
    return None


# --------------------------------------------------------------------------
# primitive checks
# --------------------------------------------------------------------------

def _hcos(theta, params, q):
    e = mp.expj(theta)
    p = mp.mpf(1)
    for a in params:
        p *= mp.qp(a * e, q) * mp.qp(a / e, q)
    return p


def primitive_reference(kind, args):
    """Reference value of one primitive call (see workloads.primitive_inputs)."""
    q = args["q"]
    if kind == "poch_finite":
        return mp.qp(args["a"], q, args["n"])
    if kind == "poch_infinite":
        return mp.qp(args["a"], q)
    if kind == "poch_fractional":
        return qfrac(args["a"], q, args["alpha"])
    if kind == "q_gamma":
        return mp.qgamma(args["x"], q)
    if kind == "phi_series":
        return mp.qhyper(list(args["numer"]), list(args["denom"]), q, args["z"])
    if kind == "h_cos":
        return _hcos(args["theta"], args["params"], q)
    if kind == "h_sinh_log":
        ex = mp.exp(args["x"])
        t = args["t"]
        return mp.qp(1j * t * ex, q) * mp.qp(-1j * t / ex, q)
    if kind == "jackson":
        a, b, pw = args["a"], args["b"], args["power"]
        return (1 - q) * (mp.mpf(b) ** (pw + 1) - mp.mpf(a) ** (pw + 1)) / (1 - q ** (pw + 1))
    if kind == "fractional":
        pw, mu = args["power"], args["mu"]
        return (mp.qgamma(pw + 1, q) / mp.qgamma(pw + mu + 1, q)
                * mp.mpf(args["x"]) ** (pw + mu))
    if kind == "cauchy":
        a, b, c, t = args["a"], args["b"], args["c"], args["t"]
        return mp.qp(a * b * t, q) / (mp.qp(b * t, q) * mp.qp(c * t, q))
    raise KeyError(kind)


# relative tolerance per primitive (for phi_series, relative to the sum of
# |term|): products and series are accurate to a few ulps; the Cauchy
# operator's nested q-differences amplify rounding
PRIMITIVE_TOL = {
    "poch_finite": 1e-12, "poch_infinite": 1e-12, "poch_fractional": 1e-11,
    "q_gamma": 1e-11, "phi_series": 1e-11, "h_cos": 1e-11, "h_sinh_log": 1e-11,
    "jackson": 1e-12, "fractional": 1e-11, "cauchy": 1e-9,
}


def _phi_abs_sum(args):
    """Sum of |term| of an r = s + 1 series: summed in double precision, the
    series carries rounding of that size, which cancellation between
    alternating terms (z < 0) can make far larger than the sum itself."""
    q, z = args["q"], args["z"]
    total = term = mp.mpf(1)
    n = 0
    while term > mp.eps * total:
        ratio = abs(z / (1 - q ** (n + 1)))
        for p in args["numer"]:
            ratio *= abs(1 - p * q**n)
        for p in args["denom"]:
            ratio /= abs(1 - p * q**n)
        term *= ratio
        total += term
        n += 1
    return total


def check_primitive(kind, args, value):
    if kind == "h_sinh_log":
        value = complex(mp.exp(mp.mpc(value)))
    want = primitive_reference(kind, args)
    if kind == "phi_series":
        err = float(abs(mp.mpc(value) - want) / _phi_abs_sum(args))
    else:
        err = rel_diff(value, want)
    if err > PRIMITIVE_TOL[kind]:
        return f"{kind}{args}: off mpmath by {err:.2e}"
    return None
