"""The tests' multiprecision reference, built on mpmath alone.

It imports nothing from qaw, so no fault of qaw can reach both a value and
its reference.  Every infinite product comes from one log product,
:func:`_log_poch`, valid for 0 < q <= 0.995 (:func:`self_check`).  On it
stand (a;q)_inf and (a;q)_alpha, the fractional prefactor, the closed side
of each of the 12 identities, the integrands' product quotients, the closed
forms of two q-integrals and two outer k-sums.  Each function sets its own
precision, 40 digits unless its docstring says otherwise; values come back
as mpmath numbers, or as complex where a docstring says so.
"""

import cmath
import math

import mpmath as mp

DPS = 40


def _log_poch(z, q):
    """log (z;q)_inf at the working precision, its phase the sum of the
    factors' principal logs: the product of the factors while |z q^k| >=
    1/100, whose log takes the winding of a double-precision sum of the
    factors' phases, then -sum_n w^n / (n (1 - q^n)) at w the first term
    below 1/100, until |w^n| falls below eps |w|."""
    z, q = mp.mpmathify(z), mp.mpf(q)
    prod, phase = mp.mpc(1), 0.0
    while abs(z) >= 0.01:
        prod *= 1 - z
        phase += cmath.phase(1 - complex(z))
        z *= q
    lg = mp.log(prod)
    lg += 2j * mp.pi * round((phase - float(lg.imag)) / (2 * math.pi))
    zn, n, tail = z, 1, mp.eps * abs(z)
    while abs(zn) > tail:
        lg -= zn / (n * (1 - q**n))
        zn, n = zn * z, n + 1
    return lg


@mp.workdps(DPS)
def log_poch(a, q):
    """log (a;q)_inf, as a complex."""
    return complex(_log_poch(a, q))


@mp.workdps(DPS)
def qp(a, q, alpha=None):
    """(a;q)_inf, or (a;q)_alpha = (a;q)_inf / (a q^alpha;q)_inf."""
    lg = _log_poch(a, q)
    if alpha is not None:
        lg -= _log_poch(mp.mpmathify(a) * mp.mpf(q) ** alpha, q)
    return mp.exp(lg)


@mp.workdps(DPS)
def frac_prefactor(x, a, mu, q):
    """x^mu (a/x;q)_mu / (q;q)_mu."""
    x = mp.mpf(x)
    return x**mu * qp(mp.mpmathify(a) / x, q, mu) / qp(q, q, mu)


@mp.workdps(DPS)
def self_check(q, args):
    """The largest relative difference of :func:`qp` over args from
    ``mpmath.qp`` at q <= 0.97, and above, where that stops converging,
    from the factors multiplied out until they are within eps (1 - q) of 1."""
    q, worst = mp.mpf(q), 0.0
    for a in map(mp.mpmathify, args):
        if q <= 0.97:
            want = mp.qp(a, q)
        else:
            want, term = mp.mpf(1), a
            while abs(term) > mp.eps * (1 - q):
                want *= 1 - term
                term *= q
        worst = max(worst, float(abs(qp(a, q) - want) / abs(want)))
    return worst


def _prod(args, q):
    return mp.fprod(qp(v, q) for v in args)


@mp.workdps(DPS)
def closed_side(name, p):
    """The closed side of identity ``name`` at p, a mapping of its params:
    the product of the nine quadrature rows, the lemma's left side, and the
    generating rows' product times :func:`stable_ksum`, each fractional one
    times :func:`frac_prefactor`."""
    if "alpha_g" in p:  # the Gaussian family, on q = exp(-2 alpha_g^2)
        q = mp.exp(-2 * mp.mpf(p["alpha_g"]) ** 2)
    else:
        q = mp.mpf(p["q"])
    a, b, c, d, r, s, t, u, z = (mp.mpmathify(p.get(k, 0)) for k in "abcdrstuz")
    if name == "lemma-three-term":
        return (s - u) * _prod([a * b * z, a * t, a * r * u], q) / _prod(
            [a * s, a * z, a * u], q)
    if "generating" in name:
        numer, denom = [a * s, a * z, a * u], [a * b * z, a * t, a * r * u]
        (k,) = stable_ksum(p["x"], p["a"], p["mu"], p["q"], numer, denom)
        side = (1 - q) ** p["mu"] * _prod(denom, q) / _prod(numer, q) * k
    elif "alpha_g" in p:
        side = mp.sqrt(mp.pi) * q ** mp.mpf(-0.125) * _prod(
            [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q], q
        ) / qp(a * b * c * d / q**3, q)
    elif "reversal" in name:
        side = _prod([q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d],
                     q) / qp(q * a * b * c * d, q) * mp.log(1 / q)
    else:
        side = 2 * mp.pi * qp(a * b * c * d, q) / _prod(
            [q, a * b, a * c, a * d, b * c, b * d, c * d], q)
    if name.startswith("fractional-"):
        side *= frac_prefactor(p["x"], a, p["mu"], q)
    return side


@mp.workdps(DPS)
def rel_err(got, want):
    """|got - want| / |want| as a float, for want an mpmath number."""
    return float(abs(mp.mpmathify(got) - want) / abs(want))


@mp.workdps(DPS)
def quotient(num, den, q, y=1):
    """prod (v y;q)_inf over the nonzero v of num over the same product over
    den, as a complex, and the sum of |log (v y;q)_inf| over all the rows."""
    lg, scale = mp.mpc(0), 0.0
    for sign, rows in ((1, num), (-1, den)):
        for v in rows:
            if v != 0:
                term = _log_poch(mp.mpmathify(v) * mp.mpmathify(y), q)
                lg += sign * term
                scale += float(abs(term))
    return complex(mp.exp(lg)), scale


@mp.workdps(DPS)
def h_cos(theta, params, q):
    """prod (v e^{i theta}, v e^{-i theta};q)_inf over the v of params."""
    e = mp.expj(theta)
    return _prod([mp.mpmathify(v) * f for v in params for f in (e, 1 / e)], q)


@mp.workdps(DPS)
def aw_weight(theta, q, params):
    """:func:`quotient` of (e^{2i theta}, e^{-2i theta};q)_inf over the
    (v e^{i theta}, v e^{-i theta};q)_inf of the v of params."""
    e = mp.expj(theta)
    den = [mp.mpmathify(v) * f for v in params for f in (e, 1 / e)]
    return quotient([e * e, 1 / (e * e)], den, q)


@mp.workdps(DPS)
def reversal_weight(t, q, params):
    """:func:`quotient` of the h_sinh arguments i q v e^t, -i q v e^{-t} of
    the v of params over (-q e^{2t}, -q e^{-2t};q)_inf."""
    e, qm = mp.exp(t), mp.mpf(q)
    num = [qm * mp.mpmathify(v) * f for v in params for f in (1j * e, -1j / e)]
    return quotient(num, [-qm * e * e, -qm / (e * e)], q)


@mp.workdps(DPS)
def gaussian_weight(t, alpha_g, q, params):
    """e^{-t^2} cosh(alpha_g t) times the :func:`quotient` of the h_sinh
    arguments i v e^{alpha_g t}, -i v e^{-alpha_g t} of the v of params, as
    a complex, and the sum of |log| over its rows and its two other
    factors."""
    t = mp.mpf(t)
    e = mp.exp(alpha_g * t)
    value, scale = quotient([mp.mpmathify(v) * f for v in params for f in (1j * e, -1j / e)],
                            [], q)
    front = mp.exp(-t * t) * mp.cosh(alpha_g * t)
    return complex(front * value), scale + float(t * t + mp.log(mp.cosh(alpha_g * t)))


@mp.workdps(DPS)
def jackson_power(a, b, p, q):
    """The Jackson q-integral of t^p from a to b, as a complex."""
    q, p = mp.mpf(q), mp.mpf(p) + 1
    return complex((1 - q) * (mp.mpf(b) ** p - mp.mpf(a) ** p) / (1 - q**p))


@mp.workdps(DPS)
def fractional_power(x, mu, p, q):
    """The fractional q-integral of t^p from 0 to x, Gamma_q(p + 1) /
    Gamma_q(p + mu + 1) x^(p + mu) = (1 - q)^mu x^(p + mu) / (q^(p+1);q)_mu,
    as a complex."""
    q = mp.mpf(q)
    return complex((1 - q) ** mu * mp.mpf(x) ** (p + mu) / qp(q ** (p + 1), q, mu))


@mp.workdps(60)
def stable_ksum(x, a, mu, q, numer, denom):
    """The outer k-sum of the fractional identities by the Taylor-kernel
    formula of the ``qaw.identities`` docstring, divided by
    :func:`frac_prefactor`, in 60 digits (the products, which only scale
    it, in 40), as a complex for each node; numer and denom hold numbers
    and sequences of one number per node.

    The Taylor coefficients of G(y) = prod (d y;q)_inf / prod (n y;q)_inf
    are products of its factors' power series, not the q-difference
    recurrence used in double precision.  The sum stops at 1e-18 of its
    total near x^k ~ 1e-20, so M leaves 60 coefficients past x^k = 1e-24.
    """
    q, x, a = mp.mpf(q), mp.mpf(x), mp.mpf(a)
    M = 60 + math.ceil(math.log(1e-24) / math.log(x))
    w = [1 - q**m for m in range(M)]
    qfac = [mp.mpf(1)]  # (q;q)_m
    for m in range(1, M):
        qfac.append(qfac[-1] * w[m])

    def taylor(numer, denom, g, G1):
        """The coefficients of G and G(1), times those of g and G1."""
        series = [([(-v) ** m * q ** (m * (m - 1) // 2) / qfac[m] for m in range(M)], qp(v, q))
                  for v in map(mp.mpmathify, denom)]
        series += [([v**m / qfac[m] for m in range(M)], 1 / qp(v, q))
                   for v in map(mp.mpmathify, numer)]
        for h, H1 in series:
            g = [mp.fdot(g[: m + 1], h[m::-1]) for m in range(M)]
            G1 *= H1
        return g, G1

    nodes = [[v for v in vs if hasattr(v, "__len__")] for vs in (numer, denom)]
    fixed = taylor(*([v for v in vs if not hasattr(v, "__len__")] for vs in (numer, denom)),
                   [mp.mpf(1)] + [mp.mpf(0)] * (M - 1), mp.mpf(1))
    out = []
    for i in range(max(map(len, nodes[0] + nodes[1]), default=1)):
        g, G1 = taylor(*([v[i] for v in vs] for vs in nodes), *fixed)
        # c_0 = x^mu (a/x;q)_mu / (q;q)_mu, then the ratio of consecutive c_k
        pref = frac_prefactor(x, a, mu, q)
        coef, total = pref, mp.mpc(0)
        P = [mp.mpf(1)] * M  # P[m] = (q^{m+1-k};q)_k, advanced in k
        for k in range(M - 60):
            term = coef * mp.fdot(g[k:], P[k:]) / G1
            total += term
            if abs(term) < mp.mpf(10) ** -18 * abs(total):
                break
            P[k + 1:] = [P[m] * w[m - k] for m in range(k + 1, M)]
            coef *= x * (1 - a / x * q ** (mu + k)) / (a * (1 - q ** (mu + k + 1)))
        else:
            raise AssertionError("oracle k-sum did not settle")
        out.append(complex(total / pref))
    return out


def direct_ksum(x, a, mu, q, numer, denom):
    """The outer k-sum to k < 40 divided by :func:`frac_prefactor`, as a
    complex, each phi_k summed term by term in 40 + k(k+1)/2 log10(1/q)
    digits: its terms reach q^{-k(k+1)/2}."""
    total = mp.mpf(0)
    for k in range(40):
        with mp.workdps(40 + int(k * (k + 1) / 2 * math.log10(1.0 / q))):
            qm = mp.mpf(q)
            phi, term = mp.mpf(0), mp.mpf(1)
            for n in range(k + 1):
                phi += term
                ratio = (1 - qm ** (n - k)) * qm / (1 - qm ** (n + 1))
                for v in numer:
                    ratio *= 1 - v * qm**n
                for v in denom:
                    ratio /= 1 - v * qm**n
                term *= ratio
            total += frac_prefactor(x, a, mu + k, q) / mp.mpf(a) ** k * phi
    with mp.workdps(DPS):
        return complex(total / frac_prefactor(x, a, mu, q))
