"""Operator layer: Thomae-Jackson q-integral, the generalized fractional
q-integral, the q-difference operator D_c and the Cauchy operator T(a, b D_c).

Integrand contract.  ``jackson_q_integral``, ``fractional_q_integral`` and
``cauchy_T_apply`` take the integrand contract of :mod:`qaw.quad`: ``f``
takes a 1-D array of points and returns an array of numbers of the same
shape; any other shape, a scalar included, or values of a dtype that holds
no number raise ``ValueError``.  The q-integrals sum their series in
blocks of q-geometric points x q^n and a q^n and call ``f`` once per
branch and block.  The first block holds as many points as the stop rule
takes where the terms fall like q^n (55 at q = 0.5, 354 at q = 0.9), so
such a sum calls ``f`` once per branch; each later block is twice the
last, at most ``MAX_TERMS`` points in all.  The Cauchy
operator calls ``f`` once, on c q^j for j <= n_max, and takes at most
n_max terms past the first.  Each term is formed with the arithmetic of a
term-by-term loop (q^n by repeated multiplication, running products in
sequence), so its bits do not depend on where a block ends, and
``qcore._series_sum`` adds them up under the truncation policy of
:mod:`qaw.qcore` (its module docstring), which decides where a sum
settles, where it is capped and which partial sum is not finite.  The
Cauchy operator also ends at the noise floor of its nested differences
(``cauchy_T_apply``), for which it keeps its own partial sum.
Integrands must be pure and deterministic.

``q_difference`` and ``difference_eq_residual`` stay scalar: they call
``f`` on single points.
"""

from __future__ import annotations

import math
import numbers

from . import _np as np
from .context import DomainError, QContext
from .qcore import (CONSECUTIVE_SMALL, EPS_TERM, MAX_TERMS, _divide, _factor_counts, _modulus,
                    _power, _real_args, _series_sum, q_pochhammer_infinite)
from .quad import _evaluate


def _geometric_terms(f, branches, mu, ctx: QContext):
    """The terms q^n [term of each branch at x q^n], n < MAX_TERMS, formed
    in blocks, for ``_series_sum``.

    ``branches`` holds (sign, x, c0, s): the branch adds sign * x * c_n *
    f(x q^n), where c_n = 1 if c0 is None and otherwise
    c_n = c0 prod_{k<n} (1 - s q^{k+mu}) / (1 - s q^{k+1}).  A block is
    formed once the sum has taken every term before it.  The first holds
    the terms that the stop rule takes where they fall like q^n: until q^n
    falls below EPS_TERM (1 - q), and CONSECUTIVE_SMALL more; each later
    block doubles.  Every term has the same bits wherever a block ends.
    """
    q = ctx.q
    coef = [c0 for _, _, c0, _ in branches]
    qn = 1.0
    n0, size = 0, _factor_counts(1.0, q, EPS_TERM * (1.0 - q)) + CONSECUTIVE_SMALL + 1
    while n0 < MAX_TERMS:
        m = min(size, MAX_TERMS - n0)
        qns = np.full(m, q)
        qns[0] = qn
        np.multiply.accumulate(qns, out=qns)
        if mu is not None:
            # Python's pow: numpy's SIMD power differs from it in the last bit
            qmu = np.array([q ** (k + mu) for k in range(n0, n0 + m)])
            q1 = np.array([q ** (k + 1) for k in range(n0, n0 + m)])
        term = np.zeros(m)
        # points past the stop may overflow f; a non-finite term before it raises
        with np.errstate(all="ignore"):
            for i, (sign, x, _, s) in enumerate(branches):
                w = sign * x
                if s is not None:
                    c = np.empty(m + 1, dtype=complex)
                    c[0] = coef[i]
                    c[1:] = (1.0 - s * qmu) / (1.0 - s * q1)
                    np.multiply.accumulate(c, out=c)
                    coef[i] = complex(c[-1])
                    w = w * c[:-1]
                v = w * _evaluate(f, x * qns)
                term = v if i == 0 else term + v
            term *= qns
        yield from term.tolist()
        qn = float(qns[-1]) * q
        n0, size = n0 + m, 2 * size


def jackson_q_integral(f, a: float, b: float, ctx: QContext) -> complex:
    """Thomae-Jackson q-integral of f over [a, b].

    (1-q) sum_n q^n [b f(b q^n) - a f(a q^n)], truncated under the policy
    of :mod:`qaw.qcore`.  ``f`` maps an array of points to an array of values.
    """
    branches = [(sign, end, None, None) for sign, end in ((1, b), (-1, a)) if end != 0]
    return _series_sum(_geometric_terms(f, branches, None, ctx),
                       f"Jackson q-integral over [{a}, {b}]", MAX_TERMS, 1.0 - ctx.q)


def fractional_q_integral(f, x: float, a: float, mu: float, ctx: QContext) -> complex:
    """Riemann-Liouville-type fractional q-integral of order mu, lower limit a.

    Evaluated through the two-sided sum

        x^{mu-1}(1-q)/Gamma_q(mu) *
        sum_n q^n [x (q^{n+1};q)_{mu-1} f(x q^n)
                   - a (a q^{n+1}/x;q)_{mu-1} f(a q^n)]

    with the fractional Pochhammer factors advanced by exact one-step
    recurrences.  ``a = 0`` drops the lower-limit branch.  ``f`` maps an
    array of points to an array of values.  An x, a or mu that is not a
    real number is a :class:`DomainError` naming it and its type.  A mu
    that is not positive, or an a and x outside 0 <= a < x < inf, a NaN
    among them, is a :class:`DomainError`, and so is a mu so small that
    q^mu rounds to 1, where Gamma_q(mu) has no finite double value; a
    prefactor x^(mu-1) / (1-q)^(1-mu) past the double range raises an
    ``OverflowError`` naming q, x and mu.
    """
    _real_args("fractional_q_integral", x=x, a=a, mu=mu)
    # written so that a NaN fails each test
    if not mu > 0:
        raise DomainError(f"fractional order must be positive, got {mu}")
    if not 0 <= a < x < math.inf:
        raise DomainError(f"need 0 <= a < x, x finite, got a={a}, x={x}")
    q = ctx.q
    qmu = q**mu
    if qmu == 1.0:
        raise DomainError(f"fractional order mu={mu} too small: q^mu rounds to 1 at q={q}")
    # (q^{n+1};q)_{mu-1} and (a q^{n+1}/x;q)_{mu-1} at n = 0; the first is
    # the ratio of products that q_gamma(mu) scales by (1-q)^{1-mu}
    cx = q_pochhammer_infinite(q, ctx) / q_pochhammer_infinite(qmu, ctx)
    at = dict(what="fractional_q_integral: x^(mu-1) / (1-q)^(1-mu)", q=q, x=x, mu=mu)
    pref = _power(x, mu - 1.0, **at) * (1.0 - q) / (cx.real * _power(1.0 - q, 1.0 - mu, **at))
    branches = [(1, x, cx, 1.0)]
    if a != 0:
        ax = a / x
        ca = q_pochhammer_infinite(ax * q, ctx) / q_pochhammer_infinite(ax * qmu, ctx)
        branches.append((-1, a, ca, ax))
    return _series_sum(_geometric_terms(f, branches, mu, ctx),
                       f"fractional q-integral (mu={mu})", MAX_TERMS, pref)


def q_difference(f, c: complex, q: float) -> complex:
    """q-difference operator D_c{f} = (f(c) - f(c q)) / c, for a scalar f."""
    if c == 0:
        raise DomainError("q-difference operator undefined at c = 0")
    return (f(c) - f(c * q)) / c


def cauchy_T_apply(a: complex, b: complex, f, c: complex, n_max: int, ctx: QContext) -> complex:
    """Cauchy operator T(a, b D_c) applied to f, evaluated at c.

    sum_{n>=0} (a;q)_n/(q;q)_n b^n (D_c)^n f, with the n-th q-difference
    power computed by literal nested differences on the geometric points c,
    cq, ..., c q^{n_max}: so n_max, a nonnegative integral number other
    than a bool (numpy's too, taken as its int), is the most terms past the
    first.  ``f`` is called once, on the array of those points (on
    [c] alone when b = 0).  The sum ends in one of three ways:

    * settled, under the policy of :mod:`qaw.qcore` (at once when b = 0);
    * at the noise floor: the n-th pass divides by c q^j, so rounding noise
      in the levels grows like q^{-n(n-1)/2}; a term that grows after one
      at most 1e-8 of the partial sum is that noise, and the sum before it
      is returned;
    * capped: :class:`NonConvergence` ``Cauchy operator did not converge in
      <n_max> terms``, with the partial sum and the last |term|.

    A partial sum that is not finite, at a pole of f among the points say,
    raises :class:`NonConvergence` naming its term n.

    At a real c, complex values of f whose imaginary parts are all 0 are
    differenced as floats, on their real parts.  The complex differences
    give the same real parts to the bit and imaginary parts of +-0, whose
    sign no partial sum keeps (each starts at +0), so the value is the
    same.  A point that underflows to 0 divides 0 by 0: both parts are NaN
    in the complex differences and the real part in the float ones, so the
    sum raises at the same term either way.
    """
    if c == 0:
        raise DomainError("Cauchy operator needs c != 0")
    if isinstance(n_max, bool) or not isinstance(n_max, numbers.Integral) or n_max < 0:
        raise DomainError(f"Cauchy operator needs an integer n_max >= 0, got {n_max!r}")
    n_max = int(n_max)
    q = ctx.q

    def terms(level):
        # nested q-differences: after n passes, level[j] holds (D_c)^n f at c q^j;
        # the partial sum is kept here for the noise floor, and is finite when
        # read, as the sum raises where it is not
        total = complex(level[0])
        yield total
        if b == 0:
            yield None
        last = abs(total)
        poch_ratio = complex(1.0)  # (a;q)_n / (q;q)_n
        bn = complex(1.0)
        for n in range(1, n_max + 1):
            level = _divide(level[:-1] - level[1:], points[: n_max + 1 - n])
            poch_ratio *= (1.0 - a * q ** (n - 1)) / (1.0 - q**n)
            bn *= b
            term = poch_ratio * bn * complex(level[0])
            mag = _modulus(term)
            if mag > last and last <= 1e-8 * max(abs(total), 1e-300):
                yield None  # the noise floor
            yield term
            total, last = total + term, mag

    # a pole of f makes every later partial sum non-finite, which raises
    with np.errstate(all="ignore"):
        points = np.array([c * q**j for j in range(n_max + 1)] if b != 0 else [c])
        values = _evaluate(f, points)
        # the levels in floats, with the complex levels' real parts (docstring)
        if values.dtype.kind == "c" and points.dtype.kind == "f" and not values.imag.any():
            values = values.real
        return _series_sum(terms(values), "Cauchy operator", n_max)


def cauchy_T_reciprocal_closed(a: complex, b: complex, c: complex, t: complex, ctx: QContext) -> complex:
    """Closed form of T(a, b D_c) acting on 1/(c t;q)_inf.

    Equals (a b t;q)_inf / ((b t;q)_inf (c t;q)_inf) for max(|bt|, |ct|) < 1.
    """
    m = max(_modulus(b * t), _modulus(c * t))
    if m >= 1.0:
        raise DomainError(f"closed form requires max(|bt|, |ct|) < 1, got {m:.3f}")
    num = q_pochhammer_infinite(a * b * t, ctx)
    den = q_pochhammer_infinite(b * t, ctx) * q_pochhammer_infinite(c * t, ctx)
    return num / den


def difference_eq_residual(f, a: complex, b: complex, c: complex, q: float) -> complex:
    """Residual of the three-variable q-difference equation.

    (c - b) f(a,b,c) - a b f(a,bq,cq) + b f(a,b,cq) - (c - a b) f(a,bq,c);
    zero (within tolerance) iff f satisfies the equation at this point.
    """
    return (
        (c - b) * f(a, b, c)
        - a * b * f(a, b * q, c * q)
        + b * f(a, b, c * q)
        - (c - a * b) * f(a, b * q, c)
    )
