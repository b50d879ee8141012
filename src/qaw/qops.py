"""Operator layer: Thomae-Jackson q-integral, the generalized fractional
q-integral, the q-difference operator D_c and the Cauchy operator T(a, b D_c).

Integrand contract.  ``jackson_q_integral``, ``fractional_q_integral`` and
``cauchy_T_apply`` take the integrand contract of :mod:`qaw.quad`: ``f``
takes a 1-D array of points and returns an array of the same shape; any
other shape, a scalar included, raises ``ValueError``.  The q-integrals sum
their series in blocks of q-geometric points x q^n and a q^n (64 points
first, then doubling, at most ``MAX_TERMS`` in all) and call ``f`` once
per branch and block; the Cauchy operator calls ``f`` once, on c q^j for
j <= n_max.  Each term is formed with the arithmetic of a term-by-term
loop (q^n by repeated multiplication, running products and partial sums in
sequence), so the sum stops where such a loop stops.  Integrands must be
pure and deterministic.

``q_difference`` and ``difference_eq_residual`` stay scalar: they call
``f`` on single points.
"""

from __future__ import annotations

import cmath

import numpy as np

from .context import DomainError, NonConvergence, QContext
from .qcore import CONSECUTIVE_SMALL, EPS_TERM, MAX_TERMS, q_pochhammer_infinite
from .quad import _evaluate

_FIRST_BLOCK = 64


def _geometric_sum(f, branches, mu, scale, what, ctx: QContext) -> complex:
    """scale * sum_n q^n [term of each branch at x q^n], summed in blocks.

    ``branches`` holds (sign, x, c0, s): the branch adds sign * x * c_n *
    f(x q^n), where c_n = 1 if c0 is None and otherwise
    c_n = c0 prod_{k<n} (1 - s q^{k+mu}) / (1 - s q^{k+1}).  The sum stops at
    the first n that closes a run of ``CONSECUTIVE_SMALL`` (3) terms below
    ``EPS_TERM`` of the partial sum, as the term-by-term loop does.  A sum
    not settled within ``MAX_TERMS`` terms raises :class:`NonConvergence`.
    """
    q = ctx.q
    coef = [c0 for _, _, c0, _ in branches]
    total = complex(0.0)
    qn = 1.0
    small = 0
    n0, size = 0, _FIRST_BLOCK
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
            partial = np.cumsum(np.concatenate(([total], term)))[1:]
            flags = np.abs(term) < EPS_TERM * np.maximum(np.abs(partial), 1e-300)
        stop = None
        for i, tiny in enumerate(flags.tolist()):
            small = small + 1 if tiny else 0
            if small >= CONSECUTIVE_SMALL:
                stop = i
                break
        end = m if stop is None else stop + 1
        if not cmath.isfinite(partial[end - 1]):
            # a non-finite term makes every later partial sum non-finite
            k = int(np.flatnonzero(~np.isfinite(partial))[0])
            raise NonConvergence(
                f"{what}: term {n0 + k} or the partial sum through it is not finite",
                partial=scale * (complex(partial[k - 1]) if k else total),
                last_term=float(abs(term[k])),
            )
        if stop is not None:
            return scale * complex(partial[stop])
        total = complex(partial[-1])
        qn = float(qns[-1]) * q
        n0 += m
        size *= 2
    raise NonConvergence(
        f"{what} did not converge in {MAX_TERMS} terms",
        partial=scale * total,
        last_term=float(abs(term[-1])),
    )


def jackson_q_integral(f, a: float, b: float, ctx: QContext) -> complex:
    """Thomae-Jackson q-integral of f over [a, b].

    (1-q) sum_n q^n [b f(b q^n) - a f(a q^n)], truncated once
    ``CONSECUTIVE_SMALL`` (3) successive terms fall below the relative
    tolerance.  ``f`` maps an array of points to an array of values.
    """
    branches = [(1, b, None, None)] if b != 0 else []
    if a != 0:
        branches.append((-1, a, None, None))
    return _geometric_sum(
        f, branches, None, 1.0 - ctx.q, f"Jackson q-integral over [{a}, {b}]", ctx
    )


def fractional_q_integral(f, x: float, a: float, mu: float, ctx: QContext) -> complex:
    """Riemann-Liouville-type fractional q-integral of order mu, lower limit a.

    Evaluated through the two-sided sum

        x^{mu-1}(1-q)/Gamma_q(mu) *
        sum_n q^n [x (q^{n+1};q)_{mu-1} f(x q^n)
                   - a (a q^{n+1}/x;q)_{mu-1} f(a q^n)]

    with the fractional Pochhammer factors advanced by exact one-step
    recurrences.  ``a = 0`` drops the lower-limit branch.  ``f`` maps an
    array of points to an array of values.  A mu so small that q^mu rounds
    to 1, where Gamma_q(mu) has no finite double value, is a
    :class:`DomainError`.
    """
    if mu <= 0:
        raise DomainError(f"fractional order must be positive, got {mu}")
    if a < 0 or a >= x:
        raise DomainError(f"need 0 <= a < x, got a={a}, x={x}")
    q = ctx.q
    qmu = q**mu
    if qmu == 1.0:
        raise DomainError(f"fractional order mu={mu} too small: q^mu rounds to 1 at q={q}")
    # (q^{n+1};q)_{mu-1} and (a q^{n+1}/x;q)_{mu-1} at n = 0; the first is
    # the ratio of products that q_gamma(mu) scales by (1-q)^{1-mu}
    cx = q_pochhammer_infinite(q, ctx) / q_pochhammer_infinite(qmu, ctx)
    pref = x ** (mu - 1.0) * (1.0 - q) / (cx.real * (1.0 - q) ** (1.0 - mu))
    branches = [(1, x, cx, 1.0)]
    if a != 0:
        ax = a / x
        ca = q_pochhammer_infinite(ax * q, ctx) / q_pochhammer_infinite(
            ax * q**mu, ctx
        )
        branches.append((-1, a, ca, ax))
    return _geometric_sum(
        f, branches, mu, pref, f"fractional q-integral (mu={mu})", ctx
    )


def q_difference(f, c: complex, q: float) -> complex:
    """q-difference operator D_c{f} = (f(c) - f(c q)) / c, for a scalar f."""
    if c == 0:
        raise DomainError("q-difference operator undefined at c = 0")
    return (f(c) - f(c * q)) / c


def _divide(num, den):
    """num / den; a complex num over a real den part by part, as Python's
    complex / float does (numpy's complex division multiplies by 1/den)."""
    if num.dtype.kind == "c" and den.dtype.kind != "c":
        return (num.view(float).reshape(-1, 2) / den[:, None]).view(complex).ravel()
    return num / den


def cauchy_T_apply(a: complex, b: complex, f, c: complex, n_max: int, ctx: QContext) -> complex:
    """Cauchy operator T(a, b D_c) applied to f, evaluated at c.

    sum_{n=0}^{n_max} (a;q)_n/(q;q)_n b^n (D_c)^n f, with the n-th
    q-difference power computed by literal nested differences on the
    geometric points c, cq, ..., c q^{n_max}.  ``f`` is called once, on the
    array of those points (on [c] alone when b = 0).
    """
    if c == 0:
        raise DomainError("Cauchy operator needs c != 0")
    q = ctx.q
    if b == 0:
        return complex(_evaluate(f, np.array([c]))[0])

    # nested q-differences: after n passes, level[j] holds (D_c)^n f at c q^j.
    # Each pass divides by c q^j, so rounding noise in the level values is
    # amplified by ~ q^{-n(n-1)/2}; once the (decaying) true terms fall below
    # that noise floor the computed terms start growing again, and the sum
    # must stop there rather than absorb amplified rounding noise.
    points = np.array([c * q**j for j in range(n_max + 1)])
    level = _evaluate(f, points)
    total = complex(level[0])
    poch_ratio = complex(1.0)  # (a;q)_n / (q;q)_n
    bn = complex(1.0)
    prev_mag = abs(total)
    last_mag = prev_mag
    small = 0
    for n in range(1, n_max + 1):
        level = _divide(level[:-1] - level[1:], points[: n_max + 1 - n])
        poch_ratio *= (1.0 - a * q ** (n - 1)) / (1.0 - q**n)
        bn *= b
        term = poch_ratio * bn * complex(level[0])
        mag = abs(term)
        scale = max(abs(total), 1e-300)
        if mag > last_mag and last_mag <= 1e-8 * scale:
            return total  # roundoff floor of the nested differences
        total += term
        if mag < EPS_TERM * scale:
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
        prev_mag, last_mag = last_mag, mag
    if last_mag > EPS_TERM * max(abs(total), 1e-300) and last_mag >= prev_mag:
        raise NonConvergence(
            f"Cauchy operator series terms non-decaying at n_max={n_max}",
            partial=total,
            last_term=last_mag,
        )
    return total


def cauchy_T_reciprocal_closed(a: complex, b: complex, c: complex, t: complex, ctx: QContext) -> complex:
    """Closed form of T(a, b D_c) acting on 1/(c t;q)_inf.

    Equals (a b t;q)_inf / ((b t;q)_inf (c t;q)_inf) for max(|bt|, |ct|) < 1.
    """
    if max(abs(b * t), abs(c * t)) >= 1.0:
        raise DomainError(
            f"closed form requires max(|bt|, |ct|) < 1, got "
            f"{max(abs(b * t), abs(c * t)):.3f}"
        )
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
