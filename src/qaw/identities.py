"""Independent left/right evaluators and residual checks for every identity.

Each check computes its two sides by disjoint routes (operator/quadrature
versus closed-product/series) that share only the primitives in
:mod:`qaw.qcore` (the quadrature side through their node-array path, the
closed side through their scalar loops), and returns an
:class:`IdentityReport` with the residual and convergence diagnostics.

One table, one check function
-----------------------------
Every check is :func:`_check` on its identity's row of ``_TABLE``, the
only declaration of an identity: the params class (plain data; its fields
are the ``qaw check`` flags), the function giving both sides, the default
tolerance and all domain rules, applied in order.  A quadrature family
(Askey-Wilson on [0, pi], reversal and Gaussian on the real line) is a
:class:`_Family` with its own domain rule; its plain check integrates the
weight against the closed product, its fractional check the weight times
:func:`ksum` against the closed product times :func:`frac_prefactor`.  A
``-3phi2`` form is its parent with d (u for the generating pair) pinned
to 0 by a :func:`_pinned` rule.  That is exact: ``ksum``, the weights and
the generating integrand drop zero parameters, and a zero parameter of a
closed product is the factor (0;q)_inf = 1.

Stable evaluation of the outer k-sums
-------------------------------------
Every fractional identity carries an outer sum over k whose k-th term
involves a terminating series with numerator parameter q^-k at argument q.
Summed term by term, that series is an alternating sum whose intermediate
terms reach magnitude ~ q^{-k(k+1)/2}; in double precision the cancellation
destroys all significant digits beyond k of about 6.  The evaluator here
uses an exact reformulation instead: with

    G(y) = prod_i (d_i y;q)_inf / prod_i (n_i y;q)_inf

(n_i the non-q^-k numerator parameters, d_i the denominator parameters),
the terminating series equals

    (1/G(1)) * sum_{m>=k} g_m (q^{m+1-k};q)_k,

where g_m are the Taylor coefficients of G.  This follows from the finite
kernel identity sum_j (q^{-k};q)_j q^{j(m+1)} / (q;q)_j = (q^{m+1-k};q)_k,
which vanishes for 0 <= m < k, so every term of the rewritten sum is
benign and the evaluation is stable for all k.  As (q^{m+1-k};q)_k =
(q;q)_m / (q;q)_{m-k}, the outer sum with coefficients c_k swaps into

    sum_k c_k phi_k = (1/G(1)) * sum_m g_m w_m,
    w_m = (q;q)_m sum_{k<=m} c_k / (q;q)_{m-k},

whose weights w, one convolution, are the same at every node.

The Taylor coefficients come from the q-difference equation of G.  With
N(y) = prod_i (1 - n_i y) and D(y) = prod_i (1 - d_i y), (c y;q)_inf =
(1 - c y) (c q y;q)_inf gives N(y) G(y) = D(y) G(q y), hence

    g_m (1 - q^m) = sum_{j>=1} (D_j q^{m-j} - N_j) g_{m-j},

a recurrence of order at most three (Gasper & Rahman, *Basic
Hypergeometric Series*, ch. 1-2).  Zero parameters are dropped first.

Sizing.  c_k grows like (x/a)^k and overflows near k = 308 / log10(x/a),
so the sum is taken as sum_m (g_m s^m) (w_m / s^m), s the power of 2
nearest x/a (at most 2^1023; x/a itself is finite by the fractional
domain rule): the Taylor coefficients of G(s y) times the convolution of
c_k / s^k with s^-j / (q;q)_j.  In a converging sum both factors stay
below 2^{m/2}, and a power of 2 changes no rounding.  The rows m of g grow
in steps, 16 at a time from 32 to 256 and then about M/8 at a time
(rounded up to 16), so a long sum meets its tail rule after O(log M)
tests.  Per node, running sums over each step's new rows give the rule:
the last 8 rows of both |g_m s^-m| and |g_m w_m| below ``EPS_TERM`` of
their totals.  The value is formed once, over the final rows.  A step
whose sum is not finite at some node, or a sum not settled at 4096 rows,
raises :class:`KSumDivergence`.  The rows and the weights w grow by
doubling, so a short sum allocates for its own rows only.  The report's
``k_terms`` is the most rows a k-sum of the check used, and
``k_digits_lost`` the most digits its cancellation can cost,
log10(sum |g_m w_m| / |sum g_m w_m|) at a node, from the same running sums.

Batching.  A quadrature node enters the k-sum only through the series
parameters (a e^{+-i theta}, i a q e^{+-t}, ...), so :func:`ksum` takes
each parameter as a scalar or as an array over the nodes of a quadrature
level and evaluates all nodes in one (rows x nodes) array, with the tail
rule applied per node; its row count is still set by the slowest node of
the call.  Every integrand makes one log-product call
per integrand call, on the arguments of all its factors at all its nodes
or points: 10 rows of nodes for the Askey-Wilson and reversal weights
and 8 for the Gaussian one at four nonzero parameters, up to 6 rows of
points for the generating q-integrand.  :func:`_log_quotient` adds the
rows' logs one at a time, and the log product truncates each entry by
itself, so a weight's value at a node does not depend on the other nodes
of its call (the k-sum's still does, through its row count).
The Askey-Wilson weight takes (e^{2i theta}, e^{-2i theta};q)_inf as
4 sin^2 theta (q e^{2i theta}, q e^{-2i theta};q)_inf, with no zero factor
at theta = 0.  The generating integrand takes its logs with an exact zero
factor as -inf, so such a point is 0 or not finite, as the quotient of
plain products was, and not a :class:`DivisionByZero`.  The closed sides
(``_three_term_side``, the families' ``closed``, ``frac_prefactor``)
call only the scalar loops of :mod:`qaw.qcore`, so the two sides of an
identity share no vectorised code.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .context import (
    DivisionByZero,
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QContext,
    WindowFailure,
)
from .qcore import (
    EPS_TERM,
    INFINITE,
    _log_array,
    q_pochhammer,
    q_pochhammer_infinite,
    q_pochhammer_infinite_log,
    q_pochhammer_multi,
)
from .qops import fractional_q_integral
from .quad import integrate_line_even_window, integrate_theta


# --------------------------------------------------------------------------
# parameter bundles and domain rules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingParams:
    """Parameters of the fractional generating-function identities."""

    q: float
    a: float
    x: float
    mu: float
    b: complex = 0.0
    r: complex = 0.0
    s: complex = 0.0
    t: complex = 0.0
    u: complex = 0.0
    z: complex = 0.0


@dataclass(frozen=True)
class AWParams:
    """Parameters of the Askey-Wilson and reversal integrals and their
    fractional variants."""

    q: float
    a: float
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    x: float = 0.0
    mu: float = 1.0


# the reversal integrals take the Askey-Wilson parameters
ReversalParams = AWParams


@dataclass(frozen=True)
class AtakishiyevParams:
    """Parameters of the Gaussian-weighted real-line integral family.

    The base is coupled to the Gaussian scale: q = exp(-2 alpha_g^2).
    """

    alpha_g: float
    a: float = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    x: float = 0.0
    mu: float = 1.0

    @property
    def q(self) -> float:
        return math.exp(-2.0 * self.alpha_g**2)


def _q_range(p):
    return [] if 0.0 < p.q < 1.0 else [f"q must lie in (0,1), got {p.q}"]


def _fractional_violations(p):
    """0 < a < x < 1, x/a a finite double and mu > 0: the domain of the
    fractional q-integral, with the ratio the k-sum is scaled by."""
    out = []
    if not 0.0 < p.a < p.x < 1.0:
        out.append(f"need 0 < a < x < 1, got a={p.a}, x={p.x}")
    elif not math.isfinite(p.x / p.a):
        out.append(f"need x/a finite, got a={p.a}, x={p.x}")
    if p.mu <= 0:
        out.append(f"mu must be positive, got {p.mu}")
    return out


def _below_one(label, m):
    return [f"need {label} < 1, got {m:.3g}"] if m >= 1.0 else []


def _lemma_violations(p):
    m = max(abs(p.a * p.s), abs(p.a * p.z), abs(p.a * p.u))
    return _below_one("max(|as|,|az|,|au|)", m)


def _generating_violations(p):
    m = max(abs(p.a * p.t), abs(p.a * p.z), abs(p.a * p.r * p.u))
    return _below_one("max(|at|,|az|,|aru|)", m)


def _aw_violations(p):
    m = max(abs(p.a), abs(p.b), abs(p.c), abs(p.d))
    return _q_range(p) + _below_one("max(|a|,|b|,|c|,|d|)", m)


def _reversal_violations(p):
    return _q_range(p) + _below_one("|qabcd|", abs(p.q * p.a * p.b * p.c * p.d))


def _gaussian_violations(p):
    if p.alpha_g == 0:
        return ["alpha_g must be nonzero"]
    q3 = p.q**3
    if q3 == 0.0:
        return [f"q^3 = exp(-6 alpha_g^2) underflows to 0 at alpha_g={p.alpha_g}"]
    return _below_one("|abcd/q^3|", abs(p.a * p.b * p.c * p.d / q3))


def _pinned(name, field):
    """The rule of a -3phi2 form ``name``: its parent with ``field`` = 0."""

    def rule(p):
        value = getattr(p, field)
        return [f"{name} needs {field} = 0, got {field}={value}"] if value != 0 else []

    return rule


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    lhs_diag: dict = field(default_factory=dict)
    rhs_diag: dict = field(default_factory=dict)
    wall_time: float = 0.0
    tolerance: float = 0.0
    passed: bool = False
    failure: str | None = None  # the bounds a failed check broke


# --------------------------------------------------------------------------
# stable outer k-sum
# --------------------------------------------------------------------------

_MAX_ROWS = 4096  # the most Taylor coefficients a k-sum takes
_ALL_DIGITS = -math.log10(np.finfo(float).eps)


def _factor_poly(params, shape):
    """Coefficients of prod_i (1 - c_i y), one column per node."""
    c = np.zeros((len(params) + 1,) + shape, dtype=complex)
    c[0] = 1.0
    for i, p in enumerate(params, start=1):
        c[1 : i + 1] -= p * c[:i]
    return c


def _taylor_rows(g, start, stop, Nj, Dj, q):
    """Fill the rows m = start, ..., stop - 1 of the Taylor coefficients of G.

    Row m + r of g holds g_m, after r rows of zeros; ``Nj`` and ``Dj`` are
    the slices N_j, D_j, j = r, ..., 1, of the factor polynomials, and
    N(y) G(y) = D(y) G(q y) gives
    g_m (1 - q^m) = sum_{j>=1} (D_j q^{m-j} - N_j) g_{m-j}.
    """
    r = len(Nj)
    j = np.arange(r, 0, -1)
    buf = np.empty_like(Nj)
    # the recurrence coefficients of 16 rows at a time bound the scratch memory
    for lo in range(start, stop, 16):
        m = np.arange(lo, min(lo + 16, stop))
        C = Dj * (q ** (m[:, None] - j))[..., None]
        C -= Nj
        C /= (1.0 - q**m)[:, None, None]
        for mm, c in zip(m.tolist(), C):
            np.multiply(c, g[mm : mm + r], out=buf)
            np.add.reduce(buf, axis=0, out=g[mm + r])


def _weights(x, a, mu, q, e, pref, L):
    """w_m / s^m and s^-m, s = 2^e, for m < L (module docstring)."""
    k = np.arange(L - 1)
    ratios = x * (1.0 - (a / x) * q ** (mu + k)) / (a * 2.0**e * (1.0 - q ** (mu + k + 1)))
    c = np.cumprod(np.concatenate(([pref], ratios)))
    qfac = np.cumprod(np.concatenate(([1.0], 1.0 - q ** np.arange(1, L))))
    down = np.ldexp(1.0, -e * np.arange(L))
    return qfac * np.convolve(c, down / qfac)[:L], down


def frac_prefactor(x, a, mu, ctx):
    """x^mu (a/x;q)_mu / (q;q)_mu, the fractional-order right-hand prefactor."""
    return (
        x**mu
        * q_pochhammer(a / x, float(mu), ctx)
        / q_pochhammer(ctx.q, float(mu), ctx)
    ).real


def ksum(x, a, mu, phi_numer, phi_denom, ctx, diag=None):
    """sum_k x^{mu+k} (a/x;q)_{mu+k} / (a^k (q;q)_{mu+k}) * phi_k.

    phi_k is the terminating series with numerator (q^-k, *phi_numer),
    denominator (q, *phi_denom) and argument q, summed as
    sum_m g_m w_m / G(1) with the node-free weights w (module docstring).
    Each parameter is a scalar or an array with one entry per node; the
    result is a complex for all-scalar parameters and an array over the
    nodes otherwise.  Raises :class:`KSumDivergence` for the first node
    whose sum is not finite, or at 4096 rows for the first node that has
    not settled; its ``k`` is the number of rows with a finite partial sum.
    ``diag`` gets the largest row count ``k_terms`` and the largest
    ``k_digits_lost``, log10(sum |g_m w_m| / |sum g_m w_m|) at a node.
    """
    q, eps = ctx.q, EPS_TERM
    e = min(round(math.log2(x / a)), 1023)
    s = 2.0**e  # g_m s^m and w_m / s^m stay finite; see "Sizing" above
    params = [np.asarray(p, dtype=complex) for p in (*phi_numer, *phi_denom)]
    shape = np.broadcast_shapes((1,), *(p.shape for p in params))
    numer = _factor_poly([s * p for p in params[: len(phi_numer)] if p.any()], shape)
    denom = _factor_poly([s * p for p in params[len(phi_numer) :] if p.any()], shape)
    pref = frac_prefactor(x, a, mu, ctx)

    # the recurrence slices N_j, D_j, j = r, ..., 1, zero past each degree
    r = max(len(numer), len(denom)) - 1
    Nj, Dj = (np.concatenate((c, np.zeros((r + 1 - len(c),) + shape)))[r:0:-1]
              for c in (numer, denom))
    g = np.zeros((64 + r,) + shape, dtype=complex)
    g[r] = 1.0
    w, down = _weights(x, a, mu, q, e, pref, 64)
    # per node: sum |g_m s^-m|, sum |g_m w_m| and sum g_m w_m over the rows so far
    sum_g, sum_t = np.zeros(shape), np.zeros(shape)
    part = np.zeros(shape, dtype=complex)
    M, new = 0, 32
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            if new + r > len(g):
                g = np.concatenate((g, np.zeros_like(g)))
            if new > len(w):
                w, down = _weights(x, a, mu, q, e, pref, 2 * len(w))
            _taylor_rows(g, max(M, 1), new, Nj, Dj, q)
            rows = g[r + M : r + new]
            terms = rows * w[M:new, None]
            part += terms.sum(axis=0)
            abs_g, abs_t = np.abs(rows) * down[M:new, None], np.abs(terms)
            sum_g += abs_g.sum(axis=0)
            sum_t += abs_t.sum(axis=0)
            M = new
            # the tail rule: the last 8 rows below eps of their totals
            finite = np.isfinite(part)
            settled = (abs_g[-8:].sum(axis=0) < eps * np.maximum(sum_g, 1e-300)) & (
                abs_t[-8:].sum(axis=0) < eps * np.maximum(sum_t, 1e-300))
            if finite.all() and settled.all():
                break
            if not finite.all() or M >= _MAX_ROWS:
                # report the first node not finite, else the first not
                # settled, up to its last finite partial sum
                n = np.flatnonzero(~finite if not finite.all() else ~settled)[0]
                terms, unscaled = g[r : r + M, n] * w[:M], g[r : r + M, n] * down[:M]
                reached = int(np.isfinite(np.cumsum(terms)).cumprod().sum())
                G1n = unscaled[:reached].sum()
                last = float(abs(terms[reached - 1] / G1n))
                raise KSumDivergence(
                    f"outer k-sum did not settle within {reached} Taylor "
                    f"coefficients (|term|={last:.3e})",
                    k=reached,
                    term_magnitude=last,
                    partial=complex(terms[:reached].sum() / G1n),
                )
            new = min(M + (16 if M < 256 else -(-M // 128) * 16), _MAX_ROWS)

        g = g[r : r + M]
        terms = g * w[:M, None]
        S = terms.sum(axis=0)
        total = S / (g * down[:M, None]).sum(axis=0)
        # at most all the digits of a double, where |S| < eps sum |g_m w_m|
        lost = np.fmin(np.log10(sum_t) - np.log10(abs(S)), _ALL_DIGITS).max()

    if diag is not None:
        diag["k_terms"] = max(diag.get("k_terms", 0), M)
        diag["k_digits_lost"] = max(diag.get("k_digits_lost", 0.0), float(lost))
    return complex(total[0]) if all(p.ndim == 0 for p in params) else total


# --------------------------------------------------------------------------
# the two sides of each identity
# --------------------------------------------------------------------------

def _three_term_side(ctx, numer, denom):
    return q_pochhammer_multi(numer, INFINITE, ctx) / q_pochhammer_multi(
        denom, INFINITE, ctx
    )


def _lemma_sides(p, ctx):
    """Three-term contiguous relation for the triple product ratio.

    Both sides vanish at s = u, so the right side reports the sum of the
    |terms| it adds, ``abs_terms``, which scales the residual instead.
    """
    a, b, r, s, t, u, z, q = p.a, p.b, p.r, p.s, p.t, p.u, p.z, p.q
    lhs = (s - u) * _three_term_side(ctx, [a * b * z, a * t, a * r * u], [a * s, a * z, a * u])
    terms = (
        u * r * _three_term_side(ctx, [a * b * z, a * t, a * r * u * q], [a * s * q, a * z, a * u * q]),
        -u * _three_term_side(ctx, [a * b * z, a * t, a * r * u], [a * s * q, a * z, a * u]),
        (s - u * r) * _three_term_side(ctx, [a * b * z, a * t, a * r * u * q], [a * s, a * z, a * u * q]),
    )
    return lhs, terms[0] + terms[1] + terms[2], {}, {"abs_terms": sum(map(abs, terms))}


def _log_quotient(log_product, num, den, size, ctx):
    """log of prod (v;q)_inf over the rows v of num over the same product
    over den, at each of ``size`` nodes; the rows are node arrays, all
    taken by one call of ``log_product`` (a qcore array log product).

    The rows are added (num) or subtracted (den) one at a time, in order:
    numpy's sum over eight or more rows pairs them differently for one
    node than for many, so a node's value would depend on its call.
    """
    total = np.zeros(size)
    if num or den:
        lg = log_product(np.concatenate(num + den), ctx).reshape(-1, size)
        for i, row in enumerate(lg):
            total = total + row if i < len(num) else total - row
    return total


def _generating_integrand(y, p, ctx):
    """(b z y, t y, r u y;q)_inf / (s y, z y, u y;q)_inf at the points y,
    from one log-product call on the rows of the nonzero parameters.

    A point with an exact zero factor ends as the plain quotient of the
    products would: it is 0 where only the numerator vanishes, and not
    finite where the denominator does, which the q-integral reports.
    """
    num = [c * y for c in (p.b * p.z, p.t, p.r * p.u) if c != 0]
    den = [c * y for c in (p.s, p.z, p.u) if c != 0]
    # exp(-inf) = 0 for a vanishing numerator; inf or NaN otherwise
    with np.errstate(invalid="ignore", over="ignore"):
        return np.exp(_log_quotient(_log_array, num, den, y.size, ctx))


def _generating_sides(p, ctx):
    """A fractional q-integral of a product ratio versus its k-sum form."""
    a = p.a
    lhs = fractional_q_integral(
        functools.partial(_generating_integrand, p=p, ctx=ctx), p.x, a, p.mu, ctx)
    # the product ratio at y = a, with the k-sum's denominator on top
    numer = [a * p.s, a * p.z, a * p.u]
    denom = [a * p.b * p.z, a * p.t, a * p.r * p.u]
    rhs_diag = {}
    pref = (1.0 - p.q) ** p.mu * _three_term_side(ctx, denom, numer)
    rhs = pref * ksum(p.x, a, p.mu, numer, denom, ctx, diag=rhs_diag)
    return lhs, rhs, {}, rhs_diag


class _Family(NamedTuple):
    """A quadrature family: the pieces that :func:`_quadrature` combines.

    ``domain`` is its domain rule (the range of q and the bound on the
    parameter product).  ``real_line`` selects ``integrate_line_even_window``
    over ``integrate_theta`` on [0, pi].  ``weight(nodes, p, ctx)`` is the
    weight on a node array and ``series(nodes, p)`` the k-sum's numerator
    and denominator parameters there; ``closed(p, ctx, pref)`` is the closed
    product times ``pref`` (1, or the fractional prefactor), through the
    scalar qcore loops only.
    """

    params: type
    domain: Callable
    real_line: bool
    weight: Callable
    series: Callable
    closed: Callable


def _aw_weight(theta, p, ctx):
    """h(cos 2 theta; 1) / h(cos theta; a, b, c, d) from one log-product
    call: (e^{2i theta}, e^{-2i theta};q)_inf = 4 sin^2 theta
    (q e^{2i theta}, q e^{-2i theta};q)_inf leaves no zero factor at
    theta = 0, and each nonzero parameter adds the rows prm e^{+-i theta}."""
    q, e, e2 = ctx.q, np.exp(1j * theta), np.exp(2j * theta)
    den = [v for prm in (p.a, p.b, p.c, p.d) if prm != 0 for v in (prm * e, prm / e)]
    lg = _log_quotient(q_pochhammer_infinite_log, [q * e2, q / e2], den, theta.size, ctx)
    return 4.0 * np.sin(theta) ** 2 * np.exp(lg)


def _aw_series(theta, p):
    a, e = p.a, np.exp(1j * theta)
    return [a * p.b * p.c * p.d, a * e, a / e], [a * p.b, a * p.c, a * p.d]


def _aw_closed(p, ctx, pref):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    top = 2.0 * math.pi * q_pochhammer_infinite(a * b * c * d, ctx)
    pairs = [q, a * b, a * c, a * d, b * c, b * d, c * d]
    return top / q_pochhammer_multi(pairs, INFINITE, ctx) * pref


def _sinh_args(x, p, scale):
    """The arguments i s e^x, -i s e^{-x} of the h_sinh factors, s = scale
    times each nonzero parameter, as rows."""
    ex = np.exp(x)
    return [v for prm in (p.a, p.b, p.c, p.d) if prm != 0
            for v in (1j * (scale * prm) * ex, -1j * (scale * prm) / ex)]


def _reversal_weight(t, p, ctx):
    """The h_sinh factors at q a, ..., q d over (-q e^{2t}, -q e^{-2t};q)_inf,
    from one log-product call on all their arguments."""
    q = ctx.q
    den = [-q * np.exp(2.0 * t), -q * np.exp(-2.0 * t)]
    return np.exp(_log_quotient(q_pochhammer_infinite_log, _sinh_args(t, p, q), den, t.size, ctx))


def _reversal_series(t, p):
    q, a, et = p.q, p.a, np.exp(t)
    numer = [q * a * p.b, q * a * p.c, q * a * p.d]
    return numer, [1j * a * q * et, -1j * a * q / et, q * a * p.b * p.c * p.d]


def _reversal_closed(p, ctx, pref):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    pairs = [q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d]
    closed = q_pochhammer_multi(pairs, INFINITE, ctx) / q_pochhammer_infinite(q * a * b * c * d, ctx)
    return closed * pref * math.log(1.0 / q)


def _gaussian_weight(t, p, ctx):
    """e^{-t^2} cosh(alpha_g t) times the h_sinh factors at alpha_g t."""
    ag = p.alpha_g
    rows = _sinh_args(ag * t, p, 1.0)
    lg = -t * t + _log_quotient(q_pochhammer_infinite_log, rows, [], t.size, ctx)
    return np.exp(lg) * np.cosh(ag * t)


def _gaussian_series(t, p):
    q, a, et = p.q, p.a, np.exp(p.alpha_g * t)
    numer = [a * p.b / q, a * p.c / q, a * p.d / q]
    return numer, [1j * a * et, -1j * a / et, a * p.b * p.c * p.d / q**3]


def _gaussian_closed(p, ctx, pref):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    pairs = [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q]
    closed = q_pochhammer_multi(pairs, INFINITE, ctx) / q_pochhammer_infinite(a * b * c * d / q**3, ctx)
    return math.sqrt(math.pi) * q ** (-0.125) * closed * pref


_AW = _Family(AWParams, _aw_violations, False, _aw_weight, _aw_series, _aw_closed)
_REVERSAL = _Family(ReversalParams, _reversal_violations, True, _reversal_weight,
                    _reversal_series, _reversal_closed)
# the Gaussian family, under q = exp(-2 alpha_g^2)
_GAUSSIAN = _Family(AtakishiyevParams, _gaussian_violations, True, _gaussian_weight,
                    _gaussian_series, _gaussian_closed)


def _quadrature(family, fractional):
    """The sides of a plain or fractional check of a quadrature family.

    The plain check integrates the weight and compares it with the closed
    product; the fractional check integrates the weight times the k-sum
    and compares it with the closed product times the fractional prefactor.
    """

    def sides(p, ctx):
        diag = {}

        def f(nodes):
            if not fractional:
                return family.weight(nodes, p, ctx)
            s = ksum(p.x, p.a, p.mu, *family.series(nodes, p), ctx, diag=diag)
            return family.weight(nodes, p, ctx) * s

        # the integrator is looked up by its module-level name at each call,
        # as every primitive here is, so a wrapper bound to that name sees it
        integrate = integrate_line_even_window if family.real_line else integrate_theta
        res = integrate(f)
        pref = frac_prefactor(p.x, p.a, p.mu, ctx) if fractional else 1.0
        lhs_diag = {
            "nodes": res.nodes_used,
            "est_error": res.est_error,
            "window": list(res.window) if res.window else None,
            **diag,
        }
        return res.value, family.closed(p, ctx, pref), lhs_diag, {}

    return sides


# --------------------------------------------------------------------------
# the table, the generic check and the registry
# --------------------------------------------------------------------------

class _Row(NamedTuple):
    params: type
    sides: Callable  # sides(p, ctx) -> lhs, rhs, lhs_diag, rhs_diag
    tol: float  # default tolerance
    rules: tuple  # the domain rules, each p -> list of violations


def _family_rows(name, family, tol):
    """The plain, fractional and -3phi2 rows of a quadrature family."""
    fractional = _quadrature(family, True)
    rules = (family.domain, _fractional_violations)
    pinned = f"fractional-{name}-3phi2"
    return {
        name: _Row(family.params, _quadrature(family, False), tol, (family.domain,)),
        f"fractional-{name}": _Row(family.params, fractional, tol, rules),
        pinned: _Row(family.params, fractional, tol, (*rules, _pinned(pinned, "d"))),
    }


_GENERATING_RULES = (_q_range, _fractional_violations, _generating_violations)
_TABLE = {
    "lemma-three-term":
        _Row(GeneratingParams, _lemma_sides, 1e-8, (_q_range, _lemma_violations)),
    "fractional-generating": _Row(GeneratingParams, _generating_sides, 1e-8, _GENERATING_RULES),
    "fractional-generating-3phi2": _Row(GeneratingParams, _generating_sides, 1e-8, (
        *_GENERATING_RULES, _pinned("fractional-generating-3phi2", "u"))),
    **_family_rows("askey-wilson", _AW, 1e-6),
    **_family_rows("reversal-askey-wilson", _REVERSAL, 1e-5),
    **_family_rows("atakishiyev", _GAUSSIAN, 1e-5),
}


def valid_tolerance(tol) -> bool:
    """Whether ``tol`` is a real number (bool excluded), finite and above 0."""
    return isinstance(tol, (int, float)) and not isinstance(tol, bool) and 0 < tol < math.inf


def _check(name, p, tol=None) -> IdentityReport:
    """Validate p and tol, evaluate both sides of identity ``name`` and
    compare them.

    A check passes when rel_err = |lhs - rhs| / scale <= tol, scale the
    largest of |lhs|, |rhs| and a side's ``abs_terms``, and the quadrature's
    ``est_error`` <= tol * |rhs|; ``failure`` names each bound broken.
    """
    row = _TABLE[name]
    t0 = time.perf_counter()
    tol = row.tol if tol is None else tol
    if not valid_tolerance(tol):
        raise DomainError(f"tolerance must be a finite real > 0, got {tol!r}")
    params = asdict(p)
    infinite = [f"{k}={v}" for k, v in params.items() if not cmath.isfinite(v)]
    if infinite:
        raise DomainError(f"parameters must be finite, got {', '.join(infinite)}")
    violations = [v for rule in row.rules for v in rule(p)]
    if violations:
        raise DomainError("; ".join(violations))
    lhs, rhs, lhs_diag, rhs_diag = row.sides(p, QContext(q=p.q))
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), *(d.get("abs_terms", 0.0) for d in (lhs_diag, rhs_diag)))
    # two exact zeros agree; a NaN side never does
    rel_err = abs_err / scale if scale else (0.0 if abs_err == 0 else math.inf)
    est_error = lhs_diag.get("est_error", 0.0)
    failed = []
    if not rel_err <= tol:
        failed.append(f"rel_err {rel_err:.3e} > tol {tol:.3e}")
    if not est_error <= tol * abs(rhs):
        failed.append(f"est_error {est_error:.3e} > tol*|rhs| {tol * abs(rhs):.3e}")
    if "q" not in params:
        # a derived base (the Gaussian family's) is a diagnostic, so that
        # the params alone re-run the check
        rhs_diag["q"] = p.q
    return IdentityReport(
        identity_name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        lhs_diag=lhs_diag,
        rhs_diag=rhs_diag,
        wall_time=time.perf_counter() - t0,
        tolerance=tol,
        passed=not failed,
        failure="; ".join(failed) or None,
    )


IDENTITY_REGISTRY = {
    name: (row.params, functools.partial(_check, name)) for name, row in _TABLE.items()
}

check_lemma_three_term = IDENTITY_REGISTRY["lemma-three-term"][1]
check_fractional_generating = IDENTITY_REGISTRY["fractional-generating"][1]
check_fractional_generating_3phi2 = IDENTITY_REGISTRY["fractional-generating-3phi2"][1]
check_askey_wilson = IDENTITY_REGISTRY["askey-wilson"][1]
check_fractional_aw = IDENTITY_REGISTRY["fractional-askey-wilson"][1]
check_fractional_aw_3phi2 = IDENTITY_REGISTRY["fractional-askey-wilson-3phi2"][1]
check_reversal_aw = IDENTITY_REGISTRY["reversal-askey-wilson"][1]
check_fractional_reversal_aw = IDENTITY_REGISTRY["fractional-reversal-askey-wilson"][1]
check_fractional_reversal_aw_3phi2 = IDENTITY_REGISTRY["fractional-reversal-askey-wilson-3phi2"][1]
check_atakishiyev = IDENTITY_REGISTRY["atakishiyev"][1]
check_fractional_atakishiyev = IDENTITY_REGISTRY["fractional-atakishiyev"][1]
check_fractional_atakishiyev_3phi2 = IDENTITY_REGISTRY["fractional-atakishiyev-3phi2"][1]


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    """Result of one suite entry: passed / failed / skipped / diverged.

    ``params`` are the entry's parameters, kept so that a skipped or
    diverged entry, which has no report, can be re-run.  ``details`` holds
    a diverged entry's failure data as plain Python values: ``k``,
    ``term_magnitude`` and ``partial`` of a :class:`KSumDivergence`,
    ``partial`` and ``last_term`` of a :class:`NonConvergence`, the
    ``probes`` (half-width to log-magnitude) of a :class:`WindowFailure`.
    """

    identity_name: str
    status: str
    report: IdentityReport | None = None
    reason: str | None = None
    params: dict | None = None
    details: dict | None = None


_FAILURE_FIELDS = {
    KSumDivergence: ("k", "term_magnitude", "partial"),
    NonConvergence: ("partial", "last_term"),
    WindowFailure: ("probes",),
    OverflowError: (),
}

# How a check that raises ends, for run_suite and the command line alike: a
# point outside the domain or at a singularity is skipped (exit 65 for a
# DomainError, 2 otherwise), a sum, product, window or double range that
# gave out is diverged (exit 2).
SKIPPED_ERRORS = (DomainError, PoleError, DivisionByZero)
DIVERGED_ERRORS = tuple(_FAILURE_FIELDS)


def _plain(value):
    # numpy partials (array paths) as lists of Python numbers
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _failure_details(exc) -> dict:
    return {name: _plain(getattr(exc, name)) for name in _FAILURE_FIELDS[type(exc)]}


def run_check(name: str, params: dict, tol=None) -> IdentityReport:
    """Instantiate the parameter bundle for ``name`` and run the check."""
    if name not in IDENTITY_REGISTRY:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(IDENTITY_REGISTRY))}"
        )
    cls, fn = IDENTITY_REGISTRY[name]
    return fn(cls(**params), tol=tol)


def run_suite(entries):
    """Run a list of concrete checks; failures are data, never crashes.

    Each entry is a mapping with keys ``identity``, ``params`` and optional
    ``tolerance``, as produced by :func:`qaw.suite.expand_suite`, which
    rejects unknown identity and parameter names.  Domain violations, poles
    and vanishing factors (``SKIPPED_ERRORS``) yield skipped outcomes,
    convergence, window and overflow errors (``DIVERGED_ERRORS``) yield
    diverged outcomes, each with the diagnostic message and
    the entry's params; diverged outcomes also carry the failure's data
    (``details``).  The report order equals the entry order.
    """
    outcomes = []
    for entry in entries:
        name, params = entry["identity"], entry["params"]
        try:
            report = run_check(name, params, entry.get("tolerance"))
        except DomainError as exc:
            outcomes.append(CheckOutcome(name, "skipped", reason=str(exc), params=params))
        except SKIPPED_ERRORS as exc:
            outcomes.append(CheckOutcome(
                name, "skipped", reason=f"{type(exc).__name__}: {exc}", params=params
            ))
        except DIVERGED_ERRORS as exc:
            outcomes.append(CheckOutcome(
                name, "diverged", reason=f"{type(exc).__name__}: {exc}", params=params,
                details=_failure_details(exc),
            ))
        else:
            outcomes.append(
                CheckOutcome(name, "passed" if report.passed else "failed", report)
            )
    return outcomes
