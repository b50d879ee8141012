"""Operator layer: ksum, the q-difference-equation route of the fractional
q-integral, beside that q-integral's defining two-branch sum, the
Thomae-Jackson q-integral, the q-difference operator D_c and the Cauchy
operator T(a, b D_c).  The generating rows of :mod:`qaw.identities`
compare the two routes; its fractional quadrature rows integrate a weight
times the k-sum.

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

Stable evaluation of the outer k-sums
-------------------------------------
Every fractional identity carries an outer sum over k whose k-th term
involves a terminating series with numerator parameter q^-k at argument q.
Summed term by term, that series is an alternating sum whose intermediate
terms reach magnitude ~ q^{-k(k+1)/2}; in double precision the cancellation
destroys all significant digits beyond k of about 6.  :func:`ksum` uses
an exact reformulation instead: with

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
so the sum is taken as sum_m (g_m s^m) (w_m / s^m), s = x/a itself
(:func:`ksum` requires x/a and a/x finite): the Taylor coefficients of
G(s y) times the convolution of c_k / s^k with s^-j / (q;q)_j.  Neither
factor leaves the double range at any row count.  g_m s^m behaves like
the terms, (x max|n_i| / a)^m (below).  c_k / s^k = (a q^mu / x;q)_k /
(q^{mu+1};q)_k is bounded, so at a < x the q-binomial theorem bounds
|w_m / s^m| by max_k |c_k / s^k| / (a/x;q)_inf.  The rows m of g grow in
steps, 16 at a time from 32 to 256 and then about M/8 at a time (rounded
up to 16), so a long sum meets its tail rule after O(log M) tests.  Per
node, running sums over each step's new rows give the rule: the last 8
rows of both |g_m s^-m| and |g_m w_m| below ``EPS_TERM`` of their
totals.  The value is formed once, over the final rows.  A step whose
sum is not finite at some node, or a sum not settled at 4096 rows,
raises :class:`KSumDivergence`.  The terms behave like (x max|n_i| /
a)^m, so the domain rule of a fractional row (:mod:`qaw.identities`)
keeps that ratio below 1; a sum inside it that does not settle converges
too slowly for 4096 rows.
The buffer of g grows with the tables (below), to 128 rows and then to
twice as many each time the rows pass them, so a short sum allocates for
128 rows and a long one for less than twice its own.  The report's
``k_terms`` is the most rows a k-sum of the check used on the nodes it
integrated (not on a window probe past its window), ``k_digits_lost``
the most digits its cancellation can cost, log10(sum |g_m w_m| / |sum
g_m w_m|) at a node, and ``g1_digits_lost`` the most the division by
G(1) = sum g_m s^-m can cost, log10(sum |g_m s^-m| / |G(1)|), both from
the same running sums and at most the 15.65 digits of a double.

Tables.  Everything but g is the same at every node: the weights w_m /
s^m, s^-m and the recurrence's q^{m-j} and 1 / (1 - q^m) are formed
together, as float64, for the first 128 rows, and again at twice the
length when the rows pass it.  c_k / s^k is the running product of (1 -
(a/x) q^{mu+k}) / (1 - q^{mu+k+1}) and s^-m that of a/x (repeated
multiplication rounds alike on every SIMD target, numpy's vectorised
``power`` need not), and the weights are one convolution, w_m / s^m =
(q;q)_m sum_k (c_k / s^k) s^-(m-k) / (q;q)_{m-k}.  The recurrence
coefficients (D_j q^{m-j} - N_j) (1 / (1 - q^m)) are formed from them 16
rows at a time, so their scratch stays small at any row count.  The rows
take the dtype of the two factor polynomials: float64 where every factor
is real (a number whose imaginary part is 0 counts as real, and a node
pair enters as its real quadratic, below), else complex.  Complex rows
take the float64 tables as they are: numpy multiplies a complex array by
a real one after casting each entry r to r + 0j, and the product with
1/d + 0j equals the quotient by d + 0j but for the sign of a zero part,
so the kernel has the bits of the complex forms and casts nothing
itself.

Batching.  A quadrature node enters the k-sum only through the series
parameters (a e^{+-i theta}, i a q e^{+-t}, ...), so :func:`ksum` takes
each parameter as a scalar or as an array over the nodes of a quadrature
level and evaluates all nodes in one (rows x nodes) array, with the tail
rule applied per node; its row count is still set by the slowest node of
the call.  A node-free parameter keeps a single column in the factor
polynomials.  The Askey-Wilson node pair a e^{+-i theta} is conjugate
at every node, as a is real, so that family hands it over as one entry,
a :class:`_Pair`: (1 - s u y)(1 - s conj(u) y) = 1 - 2 Re(s u) y +
|s u|^2 y^2 is real, as h(cos theta; a) = |(a e^{i theta};q)_inf|^2
(Gasper & Rahman, ch. 6).  It is formed from s u, whose square stays
normal where a^2 underflows (a = 4e-309).  So at real parameters that
k-sum runs on float64 rows and its check's lhs is real to the bit.  The
real-line pairs i a q e^{+-t} and i a e^{+-alpha_g t} are not conjugate
at one node and stay two complex parameters.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import NamedTuple

from . import _np as np
from .context import DomainError, KSumDivergence, QContext
from .qcore import (CONSECUTIVE_SMALL, EPS_TERM, MAX_TERMS, _divide, _factor_counts, _modulus,
                    _power, _real_args, _series_sum, q_pochhammer_infinite)
from .quad import _evaluate


# --------------------------------------------------------------------------
# the Jackson and fractional q-integrals
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# stable outer k-sum
# --------------------------------------------------------------------------

_MAX_ROWS = 4096  # the most Taylor coefficients a k-sum takes
_ALL_DIGITS = -math.log10(sys.float_info.epsilon)


class _Pair(NamedTuple):
    """The k-sum parameters u and conj(u), one pair at each node, as one
    entry: their factor (1 - u y)(1 - conj(u) y) = 1 - 2 Re(u) y + |u|^2 y^2
    is real (the Askey-Wilson node pair a e^{+-i theta})."""

    u: object


def _value(p):
    """The array of a k-sum parameter: u for a :class:`_Pair`."""
    return p.u if isinstance(p, _Pair) else p


def _param(p):
    """A k-sum parameter as an array, or a :class:`_Pair` of one; a
    complex number whose imaginary part is 0 counts as real."""
    if isinstance(p, _Pair):
        return _Pair(np.asarray(p.u))
    return np.asarray(p.real if isinstance(p, complex) and p.imag == 0 else p)


def _factor_poly(params, s, r, shape, dtype):
    """Coefficients of prod_i (1 - s c_i y), s = x/a of :func:`ksum`, over
    the nonzero parameters c_i of :func:`_param`, of ``dtype``: r + 1 rows,
    zero past the product's degree (at most the recurrence order r), each of
    the node ``shape`` of the call, or a single column where no parameter
    varies over the nodes.  A :class:`_Pair` u enters as the real quadratic
    1 - 2 Re(s u) y + |s u|^2 y^2, formed from s u, whose square does not
    underflow where a subnormal u's would."""
    # a node-free polynomial keeps one column, which the recurrence broadcasts
    c = np.zeros((r + 1,) + (shape if any(_value(p).ndim for p in params) else (1,)), dtype=dtype)
    c[0] = 1.0
    i = 0  # the degree so far
    for p in params:
        if isinstance(p, _Pair):
            v = s * p.u
            step = -2.0 * v.real * c[: i + 2]
            step[1:] += (v.real * v.real + v.imag * v.imag) * c[: i + 1]
            c[1 : i + 3] += step
            i += 2
        else:
            c[1 : i + 2] -= s * p * c[: i + 1]
            i += 1
    return c


def _taylor_rows(g, start, stop, Nj, Dj, qpow, inv):
    """Fill the rows m = start, ..., stop - 1 of the Taylor coefficients of G.

    Row m + r of g holds g_m, after r rows of zeros; ``Nj`` and ``Dj`` are
    the slices N_j, D_j, j = r, ..., 1, of the factor polynomials, ``qpow``
    and ``inv`` the tables q^{m-j} and 1 / (1 - q^m) of :func:`_tables`,
    and N(y) G(y) = D(y) G(q y) gives
    g_m = sum_{j>=1} (D_j q^{m-j} - N_j) (1 / (1 - q^m)) g_{m-j}.
    """
    r = len(Nj)
    buf = np.empty((r,) + g.shape[1:], dtype=g.dtype)
    # the recurrence coefficients of 16 rows at a time bound the scratch memory
    for lo in range(start, stop, 16):
        hi = min(lo + 16, stop)
        C = np.subtract(Dj * qpow[lo:hi, :, None], Nj)
        C *= inv[lo:hi, :, None]
        for mm, c in zip(range(lo, hi), C):
            np.multiply(c, g[mm : mm + r], out=buf)
            np.add.reduce(buf, axis=0, out=g[mm + r])


def _tables(x, a, mu, q, r, L):
    """The node-free float64 tables of the rows m < L: the weights w_m / s^m
    and s^-m, s = x/a, and the recurrence's q^{m-j}, j = r, ..., 1, and
    1 / (1 - q^m).

    Complex rows take them as they are: numpy casts each real t to t + 0j
    at use, so a product keeps the bits of a complex array times, or over,
    a real one (module docstring; ``tests/test_qops.py`` checks both).
    """
    m = np.arange(L)
    ratios = (1.0 - (a / x) * q ** (mu + m[:-1])) / (1.0 - q ** (mu + m[:-1] + 1))  # k = m < L - 1
    c = np.cumprod(np.concatenate(([1.0], ratios)))  # c_k / s^k
    den = 1.0 - q**m
    den[0] = 1.0  # (q;q)_0; no recurrence row is m = 0
    qfac = np.cumprod(den)
    down = np.cumprod(np.concatenate(([1.0], np.full(L - 1, a / x))))  # s^-m
    w = np.convolve(c, down / qfac)[:L] * qfac
    qpow = q ** (m[:, None] - np.arange(r, 0, -1))  # q^{m-j}
    return w, down, qpow, (1.0 / den)[:, None]


def ksum(x, a, mu, phi_numer, phi_denom, ctx, diag=None):
    """sum_k (x/a)^k (a q^mu/x;q)_k / (q^{mu+1};q)_k * phi_k.

    That is the outer k-sum of the fractional identities over their
    prefactor :func:`qaw.identities.frac_prefactor`, which the checks apply.
    phi_k is the terminating series with numerator (q^-k, *phi_numer),
    denominator (q, *phi_denom) and argument q, summed as
    sum_m g_m w_m / G(1) with the node-free weights w (module docstring).
    Each parameter is a scalar or an array with one entry per node, or a
    :class:`_Pair` of one, which stands for the two parameters u and
    conj(u) and enters as one real quadratic factor.  A number whose
    imaginary part is 0 counts as real.  The result is a complex for
    all-scalar parameters and an array over the nodes otherwise, float64
    where every factor is real.  An x, a or mu that is not a real number
    is a :class:`DomainError` naming it and its type.  The rows are scaled
    by x/a ("Sizing" in the module docstring), so a, x, x/a and a/x must
    be positive and finite, and mu in (0, inf), or it raises a
    :class:`DomainError` naming x, a and mu.  Raises
    :class:`KSumDivergence` for the first node whose sum is not finite, or
    at 4096 rows for the first node that has not settled; its ``k`` is the
    number of rows with a finite partial sum, and its message names the
    node's ratio x max|numerator| / a (|u| for a pair) and, for an
    unsettled sum whose ratio is below 1, calls it convergent but too slow.
    ``diag`` gets the call's row count ``k_terms``, its largest
    ``k_digits_lost``, log10(sum |g_m w_m| / |sum g_m w_m|) at a node, and
    its largest ``g1_digits_lost``, log10(sum |g_m s^-m| / |G(1)|), each
    digit count between 0 and the 15.65 digits of a double; they replace
    what ``diag`` held.  A quadrature check gives each integrand call its
    own ``diag`` and keeps those of the calls inside its window
    (:func:`qaw.identities._quadrature`).
    """
    _real_args("ksum", x=x, a=a, mu=mu)
    if not (a > 0 and 0 < x / a < math.inf and a / x < math.inf and 0 < mu < math.inf):
        raise DomainError(f"ksum needs a > 0, x > 0, x/a and a/x finite and 0 < mu < inf, "
                          f"got x={x}, a={a}, mu={mu}")
    s = x / a  # g_m s^m and w_m / s^m stay in the double range ("Sizing")
    params = [_param(p) for p in (*phi_numer, *phi_denom)]
    values = [_value(p) for p in params]
    shape = np.broadcast(0.0, *values).shape or (1,)  # (1,) for scalars only
    # float64 rows where every factor is real, a pair's always
    dtype = np.result_type(0.0, *(p for p in params if not isinstance(p, _Pair)))
    parts = [[p for p in part if np.count_nonzero(_value(p))]
             for part in (params[: len(phi_numer)], params[len(phi_numer) :])]
    # the recurrence order, the larger degree of N and D
    r = max(sum(2 if isinstance(p, _Pair) else 1 for p in part) for part in parts)
    # the recurrence slices N_j, D_j, j = r, ..., 1; a parameter near the
    # double range can overflow here, and the sum then ends in
    # KSumDivergence below
    with np.errstate(over="ignore", invalid="ignore"):
        Nj, Dj = (_factor_poly(part, s, r, shape, dtype)[r:0:-1] for part in parts)
    g = np.zeros((r + 1,) + shape, dtype=dtype)  # g_0 = 1 after r rows of zeros
    g[r] = 1.0
    # per node: sum |g_m s^-m| and sum |g_m w_m| over the rows so far; a
    # node's sum is finite while both are
    sums = np.zeros((2,) + shape)
    M, new, L = 0, 32, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            if new > L:
                L = max(2 * L, 128)
                w, down, qpow, inv = _tables(x, a, mu, ctx.q, r, L)
                g, head = np.zeros((L + r,) + shape, dtype=dtype), g
                g[: len(head)] = head  # the new rows stay untouched zero pages till written
            _taylor_rows(g, max(M, 1), new, Nj, Dj, qpow, inv)
            rows = g[r + M : r + new]
            mags = np.empty((2,) + rows.shape)  # |g_m s^-m| and |g_m w_m|
            np.multiply(np.abs(rows), down[M:new, None], out=mags[0])
            np.abs(rows * w[M:new, None], out=mags[1])
            sums += mags.sum(axis=1)
            M = new
            finite = np.isfinite(sums).all(axis=0)
            # the tail rule, per node: the last 8 new rows of |g_m s^-m| and
            # of |g_m w_m| below EPS_TERM of their running totals
            tail = mags[:, -8:].sum(axis=1)
            settled = (tail < EPS_TERM * np.maximum(sums, 1e-300)).all(axis=0)
            if finite.all() and settled.all():
                break
            if not finite.all() or M >= _MAX_ROWS:
                # report the first node not finite, else the first not
                # settled, up to its last finite partial sum
                n = np.flatnonzero(~finite if not finite.all() else ~settled)[0]
                terms = g[r : r + M, n] * w[:M]
                reached = int(np.isfinite(np.cumsum(terms)).cumprod().sum())
                G1n = (g[r : r + reached, n] * down[:reached]).sum()
                last = float(abs(terms[reached - 1] / G1n))
                # the terms behave like the node's ratio to the m-th power
                ratio = x * max((abs(np.broadcast_to(v, shape).flat[n])
                                 for v in values[: len(phi_numer)]), default=0.0) / a
                state = "did not settle within" if finite.all() else "is not finite past"
                slow = (f": convergent, too slow for {_MAX_ROWS} coefficients"
                        if finite.all() and ratio < 1 else "")
                raise KSumDivergence(
                    f"outer k-sum {state} {reached} Taylor coefficients (|term|={last:.3e}, "
                    f"x*max|numerator|/a={ratio:.3g}{slow})",
                    k=reached,
                    term_magnitude=last,
                    partial=complex(terms[:reached].sum() / G1n),
                )
            new = min(M + (16 if M < 256 else -(-M // 128) * 16), _MAX_ROWS)

        g = g[r : r + M]
        S = (g * w[:M, None]).sum(axis=0)
        G1 = (g * down[:M, None]).sum(axis=0)
        total = S / G1
        # the digits the cancellation of G(1) and of S can cost: at most all
        # the digits of a double, where |S| < eps sum |g_m w_m|, and at least
        # none, where rounding puts |S| a hair above sum |g_m w_m|
        digits = np.fmin(np.log10(sums) - np.log10(np.abs((G1, S))), _ALL_DIGITS)
        g1_lost, lost = np.fmax(digits, 0.0).max(axis=1)

    if diag is not None:
        diag.update(k_terms=M, k_digits_lost=float(lost), g1_digits_lost=float(g1_lost))
    return complex(total[0]) if all(v.ndim == 0 for v in values) else total


# --------------------------------------------------------------------------
# the q-difference and Cauchy operators
# --------------------------------------------------------------------------

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
