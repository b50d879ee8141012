"""Declare every identity and compare its two sides: this module's one job.

Each identity is a row of data over the evaluators of the other modules:
the quadrature engines of :mod:`qaw.quad`, the fractional q-integral and
its outer k-sum :func:`qaw.qops.ksum` (imported here by that name, which
the benchmark's tracer wraps and counts as ``identities.ksum``), and the
scalar products of :mod:`qaw.qcore`.  The two sides take disjoint routes
(operator/quadrature versus closed-product/series) that share only the
primitives in :mod:`qaw.qcore` and, in a fractional check, the prefactor
both sides carry.  :func:`_check` compares them and returns an
:class:`IdentityReport` with the residual and convergence diagnostics.
The closed side takes qcore's scalar loops.  The quadrature side declares
each integrand's factors as log rows, and qcore forms their log product.

One table, one check function
-----------------------------
Every check is :func:`_check` on its identity's row of ``_TABLE``, the
only declaration of an identity: the params class (a frozen
:class:`~qaw.context.Record`; its fields are the ``qaw check`` flags and its
constructor's TypeError a :class:`DomainError` of :func:`run_check`), the
function giving both sides, the default tolerance and all domain rules,
applied in order, whose messages join into one :class:`DomainError`.  Before them every field must hold a
number of its declared type (:func:`_type_violations`), and a finite one
(an int past the double range is not), or the check raises a
:class:`DomainError` naming the fields, so that no TypeError or
OverflowError of a rule or a side escapes.  A quadrature family (Askey-Wilson on
[0, pi], reversal and Gaussian on the real line) is a :class:`_Family`
with its own domain rule; its plain check integrates the weight against
the closed product, its fractional check the weight times :func:`ksum`
against the closed product, both times :func:`frac_prefactor`.  A
fractional row adds the rule of :func:`_fractional` (0 < a < x < 1, x/a
finite, mu > 0, x^mu a normal double, x max|numerator| / a < 1).  A
``-3phi2`` form is its parent at d = 0 (u = 0 for the generating pair).
The three quadrature ``-3phi2`` rows still take d, pinned to 0 by a
:func:`_pinned` rule; the generating one takes no u (below).  That is
exact: ``ksum``, the weights and the generating integrand drop zero
parameters, and a zero parameter of a closed product is the factor
(0;q)_inf = 1.  ``IDENTITY_REGISTRY`` maps each name to its params class
and check; :func:`run_check` and the suite runner :func:`run_suite` reach
every check through it, and a check computes on the q of its params.

A row's params class holds only what its check reads, but for the lemma.
The plain Askey-Wilson and reversal rows take :class:`PlainAWParams` (q,
a, b, c, d) and the plain Gaussian row :class:`PlainAtakishiyevParams`
(alpha_g, a, b, c, d); their fractional and ``-3phi2`` rows take the
subclasses :class:`AWParams` (``ReversalParams`` is another name for it)
and :class:`AtakishiyevParams`, which add x and mu.  The lemma and
``fractional-generating`` take :class:`GeneratingParams`, whose x and mu
the lemma does not read, and ``fractional-generating-3phi2``
:class:`Generating3phi2Params`, which has no fields r and u: there r
enters only through r u, so both are class constants 0, which the
generating sides and rules read as they read the fields.

:func:`ksum` is the bare k-series, c_0 = 1: the fractional
prefactor x^mu (a/x;q)_mu / (q;q)_mu depends on x, a, mu and q only, so a
check forms it once and multiplies both of its sides by it after the
quadrature.  The integrand then does not shrink like x^mu, which the
absolute tail bound of the window rule in :mod:`qaw.quad` would misjudge
at large mu: at mu = 1000 the six fractional quadrature rows pass at
their fixed points with 129 nodes.  Every integrand declares its factors
as log rows on its nodes or points, and :mod:`qaw.qcore` forms their log
product, each of its kernels called at most once per integrand call (its
module docstring).  The
real-line weights and the generating q-integrand take
:func:`qaw.qcore._log_quotient`: at four nonzero parameters, 5 rows of
nodes for the reversal weight and 4 for the Gaussian one (one more for
each non-real parameter), and up to 6 rows of points for the generating
q-integrand.  The Askey-Wilson weight takes (e^{2i theta}, e^{-2i
theta};q)_inf as 4 sin^2 theta (q e^{2i theta}, q e^{-2i theta};q)_inf,
with no zero factor at theta = 0.  Its rows that are conjugate at every
node, q e^{+-2i theta}, and prm e^{+-i theta} at a real prm, go to the
pair log :func:`qaw.qcore._pair_log` as one row each, 5 rows at four
nonzero real parameters; a non-real prm's two rows prm e^{+-i theta} go
to :func:`qaw.qcore._log_quotient`.  So at real parameters the weight is
real.  Each pair of the real-line weights, (i s e^t, -i s e^{-t};q)_inf at
a real s (s = scale times a parameter) and (-q e^{2t}, -q e^{-2t};q)_inf,
sits at +-t instead.  The first member of an h_sinh pair is formed as
conj(-i s / e^{-t}), the second's formula at -t conjugated (i s e^t up to
rounding), so the second member at t is exactly the conjugate of the
first at -t; the members of the denominator pair are one real argument at
+-t.  The quadrature samples the real line at exact negatives
(:mod:`qaw.quad`), so each such pair is one mirrored row.  A weight's
value at a node does not depend on the other nodes of its call (the
k-sum's still does, through its row count).  An exact zero factor has the
log -inf, so an integrand is 0 where only its numerator vanishes and not
finite where its denominator does, as the quotient of plain products
would be.

Closed sides.  Every closed side is :func:`_closed` on a list of ratios
(coef, numerator arguments, denominator arguments): the lemma's four
(24 products of 9 distinct arguments), the generating rows' one, whose
coef is (1 - q)^mu times :func:`frac_prefactor`, and the one a family's
``closed`` declares.  It multiplies each product out from 1 in order by
the scalar loop of :mod:`qaw.qcore`, so the two sides of an identity
share no vectorised code, and forms each distinct argument's (v;q)_inf
once, keyed by the argument and the signs of its zero parts, in a table
that lives for that one call.  A ratio whose modulus is not finite (past
the double range, its parts too or not, or over a product that underflows
to 0) raises ``OverflowError``, which a suite reports as diverged; so the
comparison in :func:`_check` takes abs() of finite moduli only.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys
import time
from typing import Callable, ClassVar, NamedTuple

from . import _np as np
from .context import DomainError, QawError, QContext, Record
from .qcore import (
    _log_quotient,
    _modulus,
    _pair_log,
    detect_terminating,
    q_pochhammer,
    q_pochhammer_infinite,
    _NUMBER,
)
from .qops import _Pair, _value, fractional_q_integral, ksum
from .quad import integrate_line_even_window, integrate_theta


# --------------------------------------------------------------------------
# parameter bundles and domain rules
# --------------------------------------------------------------------------

class GeneratingParams(Record):
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


class Generating3phi2Params(Record):
    """Parameters of the 3phi2 form of the fractional generating identity:
    its u = 0 case, where r enters only through r u.  r and u are class
    constants, so the generating sides and rules read them as fields."""

    q: float
    a: float
    x: float
    mu: float
    b: complex = 0.0
    s: complex = 0.0
    t: complex = 0.0
    z: complex = 0.0
    r: ClassVar[float] = 0.0
    u: ClassVar[float] = 0.0


class PlainAWParams(Record):
    """Parameters of the plain Askey-Wilson and reversal integrals."""

    q: float
    a: float
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0


class AWParams(PlainAWParams):
    """Parameters of the fractional Askey-Wilson and reversal integrals:
    the plain ones and the fractional q-integral's x and mu."""

    x: float = 0.0
    mu: float = 1.0


# the reversal integrals take the Askey-Wilson parameters
ReversalParams = AWParams


class PlainAtakishiyevParams(Record):
    """Parameters of the plain Gaussian-weighted real-line integral.

    The base is coupled to the Gaussian scale: q = exp(-2 alpha_g^2).
    """

    alpha_g: float
    a: float = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0

    @property
    def q(self) -> float:
        return math.exp(-2.0 * self.alpha_g * self.alpha_g)


class AtakishiyevParams(PlainAtakishiyevParams):
    """Parameters of the fractional Gaussian-weighted integrals: the plain
    ones and the fractional q-integral's x and mu."""

    x: float = 0.0
    mu: float = 1.0


_REAL = (float, int)


def _type_violations(p):
    """A message for each field of p that holds no number of its declared
    type: a real in a ``float`` field, a real or complex in a ``complex``
    one, never a bool.  Python's numbers pass by their type alone."""
    out = []
    for f in type(p).fields:
        v, real = getattr(p, f.name), f.type == "float"
        if type(v) in (_REAL if real else _NUMBER):
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Real if real else numbers.Complex):
            out.append(f"{f.name} must be a {'real ' if real else ''}number, got {v!r}")
    return out


def _finite(v):
    """Whether the number v is finite; an int (or a fraction) past the
    double range is not, where cmath.isfinite raises OverflowError."""
    try:
        return cmath.isfinite(v)
    except OverflowError:
        return False


def _shown(v):
    """v as a domain error names it: an int past the double range in four
    digits and its exponent, not in hundreds of digits."""
    if isinstance(v, int) and not _finite(v):
        import decimal

        return format(decimal.Decimal(v), ".3e")
    return str(v)


def _q_range(p):
    return [] if 0.0 < p.q < 1.0 else [f"q must lie in (0,1), got {p.q}"]


def _below_one(label, m):
    # a NaN bound (an inf * 0 inside a complex product) is a violation too
    return [f"need {label} < 1, got {m:.3g}"] if not m < 1.0 else []


_NORMAL = sys.float_info.min  # the smallest normal double


def _fractional(numerator, generating=False):
    """The domain rule of a fractional row whose k-sum takes the numerator
    parameters ``numerator(p)`` (at one node: their moduli are the same at
    every node).

    0 < a < x < 1, x/a a finite double and mu > 0: the domain of the
    fractional q-integral, with the ratio the k-sum is scaled by.  Then
    x^mu, and for a ``generating`` row (1 - q)^mu x^mu, a normal double:
    both sides carry it as a factor, and below that they would agree at 0,
    or compare subnormal values, whatever the rest of them.  Then
    x max|numerator| / a < 1, as the k-th term of the k-sum grows like its
    k-th power.
    """

    def rule(p):
        out = []
        if not 0.0 < p.a < p.x < 1.0:
            out.append(f"need 0 < a < x < 1, got a={p.a}, x={p.x}")
        elif not math.isfinite(p.x / p.a):
            out.append(f"need x/a finite, got a={p.a}, x={p.x}")
        if p.mu <= 0:
            out.append(f"mu must be positive, got {p.mu}")
        if out:
            return out
        if p.x**p.mu < _NORMAL:
            return [f"x^mu is below the smallest normal double at x={p.x}, mu={p.mu}"]
        if generating and 0.0 < p.q < 1.0 and ((1.0 - p.q) * p.x) ** p.mu < _NORMAL:
            return [f"(1-q)^mu x^mu is below the smallest normal double at "
                    f"q={p.q}, x={p.x}, mu={p.mu}"]
        ratio = p.x * max((_modulus(_value(v)) for v in numerator(p)), default=0.0) / p.a
        return [f"k-sum diverges: {v}" for v in _below_one("x*max|numerator|/a", ratio)]

    return rule


def _lemma_violations(p):
    m = max(_modulus(p.a * p.s), _modulus(p.a * p.z), _modulus(p.a * p.u))
    return _below_one("max(|as|,|az|,|au|)", m)


def _generating_violations(p):
    """max(|at|, |az|, |aru|) < 1, and a b z not q^-k for an integer k >= 0
    (:func:`detect_terminating`): there the k-sum side's factor (abz;q)_inf
    is 0 and its k-sum has a pole, a removable singularity it cannot
    evaluate."""
    m = max(_modulus(p.a * p.t), _modulus(p.a * p.z), _modulus(p.a * p.r * p.u))
    abz = p.a * p.b * p.z
    k = detect_terminating(abz, QContext(p.q)) if 0.0 < p.q < 1.0 else None
    return _below_one("max(|at|,|az|,|aru|)", m) + (
        [] if k is None else [f"need a*b*z != q^-k, got a*b*z={abz:.6g} = q^-{k}"])


def _aw_violations(p):
    m = max(_modulus(p.a), _modulus(p.b), _modulus(p.c), _modulus(p.d))
    return _q_range(p) + _below_one("max(|a|,|b|,|c|,|d|)", m)


def _reversal_violations(p):
    return _q_range(p) + _below_one("|qabcd|", _modulus(p.q * p.a * p.b * p.c * p.d))


def _gaussian_violations(p):
    if p.alpha_g == 0:
        return ["alpha_g must be nonzero"]
    if p.q == 1.0:
        return [f"q = exp(-2 alpha_g^2) rounds to 1 at alpha_g={p.alpha_g}"]
    q3 = p.q**3
    if q3 == 0.0:
        return [f"q^3 = exp(-6 alpha_g^2) underflows to 0 at alpha_g={p.alpha_g}"]
    return _below_one("|abcd/q^3|", _modulus(p.a * p.b * p.c * p.d / q3))


def _pinned(name, field):
    """The rule of a -3phi2 form ``name``: its parent with ``field`` = 0."""

    def rule(p):
        value = getattr(p, field)
        return [f"{name} needs {field} = 0, got {field}={value}"] if value != 0 else []

    return rule


class IdentityReport(Record):
    identity_name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    lhs_diag: dict = {}  # a fresh dict for each report
    rhs_diag: dict = {}
    wall_time: float = 0.0  # seconds of the two sides and their comparison
    tolerance: float = 0.0
    passed: bool = False
    failure: str | None = None  # the bounds a failed check broke


# --------------------------------------------------------------------------
# the two sides of each identity
# --------------------------------------------------------------------------

def frac_prefactor(x, a, mu, ctx):
    """x^mu (a/x;q)_mu / (q;q)_mu, the fractional-order right-hand prefactor."""
    return (
        x**mu
        * q_pochhammer(a / x, float(mu), ctx)
        / q_pochhammer(ctx.q, float(mu), ctx)
    ).real


def _closed(ratios, ctx):
    """coef * prod (v;q)_inf over numer / prod (v;q)_inf over denom, for
    each (coef, numer, denom) of ``ratios``, in order.

    Each product is multiplied out from 1 in order, as
    ``q_pochhammer_multi`` does, and each distinct argument's (v;q)_inf is
    formed once per call, by qcore's scalar loop (module docstring): in
    floats at a real v in (-1, 1), as every argument of the shipped checks
    is, with the complex loop's bits (:mod:`qaw.qcore`).  A ratio whose
    modulus is not finite raises ``OverflowError``.
    """
    prods = {}

    def poch(v):
        # the signs of zero parts are in the key, as == joins 0.0 and -0.0
        key = (v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag))
        if key not in prods:
            prods[key] = q_pochhammer_infinite(v, ctx)
        return prods[key]

    values = []
    for coef, numer, denom in ratios:
        top, bot = (math.prod(map(poch, args), start=complex(1.0)) for args in (numer, denom))
        # a denominator that underflows to 0 makes the quotient infinite
        value = coef * (top / bot) if bot else math.inf
        if not _modulus(value) < math.inf:
            top, bot = map(_modulus, (top, bot))
            raise OverflowError(
                f"closed side past the double range: products {top:.3g} over {bot:.3g}")
        values.append(value)
    return values


def _lemma_sides(p, ctx):
    """Three-term contiguous relation for the triple product ratio.

    Its four product ratios take 24 products of 9 distinct arguments, each
    formed once by :func:`_closed`.  None is derived from another:
    (a r u q;q)_inf = (a r u;q)_inf / (1 - a r u) is the q-difference step
    the lemma checks.  Both sides vanish at s = u, so the right side
    reports the sum of the |terms| it adds, ``abs_terms``, which scales the
    residual instead.
    """
    a, b, r, s, t, u, z, q = p.a, p.b, p.r, p.s, p.t, p.u, p.z, p.q
    lhs, *terms = _closed([
        (s - u, [a * b * z, a * t, a * r * u], [a * s, a * z, a * u]),
        (u * r, [a * b * z, a * t, a * r * u * q], [a * s * q, a * z, a * u * q]),
        (-u, [a * b * z, a * t, a * r * u], [a * s * q, a * z, a * u]),
        (s - u * r, [a * b * z, a * t, a * r * u * q], [a * s, a * z, a * u * q]),
    ], ctx)
    return lhs, terms[0] + terms[1] + terms[2], {}, {"abs_terms": sum(map(abs, terms))}


def _generating_integrand(y, p, ctx):
    """(b z y, t y, r u y;q)_inf / (s y, z y, u y;q)_inf at the points y,
    from one log-product call on the rows of the nonzero parameters.

    A point with an exact zero factor ends as the plain quotient of the
    products would: it is 0 where only the numerator vanishes, and not
    finite where the denominator does, which the q-integral reports.
    """
    rows = [(1, c * y) for c in (p.b * p.z, p.t, p.r * p.u) if c != 0]
    rows += [(-1, c * y) for c in (p.s, p.z, p.u) if c != 0]
    return np.exp(_log_quotient(rows, y, ctx))


def _generating_numerator(p):
    return [p.a * p.s, p.a * p.z, p.a * p.u]


def _generating_sides(p, ctx):
    """A fractional q-integral of a product ratio versus its k-sum form."""
    a = p.a
    lhs = fractional_q_integral(
        functools.partial(_generating_integrand, p=p, ctx=ctx), p.x, a, p.mu, ctx)
    # the product ratio at y = a, with the k-sum's denominator on top
    numer = _generating_numerator(p)
    denom = [a * p.b * p.z, a * p.t, a * p.r * p.u]
    rhs_diag = {}
    (pref,) = _closed([((1.0 - p.q) ** p.mu * frac_prefactor(p.x, a, p.mu, ctx), denom, numer)],
                      ctx)
    rhs = pref * ksum(p.x, a, p.mu, numer, denom, ctx, diag=rhs_diag)
    return lhs, rhs, {}, rhs_diag


class _Family(NamedTuple):
    """A quadrature family: the pieces that :func:`_quadrature` combines.

    ``plain`` is the params class of its plain row and ``params`` that of
    its fractional rows, which adds x and mu.  ``domain`` is its domain
    rule (the range of q and the bound on the parameter product).
    ``real_line`` selects ``integrate_line_even_window`` over
    ``integrate_theta`` on [0, pi].  ``weight(nodes, p, ctx)`` is the
    weight on a node array and ``series(nodes, p)`` the k-sum's numerator
    and denominator parameters there; ``closed(p)`` is the closed side as
    data, the ratio (coef, numerator arguments, denominator arguments)
    that :func:`_closed` evaluates.
    """

    plain: type
    params: type
    domain: Callable
    real_line: bool
    weight: Callable
    series: Callable
    closed: Callable


def _aw_weight(theta, p, ctx):
    """h(cos 2 theta; 1) / h(cos theta; a, b, c, d):
    (e^{2i theta}, e^{-2i theta};q)_inf = 4 sin^2 theta (q e^{2i theta},
    q e^{-2i theta};q)_inf leaves no zero factor at theta = 0.  A conjugate
    pair is one row of qcore's pair log: q e^{2i theta}, and prm e^{i theta}
    for a nonzero real prm, as h(cos theta; prm) = |(prm e^{i theta};q)_inf|^2
    (Gasper & Rahman, ch. 6).  A non-real prm takes the two rows
    prm e^{+-i theta} of :func:`qaw.qcore._log_quotient`.  So with real
    parameters the weight is real."""
    e, nonzero = np.exp(1j * theta), [prm for prm in (p.a, p.b, p.c, p.d) if prm != 0]
    pairs = [(1, ctx.q, ctx.q * np.exp(2j * theta))]
    pairs += [(-1, prm, prm * e) for prm in nonzero if prm.imag == 0]
    lone = [(-1, v) for prm in nonzero if prm.imag != 0 for v in (prm * e, prm / e)]
    lg = _pair_log(pairs, ctx, lone) + _log_quotient(lone, theta, ctx)
    return 4.0 * np.sin(theta) ** 2 * np.exp(lg)


def _aw_series(theta, p):
    """The k-sum's parameters: the node pair a e^{+-i theta}, conjugate at
    each node as a is real, is one :class:`_Pair`."""
    a = p.a
    return [a * p.b * p.c * p.d, _Pair(a * np.exp(1j * theta))], [a * p.b, a * p.c, a * p.d]


def _aw_closed(p):
    a, b, c, d = p.a, p.b, p.c, p.d
    return 2.0 * math.pi, [a * b * c * d], [p.q, a * b, a * c, a * d, b * c, b * d, c * d]


def _sinh_args(x, p, scale):
    """The numerator rows of the h_sinh factors (i s e^x, -i s e^{-x};q)_inf,
    s = scale times each nonzero parameter, in parameter order.  At a real
    s the two members are one mirrored pair (:func:`_log_quotient`), the
    second -i s / e^x and the first conj(-i s / e^{-x}), the second's
    formula at -x conjugated, which is i s e^x up to rounding (module
    docstring); a non-real s keeps the two rows i s e^x and -i s / e^x."""
    ex, emx = np.exp(x), np.exp(-x)
    rows = []
    for prm in (p.a, p.b, p.c, p.d):
        if prm != 0:
            s = scale * prm
            second = -1j * s / ex
            rows += ([(1, np.conj(-1j * s / emx), second)] if prm.imag == 0
                     else [(1, 1j * s * ex), (1, second)])
    return rows


def _reversal_weight(t, p, ctx):
    """The h_sinh factors at q a, ..., q d over (-q e^{2t}, -q e^{-2t};q)_inf,
    from one log-product call on their rows: the denominator is a mirrored
    pair of real rows (:func:`_log_quotient`), so on nodes symmetric about
    0 it takes one row, as each real parameter's h_sinh factor does."""
    q = ctx.q
    rows = _sinh_args(t, p, q) + [(-1, -q * np.exp(2.0 * t), -q * np.exp(-2.0 * t))]
    return np.exp(_log_quotient(rows, t, ctx))


def _reversal_series(t, p):
    q, a, et = p.q, p.a, np.exp(t)
    numer = [q * a * p.b, q * a * p.c, q * a * p.d]
    return numer, [1j * a * q * et, -1j * a * q / et, q * a * p.b * p.c * p.d]


def _reversal_closed(p):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    pairs = [q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d]
    return math.log(1.0 / q), pairs, [q * a * b * c * d]


def _gaussian_weight(t, p, ctx):
    """e^{-t^2} cosh(alpha_g t) times the h_sinh factors at alpha_g t, from
    one log-product call on their rows (:func:`_sinh_args`): on nodes
    symmetric about 0, one row per real parameter."""
    ag = p.alpha_g
    lg = -t * t + _log_quotient(_sinh_args(ag * t, p, 1.0), t, ctx)
    return np.exp(lg) * np.cosh(ag * t)


def _gaussian_series(t, p):
    q, a, et = p.q, p.a, np.exp(p.alpha_g * t)
    numer = [a * p.b / q, a * p.c / q, a * p.d / q]
    return numer, [1j * a * et, -1j * a / et, a * p.b * p.c * p.d / q**3]


def _gaussian_closed(p):
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    pairs = [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q]
    return math.sqrt(math.pi) * q ** (-0.125), pairs, [a * b * c * d / q**3]


_AW = _Family(PlainAWParams, AWParams, _aw_violations, False, _aw_weight, _aw_series,
              _aw_closed)
_REVERSAL = _Family(PlainAWParams, ReversalParams, _reversal_violations, True,
                    _reversal_weight, _reversal_series, _reversal_closed)
# the Gaussian family, under q = exp(-2 alpha_g^2)
_GAUSSIAN = _Family(PlainAtakishiyevParams, AtakishiyevParams, _gaussian_violations, True,
                    _gaussian_weight, _gaussian_series, _gaussian_closed)


def _quadrature(family, fractional):
    """The sides of a plain or fractional check of a quadrature family.

    The plain check integrates the weight and compares it with the closed
    product; the fractional check integrates the weight times the k-sum
    and compares it with the closed product, and multiplies both sides,
    and the quadrature's error estimate, by the fractional prefactor.
    The k-sum diagnostics are those of the integrand calls whose nodes all
    lie inside the chosen window (on [0, pi], of every call): a window
    probe past it may need more rows than the integrated nodes do.
    """

    def sides(p, ctx):
        calls = []  # (largest node, k-sum diagnostics) of each integrand call

        def f(nodes):
            if not fractional:
                return family.weight(nodes, p, ctx)
            call_diag = {}
            s = ksum(p.x, p.a, p.mu, *family.series(nodes, p), ctx, diag=call_diag)
            calls.append((nodes.max(), call_diag))
            return family.weight(nodes, p, ctx) * s

        # the integrator is looked up by its module-level name at each call,
        # as every primitive here is, so a wrapper bound to that name sees it
        integrate = integrate_line_even_window if family.real_line else integrate_theta
        res = integrate(f)
        top = res.window[1] if res.window else math.inf
        inside = [d for largest, d in calls if largest <= top]
        diag = {key: max(d[key] for d in inside) for key in (inside[0] if inside else ())}
        pref = frac_prefactor(p.x, p.a, p.mu, ctx) if fractional else 1.0
        lhs_diag = {
            "nodes": res.nodes_used,
            "est_error": res.est_error * abs(pref),
            "window": list(res.window) if res.window else None,
            **diag,
        }
        (closed,) = _closed([family.closed(p)], ctx)
        return pref * res.value, pref * closed, lhs_diag, {}

    return sides


# --------------------------------------------------------------------------
# the table, the generic check and the registry
# --------------------------------------------------------------------------

class _Row(NamedTuple):
    params: type
    sides: Callable  # sides(p, ctx) -> lhs, rhs, lhs_diag, rhs_diag
    tol: float  # default tolerance
    rules: tuple  # the domain rules, each p -> list of violations
    numpy: bool = True  # whether its sides compute with numpy


def _family_rows(name, family, tol):
    """The plain, fractional and -3phi2 rows of a quadrature family."""
    fractional = _quadrature(family, True)
    # the k-sum's numerator, at the node 0, exists inside the family's domain only
    rules = (family.domain,
             _fractional(lambda p: [] if family.domain(p) else family.series(0.0, p)[0]))
    pinned = f"fractional-{name}-3phi2"
    return {
        name: _Row(family.plain, _quadrature(family, False), tol, (family.domain,)),
        f"fractional-{name}": _Row(family.params, fractional, tol, rules),
        pinned: _Row(family.params, fractional, tol, (*rules, _pinned(pinned, "d"))),
    }


_GENERATING_RULES = (_q_range, _fractional(_generating_numerator, generating=True),
                     _generating_violations)
_TABLE = {
    "lemma-three-term":
        _Row(GeneratingParams, _lemma_sides, 1e-8, (_q_range, _lemma_violations), numpy=False),
    "fractional-generating": _Row(GeneratingParams, _generating_sides, 1e-8, _GENERATING_RULES),
    "fractional-generating-3phi2":
        _Row(Generating3phi2Params, _generating_sides, 1e-8, _GENERATING_RULES),
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
    tol = row.tol if tol is None else tol
    if not valid_tolerance(tol):
        raise DomainError(f"tolerance must be a finite real > 0, got {tol!r}")
    wrong = _type_violations(p)
    if wrong:
        raise DomainError("; ".join(wrong))
    # a shallow copy of the fields: asdict would deep-copy every value
    params = dict(vars(p))
    infinite = [f"{k}={_shown(v)}" for k, v in params.items() if not _finite(v)]
    if infinite:
        raise DomainError(f"parameters must be finite, got {', '.join(infinite)}")
    violations = [v for rule in row.rules for v in rule(p)]
    if violations:
        raise DomainError("; ".join(violations))
    if row.numpy:
        # numpy loads at its first attribute access (qaw/__init__.py): the
        # clock starts after it, or a process's first check would count some
        # 100 ms of loading as its own time
        np.ndarray  # noqa: B018
    t0 = time.perf_counter()
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


def identity_entry(name: str):
    """``IDENTITY_REGISTRY[name]``, the params class and check of identity
    ``name``; a KeyError that names the known identities if there is none."""
    if name not in IDENTITY_REGISTRY:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(IDENTITY_REGISTRY))}"
        )
    return IDENTITY_REGISTRY[name]


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------

class CheckOutcome(Record):
    """Result of one suite entry: passed / failed / skipped / diverged.

    ``params`` are the entry's parameters, kept so that a skipped or
    diverged entry, which has no report, can be re-run.  ``details`` holds
    a diverged entry's failure data, the ``fields`` of its error's class
    (:mod:`qaw.context`), as plain Python values.
    """

    identity_name: str
    status: str
    report: IdentityReport | None = None
    reason: str | None = None
    params: dict | None = None
    details: dict | None = None


def _plain(value):
    # numpy partials (array paths) as lists of Python numbers.  An exact
    # Python number answers without loading numpy; numpy's float64, a float
    # subclass, still goes through tolist
    if type(value) not in _NUMBER and isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def run_check(name: str, params: dict, tol=None) -> IdentityReport:
    """Instantiate the parameter bundle for ``name`` and run the check.

    A KeyError for an unknown identity, and a :class:`DomainError` naming
    the keys of ``params`` that its params class does not take, or the
    fields without a default that ``params`` lacks.
    """
    cls, fn = identity_entry(name)
    try:
        p = cls(**params)
    except TypeError as exc:
        raise DomainError(f"parameters of {name}: {exc}") from None
    return fn(p, tol=tol)


def run_suite(entries):
    """Run a list of concrete checks; failures are data, never crashes.

    Each entry is a mapping with keys ``identity``, ``params`` and optional
    ``tolerance``, as produced by :func:`qaw.suite.expand_suite`.  An
    unknown identity ends skipped with :func:`identity_entry`'s message, and
    a check that raises a :class:`QawError` (unknown or missing params keys
    too: :func:`run_check`) ends as its class's ``outcome``, skipped or diverged,
    and an ``OverflowError`` diverged (the table in :mod:`qaw.context`),
    with the diagnostic message and the entry's params; a diverged outcome
    also carries the error's ``fields`` (``details``).  The report order
    equals the entry order.
    """
    outcomes = []
    for entry in entries:
        name, params = entry["identity"], entry["params"]
        try:
            identity_entry(name)
        except KeyError as exc:
            outcomes.append(CheckOutcome(name, "skipped", reason=exc.args[0], params=params))
            continue
        try:
            report = run_check(name, params, entry.get("tolerance"))
        except (QawError, OverflowError) as exc:
            status = getattr(exc, "outcome", "diverged")
            details = None
            if status == "diverged":
                details = {f: _plain(getattr(exc, f)) for f in getattr(exc, "fields", ())}
            reason = str(exc) if isinstance(exc, DomainError) else f"{type(exc).__name__}: {exc}"
            outcomes.append(CheckOutcome(name, status, reason=reason, params=params,
                                         details=details))
        else:
            outcomes.append(
                CheckOutcome(name, "passed" if report.passed else "failed", report)
            )
    return outcomes
