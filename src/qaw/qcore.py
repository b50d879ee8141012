"""Scalar building blocks: q-Pochhammer symbols, q-bracket, q-gamma,
basic hypergeometric series and the h(.) weight functions.

The infinite products and the weights ``h_cos``/``h_sinh_log`` also take an
array (of parameters, angles or points) and return one of its shape.

* The product (a;q)_inf of an array forms the factors of each entry up
  to its own factor count (the stop rule below) in bounded blocks and
  multiplies them in the scalar loop's order.  The public array ``h_cos``
  and ``q_pochhammer_infinite`` use it, and so does the Cauchy operator's
  integrand; no identity check does.
* Its log gives each entry a head of its own: the h factors 1 - a q^k
  with |a q^k| >= LOG_RADIUS, logged one by one, and for the rest the
  q-log series (Gasper & Rahman, *Basic Hypergeometric Series*, ch. 1)

      log (z;q)_inf = -sum_{n>=1} z^n / (n (1 - q^n)),   |z| < 1,

  at z = a q^h, cut at LOG_TERMS terms.  So an entry's value does not
  depend on the other entries of its call, here as in the product, and a
  factor with |a q^k| far below 1 costs no log.  The scalar log takes the
  same head and series in plain Python.  An exact zero factor gives -inf,
  the log of the 0 that the product gives, so ``h_sinh`` there is 0.  All
  four integrands of the identity checks take their products as logs,
  one log call per integrand call.

``DivisionByZero`` is raised only where a value is divided by a vanishing
product or factor (a fractional-order ``q_pochhammer``, a ``phi_series``
denominator).  ``q_pochhammer`` takes an array with the infinite order
only; a finite or fractional order of an array is a ``DomainError``.

Order convention for q-Pochhammer symbols
-----------------------------------------
``q_pochhammer(a, order, ctx)`` accepts three kinds of order:

* a nonnegative integer (an integral number other than a bool, numpy's
  too) -- the finite product prod_{k<n} (1 - a q^k).
  Above MAX_FACTORS factors its loop stops at the first factor that leaves
  the product unchanged, since every later factor is nearer 1, or where
  the product is not finite: at q = 0.5, a = 0.5 and n = 10^12 after 54
  factors.  That is about ln(eps / (2|a|)) / ln(1/q) factors, fewer only
  where the product underflows first: at q = 0.999999 and a = 0.5 after
  1076, a subnormal unit from 0, but at a = 0.000386 after 2.96e7, about
  8 s (2-core x86-64, CPython 3.11);
* ``math.inf`` (the module constant :data:`INFINITE`) -- the infinite
  product;
* any other real ``float`` alpha -- the fractional symbol, defined as the
  ratio (a;q)_inf / (a q^alpha; q)_inf.

The ratio definition agrees with the finite product at integer orders and
is the unique choice consistent with the q-gamma function.

Truncation policy: an infinite product takes the factors k < n, n the
least k with |a q^k| < tau = min(EPS_FACTOR, t / (1 + t)), t = EPS_TERM
(1 - q).  Then |a q^n| < EPS_FACTOR, and the bound |a q^n| / ((1 - q)
(1 - |a q^n|)) on the tail sum_{j>=n} |a q^j| / (1 - |a q^j|), which
bounds the relative truncation error, is below EPS_TERM.

One count rule and one cap error serve all four paths (the scalar loop
and log, the array product and log).  :func:`_factor_counts` (|a|, q,
bound) is the least k with |a| q^k < bound: under tau the factor count
n, under LOG_RADIUS the log's head h.  Every cap decision is n >=
MAX_FACTORS, which (q;q)_inf meets from q = 0.9965 on.  A capped scalar
product or log raises :class:`NonConvergence` ``<product> with a=<a> did
not converge in 10000 factors``, its ``partial`` the value of the first
MAX_FACTORS factors (the log: its head, cut there, and the series of the
rest up to there) and its ``last_term`` |a| q^MAX_FACTORS.  An array
whose largest |a| (a NaN one first) is capped hands that entry to the
scalar path before it forms any factor, so it raises that entry's error.

Every series summed term by term -- ``phi_series``, the q-integrals and
the Cauchy operator of :mod:`qaw.qops` -- is summed by :func:`_series_sum`,
the one copy of this rule.  A non-terminating series stops after
CONSECUTIVE_SMALL successive terms below EPS_TERM of its partial sum and
raises :class:`NonConvergence` ``<series> did not converge in <cap>
terms`` at its term cap, with the partial sum and the last |term|; any
series raises ``<series>: term <n> or the partial sum through it is not
finite`` once its partial sum is not finite, with the last finite partial
sum.  One whose terms fall like q^n needs more than MAX_TERMS of them at q
above about 0.9966.  All five are constants (EPS_TERM 1e-15, EPS_FACTOR
1e-17, MAX_FACTORS and MAX_TERMS 10 000, CONSECUTIVE_SMALL 3), as are the
log's LOG_RADIUS 1/8 and LOG_TERMS 20; :class:`QContext` carries the base
q alone.

A modulus is :func:`_modulus`, the hypot of the parts, wherever abs() of a
complex could raise ``OverflowError``: past the double range with both
parts finite, it is inf.  So "finite" means a finite modulus, for a
partial sum as for a quadrature level and a closed side, and every abs()
taken after that test is safe.  The series sum takes abs() per term and
the modulus only where abs() raises: a hypot per term made ``phi_series``
calls a third slower (2-core x86-64, CPython 3.11).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

from . import _np as np
from .context import (
    DivisionByZero,
    DomainError,
    NonConvergence,
    PoleError,
    QContext,
)

INFINITE = math.inf

# Python numbers, numpy's float64 and complex128 among them: the scalar
# paths test for these before asking numpy whether a value is an array, so
# that scalar calls never load it (qaw/__init__.py)
_NUMBER = (float, complex, int)

_TERMINATING_DETECT_TOL = 1e-12

# the truncation policy (module docstring)
EPS_FACTOR = 1e-17
MAX_FACTORS = 10_000
CONSECUTIVE_SMALL = 3
EPS_TERM = 1e-15
MAX_TERMS = 10_000

# entries per block of factors in the array path (512 KB of complex)
_BLOCK_ELEMENTS = 1 << 15

# the log paths: head factors while |a q^k| >= LOG_RADIUS, then LOG_TERMS
# terms of the q-log series; wherever MAX_FACTORS lets a product through, the
# remainder sum_{n>LOG_TERMS} |z|^n / (n (1 - q^n)) is below
# LOG_RADIUS^LOG_TERMS / (1 - LOG_RADIUS) < 1.2e-18
LOG_RADIUS = 0.125
LOG_TERMS = 20
# head logs are summed in chunks of this many columns (a power of 2)
_SUM_CHUNK = 16


def _modulus(v) -> float:
    """|v| for a number v as the hypot of its parts: inf past the double
    range with finite parts, where abs() of a complex raises (as it may for
    a complex NaN, reading a stale errno)."""
    return math.hypot(v.real, v.imag)


def _series_sum(terms, what, cap, scale=None, tol=EPS_TERM):
    """The sum of the series whose terms the generator ``terms`` yields,
    under the truncation policy (module docstring): the one loop that
    keeps the running sum, the small-term count and the two errors, which
    name the series ``what``.

    The generator is sent the modulus of each partial sum (None first)
    and yields the next term.  The sum ends at a None term, at the end of
    a run of CONSECUTIVE_SMALL terms below ``tol`` of the partial sum (a
    terminating series passes 0, which no term is below), or, when the
    generator runs out, in the cap error ``<what> did not converge in
    <cap> terms``.  The sum, and the partial sum an error carries, is
    multiplied by ``scale`` where one is given.
    """
    scaled = (lambda s: s) if scale is None else (lambda s: scale * s)
    total, small, size, mag, n = complex(0.0), 0, None, 0.0, 0
    try:
        while (term := terms.send(size)) is not None:
            nxt = total + term
            try:
                size, mag = abs(nxt), abs(term)
            except OverflowError:
                size, mag = _modulus(nxt), _modulus(term)
            if not size < math.inf:
                raise NonConvergence(f"{what}: term {n} or the partial sum through it is not "
                                     "finite", scaled(total), mag)
            total = nxt
            # as tol * max(size, 1e-300), without the call that costs a third of a term
            small = small + 1 if mag < tol * (size if size > 1e-300 else 1e-300) else 0
            if small >= CONSECUTIVE_SMALL:
                break
            n += 1
    except StopIteration:
        raise NonConvergence(f"{what} did not converge in {cap} terms", scaled(total),
                             mag) from None
    return scaled(total)


def _tau(q: float) -> float:
    """The stop rule's bound tau on |a q^n| (module docstring)."""
    t = EPS_TERM * (1.0 - q)
    return min(EPS_FACTOR, t / (1.0 + t))


def _factor_counts(mag, q: float, bound=None):
    """The least k with mag q^k < bound, at most MAX_FACTORS, for |a| = mag,
    a float or an array: the factors (a;q)_inf takes under the default
    bound tau (module docstring), where MAX_FACTORS means capped, and the
    head of its log under LOG_RADIUS.  A NaN or infinite |a| counts
    MAX_FACTORS."""
    log_bound = math.log(_tau(q) if bound is None else bound)
    if not isinstance(mag, _NUMBER) and isinstance(mag, np.ndarray):
        # a zero |a| counts as the least positive double, and no factor
        n = np.floor((np.log(np.maximum(mag, math.ulp(0.0))) - log_bound) / -math.log(q)) + 1.0
        return np.fmin(np.maximum(n, 0.0), MAX_FACTORS)
    if not 0 < mag < math.inf:
        return 0 if mag == 0 else MAX_FACTORS
    return min(max(math.floor((math.log(mag) - log_bound) / -math.log(q)) + 1, 0), MAX_FACTORS)


def _cap_error(product, a, partial, q: float):
    """The :class:`NonConvergence` of ``product`` (its name) of the scalar
    a, capped at MAX_FACTORS factors, with ``last_term`` |a| q^MAX_FACTORS."""
    return NonConvergence(f"{product} with a={a} did not converge in {MAX_FACTORS} factors",
                          partial, _modulus(a) * q**MAX_FACTORS)


def _raise_if_capped(scalar, a, mag, ctx: QContext):
    """Raise the cap error of the 1-D array a (|a| = mag) where its largest
    |a| (a NaN one first) is capped: the scalar path ``scalar`` raises its
    own on that entry, so an array fails as that entry alone does."""
    if a.size and _factor_counts(float(mag.max()), ctx.q) >= MAX_FACTORS:
        scalar(a[np.argmax(mag)].item(), ctx)


def _factor_blocks(a, counts, q: float):
    """The factors 1 - a q^k of the 1-D array a, each entry's k below its
    count, as (rows, f, left): f holds the factors k0 <= k < k0 + width of
    the entries ``rows`` whose count passes k0, and ``left`` is their
    counts less k0, the column where each row's factors end.  Blocks start
    at multiples of _SUM_CHUNK, are _SUM_CHUNK wide times an integer or at
    the end a power of 2 narrower, and hold at most _BLOCK_ELEMENTS
    factors.  The terms a q^k come from repeated multiplication by q, as
    in the scalar loops."""
    group = _BLOCK_ELEMENTS // _SUM_CHUNK
    for g in range(0, a.size, group):
        rows = g + np.flatnonzero(counts[g : g + group])
        n, term = counts[rows], a[rows]
        k0 = 0
        while rows.size:
            span = n.max() - k0
            if span < _SUM_CHUNK:
                width = 1 << math.ceil(math.log2(span))
            else:
                width = _SUM_CHUNK * min(math.ceil(span / _SUM_CHUNK),
                                         _BLOCK_ELEMENTS // (_SUM_CHUNK * rows.size))
            blk = np.empty((width, rows.size), dtype=complex)
            blk[0] = term
            # both give the same bits; the column loop costs a numpy call a
            # column, np.multiply.accumulate more a factor (2-core x86-64: 16 x
            # 1290 in 42 against 146 us, 176 x 41 in 190 against 46 us)
            if rows.size >= 256:
                for j in range(1, width):
                    np.multiply(blk[j - 1], q, out=blk[j])
            else:
                blk[1:] = q
                np.multiply.accumulate(blk, axis=0, out=blk)
            term = blk[-1] * q
            yield rows, np.subtract(1.0, blk, out=blk), n - k0
            k0 += width
            live = n > k0
            rows, n, term = rows[live], n[live], term[live]


def _array_product(a, ctx: QContext):
    """(a;q)_inf for every entry of the array a over its own factor
    count: each entry's product so far and its factors of a block are
    multiplied out by np.multiply.accumulate, one factor at a time as in
    the scalar loop.  np.multiply.reduce across entries would round complex
    products otherwise than for one entry alone (a vectorised multiply).
    Where the largest |a| is capped, the scalar product of that entry
    raises its cap error before any block is formed."""
    q, flat = ctx.q, a.ravel()
    mag = np.abs(flat)
    _raise_if_capped(q_pochhammer_infinite, flat, mag, ctx)
    counts = _factor_counts(mag, q)
    acc = np.ones(a.size, dtype=complex)
    for rows, f, left in _factor_blocks(flat, counts, q):
        blk = np.empty((len(f) + 1, rows.size), dtype=complex)
        blk[0] = acc[rows]
        blk[1:] = f
        np.multiply.accumulate(blk, axis=0, out=blk)
        acc[rows] = blk[np.minimum(left, len(f)).astype(int), np.arange(rows.size)]
    return acc.reshape(a.shape)


def _log_series(z, q):
    """-sum_{n<=LOG_TERMS} z^n / (n (1 - q^n)), the q-log series cut at
    LOG_TERMS terms, by Horner's rule; z a complex or an array.

    Out of place, because numpy's in-place complex multiply may round a
    one-entry array differently from a longer one.
    """
    n = np.arange(LOG_TERMS, 0, -1)
    s = 0.0
    for c in (1.0 / (n * np.expm1(n * math.log(q)))).tolist():
        s = (s + c) * z
    return s


def _log_array(a, ctx: QContext):
    """log (a;q)_inf for every entry of the array a (module docstring), of
    its shape, -inf, the log of 0, at an entry with an exact zero factor.

    Each entry has its own head, _factor_counts(|a|, q, LOG_RADIUS)
    factors, and the q-log series of the rest.  Where the largest |a| is
    capped, the scalar log of that entry raises its cap error before any
    block is formed.
    """
    q, shape, a = ctx.q, a.shape, a.ravel()
    mag = np.abs(a)
    _raise_if_capped(q_pochhammer_infinite_log, a, mag, ctx)
    head = _factor_counts(mag, q, LOG_RADIUS)
    acc = np.zeros(a.shape, dtype=complex)
    for rows, f, left in _factor_blocks(a, head, q):
        mine = np.arange(len(f))[:, None] < left
        # a zero factor logs to -inf, and times mine to -inf + NaN i, whose
        # real part the sums below keep
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(f, out=f, where=mine)
            np.multiply(f, mine, out=f)
        # each chunk of _SUM_CHUNK logs (a last, short chunk: the first
        # subtree of a whole one, whose other leaves are 0) is summed by a
        # fixed pairwise tree, and the chunk sums in order; so an entry's sum
        # does not depend on the others
        x = f.reshape(-1, min(len(f), _SUM_CHUNK), rows.size)
        while x.shape[1] > 1:
            x = x[:, ::2] + x[:, 1::2]
        total = acc[rows]
        for part in x[:, 0]:
            total += part
        acc[rows] = total
    acc = acc + _log_series(a * q**head, q)
    acc[acc.real == -math.inf] = -math.inf
    return acc.reshape(shape)


def q_pochhammer_infinite(a, ctx: QContext):
    """(a;q)_inf as a truncated product with a bounded relative tail: the
    finite product (a;q)_n over the factor count n.

    A scalar ``a`` gives a ``complex``.  An array ``a`` gives an array of
    the same shape, every entry over its own factor count.  A capped
    product raises its cap error, an array that of its largest |a|
    (module docstring).
    """
    if not isinstance(a, _NUMBER) and isinstance(a, np.ndarray):
        return _array_product(a, ctx)
    n = _factor_counts(_modulus(a), ctx.q)
    p = q_pochhammer(a, n, ctx)
    if n < MAX_FACTORS:
        return p
    raise _cap_error("(a;q)_inf", a, p, ctx.q)


def _fsum_complex(values) -> complex:
    return complex(math.fsum([v.real for v in values]), math.fsum([v.imag for v in values]))


def q_pochhammer_infinite_log(a, ctx: QContext):
    """log (a;q)_inf with accumulated phase; safe when factors exceed 1.

    Returns a complex number whose real part is the log-magnitude and whose
    imaginary part is the accumulated phase of the product: the sum of the
    factors' principal logs.  Factors are never exponentiated, so arguments
    with |a| >> 1 do not overflow.  A scalar and every entry of an array
    ``a`` (of any shape) alike are formed from their own head,
    _factor_counts(|a|, q, LOG_RADIUS) factors, and the q-log series of
    the tail (module docstring), whatever the other entries.  An exact zero
    factor gives -inf, the log of 0.  Where the product of |a| is capped at
    MAX_FACTORS factors, :class:`NonConvergence` carries the log of its
    first MAX_FACTORS factors as ``partial``; an array raises that error
    of its largest |a|.
    """
    q = ctx.q
    if not isinstance(a, _NUMBER) and isinstance(a, np.ndarray):
        return _log_array(a, ctx)
    mag = _modulus(a)
    capped = _factor_counts(mag, q) >= MAX_FACTORS
    h = _factor_counts(mag, q, LOG_RADIUS)
    # the head logs are summed exactly (math.fsum): near q = 1 there are
    # thousands of them, and the two sums that h_sinh_log adds cancel
    logs = []
    term = complex(a)
    for _ in range(h):
        f = 1.0 - term
        logs.append(cmath.log(f) if f else -math.inf)
        term *= q
    lg = _fsum_complex(logs)
    if h < MAX_FACTORS:
        lg += _log_series(a * q**h, q)
        if capped:
            lg -= _log_series(a * q**MAX_FACTORS, q)
    if lg.real == -math.inf:
        lg = complex(-math.inf)  # as on the array path
    if capped:
        raise _cap_error("log (a;q)_inf", a, lg, q)
    return lg


def q_pochhammer(a: complex, order, ctx: QContext) -> complex:
    """q-shifted factorial (a;q)_order; see module docstring for orders.
    An array ``a`` takes the infinite order only."""
    if not isinstance(a, _NUMBER) and isinstance(a, np.ndarray) and order != INFINITE:
        raise DomainError(f"(a;q)_order of an array a needs the infinite order, got {order!r}")
    q = ctx.q
    # the abstract class costs 0.5 us a test: a Python number skips it
    integral = isinstance(order, int) if isinstance(order, _NUMBER) else isinstance(
        order, numbers.Integral)
    if integral and not isinstance(order, bool):
        if order < 0:
            raise DomainError(f"finite Pochhammer order must be >= 0, got {order}")
        p = complex(1.0)
        aq = complex(a)
        if order <= MAX_FACTORS:
            for _ in range(order):
                p *= 1.0 - aq
                aq *= q
            return p
        # every later factor is nearer 1, so none moves a product that one
        # has left as it is
        for _ in range(order):
            p, prev = p * (1.0 - aq), p
            if p == prev or not cmath.isfinite(p):
                return p
            aq *= q
        return p
    if order == INFINITE:
        return q_pochhammer_infinite(a, ctx)
    alpha = float(order)
    try:
        shifted = a * q**alpha
    except OverflowError:
        raise OverflowError(f"q_pochhammer: q^alpha is past the double range at q={q}, "
                            f"a={a}, alpha={alpha}") from None
    num = q_pochhammer_infinite(a, ctx)
    den = q_pochhammer_infinite(shifted, ctx)
    if den == 0:
        if num == 0:
            raise DivisionByZero(
                f"fractional (a;q)_alpha at a={a}, alpha={alpha}: 0/0"
            )
        raise DivisionByZero(
            f"fractional (a;q)_alpha at a={a}, alpha={alpha}: denominator product is 0"
        )
    return num / den


def q_pochhammer_multi(params, order, ctx: QContext) -> complex:
    """(a_1,...,a_m;q)_order = product of the single-parameter symbols."""
    p = complex(1.0)
    for a in params:
        p *= q_pochhammer(a, order, ctx)
    return p


def q_bracket(a: float, ctx: QContext) -> float:
    """q-number [a]_q = (1 - q^a) / (1 - q)."""
    return (1.0 - ctx.q**a) / (1.0 - ctx.q)


def q_gamma(x: float, ctx: QContext) -> float:
    """q-gamma function (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x).

    An x within 1e-12 of a pole, 0, -1, -2, ..., raises :class:`PoleError`;
    an x whose q^x or (1-q)^(1-x) is past the double range raises an
    ``OverflowError`` naming that power, q and x.
    """
    if x <= 0.5 and abs(x - round(x)) < 1e-12 and round(x) <= 0:
        raise PoleError(f"q-gamma: x={x} is within 1e-12 of the pole at {round(x):.17g}")
    q = ctx.q
    num = q_pochhammer_infinite(q, ctx)
    try:
        qx = q**x
    except OverflowError:
        raise OverflowError(f"q_gamma: q^x is past the double range at q={q}, x={x}") from None
    den = q_pochhammer_infinite(qx, ctx)
    try:
        scale = (1.0 - q) ** (1.0 - x)
    except OverflowError:
        raise OverflowError(
            f"q_gamma: (1-q)^(1-x) is past the double range at q={q}, x={x}") from None
    return (num / den).real * scale


def detect_terminating(param: complex, ctx: QContext):
    """Return k if ``param`` equals q^-k for a nonnegative integer k, else None.

    A parameter counts as q^-k when |param - q^-k| < 1e-12 * q^-k; one
    that is NaN or past the double range, or whose q^-k is, never does.
    """
    mag = _modulus(param)
    if not 1.0 - 1e-12 <= mag < math.inf:
        return None
    k = round(-math.log(mag) / math.log(ctx.q))
    if k < 0:
        return None
    try:
        ref = ctx.q ** (-k)
    except OverflowError:  # q^-k is past the double range, and param is not
        return None
    if _modulus(param - ref) < _TERMINATING_DETECT_TOL * ref:
        return k
    return None


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of a basic hypergeometric series r-phi-s.

    ``numer`` and ``denom`` are the upper and lower parameter lists; ``z``
    is the argument.  The base q comes from the :class:`QContext` at
    evaluation time.  A terminating numerator parameter q^-k may either be
    given numerically in ``numer`` (detected within 1e-12 relative) or, the
    preferred exact route, through ``terminating_k`` which adds an implicit
    q^-k numerator parameter handled in exponent arithmetic.  It is an
    integral number other than a bool, numpy's too, and is kept as an int.
    """

    numer: tuple = field(default=())
    denom: tuple = field(default=())
    z: complex = 1.0
    terminating_k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "numer", tuple(self.numer))
        object.__setattr__(self, "denom", tuple(self.denom))
        k = self.terminating_k
        if k is not None:
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
                raise DomainError("terminating_k must be a nonnegative integer")
            object.__setattr__(self, "terminating_k", int(k))


def phi_series(spec: HypergeometricSpec, ctx: QContext) -> complex:
    """Evaluate the basic hypergeometric series of ``spec``.

    Terminating series (explicit ``terminating_k`` or a detected q^-k
    numerator parameter) are summed exactly over n = 0..k, for k up to
    MAX_TERMS.  Non-terminating series require r <= s (any z) or r = s + 1
    (|z| < 1) and are truncated under the module's policy.  A NaN or
    infinite parameter or z, and a terminating order above MAX_TERMS, is a
    :class:`DomainError`.
    """
    if not all(cmath.isfinite(v) for v in (*spec.numer, *spec.denom, spec.z)):
        raise DomainError(f"phi series parameters and z must be finite, got numer="
                          f"{spec.numer}, denom={spec.denom}, z={spec.z}")
    q = ctx.q
    numer = list(spec.numer)
    denom = list(spec.denom)
    k_term = spec.terminating_k

    if k_term is None:
        for i, p in enumerate(numer):
            k = detect_terminating(p, ctx)
            if k is not None:
                k_term = k
                del numer[i]
                break

    r = len(numer) + (1 if k_term is not None else 0)
    s = len(denom)
    excess = 1 + s - r  # power of the (-1)^n q^C(n,2) factor

    if k_term is not None and k_term > MAX_TERMS:
        raise DomainError(f"terminating order {k_term} exceeds the {MAX_TERMS}-term cap")
    if k_term is None:
        if r > s + 1:
            raise DomainError(f"non-terminating {r}phi{s} diverges (r > s + 1)")
        if r == s + 1 and _modulus(spec.z) >= 1.0:
            raise DomainError(
                f"{r}phi{s} requires |z| < 1 for convergence, got |z|={_modulus(spec.z)}"
            )

    def terms():
        # a terminating series has k + 1 terms, the extra factor 1 - q^{n-k}
        # and no stop rule; a non-terminating one at most MAX_TERMS
        term = complex(1.0)
        for n in range(MAX_TERMS if k_term is None else k_term + 1):
            yield term
            try:
                qn = q**n
                ratio = spec.z if k_term is None else (1.0 - q ** (n - k_term)) * spec.z
                ratio /= 1.0 - q ** (n + 1)
                for p in numer:
                    ratio *= 1.0 - p * qn
                for p in denom:
                    d = 1.0 - p * qn
                    if d == 0:
                        raise DivisionByZero(
                            f"denominator parameter {p} equals q^-{n}; series undefined"
                        )
                    ratio /= d
                if excess:
                    ratio *= (-qn) ** excess
            except OverflowError:
                # q^(n - k) or (q^n)^excess is past the double range: so is term n + 1
                ratio = math.inf
            term *= ratio
        if k_term is not None:
            yield None

    return _series_sum(terms(), "phi series", MAX_TERMS,
                       tol=EPS_TERM if k_term is None else 0.0)


def h_cos(theta, params, ctx: QContext):
    """Askey-Wilson weight factor h(cos theta; a_1,...,a_m).

    Product over the parameters of (a e^{i theta}, a e^{-i theta}; q)_inf.
    Real-valued (up to rounding) for real parameters.  A scalar ``theta``
    gives a ``complex``; an array of angles gives an array of the same
    shape, with one array-path product per parameter and sign.
    """
    if not isinstance(theta, _NUMBER) and isinstance(theta, np.ndarray):
        e = np.exp(1j * theta)
        p = np.ones(theta.shape, dtype=complex)
    else:
        e = cmath.exp(1j * theta)
        p = complex(1.0)
    for a in params:
        if a == 0:
            continue
        p *= q_pochhammer_infinite(a * e, ctx)
        p *= q_pochhammer_infinite(a / e, ctx)
    return p


def h_sinh_log(x, t: complex, ctx: QContext):
    """log of (i t e^x, -i t e^{-x}; q)_inf, safe for large |x|.

    Real part is the log-magnitude, imaginary part the accumulated phase.
    A scalar ``x`` gives a ``complex``; an array gives an array of its
    shape, from one array log product on [i t e^x, -i t e^{-x}].  An x
    (an entry of x) whose e^x is 0 or not finite raises ``OverflowError``,
    unless t = 0.
    """
    array = not isinstance(x, _NUMBER) and isinstance(x, np.ndarray)
    if t == 0:
        return np.zeros(x.shape, dtype=complex) if array else complex(0.0)
    if array:
        with np.errstate(over="ignore"):
            ex = np.exp(x)
        bad = x[(ex == 0) | ~np.isfinite(ex)]
    else:
        try:
            ex = math.exp(x)
        except OverflowError:
            ex = math.inf
        bad = [] if 0 < ex < math.inf else [x]
    if len(bad):
        raise OverflowError(f"h_sinh: e^x is 0 or not finite at x={bad[0]}")
    if array:
        lg = q_pochhammer_infinite_log(np.stack([1j * t * ex, -1j * t / ex]), ctx).reshape(2, -1)
        return (lg[0] + lg[1]).reshape(x.shape)
    return q_pochhammer_infinite_log(1j * t * ex, ctx) + q_pochhammer_infinite_log(
        -1j * t / ex, ctx
    )


def h_sinh(x: float, t: complex, ctx: QContext) -> complex:
    """(i t e^x, -i t e^{-x};q)_inf = prod_k (1 - 2 i q^k t sinh x + q^{2k} t^2).

    Evaluated through the log-domain path; raises ``OverflowError`` if the
    value exceeds the double-precision range, which ``cmath.exp`` decides:
    a log-magnitude up to about 709.78 can still give a finite value.
    """
    lg = h_sinh_log(x, t, ctx)
    try:
        return cmath.exp(lg)
    except OverflowError:
        raise OverflowError(
            f"h_sinh log-magnitude {lg.real:.1f} exceeds the double range; "
            f"use h_sinh_log"
        ) from None
