"""Scalar building blocks: q-Pochhammer symbols, q-bracket, q-gamma,
basic hypergeometric series and the h(.) weight functions.

The infinite products and the weights ``h_cos``/``h_sinh_log`` also take a
1-D array (of parameters, angles or points) and return an array.

* The product (a;q)_inf of an array forms the factors of all entries as
  an (entries x factors) array in bounded blocks, every entry with the
  factor count of the largest |a|, and multiplies along the factors.  The
  public array ``h_cos`` and ``q_pochhammer_infinite`` use it, and so does
  the Cauchy operator's integrand; no identity check does.
* Its log gives each entry a head of its own: the h factors 1 - a q^k
  with |a q^k| > LOG_RADIUS, logged one by one, and for the rest the
  q-log series (Gasper & Rahman, *Basic Hypergeometric Series*, ch. 1)

      log (z;q)_inf = -sum_{n>=1} z^n / (n (1 - q^n)),   |z| < 1,

  at z = a q^h, cut at LOG_TERMS terms.  So an entry's value does not
  depend on the other entries of its call, and a factor with |a q^k| far
  below 1 costs no log.  The scalar log takes the same head and series in
  plain Python; the scalar product keeps its factor-by-factor loop.  All
  four integrands of the identity checks take their products as logs.

Order convention for q-Pochhammer symbols
-----------------------------------------
``q_pochhammer(a, order, ctx)`` accepts three kinds of order:

* a nonnegative ``int`` -- the finite product prod_{k<n} (1 - a q^k);
* ``math.inf`` (the module constant :data:`INFINITE`) -- the infinite
  product;
* any other real ``float`` alpha -- the fractional symbol, defined as the
  ratio (a;q)_inf / (a q^alpha; q)_inf.

The ratio definition agrees with the finite product at integer orders and
is the unique choice consistent with the q-gamma function.

Truncation policy: infinite products stop once |a q^k| < EPS_FACTOR
and the logarithmic tail bound sum_{j>=k} |a| q^j / (1 - |a| q^j) drops
below ctx.eps_term; the relative truncation error is bounded by that tail
sum.  A product that needs more than MAX_FACTORS factors under that rule
raises :class:`NonConvergence`, and so does its log, though the log sums
the q-log series past its head instead of factors.  A non-terminating
series stops after CONSECUTIVE_SMALL successive terms below ctx.eps_term
of its partial sum.
These three are constants; only ``eps_term`` and ``max_terms`` are
settable, through :class:`QContext`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .context import (
    DivisionByZero,
    DomainError,
    NonConvergence,
    PoleError,
    QContext,
)

INFINITE = math.inf

_TERMINATING_DETECT_TOL = 1e-12

# the fixed part of the truncation policy (module docstring)
EPS_FACTOR = 1e-17
MAX_FACTORS = 10_000
CONSECUTIVE_SMALL = 3

# entries per block of factors in the array path (512 KB of complex)
_BLOCK_ELEMENTS = 1 << 15

# the array log path: head factors while |a q^k| > LOG_RADIUS, then LOG_TERMS
# terms of the q-log series; wherever MAX_FACTORS lets an array through, the
# remainder sum_{n>LOG_TERMS} |z|^n / (n (1 - q^n)) is below
# LOG_RADIUS^LOG_TERMS / (1 - LOG_RADIUS) < 1.2e-18
LOG_RADIUS = 0.125
LOG_TERMS = 20
# head logs are summed in chunks of this many columns (a power of 2)
_SUM_CHUNK = 16


def _tail_bound(mag: float, q: float) -> float:
    # sum_{j>=k} |a| q^j / (1 - |a| q^j) <= mag / ((1 - q)(1 - mag)) for mag < 1
    if mag >= 1.0:
        return math.inf
    return mag / ((1.0 - q) * (1.0 - mag))


def _factor_count(mag: float, ctx: QContext):
    """Factors the scalar loop multiplies for |a| = mag; None past MAX_FACTORS."""
    for k in range(MAX_FACTORS):
        if mag < EPS_FACTOR and _tail_bound(mag, ctx.q) < ctx.eps_term:
            return k
        mag *= ctx.q
    return None


def _capped(mag: float, ctx: QContext) -> bool:
    """Whether the scalar stop rule needs more than MAX_FACTORS factors for
    |a| = mag: :func:`_factor_count` is None."""
    # the stop rule is monotone in k, so a last term clearly below both of
    # its bounds settles it without the loop
    last = 2.0 * mag * ctx.q ** (MAX_FACTORS - 1)
    if last < EPS_FACTOR and _tail_bound(last, ctx.q) < ctx.eps_term:
        return False
    return _factor_count(mag, ctx) is None


def _factor_blocks(a, K: int, q: float):
    """The factors 1 - a q^k, k < K, as (nodes x block) arrays.

    The terms a q^k come from repeated multiplication by q, as in the
    scalar loop, and a block holds at most _BLOCK_ELEMENTS entries, so the
    scratch memory stays bounded however many factors q near 1 needs.
    """
    width = max(1, _BLOCK_ELEMENTS // max(1, a.size))
    term = a
    for k0 in range(0, K, width):
        blk = np.empty((a.size, min(width, K - k0)), dtype=complex)
        blk[:, 0] = term
        blk[:, 1:] = q
        np.multiply.accumulate(blk, axis=1, out=blk)
        term = blk[:, -1] * q
        yield np.subtract(1.0, blk, out=blk)


def _array_product(a, ctx: QContext):
    """(a;q)_inf for every entry of the 1-D array a.

    Every entry gets the factor count of the largest |a| under the scalar
    stop rule, so none gets fewer factors than its own scalar loop would.
    """
    amax = float(np.abs(a).max(initial=0.0))
    K = _factor_count(amax, ctx)
    acc = np.ones(a.shape, dtype=complex)
    for f in _factor_blocks(a, MAX_FACTORS if K is None else K, ctx.q):
        acc *= np.multiply.reduce(f, axis=1)
    if K is None:
        raise NonConvergence(
            f"(a;q)_inf with max |a|={amax:.3e} did not converge in {MAX_FACTORS} factors",
            partial=acc,
            last_term=amax * ctx.q**MAX_FACTORS,
        )
    return acc


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
    """log (a;q)_inf for every entry of the 1-D array a (module docstring),
    -inf, the log of 0, at an entry with an exact zero factor.

    Each entry has its own head of h = ceil(log(|a| / LOG_RADIUS) / log(1/q))
    factors (at least 0), the least k with |a| q^k <= LOG_RADIUS up to
    rounding, and the q-log series of the rest.  A block of factors holds
    only the rows whose head reaches it, and a mask skips each row's
    columns past its own h.  Where the scalar stop rule needs more than
    MAX_FACTORS factors for the largest |a|, :class:`NonConvergence`
    carries each entry's log of its first MAX_FACTORS factors as
    ``partial``: its head, cut at MAX_FACTORS, then the series at a q^h
    less the series at a q^MAX_FACTORS.
    """
    q = ctx.q
    mag = np.abs(a)
    amax = float(mag.max(initial=0.0))
    capped = _capped(amax, ctx)
    # fmin: a NaN or infinite |a| takes MAX_FACTORS head factors
    head = np.fmin(np.ceil(np.log(np.maximum(mag / LOG_RADIUS, 1.0)) / -math.log(q)),
                   MAX_FACTORS)
    acc = np.zeros(a.shape, dtype=complex)
    dead = np.zeros(a.shape, dtype=bool)
    group = _BLOCK_ELEMENTS // _SUM_CHUNK
    for g in range(0, a.size, group):
        rows = g + np.flatnonzero(head[g : g + group])
        h, term = head[rows], a[rows]
        k0 = 0
        while rows.size:
            # a (factors x rows) block of chunks from column k0; its row j
            # holds the factor of column k0 + j, made as the scalar loop
            # makes its terms, by repeated multiplication by q
            span = h.max() - k0
            if span < _SUM_CHUNK:
                # a last, short chunk a power of 2 wide: its tree is the
                # first subtree of a whole chunk's, whose other leaves are 0
                width = chunk = 1 << math.ceil(math.log2(span))
            else:
                chunk = _SUM_CHUNK
                width = chunk * min(math.ceil(span / chunk),
                                    _BLOCK_ELEMENTS // (chunk * rows.size))
            blk = np.empty((width, rows.size), dtype=complex)
            blk[0] = term
            for j in range(1, width):
                np.multiply(blk[j - 1], q, out=blk[j])
            term = blk[-1] * q
            f = np.subtract(1.0, blk, out=blk)
            if not f.all():
                zero = f == 0
                dead[rows[zero.any(axis=0)]] = True
                f[zero] = 1.0
            mine = np.arange(k0, k0 + width)[:, None] < h
            np.log(f, out=f, where=mine)
            np.multiply(f, mine, out=f)
            # each chunk of _SUM_CHUNK logs is summed by a fixed pairwise
            # tree, and the chunk sums in order; chunks start at multiples of
            # _SUM_CHUNK, so an entry's sum does not depend on the others
            x = f.reshape(-1, chunk, rows.size)
            while x.shape[1] > 1:
                x = x[:, ::2] + x[:, 1::2]
            total = acc[rows]
            for part in x[:, 0]:
                total += part
            acc[rows] = total
            k0 += width
            live = h > k0
            rows, h, term = rows[live], h[live], term[live]
    if capped:
        # the heads stop at MAX_FACTORS; a shorter head takes the series
        # of its factors up to MAX_FACTORS
        short = np.flatnonzero(head < MAX_FACTORS)
        z = a[short]
        acc[short] += _log_series(z * q ** head[short], q) - _log_series(z * q**MAX_FACTORS, q)
    else:
        acc = acc + _log_series(a * q**head, q)
    acc[dead] = -math.inf
    if capped:
        raise NonConvergence(
            f"log (a;q)_inf with max |a|={amax:.3e} did not converge in "
            f"{MAX_FACTORS} factors",
            partial=acc,
            last_term=amax * q**MAX_FACTORS,
        )
    return acc


def q_pochhammer_infinite(a, ctx: QContext):
    """(a;q)_inf as a truncated product with a bounded relative tail.

    A scalar ``a`` gives a ``complex``.  A 1-D array ``a`` gives an array
    of the same shape: every entry is multiplied over the factor count of
    the largest |a|, at least as many factors as its scalar loop takes.
    """
    if isinstance(a, np.ndarray):
        return _array_product(a, ctx)
    q = ctx.q
    p = complex(1.0)
    term = complex(a)
    for _ in range(MAX_FACTORS):
        mag = abs(term)
        if mag < EPS_FACTOR and _tail_bound(mag, q) < ctx.eps_term:
            return p
        p *= 1.0 - term
        term *= q
    raise NonConvergence(
        f"(a;q)_inf with a={a}: factor magnitude {abs(term):.3e} after "
        f"{MAX_FACTORS} factors",
        partial=p,
        last_term=abs(term),
    )


def _fsum_complex(values) -> complex:
    return complex(math.fsum([v.real for v in values]), math.fsum([v.imag for v in values]))


def q_pochhammer_infinite_log(a, ctx: QContext):
    """log (a;q)_inf with accumulated phase; safe when factors exceed 1.

    Returns a complex number whose real part is the log-magnitude and whose
    imaginary part is the accumulated phase of the product: the sum of the
    factors' principal logs.  Factors are never exponentiated, so arguments
    with |a| >> 1 do not overflow.  A scalar and every entry of a 1-D array
    ``a`` alike are formed from their own head factors and the q-log series
    of the tail (module docstring), an entry whatever the other entries.
    An exact zero factor raises :class:`DivisionByZero`.  Where the scalar
    stop rule needs more than MAX_FACTORS factors for |a| (for the largest
    |a| of an array), :class:`NonConvergence` carries the log of the first
    MAX_FACTORS factors (of every entry) as ``partial``.
    """
    q = ctx.q
    if isinstance(a, np.ndarray):
        lg = _log_array(a, ctx)
        dead = np.isneginf(lg.real)
        if dead.any():
            raise DivisionByZero(
                f"(a;q)_inf with a={a[np.argmax(dead)]} contains an exact zero factor")
        return lg
    # the head of _log_array; a NaN or infinite |a| takes MAX_FACTORS factors
    mag = abs(a)
    capped = _capped(mag, ctx)
    h = MAX_FACTORS
    if math.isfinite(mag):
        h = min(math.ceil(math.log(max(mag / LOG_RADIUS, 1.0)) / -math.log(q)), h)
    # the head logs are summed exactly (math.fsum): near q = 1 there are
    # thousands of them, and the two sums that h_sinh_log adds cancel
    logs = []
    term = complex(a)
    for _ in range(h):
        f = 1.0 - term
        if f == 0:
            raise DivisionByZero(f"(a;q)_inf with a={a} contains an exact zero factor")
        logs.append(cmath.log(f))
        term *= q
    lg = _fsum_complex(logs)
    if h < MAX_FACTORS:
        lg += _log_series(a * q**h, q)
        if capped:
            lg -= _log_series(a * q**MAX_FACTORS, q)
    if capped:
        raise NonConvergence(
            f"log (a;q)_inf with a={a} did not converge in {MAX_FACTORS} factors",
            partial=lg,
            last_term=mag * q**MAX_FACTORS,
        )
    return lg


def q_pochhammer(a: complex, order, ctx: QContext) -> complex:
    """q-shifted factorial (a;q)_order; see module docstring for orders."""
    q = ctx.q
    if isinstance(order, int) and not isinstance(order, bool):
        if order < 0:
            raise DomainError(f"finite Pochhammer order must be >= 0, got {order}")
        p = complex(1.0)
        aq = complex(a)
        for _ in range(order):
            p *= 1.0 - aq
            aq *= q
        return p
    if order == INFINITE:
        return q_pochhammer_infinite(a, ctx)
    alpha = float(order)
    num = q_pochhammer_infinite(a, ctx)
    den = q_pochhammer_infinite(a * q**alpha, ctx)
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

    Poles at x = 0, -1, -2, ... raise :class:`PoleError`.
    """
    if x <= 0.5 and abs(x - round(x)) < 1e-12 and round(x) <= 0:
        raise PoleError(f"q-gamma pole at x={x}")
    q = ctx.q
    num = q_pochhammer_infinite(q, ctx)
    den = q_pochhammer_infinite(q**x, ctx)
    return (num / den).real * (1.0 - q) ** (1.0 - x)


def detect_terminating(param: complex, ctx: QContext):
    """Return k if ``param`` equals q^-k for a nonnegative integer k, else None.

    A parameter counts as q^-k when |param - q^-k| < 1e-12 * q^-k.
    """
    if param == 0:
        return None
    mag = abs(param)
    if mag < 1.0 - 1e-12:
        return None
    k = round(-math.log(mag) / math.log(ctx.q))
    if k < 0:
        return None
    ref = ctx.q ** (-k)
    if abs(param - ref) < _TERMINATING_DETECT_TOL * ref:
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
    q^-k numerator parameter handled in exponent arithmetic.
    """

    numer: tuple = field(default=())
    denom: tuple = field(default=())
    z: complex = 1.0
    terminating_k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "numer", tuple(self.numer))
        object.__setattr__(self, "denom", tuple(self.denom))
        if self.terminating_k is not None and self.terminating_k < 0:
            raise DomainError("terminating_k must be a nonnegative integer")


def phi_series(spec: HypergeometricSpec, ctx: QContext) -> complex:
    """Evaluate the basic hypergeometric series of ``spec``.

    Terminating series (explicit ``terminating_k`` or a detected q^-k
    numerator parameter) are summed exactly over n = 0..k.  Non-terminating
    series require r <= s (any z) or r = s + 1 (|z| < 1) and are truncated
    under the context policy.  A NaN or infinite parameter or z is a
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

    if k_term is None:
        if r > s + 1:
            raise DomainError(f"non-terminating {r}phi{s} diverges (r > s + 1)")
        if r == s + 1 and abs(spec.z) >= 1.0:
            raise DomainError(
                f"{r}phi{s} requires |z| < 1 for convergence, got |z|={abs(spec.z)}"
            )

    # a terminating series has k + 1 terms, the extra factor 1 - q^{n-k} and
    # no stop rule; a non-terminating one stops after CONSECUTIVE_SMALL terms
    # below eps_term of the partial sum
    total = complex(0.0)
    term = complex(1.0)
    small = 0
    for n in range(ctx.max_terms if k_term is None else k_term + 1):
        total += term
        if k_term is None:
            small = small + 1 if abs(term) < ctx.eps_term * max(abs(total), 1e-300) else 0
            if small >= CONSECUTIVE_SMALL:
                return total
        ratio = spec.z if k_term is None else (1.0 - q ** (n - k_term)) * spec.z
        ratio /= 1.0 - q ** (n + 1)
        for p in numer:
            ratio *= 1.0 - p * q**n
        for p in denom:
            d = 1.0 - p * q**n
            if d == 0:
                raise DivisionByZero(
                    f"denominator parameter {p} equals q^-{n}; series undefined"
                )
            ratio /= d
        if excess:
            ratio *= (-(q**n)) ** excess
        term *= ratio
    if k_term is not None:
        return total
    raise NonConvergence(
        f"phi series did not converge in {ctx.max_terms} terms",
        partial=total,
        last_term=abs(term),
    )


def h_cos(theta, params, ctx: QContext):
    """Askey-Wilson weight factor h(cos theta; a_1,...,a_m).

    Product over the parameters of (a e^{i theta}, a e^{-i theta}; q)_inf.
    Real-valued (up to rounding) for real parameters.  A scalar ``theta``
    gives a ``complex``; a 1-D array of angles gives an array of the same
    shape, with one array-path product per parameter and sign.
    """
    if isinstance(theta, np.ndarray):
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
    A scalar ``x`` gives a ``complex``; a 1-D array gives an array of the
    same shape, from one array log product on [i t e^x, -i t e^{-x}].
    """
    if isinstance(x, np.ndarray):
        if t == 0:
            return np.zeros(x.shape, dtype=complex)
        ex = np.exp(x)
        lg = q_pochhammer_infinite_log(np.concatenate([1j * t * ex, -1j * t / ex]), ctx)
        return lg[: x.size] + lg[x.size :]
    if t == 0:
        return complex(0.0)
    ex = math.exp(x)
    return q_pochhammer_infinite_log(1j * t * ex, ctx) + q_pochhammer_infinite_log(
        -1j * t / ex, ctx
    )


def h_sinh(x: float, t: complex, ctx: QContext) -> complex:
    """(i t e^x, -i t e^{-x};q)_inf = prod_k (1 - 2 i q^k t sinh x + q^{2k} t^2).

    Evaluated through the log-domain path; raises ``OverflowError`` if the
    magnitude exceeds the double-precision range.
    """
    lg = h_sinh_log(x, t, ctx)
    if lg.real > 709.0:
        raise OverflowError(
            f"h_sinh log-magnitude {lg.real:.1f} exceeds the double range; "
            f"use h_sinh_log"
        )
    return cmath.exp(lg)
