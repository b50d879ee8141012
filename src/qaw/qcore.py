"""Scalar building blocks: q-Pochhammer symbols, q-bracket, q-gamma,
basic hypergeometric series and the h(.) weight functions.

The infinite products and the weights ``h_cos``/``h_sinh_log`` also take a
1-D array (of parameters, angles or points) and return an array: the
factors of all entries are formed as a (entries x factors) array in
bounded blocks and reduced along the factors.  Scalars go through the
plain loops, which are the reference for the array path.

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

Truncation policy: infinite products stop once |a q^k| < ctx.eps_factor
and the logarithmic tail bound sum_{j>=k} |a| q^j / (1 - |a| q^j) drops
below ctx.eps_term; the relative truncation error is bounded by that tail
sum.
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

# entries per block of factors in the array path (512 KB of complex)
_BLOCK_ELEMENTS = 1 << 15


def _tail_bound(mag: float, q: float) -> float:
    # sum_{j>=k} |a| q^j / (1 - |a| q^j) <= mag / ((1 - q)(1 - mag)) for mag < 1
    if mag >= 1.0:
        return math.inf
    return mag / ((1.0 - q) * (1.0 - mag))


def _factor_count(mag: float, ctx: QContext):
    """Factors the scalar loop multiplies for |a| = mag; None past max_factors."""
    for k in range(ctx.max_factors):
        if mag < ctx.eps_factor and _tail_bound(mag, ctx.q) < ctx.eps_term:
            return k
        mag *= ctx.q
    return None


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


def _array_product(a, ctx: QContext, log: bool):
    """(a;q)_inf, or its log, for every entry of the 1-D array a.

    Every entry gets the factor count of the largest |a| under the scalar
    stop rule, so none gets fewer factors than its own scalar loop would.
    """
    amax = float(np.abs(a).max(initial=0.0))
    K = _factor_count(amax, ctx)
    acc = np.zeros(a.shape, dtype=complex) if log else np.ones(a.shape, dtype=complex)
    for f in _factor_blocks(a, ctx.max_factors if K is None else K, ctx.q):
        if log:
            zero = np.flatnonzero((f == 0).any(axis=1))
            if zero.size:
                raise DivisionByZero(
                    f"(a;q)_inf with a={a[zero[0]]} contains an exact zero factor"
                )
            acc += np.log(f).sum(axis=1)
        else:
            acc *= np.multiply.reduce(f, axis=1)
    if K is None:
        raise NonConvergence(
            f"{'log ' if log else ''}(a;q)_inf with max |a|={amax:.3e} did not "
            f"converge in {ctx.max_factors} factors",
            partial=acc,
            last_term=amax * ctx.q**ctx.max_factors,
        )
    return acc


def q_pochhammer_infinite(a, ctx: QContext):
    """(a;q)_inf as a truncated product with a bounded relative tail.

    A scalar ``a`` gives a ``complex``.  A 1-D array ``a`` gives an array
    of the same shape: every entry is multiplied over the factor count of
    the largest |a|, at least as many factors as its scalar loop takes.
    """
    if isinstance(a, np.ndarray):
        return _array_product(a, ctx, log=False)
    q = ctx.q
    p = complex(1.0)
    term = complex(a)
    for _ in range(ctx.max_factors):
        mag = abs(term)
        if mag < ctx.eps_factor and _tail_bound(mag, q) < ctx.eps_term:
            return p
        p *= 1.0 - term
        term *= q
    raise NonConvergence(
        f"(a;q)_inf with a={a}: factor magnitude {abs(term):.3e} after "
        f"{ctx.max_factors} factors",
        partial=p,
        last_term=abs(term),
    )


def q_pochhammer_infinite_log(a, ctx: QContext):
    """log (a;q)_inf with accumulated phase; safe when factors exceed 1.

    Returns a complex number whose real part is the log-magnitude and whose
    imaginary part is the accumulated phase of the product.  Factors are
    never exponentiated, so arguments with |a| >> 1 do not overflow.  A 1-D
    array ``a`` gives an array of the same shape, as in
    :func:`q_pochhammer_infinite`.
    """
    if isinstance(a, np.ndarray):
        return _array_product(a, ctx, log=True)
    q = ctx.q
    s = complex(0.0)
    term = complex(a)
    for _ in range(ctx.max_factors):
        mag = abs(term)
        if mag < ctx.eps_factor and _tail_bound(mag, q) < ctx.eps_term:
            return s
        f = 1.0 - term
        if f == 0:
            raise DivisionByZero(f"(a;q)_inf with a={a} contains an exact zero factor")
        s += cmath.log(f)
        term *= q
    raise NonConvergence(
        f"log (a;q)_inf with a={a} did not converge in {ctx.max_factors} factors",
        partial=s,
        last_term=abs(term),
    )


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
    under the context policy.
    """
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

    if k_term is not None:
        total = complex(0.0)
        term = complex(1.0)
        for n in range(k_term + 1):
            total += term
            ratio = (1.0 - q ** (n - k_term)) * spec.z / (1.0 - q ** (n + 1))
            for p in numer:
                ratio *= 1.0 - p * q**n
            for p in denom:
                d = 1.0 - p * q**n
                if d == 0:
                    raise DivisionByZero(
                        f"denominator parameter {p} hits q^-{n} inside the "
                        f"terminating range"
                    )
                ratio /= d
            if excess:
                ratio *= (-(q**n)) ** excess
            term *= ratio
        return total

    if r > s + 1:
        raise DomainError(f"non-terminating {r}phi{s} diverges (r > s + 1)")
    if r == s + 1 and abs(spec.z) >= 1.0:
        raise DomainError(
            f"{r}phi{s} requires |z| < 1 for convergence, got |z|={abs(spec.z)}"
        )

    total = complex(0.0)
    term = complex(1.0)
    small = 0
    for n in range(ctx.max_terms):
        total += term
        if abs(term) < ctx.eps_term * max(abs(total), 1e-300):
            small += 1
            if small >= ctx.consecutive_small:
                return total
        else:
            small = 0
        ratio = spec.z / (1.0 - q ** (n + 1))
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
    same shape.
    """
    if isinstance(x, np.ndarray):
        if t == 0:
            return np.zeros(x.shape, dtype=complex)
        ex = np.exp(x)
    else:
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
