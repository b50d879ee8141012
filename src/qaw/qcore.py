"""Scalar building blocks: q-Pochhammer symbols, q-bracket, q-gamma,
basic hypergeometric series and the h(.) weight functions.

The infinite products ``q_pochhammer_infinite`` and
``q_pochhammer_infinite_log`` also take an array (of parameters) and
return one of its shape; the weights ``h_cos`` and ``h_sinh_log`` take a
number, and an array is a ``DomainError`` (the checks take the weights'
factors as log rows on their nodes, below).  Each array path ends as its
scalar path does, under any warnings filter: an entry's value is the
scalar's to rounding (inf or NaN where that is), or the array raises the
scalar's error class.  So its products run with numpy's
overflow and invalid events ignored, as Python's complex arithmetic
ignores them.  :func:`_divide` divides a complex array by a real one part
by part, as Python does, where numpy would multiply by a reciprocal that
can pass the double range; the Cauchy operator's q-differences use it.

* The product (a;q)_inf of an array forms the factors of each entry up
  to its own factor count (the stop rule below) in bounded blocks and
  multiplies them in the scalar loop's order, in floats where every entry
  is a real a in (-1, 1) (the real-input rule below) and in complex
  arithmetic otherwise; either way it returns a complex array.  The public
  array ``q_pochhammer_infinite`` uses it, and so does the Cauchy
  operator's integrand; no identity check does.
* Its log gives each entry a head of its own: the h factors 1 - a q^k
  with |a q^k| >= LOG_RADIUS, logged one by one, and for the rest the
  q-log series (Gasper & Rahman, *Basic Hypergeometric Series*, ch. 1)

      log (z;q)_inf = -sum_{n>=1} z^n / (n (1 - q^n)),   |z| < 1,

  at z = a q^h, cut at LOG_TERMS terms.  So an entry's value does not
  depend on the other entries of its call, here as in the product, and a
  factor with |a q^k| far below 1 costs no log.  The scalar log takes the
  same head and series in plain Python.  An exact zero factor gives -inf,
  the log of the 0 that the product gives, so ``h_sinh`` there is 0.
* The pair log :func:`_pair_log` takes rows (k, prm, v), v = prm times a
  unit node array, each standing for (v, conj v;q)_inf^k, whose log is
  2 Re log (v;q)_inf: h(cos theta; prm) = |(prm e^{i theta};q)_inf|^2
  (Gasper & Rahman, ch. 6).  Every node of a row has the modulus |prm|,
  so a row has one head length, and each head factor f enters by the real
  log log(Re f^2 + Im f^2), no complex log.  It shares the head count
  :func:`_factor_counts`, the steps by q :func:`_q_steps`, the pairwise
  tree :func:`_tree_sum` and the q-log series :func:`_log_series` with the
  array log, but not its head loop: each single loop for both ran 9-21%
  slower on one of them (2-core x86-64).
* The row combiner :func:`_log_quotient` adds or subtracts the log rows
  (k, v) of a quotient one at a time, in order, all taken by one call of
  the array log.  A mirrored row (k, v, w), w at each node the conjugate
  of v at the node's negative, is one row where every node's negative is
  a node (:func:`_mirror`): w's log is read off v's, as the array log is
  exactly conjugate-symmetric off the positive real axis, with the bits of
  two rows.

The quadrature integrands of :mod:`qaw.identities` declare their factors
as such rows on their nodes, and call each kernel at most once per
integrand call: the Askey-Wilson weight its conjugate pairs to the pair
log and a non-real parameter's two rows to the combiner, the real-line
weights and the generating q-integrand all their rows to the combiner.

``DivisionByZero`` is raised only where a value is divided by a vanishing
product or factor (a fractional-order ``q_pochhammer``, a ``phi_series``
denominator).  ``q_pochhammer`` takes an array with the infinite order
only; a finite or fractional order of an array is a ``DomainError``.  So
is an a that is neither a number nor an array, or an order that is not a
real number (a string, None, a complex), in ``q_pochhammer``, its infinite
product and log and ``q_pochhammer_multi``: the error names its type.

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
  3 s on the float loop below (2-core x86-64, CPython 3.11);
* ``math.inf`` (the module constant :data:`INFINITE`) -- the infinite
  product;
* any other real ``float`` alpha -- the fractional symbol, defined as the
  ratio (a;q)_inf / (a q^alpha; q)_inf.

The ratio definition agrees with the finite product at integer orders and
is the unique choice consistent with the q-gamma function.

Every order ends in one scalar loop over the factors 1 - a q^k.  The
real-input rule: a product whose a is real, its imaginary part 0, and
lies in (-1, 1) is multiplied in floats and returned as complex, with
imaginary part +0.0.  Every factor then lies in (0, 2), so complex
arithmetic keeps each imaginary part at +0.0 and its real parts are the
float products to the bit (CPython 3.10-3.13 take a float operand of a
complex operation as x + 0j, and numpy multiplies x + 0j by y + 0j as x
y).  The scalar loop takes a Python number a (numpy's float64 too) so,
about 2.5 times faster than in complex arithmetic; where the float
product is not finite (a < 0 near q = 1, over thousands of factors), the
complex loop's inf * 0 makes NaN parts, so the complex loop runs again
from the start.  The array product takes an array so when every entry
qualifies (a dtype of bools, integers or floats, float32 among them, or
complexes whose imaginary parts are all 0); an entry with |a| >= 1, NaN
or a non-real value keeps the whole array on complex rows.  The logs keep
complex factors: a negative factor needs the complex log, and numpy's
real log of a factor near 1 differs from the complex log's real part by
up to 3 ulps in about a third of cases.  So the closed sides of the
checks, the fractional prefactor, ``q_gamma`` and the Cauchy operator's
integrand take float products with the bits they had, and no product is
kept between calls.

Truncation policy: an infinite product takes the factors k < n, n the
least k with |a q^k| < tau = min(EPS_FACTOR, t / (1 + t)), t = EPS_TERM
(1 - q).  Then |a q^n| < EPS_FACTOR, and the bound |a q^n| / ((1 - q)
(1 - |a q^n|)) on the tail sum_{j>=n} |a q^j| / (1 - |a q^j|), which
bounds the relative truncation error, is below EPS_TERM.

One count rule and one cap error serve every path (the scalar loop and
log, the array product and log, the pair log).  :func:`_factor_counts`
(|a|, q, bound) is the least k with |a| q^k < bound: under tau the factor
count n, under LOG_RADIUS the log's head h.  Every cap decision is n >=
MAX_FACTORS, which (q;q)_inf meets from q = 0.9965 on.  A capped scalar
product or log raises :class:`NonConvergence` ``<product> with a=<a> did
not converge in 10000 factors``, its ``partial`` the value of the first
MAX_FACTORS factors (the log: its head, cut there, and the series of the
rest up to there) and its ``last_term`` |a| q^MAX_FACTORS.  An array, or
the rows of a pair log with its caller's other rows, whose largest |a| (a
NaN one first) is capped hands that entry to the scalar path before it
forms any factor, so it raises that entry's error.

Every series summed term by term -- ``phi_series``, the q-integrals and
the Cauchy operator of :mod:`qaw.qops` -- is summed by :func:`_series_sum`,
the one copy of this rule.  It reads the terms from any iterable, a None
term ending the sum, and sends nothing back: the Cauchy operator keeps
the partial sum that its noise floor reads.  A non-terminating series
stops after CONSECUTIVE_SMALL successive terms below EPS_TERM of its
partial sum and raises :class:`NonConvergence` ``<series> did not
converge in <cap> terms`` at its term cap, with the partial sum and the
last |term|; any series raises ``<series>: term <n> or the partial sum
through it is not finite`` once its partial sum is not finite, with the
last finite partial sum.  One whose terms fall like q^n needs more than
MAX_TERMS of them at q above about 0.9966.  All five are constants
(EPS_TERM 1e-15, EPS_FACTOR 1e-17, MAX_FACTORS and MAX_TERMS 10 000,
CONSECUTIVE_SMALL 3), as are the log's LOG_RADIUS 1/8 and LOG_TERMS 20;
:class:`QContext` carries the base q alone.

A modulus is :func:`_modulus`, the hypot of the parts, wherever abs() of a
complex could raise ``OverflowError``: past the double range with both
parts finite, it is inf.  So "finite" means a finite modulus, for a
partial sum as for a quadrature level and a closed side, and every abs()
taken after that test is safe.  The series sum takes abs() per term and
the modulus only where abs() raises: a hypot per term made ``phi_series``
calls a third slower (2-core x86-64, CPython 3.11).

A power of real order that can pass the double range -- q^alpha of a
fractional ``q_pochhammer``, q^a of ``q_bracket``, q^x and (1-q)^(1-x) of
``q_gamma`` and the prefactor of :func:`qaw.qops.fractional_q_integral`
-- is taken by :func:`_power`, the one guard of them all, which raises
``OverflowError`` ``<what> is past the double range at <name>=<value>,
...``, naming the power and its inputs.  ``detect_terminating`` and
``phi_series`` catch such an overflow themselves and turn it into data:
no match, an infinite term.
"""

from __future__ import annotations

import cmath
import math
import numbers

from . import _np as np
from .context import (
    DivisionByZero,
    DomainError,
    NonConvergence,
    PoleError,
    QContext,
    Record,
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


def _power(base, exponent, what, **named):
    """base ** exponent, or, where Python's power passes the double range,
    ``OverflowError`` ``<what> is past the double range at <name>=<value>,
    ...`` over ``named`` in order: the one guard of every such power."""
    try:
        return base**exponent
    except OverflowError:
        at = ", ".join(f"{name}={value}" for name, value in named.items())
        raise OverflowError(f"{what} is past the double range at {at}") from None


def _divide(num, den):
    """num / den; a complex num over a real den part by part, as Python's
    complex / float does (numpy's complex division multiplies by 1/den)."""
    if num.dtype.kind == "c" and den.dtype.kind != "c":
        return (num.view(float).reshape(-1, 2) / den[:, None]).view(complex).ravel()
    return num / den


def _series_sum(terms, what, cap, scale=None, tol=EPS_TERM):
    """The sum of the series whose terms the iterable ``terms`` gives,
    under the truncation policy (module docstring): the one loop that
    keeps the running sum, the small-term count and the two errors, which
    name the series ``what``.

    The sum ends at a None term, at the end of a run of CONSECUTIVE_SMALL
    terms below ``tol`` of the partial sum (a terminating series passes 0,
    which no term is below), or, when the terms run out, in the cap error
    ``<what> did not converge in <cap> terms``.  The sum, and the partial
    sum an error carries, is multiplied by ``scale`` where one is given.
    """
    scaled = (lambda s: s) if scale is None else (lambda s: scale * s)
    total, small, mag = complex(0.0), 0, 0.0
    for n, term in enumerate(terms):
        if term is None:
            break
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
    else:
        raise NonConvergence(f"{what} did not converge in {cap} terms", scaled(total), mag)
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
        # a zero |a| counts as the least positive double, and no factor; a
        # float32 |a| is counted in doubles, as its scalar is
        n = np.floor((np.log(np.maximum(mag, math.ulp(0.0), dtype=float)) - log_bound)
                     / -math.log(q)) + 1.0
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


def _q_steps(term, width, q: float):
    """The block term q^j, j < width, over the first axis, from repeated
    multiplication by q, as in the scalar loops, and term q^width, in the
    dtype of ``term``: the one rule that forms the factors' arguments on the
    array paths."""
    blk = np.empty((width,) + term.shape, dtype=term.dtype)
    blk[0] = term
    # both give the same bits; the column loop costs a numpy call a column,
    # np.multiply.accumulate more a factor (2-core x86-64: 16 x 1290 in 42
    # against 146 us, 176 x 41 in 190 against 46 us)
    if term.size >= 256:
        for j in range(1, width):
            np.multiply(blk[j - 1], q, out=blk[j])
    else:
        blk[1:] = q
        np.multiply.accumulate(blk, axis=0, out=blk)
    return blk, blk[-1] * q


def _factor_blocks(a, counts, q: float, dtype):
    """The factors 1 - a q^k of the 1-D array a, each entry's k below its
    count, in ``dtype``, as (rows, f, left): f holds the factors k0 <= k <
    k0 + width of the entries ``rows`` whose count passes k0, and ``left``
    is their counts less k0, the column where each row's factors end.
    Blocks start at multiples of _SUM_CHUNK, are _SUM_CHUNK wide times an
    integer or at the end a power of 2 narrower, and hold at most
    _BLOCK_ELEMENTS factors.  The terms a q^k come from repeated
    multiplication by q, as in the scalar loops."""
    group = _BLOCK_ELEMENTS // _SUM_CHUNK
    for g in range(0, a.size, group):
        rows = g + np.flatnonzero(counts[g : g + group])
        n, term = counts[rows], a[rows].astype(dtype, copy=False)
        k0 = 0
        while rows.size:
            span = n.max() - k0
            if span < _SUM_CHUNK:
                width = 1 << math.ceil(math.log2(span))
            else:
                width = _SUM_CHUNK * min(math.ceil(span / _SUM_CHUNK),
                                         _BLOCK_ELEMENTS // (_SUM_CHUNK * rows.size))
            blk, term = _q_steps(term, width, q)
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
    raises its cap error before any block is formed.  A product past the
    double range is inf or NaN, as the scalar loop's is.  Where every entry
    is real in (-1, 1) the rows are floats (the real-input rule, module
    docstring); the result is complex either way."""
    q, flat = ctx.q, a.ravel()
    mag = np.abs(flat)
    _raise_if_capped(q_pochhammer_infinite, flat, mag, ctx)
    counts = _factor_counts(mag, q)
    real = flat.size and mag.max() < 1.0 and (flat.dtype.kind != "c" or not flat.imag.any())
    if real:
        flat = flat.real
    acc = np.ones(a.size, dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, f, left in _factor_blocks(flat, counts, q, acc.dtype):
            blk = np.empty((len(f) + 1, rows.size), dtype=acc.dtype)
            blk[0] = acc[rows]
            blk[1:] = f
            np.multiply.accumulate(blk, axis=0, out=blk)
            acc[rows] = blk[np.minimum(left, len(f)).astype(int), np.arange(rows.size)]
    return acc.astype(complex, copy=False).reshape(a.shape)


def _tree_sum(x):
    """x[0] + x[1] + ... over the first axis, a power of 2 long, by a fixed
    pairwise tree of neighbours; zeros appended change no sum, so an
    entry's sum does not depend on the length of its block."""
    while len(x) > 1:
        x = x[::2] + x[1::2]
    return x[0]


def _log_series(z, q):
    """-sum_{n<=LOG_TERMS} z^n / (n (1 - q^n)), the q-log series cut at
    LOG_TERMS terms, by Horner's rule; z a complex or an array.  The
    coefficients come from Python's math, so a scalar z loads no numpy.

    Out of place, because numpy's in-place complex multiply may round a
    one-entry array differently from a longer one.
    """
    s = 0.0
    for n in range(LOG_TERMS, 0, -1):
        s = (s + 1.0 / (n * math.expm1(n * math.log(q)))) * z
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
    for rows, f, left in _factor_blocks(a, head, q, complex):
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
        total = acc[rows]
        for part in _tree_sum(f.reshape(-1, min(len(f), _SUM_CHUNK), rows.size).swapaxes(0, 1)):
            total += part
        acc[rows] = total
    acc = acc + _log_series(a * q**head, q)
    acc[acc.real == -math.inf] = -math.inf
    return acc.reshape(shape)


def _pair_log(rows, ctx, lone):
    """The log of the product over the rows (k, prm, v) of (v, conj v;q)_inf^k,
    k = 1 or -1 and v = prm times a unit node array: a row's log is 2 Re log
    (v;q)_inf, so the value is real.

    Every node of a row has |v| = |prm|, so a row has one head,
    _factor_counts(|prm|, q, LOG_RADIUS) factors 1 - v q^k, and the q-log
    series of the rest, one batched call.  The factors' arguments come from v
    by repeated multiplication by q (:func:`_q_steps`), all rows in one
    (head, row, node) block, zero past each row's head; for its scratch to
    stay near _BLOCK_ELEMENTS entries at any head length and node count, the
    block is cut into _SUM_CHUNK heads and into node spans.  A head factor f
    gives the real log log(Re f^2 + Im f^2), twice log |f|.  Each chunk's
    logs are summed by the fixed pairwise tree :func:`_tree_sum`, the chunks
    in order, then the rows in order, so a node's value does not depend on
    its call.  Where the largest |v| over these rows and the rows (k, v) of
    ``lone``, which the caller takes by :func:`_log_quotient`, is capped, the
    scalar log of that entry raises its cap error before any factor is formed.
    """
    q, v = ctx.q, np.stack([r[-1] for r in (*rows, *lone)])
    _raise_if_capped(q_pochhammer_infinite_log, v.ravel(), np.abs(v).ravel(), ctx)
    v = v[: len(rows)]
    heads = _factor_counts(np.abs([prm for _, prm, _ in rows]), q, LOG_RADIUS)
    logs = np.zeros(v.shape)
    cols = max(1, _BLOCK_ELEMENTS // (_SUM_CHUNK * len(rows)))
    for n in range(0, v.shape[1], cols):
        term, span = v[:, n : n + cols], slice(n, n + cols)
        for k0 in range(0, int(heads.max()), _SUM_CHUNK):
            width = min(_SUM_CHUNK, 1 << int(heads.max() - k0 - 1).bit_length())
            f, term = _q_steps(term, width, q)
            f[k0 + np.arange(width)[:, None] >= heads] = 0.0  # past each row's head
            np.subtract(1.0, f, out=f)
            logs[:, span] += _tree_sum(np.log(f.real * f.real + f.imag * f.imag))
    total = np.zeros(v.shape[1])
    for (k, _, _), row in zip(rows, logs + 2.0 * _log_series(v * q ** heads[:, None], q).real):
        total = total + row if k > 0 else total - row
    return total


def _mirror(t):
    """For each node t_i, the index of a node equal to -t_i, if every node
    has one and there are two nodes or more; else None."""
    if t.size < 2:
        return None
    order = np.argsort(t, kind="stable")
    ordered = t[order]
    if not (ordered == -ordered[::-1]).all():
        return None
    mirror = np.empty_like(order)
    mirror[order] = order[::-1]
    return mirror


def _log_quotient(rows, nodes, ctx):
    """log of prod (v;q)_inf^k over the rows (k, v) of ``rows`` at the
    array ``nodes``: k = 1 or -1 for a numerator or denominator row v.  A
    row (k, v, w) is a mirrored pair: w at each node is the conjugate of v
    at the node's negative (v itself there for a real v).  Where every
    node's negative is a node (:func:`_mirror`), w's log is read off v's
    row, as the array log is exactly conjugate-symmetric off the positive
    real axis; otherwise w is a row of its own.  Both give the same bits.
    The rows are node arrays, all taken by one call of
    ``q_pochhammer_infinite_log``, whose -inf at an exact zero factor
    carries through.

    The rows are added (k > 0) or subtracted one at a time, in order, a
    pair's second member right after its first: numpy's sum over eight or
    more rows pairs them differently for one node than for many, so a
    node's value would depend on its call.
    """
    mirror = _mirror(nodes) if any(len(r) == 3 for r in rows) else None
    args = [a for _, *members in rows for a in (members if mirror is None else members[:1])]
    total = np.zeros(nodes.size)
    if not args:
        return total
    logs = iter(q_pochhammer_infinite_log(np.concatenate(args), ctx).reshape(-1, nodes.size))
    for k, v, *pair in rows:
        members = [next(logs)]
        if pair and mirror is None:
            members.append(next(logs))
        elif pair:
            members.append(members[0][mirror].conj() if np.iscomplexobj(v) else members[0][mirror])
        for row in members:
            total = total + row if k > 0 else total - row
    return total


def q_pochhammer_infinite(a, ctx: QContext):
    """(a;q)_inf as a truncated product with a bounded relative tail: the
    finite product (a;q)_n over the factor count n.

    A scalar ``a`` gives a ``complex``.  An array ``a`` gives an array of
    the same shape, every entry over its own factor count.  A capped
    product raises its cap error, an array that of its largest |a|
    (module docstring).
    """
    if not isinstance(a, _NUMBER) and _is_array(a, "(a;q)_inf"):
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
    if not isinstance(a, _NUMBER) and _is_array(a, "log (a;q)_inf"):
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


def _is_array(a, what) -> bool:
    """Whether ``a``, which is not a Python number, is an ndarray of numbers
    (bools, integers, floats or complexes) rather than a number (numpy's
    bool included); any other array is a :class:`DomainError` of ``what``
    naming its dtype, and anything else one naming its type.  Callers test
    for a Python number first, which loads no numpy."""
    if isinstance(a, np.ndarray):
        if a.dtype.kind in "biufc":
            return True
        raise DomainError(f"{what}: a must be an array of numbers, got dtype {a.dtype}")
    if isinstance(a, (numbers.Number, np.bool_)):
        return False
    raise DomainError(f"{what}: a must be a number or an array, got {type(a).__name__}")


def _integral(order) -> bool:
    """Whether ``order`` is a finite q-Pochhammer order (an integral number
    other than a bool); an order that is not a real number is a
    :class:`DomainError` naming its type.  A Python int or float passes
    before the abstract classes are asked."""
    if isinstance(order, (int, float)):
        return isinstance(order, int) and not isinstance(order, bool)
    if isinstance(order, numbers.Real):
        return isinstance(order, numbers.Integral)
    raise DomainError(f"q_pochhammer: the order must be a real number, got {type(order).__name__}")


def _product(aq, order, q: float):
    """prod_{k<order} (1 - aq q^k) by the scalar loop, in the arithmetic of
    ``aq``, a float or a complex; past MAX_FACTORS factors it stops at the
    first factor that leaves the product as it is, or where it is not finite
    (module docstring)."""
    p = type(aq)(1.0)
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


def q_pochhammer(a: complex, order, ctx: QContext) -> complex:
    """q-shifted factorial (a;q)_order; see module docstring for orders.
    An array ``a`` takes the infinite order only."""
    # a Python int or float order and a Python number a skip the helpers'
    # calls, a fifth of a short product's time
    integral = type(order) is int or (type(order) is not float and _integral(order))
    if not isinstance(a, _NUMBER) and _is_array(a, "q_pochhammer") and order != INFINITE:
        raise DomainError(f"(a;q)_order of an array a needs the infinite order, got {order!r}")
    q = ctx.q
    if integral:
        if order < 0:
            raise DomainError(f"finite Pochhammer order must be >= 0, got {order}")
        # a real a in (-1, 1) takes the float loop, with the complex loop's
        # bits where its product is finite (module docstring)
        if isinstance(a, _NUMBER) and a.imag == 0 and -1.0 < a.real < 1.0:
            p = _product(float(a.real), order, q)
            if cmath.isfinite(p):
                return complex(p)
        return _product(complex(a), order, q)
    if order == INFINITE:
        return q_pochhammer_infinite(a, ctx)
    alpha = float(order)
    shifted = a * _power(q, alpha, "q_pochhammer: q^alpha", q=q, a=a, alpha=alpha)
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
    """(a_1,...,a_m;q)_order = product of the single-parameter symbols; an
    order that is not a real number is a :class:`DomainError`, with no
    parameters too."""
    if not params:
        _integral(order)
    p = complex(1.0)
    for a in params:
        p *= q_pochhammer(a, order, ctx)
    return p


def q_bracket(a: float, ctx: QContext) -> float:
    """q-number [a]_q = (1 - q^a) / (1 - q).  An a whose q^a is past the
    double range raises an ``OverflowError`` naming q and a."""
    return (1.0 - _power(ctx.q, a, "q_bracket: q^a", q=ctx.q, a=a)) / (1.0 - ctx.q)


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
    den = q_pochhammer_infinite(_power(q, x, "q_gamma: q^x", q=q, x=x), ctx)
    scale = _power(1.0 - q, 1.0 - x, "q_gamma: (1-q)^(1-x)", q=q, x=x)
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


class HypergeometricSpec(Record):
    """Parameters of a basic hypergeometric series r-phi-s.

    ``numer`` and ``denom`` are the upper and lower parameter lists; ``z``
    is the argument.  The base q comes from the :class:`QContext` at
    evaluation time.  A terminating numerator parameter q^-k may either be
    given numerically in ``numer`` (detected within 1e-12 relative) or, the
    preferred exact route, through ``terminating_k`` which adds an implicit
    q^-k numerator parameter handled in exponent arithmetic.  It is an
    integral number other than a bool, numpy's too, and is kept as an int.
    """

    numer: tuple = ()
    denom: tuple = ()
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


def h_cos(theta, params, ctx: QContext) -> complex:
    """Askey-Wilson weight factor h(cos theta; a_1,...,a_m).

    Product over the parameters of (a e^{i theta}, a e^{-i theta}; q)_inf.
    A parameter whose imaginary part is 0 takes one product v = (a e^{i
    theta};q)_inf and its factor as the real |v|^2, h(cos theta; a) =
    |(a e^{i theta};q)_inf|^2 (Gasper & Rahman, ch. 6), so at real
    parameters the value is exactly real.  ``theta`` is a number, and the
    value a ``complex``; an array of angles is a :class:`DomainError` (the
    checks take these factors as log rows on their nodes,
    :mod:`qaw.identities`).
    """
    if not isinstance(theta, _NUMBER) and isinstance(theta, np.ndarray):
        raise DomainError(f"h_cos: theta must be a number, got an array of shape {theta.shape}")
    e = cmath.exp(1j * theta)
    p = complex(1.0)
    for a in params:
        if a == 0:
            continue
        v = q_pochhammer_infinite(a * e, ctx)
        if a.imag == 0:
            p *= (v * v.conjugate()).real
        else:
            p *= v
            p *= q_pochhammer_infinite(a / e, ctx)
    return p


def h_sinh_log(x, t: complex, ctx: QContext) -> complex:
    """log of (i t e^x, -i t e^{-x}; q)_inf, safe for large |x|.

    Real part is the log-magnitude, imaginary part the accumulated phase.
    ``x`` is a number, and the value a ``complex``; an array is a
    :class:`DomainError` naming h_sinh_log, given to :func:`h_sinh` too.
    An x whose e^x is 0 or not finite raises ``OverflowError``, unless
    t = 0.
    """
    if not isinstance(x, _NUMBER) and isinstance(x, np.ndarray):
        raise DomainError(f"h_sinh_log: x must be a number, got an array of shape {x.shape}")
    if t == 0:
        return complex(0.0)
    try:
        ex = math.exp(x)
    except OverflowError:
        ex = math.inf
    if not 0 < ex < math.inf:
        raise OverflowError(f"h_sinh: e^x is 0 or not finite at x={x}")
    return q_pochhammer_infinite_log(1j * t * ex, ctx) + q_pochhammer_infinite_log(
        -1j * t / ex, ctx
    )


def h_sinh(x: float, t: complex, ctx: QContext) -> complex:
    """(i t e^x, -i t e^{-x};q)_inf = prod_k (1 - 2 i q^k t sinh x + q^{2k} t^2).

    Evaluated through the log-domain path, :func:`h_sinh_log`, so ``x`` is a
    number (an array is a :class:`DomainError`); raises ``OverflowError`` if
    the value exceeds the double-precision range, which ``cmath.exp``
    decides: a log-magnitude up to about 709.78 can still give a finite
    value.
    """
    lg = h_sinh_log(x, t, ctx)
    try:
        return cmath.exp(lg)
    except OverflowError:
        raise OverflowError(
            f"h_sinh log-magnitude {lg.real:.1f} exceeds the double range; "
            f"use h_sinh_log"
        ) from None
