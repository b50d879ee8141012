"""Quadrature engines for the integral identity families.

One engine, a nested trapezoidal rule, serves periodic integrands on [0, pi]
and real-line integrands with at least exponentially decaying tails, cut
to a symmetric window [-T, T].  The identities' theta-integrands depend on
cos(theta), so they are analytic, even and 2*pi-periodic, and their window
integrands are analytic and negligible at +-T; in both cases the rule
converges geometrically (Trefethen & Weideman, SIAM Review 56(3), 2014).
On both intervals ``est_error`` is the rule's own, for any complex value.
Each refinement halves the step and evaluates only the new midpoints, so
no sample is thrown away.  There is no Richardson extrapolation, so a
non-periodic integrand converges only algebraically, and past 2^16
intervals raises :class:`NonConvergence`.  Sums reduce in a fixed order.

The tolerances, level sizes and window rule are module constants: at these
values the rule converges geometrically on every identity's integrand.
The first level has 64 intervals, each of at most 10 refinements doubles
them, and a level is accepted once it moves by at most max(1e-10 |value|,
4 eps h sum|f|), the second term the rounding of its sum; ``est_error`` is
the larger of the last move and that floor.  A level whose sum has no
finite modulus (``qcore._modulus``: its parts may be finite) raises
:class:`NonConvergence` at once, and so does one still
moving at 2^16 intervals (65 537 nodes, at most 32 768 in one call), with
the last finite value as ``partial``.  A window's half-width T is the
first of 1, 1.5, 1.5^2, ... below 50 with max|f(+-T)| T < 1e-16, probed 8
per call; a NaN or infinite probe does not count as decayed.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns an
array of numbers of the same shape; any other shape, or values of a dtype
that holds no number (str, bytes, datetime, timedelta, void), raises
``ValueError``.  The engine calls ``f``, and sums its values, with
numpy's overflow and invalid events ignored, under any warnings filter:
a value that is not finite is data, reported as :class:`NonConvergence`
or as a probe that has not decayed.  A call costs
about as much for 2 nodes as for a hundred, so the engine makes few,
large calls: one on the first level together with its first refinement
(the rule never accepts a level before refining it), one per later
refinement on its new nodes, and one per batch of window half-widths on
``[T1, -T1, T2, -T2, ...]``.  A batch call that raises is repeated one
half-width at a time, so an integrand that fails only beyond the chosen
window gives the window, value or error that probing each half-width
singly gives.  An integrand whose truncation is sized by the largest node
of a call (the k-sum's Taylor length; not the weights and the generating
integrand, whose log products truncate each entry by itself) may round
differently in a larger call, in the last bits only.  Every real-line
call, a level's or a batch's, holds the exact negative of each of its
nodes: the real-line weights of :mod:`qaw.identities` rely on it, taking
one log row for each pair of factors whose members sit at +-t.
"""

from __future__ import annotations

import math
import sys
from itertools import count, takewhile

from . import _np as np
from .context import NonConvergence, Record, WindowFailure
from .qcore import _modulus

# Every check runs under this one policy.  A level is accepted when it
# moved by at most max(_REL_TOL * |value|, the rounding of its sum); the
# first level has _INITIAL_INTERVALS intervals, and each of at most
# _MAX_REFINEMENTS refinements doubles them, up to 2^16.  A window probes
# half-widths 1, 1.5, 1.5^2, ... below _MAX_WINDOW until max|f(+-T)| * T
# falls below _WINDOW_TAIL_TOL, _WINDOW_BATCH of them per call.  The batch
# is shorter than the ladder of ten half-widths, as an integrand may fail
# at the last ones yet decay well before them: the fractional reversal
# check at q = 1/2, a = 0.2, x = 0.6, mu = 1.5 decays at 1.5^4 but its
# k-sum diverges at 1.5^9 = 38.4.
_REL_TOL = 1e-10
_MAX_REFINEMENTS = 10
_INITIAL_INTERVALS = 64
_WINDOW_GROWTH = 1.5
_WINDOW_TAIL_TOL = 1e-16
_MAX_WINDOW = 50.0
_WINDOW_BATCH = 8
_EPS = sys.float_info.epsilon
_FLOOR = 4.0 * _EPS  # the rounding floor per unit of h*sum|f_j|, a power of two
_LADDER = tuple(takewhile(lambda T: T < _MAX_WINDOW, (_WINDOW_GROWTH**k for k in count())))


class QuadratureResult(Record):
    value: complex
    est_error: float
    nodes_used: int
    window: tuple | None


def _evaluate(f, nodes):
    values = np.asarray(f(nodes))
    if values.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {values.shape} for nodes of shape {nodes.shape}"
        )
    # str, bytes, datetime, timedelta and void hold no number; an object
    # array may hold numbers
    if values.dtype.kind in "USMmV":
        raise ValueError(f"integrand returned values of dtype {values.dtype}, not numbers")
    return values


def _levels(f, lo, hi):
    """Yield the nodes and values of the first level, then the new nodes of
    each refinement and their values.

    The first level (``_INITIAL_INTERVALS`` intervals, ends included) and
    the midpoints of its first refinement come from one call of ``f``;
    each later refinement from one call on its new nodes.  Nodes are
    ``mid + h*j`` with j an integer or half-integer, so a window (mid = 0)
    is sampled at exact negatives.
    """
    mid, n = 0.5 * (lo + hi), _INITIAL_INTERVALS
    h = (hi - lo) / n
    x = mid + h * np.concatenate((np.arange(n + 1) - 0.5 * n, np.arange(n) - 0.5 * (n - 1)))
    fx = _evaluate(f, x)
    yield x[: n + 1], fx[: n + 1]
    yield x[n + 1 :], fx[n + 1 :]
    while True:
        n, h = 2 * n, 0.5 * h
        x = mid + h * (np.arange(n) - 0.5 * (n - 1))
        yield x, _evaluate(f, x)


def _require_finite(total, x, fx, partial):
    """Raise :class:`NonConvergence` when a level's sum has no finite
    modulus (``qcore._modulus``), so that abs() of it is safe after.

    ``partial`` is the last finite level's value (None before the first)
    and ``last_term`` the modulus of this level's sum; refining further
    could never give a finite value, only more nodes.
    """
    size = _modulus(total)
    if size < math.inf:
        return
    bad = np.flatnonzero(~np.isfinite(fx))
    where = f"integrand not finite at node {float(x[bad[0]])!r}" if bad.size else "sum overflowed"
    raise NonConvergence(
        f"quadrature level with {x.size} new nodes is not finite: {where}",
        partial=partial,
        last_term=size,
    )


def _trapezoid(f, lo, hi, window=None) -> QuadratureResult:
    """Nested trapezoidal rule on [lo, hi], refined until its sum settles.

    A level is accepted when it moved by at most max(_REL_TOL*|v|, floor),
    floor = 4*eps*h*sum|f_j| the rounding of its sum, below which refining
    cannot help; ``est_error`` is max(move, floor) and ``window`` the one
    given.  The first level whose sum is not finite, or a level still moving
    at 65537 nodes, raises :class:`NonConvergence` with the last finite
    value as ``partial``.
    """
    n = _INITIAL_INTERVALS
    h = (hi - lo) / n
    levels = _levels(f, lo, hi)
    # numpy's overflow and invalid events are ignored while f is called and
    # its values summed: a sum past the double range, or of infinities of
    # both signs, is not finite, which _require_finite reports, so abs() of
    # an accepted level is safe.  sum|f_j| may pass the range where the
    # level's sum does not, so the floor scales each |f_j| by 4*eps, a power
    # of two, before summing: it is 4*eps*h*sum|f_j| to the bit, and finite
    # for every finite level
    with np.errstate(all="ignore"):
        x, fx = next(levels)
        value = complex(h * (np.sum(fx[1:-1]) + 0.5 * (fx[0] + fx[-1])))
        _require_finite(value, x, fx, None)
        r = np.abs(fx * _FLOOR)
        floor = h * float(np.sum(r[1:-1]) + 0.5 * (r[0] + r[-1]))
        for _ in range(_MAX_REFINEMENTS):
            x, fx = next(levels)
            n, h = 2 * n, 0.5 * h
            new = complex(0.5 * value + h * np.sum(fx))
            _require_finite(new, x, fx, value)
            try:
                move = abs(new - value)
            except OverflowError:  # two finite levels may differ past the double range
                move = _modulus(new - value)
            floor = 0.5 * floor + h * float(np.sum(np.abs(fx * _FLOOR)))
            value = new
            if move <= max(_REL_TOL * abs(value), floor):
                return QuadratureResult(value, max(move, floor), n + 1, window)
    raise NonConvergence(
        f"quadrature not converged after {_MAX_REFINEMENTS} refinements "
        f"({n + 1} nodes, last move {move:.3e})",
        partial=value,
        last_term=move,
    )


def integrate_theta(f) -> QuadratureResult:
    """Integrate a periodic integrand, a smooth function of cos(theta), over
    [0, pi] by the nested trapezoidal rule; others may raise NonConvergence.

    ``f`` maps a 1-D array of angles to an array of values of the same shape.
    """
    return _trapezoid(f, 0.0, math.pi)


def _probe(f, rungs):
    """log(max|f(+-T)| * T) for each half-width T of ``rungs``.

    One call of ``f`` on ``[T1, -T1, T2, -T2, ...]``, with numpy's overflow
    and invalid events ignored.  A non-finite value gives a NaN or infinite
    log-magnitude, which never counts as decayed.
    """
    x = np.array([s * T for T in rungs for s in (1.0, -1.0)])
    with np.errstate(all="ignore"):
        peaks = np.abs(_evaluate(f, x)).reshape(-1, 2).max(axis=1)
    mags = [float(p) * T for p, T in zip(peaks, rungs)]
    return [-math.inf if m == 0 else math.log(m) for m in mags]


def integrate_line_even_window(f) -> QuadratureResult:
    """Integrate over the real line inside a symmetric window [-T, T].

    T is the first of the half-widths 1, 1.5, 1.5^2, ... below 50 with
    max|f(+-T)| * T < 1e-16; a NaN or infinite value at +-T does not count
    as decayed.  The half-widths are probed in batches of
    ``_WINDOW_BATCH``, each batch one call ``f(np.array([T1, -T1, T2, -T2,
    ...]))``.  A batch call that raises is repeated one half-width at a
    time, so the outcome (T, the value, or the error raised) is the one
    that probing each half-width singly gives.  If no half-width has
    decayed, :class:`WindowFailure` carries the probed log-magnitudes.
    [-T, T] is then integrated by the nested trapezoidal rule, whose own
    ``est_error`` the result keeps; the value may be complex.  ``f`` maps
    a 1-D array of points to an array of values of the same shape.
    """
    target = math.log(_WINDOW_TAIL_TOL)
    probes = {}
    for start in range(0, len(_LADDER), _WINDOW_BATCH):
        batch = _LADDER[start : start + _WINDOW_BATCH]
        try:
            logs = _probe(f, batch)
        except Exception:
            # maybe only past T: probe this batch one half-width at a time
            logs = None
        for i, T in enumerate(batch):
            probes[T] = _probe(f, batch[i : i + 1])[0] if logs is None else logs[i]
            if probes[T] < target:
                return _trapezoid(f, -T, T, window=(-T, T))
    raise WindowFailure(
        f"integrand log-magnitude never dropped below {target:.2f} up to "
        f"T={_MAX_WINDOW}; probes: "
        + ", ".join(f"{t:.3g}:{m:.2f}" for t, m in probes.items()),
        probes=probes,
    )
