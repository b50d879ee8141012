"""Quadrature engines for the integral identity families.

One engine, a nested trapezoidal rule, serves smooth integrands on [0, pi]
and real-line integrands with at least exponentially decaying tails, cut
to a symmetric window [-T, T].  The identities' theta-integrands depend on
cos(theta), so they are analytic, even and 2*pi-periodic, and their window
integrands are analytic and negligible at +-T; in both cases the rule
converges geometrically (Trefethen & Weideman, SIAM Review 56(3), 2014).
Each refinement halves the step and evaluates only the new midpoints, so
no sample is thrown away.  A Romberg diagonal (Richardson extrapolation of
the levels) beside the trapezoid column keeps non-periodic smooth
integrands accurate too.  Sums reduce in a fixed deterministic order.

The tolerances, level sizes and window rule are module constants: at these
values the rule converges geometrically on every identity's integrand.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns an
array of the same shape.  Each refinement level evaluates ``f`` once, on
all of its new nodes, and each window probe once, on ``[T, -T]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .context import NonConvergence, WindowFailure

# Every check runs under this one policy.  A level is accepted when it
# moved by at most max(_REL_TOL * |value|, _ABS_TOL); the first level has
# _INITIAL_INTERVALS intervals, and each of at most _MAX_REFINEMENTS
# refinements doubles them.  A window probes half-widths 1, 1.5, 1.5^2, ...
# below _MAX_WINDOW until max|f(+-T)| * T falls below _WINDOW_TAIL_TOL.
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_REFINEMENTS = 20
_INITIAL_INTERVALS = 64
_WINDOW_GROWTH = 1.5
_WINDOW_TAIL_TOL = 1e-16
_MAX_WINDOW = 50.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureResult:
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
    return values


def _trapezoid(f, lo, hi) -> QuadratureResult:
    """Nested trapezoidal rule on [lo, hi] with its Romberg diagonal.

    Nodes are ``mid + h*j`` with j an integer or half-integer, so a window
    (mid = 0) is sampled at exact negatives.  A level is accepted when the
    trapezoid column, or else the Romberg diagonal, moved by at most
    max(_REL_TOL*|v|, _ABS_TOL); ``est_error`` is that move, floored by the
    rounding of the sum, 4*eps*h*sum|f_j|.
    """
    mid, n = 0.5 * (lo + hi), _INITIAL_INTERVALS
    h = (hi - lo) / n
    fx = _evaluate(f, mid + h * (np.arange(n + 1) - 0.5 * n))
    absum = h * float(np.sum(np.abs(fx[1:-1])) + 0.5 * (abs(fx[0]) + abs(fx[-1])))
    row = [complex(h * (np.sum(fx[1:-1]) + 0.5 * (fx[0] + fx[-1])))]
    for _ in range(_MAX_REFINEMENTS):
        fx = _evaluate(f, mid + h * (np.arange(n) - 0.5 * (n - 1)))
        n, h = 2 * n, 0.5 * h
        absum = 0.5 * absum + h * float(np.sum(np.abs(fx)))
        new = [complex(0.5 * row[0] + h * np.sum(fx))]
        for k, prev in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - prev) / (4**k - 1))
        moves = [(new[0], abs(new[0] - row[0])), (new[-1], abs(new[-1] - row[-1]))]
        row = new
        for value, diff in moves:
            if diff <= max(_REL_TOL * abs(value), _ABS_TOL):
                err = max(diff, 4.0 * _EPS * absum)
                return QuadratureResult(value, err, n + 1, None)
    raise NonConvergence(
        f"quadrature not converged after {_MAX_REFINEMENTS} refinements "
        f"(last diff {diff:.3e})",
        partial=value,
        last_term=diff,
    )


def integrate_theta(f) -> QuadratureResult:
    """Integrate a smooth integrand over [0, pi] by the nested trapezoidal rule.

    ``f`` maps a 1-D array of angles to an array of values of the same shape.
    """
    return _trapezoid(f, 0.0, math.pi)


def integrate_line_even_window(f) -> QuadratureResult:
    """Integrate over the real line inside a symmetric window [-T, T].

    T is the first of the half-widths 1, 1.5, 1.5^2, ... below 50 with
    max|f(+-T)| * T < 1e-16, each probe one call ``f(np.array([T, -T]))``;
    if none has, :class:`WindowFailure` carries the probed log-magnitudes.
    [-T, T] is then integrated by the nested trapezoidal rule.  ``f`` maps
    a 1-D array of points to an array of values of the same shape.  The
    imaginary part of the value feeds the error estimate, since admissible
    integrands satisfy f(-t) = conj(f(t)).
    """
    target = math.log(_WINDOW_TAIL_TOL)
    probes = {}
    T = 1.0
    while T < _MAX_WINDOW:
        mag = float(np.max(np.abs(_evaluate(f, np.array([T, -T]))))) * T
        probes[T] = math.log(mag) if mag > 0 else -math.inf
        if probes[T] < target:
            res = _trapezoid(f, -T, T)
            err = max(res.est_error, abs(res.value.imag))
            return replace(res, est_error=err, window=(-T, T))
        T *= _WINDOW_GROWTH
    raise WindowFailure(
        f"integrand log-magnitude never dropped below {target:.2f} up to "
        f"T={_MAX_WINDOW}; probes: "
        + ", ".join(f"{t:.3g}:{m:.2f}" for t, m in probes.items()),
        probes=probes,
    )
