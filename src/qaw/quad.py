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

Integrand contract: ``f`` takes a 1-D float array of nodes and returns an
array of the same shape.  Each refinement level evaluates ``f`` once, on
all of its new nodes, and each window probe once, on ``[T, -T]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .context import NonConvergence, WindowFailure

_MAX_WINDOW = 50.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and sizes of the nested trapezoidal rule.

    ``initial_nodes`` is the number of intervals of the first level, on
    [0, pi] or on the whole window; each of at most ``max_refinements``
    refinements doubles it.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_refinements: int = 20
    initial_nodes: int = 64
    window_growth: float = 1.5
    window_tail_tol: float = 1e-16

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.window_tail_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinements < 1 or self.initial_nodes < 2:
            raise ValueError("max_refinements >= 1 and initial_nodes >= 2 required")
        if self.window_growth <= 1.0:
            raise ValueError("window_growth must exceed 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    est_error: float
    nodes_used: int
    window: tuple | None
    converged: bool


def _evaluate(f, nodes):
    values = np.asarray(f(nodes))
    if values.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {values.shape} for nodes of shape {nodes.shape}"
        )
    return values


def _trapezoid(f, lo, hi, cfg: QuadratureConfig) -> QuadratureResult:
    """Nested trapezoidal rule on [lo, hi] with its Romberg diagonal.

    Nodes are ``mid + h*j`` with j an integer or half-integer, so a window
    (mid = 0) is sampled at exact negatives.  A level is accepted when the
    trapezoid column, or else the Romberg diagonal, moved by at most
    max(rel_tol*|v|, abs_tol); ``est_error`` is that move, floored by the
    rounding of the sum, 4*eps*h*sum|f_j|.
    """
    mid, n = 0.5 * (lo + hi), cfg.initial_nodes
    h = (hi - lo) / n
    fx = _evaluate(f, mid + h * (np.arange(n + 1) - 0.5 * n))
    absum = h * float(np.sum(np.abs(fx[1:-1])) + 0.5 * (abs(fx[0]) + abs(fx[-1])))
    row = [complex(h * (np.sum(fx[1:-1]) + 0.5 * (fx[0] + fx[-1])))]
    for _ in range(cfg.max_refinements):
        fx = _evaluate(f, mid + h * (np.arange(n) - 0.5 * (n - 1)))
        n, h = 2 * n, 0.5 * h
        absum = 0.5 * absum + h * float(np.sum(np.abs(fx)))
        new = [complex(0.5 * row[0] + h * np.sum(fx))]
        for k, prev in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - prev) / (4**k - 1))
        moves = [(new[0], abs(new[0] - row[0])), (new[-1], abs(new[-1] - row[-1]))]
        row = new
        for value, diff in moves:
            if diff <= max(cfg.rel_tol * abs(value), cfg.abs_tol):
                err = max(diff, 4.0 * _EPS * absum)
                return QuadratureResult(value, err, n + 1, None, True)
    raise NonConvergence(
        f"quadrature not converged after {cfg.max_refinements} refinements "
        f"(last diff {diff:.3e})",
        partial=value,
        last_term=diff,
    )


def integrate_theta(f, cfg: QuadratureConfig = QuadratureConfig()) -> QuadratureResult:
    """Integrate a smooth integrand over [0, pi] by the nested trapezoidal rule.

    ``f`` maps a 1-D array of angles to an array of values of the same shape.
    """
    return _trapezoid(f, 0.0, math.pi, cfg)


def estimate_theta_growth_window(log_magnitude, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Smallest probed half-width T with log_magnitude(T) below log(window_tail_tol).

    Probes the geometric grid T in {1, g, g^2, ...} with g = window_growth;
    raises :class:`WindowFailure` (reporting the probed log-magnitudes) if
    no such T exists below 50.
    """
    target = math.log(cfg.window_tail_tol)
    probes = {}
    T = 1.0
    while T < _MAX_WINDOW:
        lm = log_magnitude(T)
        probes[T] = lm
        if lm < target:
            return T
        T *= cfg.window_growth
    raise WindowFailure(
        f"integrand log-magnitude never dropped below {target:.2f} up to "
        f"T={_MAX_WINDOW}; probes: "
        + ", ".join(f"{t:.3g}:{m:.2f}" for t, m in probes.items()),
        probes=probes,
    )


def integrate_line_even_window(f, cfg: QuadratureConfig = QuadratureConfig()) -> QuadratureResult:
    """Integrate over the real line inside a symmetric window [-T, T].

    T is the first probe of :func:`estimate_theta_growth_window` with
    max|f(+-T)| * T < window_tail_tol, each probe one call
    ``f(np.array([T, -T]))``; [-T, T] is then integrated by the nested
    trapezoidal rule.  ``f`` maps a 1-D array of points to an array of
    values of the same shape.  The imaginary part of the value feeds the
    error estimate, since admissible integrands satisfy f(-t) = conj(f(t)).
    """

    def log_magnitude(T):
        mag = float(np.max(np.abs(_evaluate(f, np.array([T, -T]))))) * T
        return math.log(mag) if mag > 0 else -math.inf

    T = estimate_theta_growth_window(log_magnitude, cfg)
    res = _trapezoid(f, -T, T, cfg)
    err = max(res.est_error, abs(res.value.imag))
    return replace(res, est_error=err, window=(-T, T))
