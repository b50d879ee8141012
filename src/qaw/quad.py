"""Quadrature engines for the integral identity families.

Two engines are provided: composite Gauss-Legendre with node doubling for
smooth integrands on [0, pi], and a symmetric-window variant for even-ish
integrands on the real line whose tails decay at least exponentially.
Node tables come from the Legendre-polynomial Gauss rule and are cached
per node count; quadrature sums reduce in a fixed deterministic order.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns an
array of the same shape.  Each refinement level evaluates ``f`` once, on
all nodes of all panels, and each window probe once, on ``[T, -T]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .context import NonConvergence, WindowFailure

_MAX_WINDOW = 50.0


@dataclass(frozen=True)
class QuadratureConfig:
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


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return xs, ws


def _evaluate(f, nodes):
    values = np.asarray(f(nodes))
    if values.shape != nodes.shape:
        raise ValueError(
            f"integrand returned shape {values.shape} for nodes of shape {nodes.shape}"
        )
    return values


def _panel_sum(f, edges, n: int) -> complex:
    xs, ws = _gl_rule(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    nodes = (mid + half * xs).ravel()
    return complex(np.sum((half * ws).ravel() * _evaluate(f, nodes)))


def _refine(f, edges, cfg: QuadratureConfig, n0: int, window):
    n = n0
    prev = _panel_sum(f, edges, n)
    npanels = len(edges) - 1
    for _ in range(cfg.max_refinements):
        n *= 2
        val = _panel_sum(f, edges, n)
        diff = abs(val - prev)
        if diff <= max(cfg.rel_tol * abs(val), cfg.abs_tol):
            err = max(diff, abs(val.imag)) if window is not None else diff
            return QuadratureResult(val, err, n * npanels, window, True)
        prev = val
    raise NonConvergence(
        f"quadrature not converged after {cfg.max_refinements} refinements "
        f"(last diff {diff:.3e})",
        partial=val,
        last_term=diff,
    )


def integrate_theta(f, cfg: QuadratureConfig = QuadratureConfig()) -> QuadratureResult:
    """Integrate a smooth integrand over [0, pi] by node-doubled Gauss-Legendre.

    ``f`` maps a 1-D array of angles to an array of values of the same shape.
    """
    edges = [0.0, math.pi]
    return _refine(f, edges, cfg, cfg.initial_nodes, None)


def estimate_theta_growth_window(log_magnitude, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Smallest probed half-width T with log|f(T)| below log(window_tail_tol).

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

    T grows geometrically until |f(+-T)| * T < window_tail_tol, probing
    both ends with one call ``f(np.array([T, -T]))``; the window is then
    split into panels of width about 2 and each panel integrated by
    node-doubled Gauss-Legendre.  ``f`` maps a 1-D array of points to an
    array of values of the same shape.  The imaginary part of the value
    feeds the error estimate, since admissible integrands satisfy
    f(-t) = conj(f(t)).
    """
    probes = {}
    T = 1.0
    while True:
        mag = float(np.max(np.abs(_evaluate(f, np.array([T, -T])))))
        probes[T] = math.log(mag) if mag > 0 else -math.inf
        if mag * T < cfg.window_tail_tol:
            break
        T *= cfg.window_growth
        if T >= _MAX_WINDOW:
            raise WindowFailure(
                "integrand tail did not decay below window_tail_tol by T=50; "
                "probed log-magnitudes: "
                + ", ".join(f"{t:.3g}:{m:.2f}" for t, m in probes.items()),
                probes=probes,
            )
    npanels = max(2, math.ceil(T))
    edges = list(np.linspace(-T, T, npanels + 1))
    n0 = max(8, cfg.initial_nodes // 4)
    return _refine(f, edges, cfg, n0, (-T, T))
