"""Evaluation context and error types shared across the library.

All series and infinite products in the package are truncated under one
policy: :class:`QContext` carries the base q and the two settable values
(the relative tail tolerance and the series term cap); the remaining
cutoffs are constants of :mod:`qaw.qcore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class QawError(Exception):
    """Base class for all library errors."""


class NonConvergence(QawError):
    """A series or product failed to converge under the context policy.

    Carries the last partial sum and the magnitude of the last term so the
    caller can report how far the evaluation got.
    """

    def __init__(self, message, partial=None, last_term=None):
        super().__init__(message)
        self.partial = partial
        self.last_term = last_term


class DivisionByZero(QawError):
    """A denominator Pochhammer symbol or factor vanished."""


class PoleError(QawError):
    """Evaluation requested at a pole (e.g. q-gamma at a nonpositive integer)."""


class DomainError(QawError):
    """Arguments violate a documented precondition."""


class KSumDivergence(QawError):
    """The outer k-series of a fractional identity did not settle.

    Raised, instead of a truncated value, when a node's sum is not finite or
    has not decayed within the coefficient cap.  ``k`` is the number of
    coefficients with a finite partial sum, ``term_magnitude`` the last of
    their terms and ``partial`` the sum up to it.
    """

    def __init__(self, message, k=None, term_magnitude=None, partial=None):
        super().__init__(message)
        self.k = k
        self.term_magnitude = term_magnitude
        self.partial = partial


class WindowFailure(QawError):
    """No integration window with a sufficiently small tail could be found.

    ``probes`` maps each probed half-width T to the observed log-magnitude.
    """

    def __init__(self, message, probes=None):
        super().__init__(message)
        self.probes = probes or {}


@dataclass(frozen=True)
class QContext:
    """Base q together with the settable truncation policy.

    q          base, must lie in the open interval (0, 1)
    eps_term   relative tail tolerance for series and products
    max_terms  cap on series terms

    The product-factor cutoff, the factor cap and the run of small terms
    that ends a series are fixed constants of :mod:`qaw.qcore`.
    """

    q: float
    eps_term: float = 1e-15
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.q < 1.0) or not math.isfinite(self.q):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not 0 < self.eps_term < math.inf:
            raise DomainError(f"eps_term must be positive and finite, got {self.eps_term}")
        if self.max_terms <= 0:
            raise DomainError("max_terms must be strictly positive")
