"""Evaluation context and error types shared across the library.

All series and infinite products in the package are truncated under one
fixed policy, whose cutoffs are constants of :mod:`qaw.qcore`;
:class:`QContext` carries the base q alone.
"""

from __future__ import annotations

from dataclasses import dataclass


class QawError(Exception):
    """Base class for all library errors."""


class NonConvergence(QawError):
    """A series or product failed to converge under the truncation policy.

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
    """The base q, which must lie in the open interval (0, 1).

    The truncation policy (tail tolerance, term and factor caps) is fixed
    by the constants of :mod:`qaw.qcore`.
    """

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
