"""Evaluation context and error types shared across the library.

All series and infinite products in the package are truncated under one
fixed policy, whose cutoffs are constants of :mod:`qaw.qcore`;
:class:`QContext` carries the base q alone.

How a failure ends
------------------
Each error class declares, once, how a check or an evaluation that
raises it ends: ``outcome`` is its status in a suite report and
``fields`` the attributes a diverged entry reports under ``details``.
``run_suite`` and ``qaw eval`` read these two attributes and ``qaw
check`` catches every library error alike, so a subclass that declares
them needs no other edit.  An
``OverflowError`` (a double range that gave out) is the one builtin a
check can raise; it ends ``diverged`` with no fields.

==================  ========  ==========================  ==========================  ==========
error               suite     ``details``                 ``qaw eval``                ``qaw check``
==================  ========  ==========================  ==========================  ==========
``DomainError``     skipped   (none)                      2, ``domain error:``        65
``PoleError``       skipped   (none)                      2, ``domain error:``        2
``DivisionByZero``  skipped   (none)                      2, ``domain error:``        2
``NonConvergence``  diverged  partial, last_term          2, ``convergence error:``   2
``KSumDivergence``  diverged  k, term_magnitude, partial  2, ``convergence error:``   2
``WindowFailure``   diverged  probes                      2, ``convergence error:``   2
``OverflowError``   diverged  (none)                      2, ``convergence error:``   2
``QawError``        diverged  (none)                      2, ``convergence error:``   2
==================  ========  ==========================  ==========================  ==========

The last row is the base class, whose ``outcome`` and ``fields`` a
subclass that declares neither inherits.

A suite entry's ``reason`` and the ``qaw check`` message are
``<type>: <message>``, except for a ``DomainError``, whose reason is
its message and whose ``qaw check`` message is ``invariant violation:
<message>``.  ``qaw eval`` prints its prefix and the message.
"""

from __future__ import annotations

from dataclasses import dataclass


class QawError(Exception):
    """Base class for all library errors.

    ``outcome`` ("skipped" or "diverged") and ``fields`` are the class's
    row of the table in the module docstring.
    """

    outcome = "diverged"
    fields = ()


class NonConvergence(QawError):
    """A series or product failed to converge under the truncation policy.

    Carries the last partial sum and the magnitude of the last term so the
    caller can report how far the evaluation got.
    """

    fields = ("partial", "last_term")

    def __init__(self, message, partial=None, last_term=None):
        super().__init__(message)
        self.partial = partial
        self.last_term = last_term


class DivisionByZero(QawError):
    """A denominator Pochhammer symbol or factor vanished."""

    outcome = "skipped"


class PoleError(QawError):
    """Evaluation requested at a pole (e.g. q-gamma at a nonpositive integer)."""

    outcome = "skipped"


class DomainError(QawError):
    """Arguments violate a documented precondition."""

    outcome = "skipped"


class KSumDivergence(QawError):
    """The outer k-series of a fractional identity did not settle.

    Raised, instead of a truncated value, when a node's sum is not finite or
    has not decayed within the coefficient cap.  ``k`` is the number of
    coefficients with a finite partial sum, ``term_magnitude`` the last of
    their terms and ``partial`` the sum up to it.
    """

    fields = ("k", "term_magnitude", "partial")

    def __init__(self, message, k=None, term_magnitude=None, partial=None):
        super().__init__(message)
        self.k = k
        self.term_magnitude = term_magnitude
        self.partial = partial


class WindowFailure(QawError):
    """No integration window with a sufficiently small tail could be found.

    ``probes`` maps each probed half-width T to the observed log-magnitude.
    """

    fields = ("probes",)

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
