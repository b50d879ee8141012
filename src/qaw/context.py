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
them needs no other edit.  :class:`QawError` takes the message and then
the fields, by position in the order of ``fields`` or by name; a field
that is not given is None (``WindowFailure.probes`` too), and a name the
class does not declare is a ``TypeError``.  An ``OverflowError`` (a double
range that gave out: a power of real order, ``<what> is past the double
range at <name>=<value>, ...`` from its one guard ``qcore._power``, an
``h_sinh`` whose e^x is 0 or not finite, or a closed side whose value is
not finite) is the one builtin a check can raise; it ends ``diverged``
with no fields.  An array path of :mod:`qaw.qcore` raises it, as any other
error, where its scalar path does, under any warnings filter.

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

Among the messages: a product capped at 10 000 factors raises a
non-convergence ``<product> with a=<a> did not converge in 10000
factors``; every series summed term by term (``phi series``, a
q-integral, the ``Cauchy operator``; ``qcore._series_sum``) that has not
settled at its term cap raises ``<series> did not converge in <cap>
terms``, the cap 10 000 or a Cauchy operator's n_max, and one whose
partial sum is not finite from a term n raises ``<series>: term <n> or
the partial sum through it is not finite``; a closed side past the
double range, or over a product that underflows to 0, raises an
``OverflowError`` ``closed side past the double range: products
<|numerator|> over <|denominator|>``; and a generating row at a*b*z =
q^-k (k >= 0), a removable singularity of its k-sum form, is a domain
error naming a*b*z and k.

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
    row of the table in the module docstring.  ``QawError(message,
    *values, **named)`` sets each name of ``fields``: from ``values`` in
    that order, else from ``named``, else None.
    """

    outcome = "diverged"
    fields = ()

    def __init__(self, message, *values, **named):
        super().__init__(message)
        # a name given twice, by position and by keyword, is not in the slice
        if len(values) > len(self.fields) or set(named) - set(self.fields[len(values):]):
            raise TypeError(f"{type(self).__name__} takes the fields {self.fields}")
        named.update(zip(self.fields, values))
        for name in self.fields:
            setattr(self, name, named.get(name))


class NonConvergence(QawError):
    """A series or product failed to converge under the truncation policy.

    Carries the last partial sum and the magnitude of the last term so the
    caller can report how far the evaluation got.
    """

    fields = ("partial", "last_term")


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


class WindowFailure(QawError):
    """No integration window with a sufficiently small tail could be found.

    ``probes`` maps each probed half-width T to the observed log-magnitude
    (NaN for a NaN probe, inf where the integrand is past the double range).
    """

    fields = ("probes",)


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
