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

Frozen records
--------------
The package's plain-data classes (:class:`QContext`, the params classes
and reports of :mod:`qaw.identities`, ``HypergeometricSpec``,
``QuadratureResult``) derive from :class:`Record`, which gives them what
a frozen dataclass would, but ``dataclasses.fields``, ``replace`` and
``asdict``: a record's ``fields`` list each field's name, declared type
and default, the constructor takes the changed fields and ``vars`` gives
them all.  It builds each class from its annotations without generating
code, so importing the package loads neither ``dataclasses`` nor
``inspect``: that and creating the classes took some 18 ms of every
process's start-up (Python 3.11, 2-core x86-64 host, no ``.pyc`` files).
"""

from __future__ import annotations


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


MISSING = object()  # the default of a field that has none


class Field:
    """A field of a :class:`Record`: its name, its declared type as
    written and its default, MISSING where it has none."""

    __slots__ = ("name", "type", "default")

    def __init__(self, name, type, default):
        self.name, self.type, self.default = name, type, default


class Record:
    """Base of the package's frozen records, in place of a frozen dataclass.

    A subclass declares its fields as annotations written as text (``from
    __future__ import annotations``), after those of its base and with its
    class attributes as defaults; a ``ClassVar`` is no field.  ``fields``
    lists them.  A record takes each field once, by position or by name,
    else its default, a dict default copied for each record (a TypeError
    names the fields that are unknown, missing or given twice), then runs
    ``__post_init__``.  Setting or deleting an attribute is an
    AttributeError.  A record equals a record of its own class with equal
    fields, hashes and prints as a dataclass does, and ``vars`` gives its
    fields in order.
    """

    fields = ()

    def __init_subclass__(cls):
        own = {name: Field(name, kind, vars(cls).get(name, MISSING))
               for name, kind in cls.__annotations__.items() if not kind.startswith("ClassVar")}
        cls.fields = tuple({**{f.name: f for f in cls.fields}, **own}.values())
        cls._defaults = {f.name: f.default for f in cls.fields}
        cls._required = [f.name for f in cls.fields if f.default is MISSING]
        cls._copied = [f.name for f in cls.fields if type(f.default) is dict]

    def __init__(self, *args, **named):
        cls = type(self)
        values = vars(self)
        values.update(cls._defaults)
        if args:
            given = dict(zip(cls._defaults, args))
            if len(args) > len(given) or not given.keys().isdisjoint(named):
                raise TypeError(f"{cls.__name__} takes each of the fields "
                                f"{', '.join(cls._defaults)} once, by position or by name")
            values.update(given)
        values.update(named)
        if len(values) > len(cls.fields):
            unknown = [name for name in named if name not in cls._defaults]
            raise TypeError(f"{cls.__name__} has no field(s) {', '.join(unknown)}")
        for name in cls._required:
            if values[name] is MISSING:
                missing = [name for name in cls._required if values[name] is MISSING]
                raise TypeError(f"{cls.__name__} needs the field(s) {', '.join(missing)}")
        for name in cls._copied:
            if values[name] is cls._defaults[name]:
                values[name] = dict(values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class QContext(Record):
    """The base q, which must lie in the open interval (0, 1).

    The truncation policy (tail tolerance, term and factor caps) is fixed
    by the constants of :mod:`qaw.qcore`.
    """

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
