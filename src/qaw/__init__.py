"""Numerical q-calculus library and identity verification tool.

Scalar primitives live in :mod:`qaw.qcore`, the q-integral operators in
:mod:`qaw.qops`, quadrature engines in :mod:`qaw.quad`, and the identity
checks with their suite runner in :mod:`qaw.identities`.  The ``qaw``
executable (see :mod:`qaw.cli`) exposes all of it from the command line.
"""

__version__ = "0.1.0"

from .context import (
    DivisionByZero,
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QawError,
    QContext,
    WindowFailure,
)
from .qcore import (
    INFINITE,
    HypergeometricSpec,
    h_cos,
    h_sinh,
    h_sinh_log,
    phi_series,
    q_bracket,
    q_gamma,
    q_pochhammer,
    q_pochhammer_multi,
)
from .qops import (
    cauchy_T_apply,
    cauchy_T_reciprocal_closed,
    difference_eq_residual,
    fractional_q_integral,
    jackson_q_integral,
    q_difference,
)
from .quad import QuadratureResult, integrate_line_even_window, integrate_theta
from .identities import (
    AtakishiyevParams,
    AWParams,
    Generating3phi2Params,
    GeneratingParams,
    IdentityReport,
    PlainAtakishiyevParams,
    PlainAWParams,
    ReversalParams,
    run_check,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
