"""Numerical q-calculus library and identity verification tool.

Scalar primitives live in :mod:`qaw.qcore`, the q-integral operators in
:mod:`qaw.qops`, quadrature engines in :mod:`qaw.quad`, and the identity
checks with their suite runner in :mod:`qaw.identities`.  The ``qaw``
executable (see :mod:`qaw.cli`) exposes all of it from the command line.

numpy is loaded on first use: the modules take one lazy handle to it from
this package, and the scalar paths test for Python numbers before they ask
numpy whether a value is an array.  So ``qaw --version``, ``-h``, usage and
domain errors, ``qaw check lemma-three-term`` and ``qaw eval poch``,
``gamma``, ``phi``, ``hcos`` and ``hsinh`` never load numpy, which is most
of a ``qaw`` process's start-up time.  Nor does the import load
``dataclasses``, with the ``inspect``, ``ast``, ``dis`` and ``tokenize`` it
imports: the plain-data classes are records of :class:`qaw.context.Record`,
built without generated code, which took ``import qaw.cli`` from 93 to 76
ms without ``.pyc`` files (Python 3.11, README).  The import also primes the
C allocator (below), so that the quadrature checks reuse their blocks
wherever numpy loads.
"""

__version__ = "0.1.0"


def _lazy_numpy():
    """numpy, or a module that loads it at its first attribute access.

    The modules take this handle from the package: their own ``import
    numpy`` would load it at once (the import statement reads its spec).
    """
    import importlib.util
    import sys

    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


_np = _lazy_numpy()

# glibc's malloc serves blocks past an mmap threshold by mmap and gives the
# free space at the top of its heap back to the system past a trim
# threshold, both 128 KB at start.  When numpy loads after qaw's modules,
# the quadrature kernels' half-megabyte factor blocks and k-sum temporaries
# go back to the system at each free, so every check faults their pages in
# afresh (130-200 minor faults per fractional Askey-Wilson check).  Freeing
# one mmap'd block raises both thresholds to fit it (mmap to its size, trim
# to twice that), so those blocks stay in the heap and are reused.  bytes()
# takes it from calloc, which leaves the fresh pages untouched; other
# allocators ignore it.
bytes(1 << 22)

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
