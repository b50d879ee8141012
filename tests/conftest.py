"""Shared fixtures and the hypothesis profile."""

import warnings

import numpy as np
import pytest
from hypothesis import settings

# deterministic examples, no example database on disk, no per-example deadline
settings.register_profile("qaw", derandomize=True, database=None, deadline=None)
settings.load_profile("qaw")

# hypothesis reports a failing example through hypothesis.extra._patching,
# which imports libcst where it is installed; libcst builds a
# mypy_extensions.TypedDict, whose DeprecationWarning is an error under
# pyproject.toml's filterwarnings and would end the whole run in an
# INTERNALERROR.  Importing it here, with that one warning ignored, leaves
# the module loaded for the report.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def zero_factor_scale():
    """c with 0.5 c e == 1.0 exactly in double precision (e = exp(1)).

    A reversal parameter b = -i c at q = 1/2 then makes the factor
    1 - i (q b) e^t of h_sinh_log exactly zero at the window probe t = 1.
    """
    e = float(np.exp(np.array([1.0, -1.0]))[0])
    c = 2.0 / e
    for _ in range(64):
        if 0.5 * c * e == 1.0:
            return c
        c = float(np.nextafter(c, 1.0 if 0.5 * c * e < 1.0 else 0.0))
    pytest.fail("no double c with 0.5 c e == 1 near 2/e")
