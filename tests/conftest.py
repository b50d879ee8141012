"""Shared fixtures."""

import numpy as np
import pytest


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
