"""The benchmark tracer (benchmarks/tracing.py) against the package: every
name it wraps exists, and a traced check counts its log products."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qaw import identities

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# the fractional-generating fixed point of the benchmark workloads
GENERATING_POINT = {"q": 0.5, "a": 0.2, "x": 0.6, "mu": 1.5, "b": 0.3, "s": 0.25,
                    "t": 0.15, "z": 0.2, "r": 0.4, "u": 0.1}


@pytest.fixture(scope="module")
def tracing():
    """benchmarks/tracing.py, loaded from its file without writing a cache."""
    spec = importlib.util.spec_from_file_location("qaw_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves(tracing):
    for module, name, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_generating_log_products_are_counted(tracing):
    # the generating integrand takes its products through the public log
    # product, which the tracer wraps by name
    check = identities.IDENTITY_REGISTRY["fractional-generating"][1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = identities.run_check("fractional-generating", GENERATING_POINT)
    finally:
        tracer.uninstall()
    assert report.passed
    assert tracer.layer_metrics(1)["qcore.q_pochhammer_infinite_log.calls"] > 0
    assert identities.IDENTITY_REGISTRY["fractional-generating"][1] is check
