"""The benchmark tracer (benchmarks/tracing.py) against the package: every
name it wraps exists, and a traced check counts its log products and its
k-sums."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qaw import identities, qops
from test_identities import FIXED_POINTS

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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
        report = identities.run_check("fractional-generating",
                                     FIXED_POINTS["fractional-generating"])
    finally:
        tracer.uninstall()
    assert report.passed
    assert tracer.layer_metrics(1)["qcore.q_pochhammer_infinite_log.calls"] > 0
    assert identities.IDENTITY_REGISTRY["fractional-generating"][1] is check


@pytest.mark.parametrize("name", ["fractional-askey-wilson", "fractional-generating"])
def test_ksums_are_counted_through_the_identities_name(tracing, monkeypatch, name):
    # the benchmark's identities.ksum.* metrics count the kernel through its
    # name in qaw.identities, which benchmarks/tracing.py lists and which is
    # the same object as qaw.qops.ksum; the qops binding is made unusable
    # here, so a check whose k-sums bypass the identities name fails
    assert identities.ksum is qops.ksum

    def bypass(*args, **kwargs):
        raise AssertionError("a check called qaw.qops.ksum, past qaw.identities.ksum")

    monkeypatch.setattr(qops, "ksum", bypass)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = identities.run_check(name, FIXED_POINTS[name])
    finally:
        tracer.uninstall()
    assert report.passed
    metrics = tracer.layer_metrics(1)
    assert metrics["identities.ksum.calls"] > 0
    assert metrics["identities.ksum.k_terms"] > 0
