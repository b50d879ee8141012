"""Suite specifications: deterministic expansion of parameter draws.

A suite spec is a JSON-compatible mapping::

    {"seed": 1234,
     "checks": [{"identity": "askey-wilson",
                 "params": {"q": [0.3, 0.7], "a": 0.3, ...},
                 "draws": 3,
                 "tolerance": 1e-8}, ...]}

A parameter given as a two-element list is drawn uniformly from that range;
a scalar is fixed.  A ``complex`` field may also be fixed at ``{"re": x,
"im": y}``, as a report writes it, so a report's ``params`` re-run as a
spec entry; a ``float`` field takes reals only.  A spec takes no keys but
these.  The seed is an integer (not a bool): a null one would seed the RNG
from the OS, and the report's seed could not reproduce the run.  Expansion consumes a single
seeded RNG in entry order, so the same spec and seed always produce the
same concrete checks.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from .context import MISSING
from .identities import identity_entry, valid_tolerance

_SPEC_KEYS = ("seed", "checks")
_CHECK_KEYS = ("identity", "params", "draws", "tolerance")


def param_fields(name: str):
    """The fields of identity ``name``'s params class, in order: each with
    its ``name``, declared ``type`` and ``default`` (:class:`qaw.context.Field`)."""
    return identity_entry(name)[0].fields


def _real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reject_unknown(given, known, noun, where):
    """Raise ValueError naming each key of ``given`` that is not in ``known``."""
    unknown = sorted(map(str, set(given) - set(known)))
    if unknown:
        raise ValueError(
            f"unknown {noun} {', '.join(unknown)} {where}; known: {', '.join(sorted(known))}"
        )


def _check_params(name, given):
    """Raise ValueError unless ``given`` fits the params class of ``name``.

    ``given`` must be a mapping, every field without a default must be
    given, and every value must be a real number or a [lo, hi] pair of
    reals, or, in a ``complex`` field, {"re": x, "im": y} of reals.
    """
    fields = param_fields(name)
    if not isinstance(given, Mapping):
        raise ValueError(f"params of {name} must be a mapping, got {type(given).__name__}")
    _reject_unknown(given, {f.name for f in fields}, "parameter(s)", f"for {name}")
    missing = [f.name for f in fields if f.default is MISSING and f.name not in given]
    if missing:
        raise ValueError(f"missing parameter(s) {', '.join(missing)} for {name}")
    complex_fields = {f.name for f in fields if f.type == "complex"}
    for key, value in given.items():
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        # a complex number as a report writes it
        re_im = isinstance(value, Mapping) and set(value) == {"re", "im"}
        if not (_real(value) or pair and all(map(_real, value))
                or re_im and key in complex_fields and all(map(_real, value.values()))):
            raise ValueError(
                f"parameter {key} of {name} must be a real number or a [lo, hi] pair of "
                f'reals (or, in a complex field, {{"re": x, "im": y}} of reals), got {value!r}'
            )


def expand_suite(spec: dict):
    """Expand a suite spec into concrete check entries for ``run_suite``.

    Raises ValueError for a spec that is not a mapping, has a key other
    than ``seed`` and ``checks``, has a seed that is not an integer (a
    missing or null one included), or whose ``checks`` are not a list of
    mappings; for a check with a key other than ``identity``, ``params``,
    ``draws`` and ``tolerance``, or no identity name; for a draw count that
    is not an integer >= 1, a tolerance that is not a finite real > 0, or
    params that do not fit their identity (unknown or missing names, values
    that are neither real numbers nor [lo, hi] pairs of reals nor, in a
    ``complex`` field, {"re": x, "im": y} of reals, which expands to the
    complex x + y i).  KeyError for an unknown identity.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"suite spec must be a mapping, got {type(spec).__name__}")
    _reject_unknown(spec, _SPEC_KEYS, "key(s)", "in the suite spec")
    seed = spec.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed of a suite spec must be an integer, got {seed!r}")
    checks = spec.get("checks", [])
    if not (isinstance(checks, (list, tuple)) and all(isinstance(c, Mapping) for c in checks)):
        raise ValueError("checks of a suite spec must be a list of mappings")
    rng = random.Random(seed)
    entries = []
    for i, check in enumerate(checks):
        _reject_unknown(check, _CHECK_KEYS, "key(s)", f"in checks[{i}]")
        name = check.get("identity")
        if not isinstance(name, str):
            raise ValueError(f"checks[{i}] needs an identity name, got {name!r}")
        _check_params(name, check.get("params", {}))
        draws = check.get("draws", 1)
        if not (isinstance(draws, int) and not isinstance(draws, bool) and draws >= 1):
            raise ValueError(f"draws of {name} must be an integer >= 1, got {draws!r}")
        if "tolerance" in check:
            tol = check["tolerance"]
            if not valid_tolerance(tol):
                raise ValueError(f"tolerance of {name} must be a finite real > 0, got {tol!r}")
        for _ in range(draws):
            params = {}
            for key, value in check.get("params", {}).items():
                if isinstance(value, (list, tuple)):
                    params[key] = rng.uniform(*value)
                elif isinstance(value, Mapping):
                    params[key] = complex(value["re"], value["im"])
                else:
                    params[key] = value
            entry = {"identity": name, "params": params}
            if "tolerance" in check:
                entry["tolerance"] = check["tolerance"]
            entries.append(entry)
    return entries


def default_suite() -> dict:
    """The shipped default suite: every identity family, modest draw counts."""
    return {
        "seed": 20240817,
        "checks": [
            {
                "identity": "lemma-three-term",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [0.1, 0.3],
                    "x": 0.6,
                    "mu": 1.0,
                    "b": [-0.5, 0.5],
                    "r": [-0.5, 0.5],
                    "s": [-0.5, 0.5],
                    "t": [-0.5, 0.5],
                    "u": [-0.5, 0.5],
                    "z": [-0.5, 0.5],
                },
                "draws": 5,
                "tolerance": 1e-10,
            },
            {
                "identity": "fractional-generating",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [0.15, 0.25],
                    "x": [0.5, 0.7],
                    "mu": [0.5, 2.5],
                    "b": [-0.3, 0.3],
                    "r": [-0.3, 0.3],
                    "s": [-0.3, 0.3],
                    "t": [-0.3, 0.3],
                    "u": [-0.3, 0.3],
                    "z": [-0.3, 0.3],
                },
                "draws": 2,
                "tolerance": 1e-8,
            },
            {
                "identity": "fractional-generating-3phi2",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [0.15, 0.25],
                    "x": [0.5, 0.7],
                    "mu": [0.5, 2.5],
                    "b": [-0.3, 0.3],
                    "s": [-0.3, 0.3],
                    "t": [-0.3, 0.3],
                    "z": [-0.3, 0.3],
                },
                "draws": 2,
                "tolerance": 1e-8,
            },
            {
                "identity": "askey-wilson",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [-0.6, 0.6],
                    "b": [-0.6, 0.6],
                    "c": [-0.6, 0.6],
                    "d": [-0.6, 0.6],
                },
                "draws": 3,
                "tolerance": 1e-8,
            },
            {
                "identity": "fractional-askey-wilson",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [0.15, 0.25],
                    "b": [-0.3, 0.3],
                    "c": [-0.3, 0.3],
                    "d": [-0.3, 0.3],
                    "x": 0.6,
                    "mu": [1.0, 2.0],
                },
                "draws": 2,
                "tolerance": 1e-6,
            },
            {
                "identity": "fractional-askey-wilson-3phi2",
                "params": {
                    "q": [0.3, 0.7],
                    "a": [0.15, 0.25],
                    "b": [-0.3, 0.3],
                    "c": [-0.3, 0.3],
                    "x": 0.6,
                    "mu": 1.5,
                },
                "draws": 1,
                "tolerance": 1e-6,
            },
            {
                "identity": "reversal-askey-wilson",
                "params": {
                    "q": [0.4, 0.6],
                    "a": [-0.2, 0.2],
                    "b": [-0.2, 0.2],
                    "c": [-0.2, 0.2],
                    "d": [-0.2, 0.2],
                },
                "draws": 1,
                "tolerance": 1e-6,
            },
            {
                "identity": "fractional-reversal-askey-wilson",
                "params": {
                    "q": [0.4, 0.6],
                    "a": [0.15, 0.25],
                    "b": [-0.1, 0.1],
                    "c": [-0.1, 0.1],
                    "d": [-0.1, 0.1],
                    "x": 0.6,
                    "mu": 1.5,
                },
                "draws": 1,
                "tolerance": 1e-5,
            },
            {
                "identity": "atakishiyev",
                "params": {
                    "alpha_g": 1.0,
                    "a": [-0.1, 0.1],
                    "b": [-0.1, 0.1],
                    "c": [-0.1, 0.1],
                    "d": [-0.1, 0.1],
                },
                "draws": 1,
                "tolerance": 1e-6,
            },
            {
                "identity": "fractional-atakishiyev",
                "params": {
                    "alpha_g": 1.0,
                    "a": [0.1, 0.2],
                    "b": [0.01, 0.04],
                    "c": [0.01, 0.04],
                    "d": [0.01, 0.04],
                    "x": 0.6,
                    "mu": 1.5,
                },
                "draws": 1,
                "tolerance": 1e-5,
            },
        ],
    }
