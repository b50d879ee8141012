"""Suite specifications: deterministic expansion of parameter draws.

A suite spec is a JSON-compatible mapping::

    {"seed": 1234,
     "checks": [{"identity": "askey-wilson",
                 "params": {"q": [0.3, 0.7], "a": 0.3, ...},
                 "draws": 3,
                 "tolerance": 1e-8}, ...]}

A parameter given as a two-element list is drawn uniformly from that range;
a scalar is fixed.  Expansion consumes a single seeded RNG in entry order,
so the same spec and seed always produce the same concrete checks.
"""

from __future__ import annotations

import dataclasses
import random

from .identities import IDENTITY_REGISTRY


def expand_suite(spec: dict):
    """Expand a suite spec into concrete check entries for ``run_suite``."""
    if "seed" not in spec:
        raise ValueError("suite spec must carry a seed")
    rng = random.Random(spec["seed"])
    entries = []
    for check in spec.get("checks", []):
        name = check["identity"]
        if name not in IDENTITY_REGISTRY:
            raise KeyError(
                f"unknown identity {name!r}; known: "
                f"{', '.join(sorted(IDENTITY_REGISTRY))}"
            )
        fields = {f.name for f in dataclasses.fields(IDENTITY_REGISTRY[name][0])}
        unknown = sorted(set(check.get("params", {})) - fields)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {', '.join(unknown)} for {name}; "
                f"known: {', '.join(sorted(fields))}"
            )
        draws = int(check.get("draws", 1))
        if draws < 1:
            raise ValueError(f"draws must be >= 1, got {draws}")
        for _ in range(draws):
            params = {}
            for key, value in check.get("params", {}).items():
                if isinstance(value, (list, tuple)):
                    lo, hi = value
                    params[key] = rng.uniform(lo, hi)
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
