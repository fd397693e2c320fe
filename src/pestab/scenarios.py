"""Scenario files: JSON schema, presets and builders for the CLI."""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from .errors import DomainError
from .gains import (A_DI, A_ROTATION, B_DI, di_gain, multi_input_gain,
                    neutral_gain)
from .signals import PeClass, PwcSignal, make_duty
from .simcore import ClosedLoop

__all__ = ["SCENARIO_SCHEMA", "validate_scenario", "load_scenario",
           "build_system", "build_gain", "build_signal", "build_run",
           "scenario_hash", "PRESETS"]

PRESETS = {
    "double_integrator": (A_DI, B_DI),
    "rotation": (A_ROTATION, np.array([[0.0], [1.0]])),
}

_MATRIX = {"type": "array", "minItems": 1,
           "items": {"type": "array", "minItems": 1,
                     "items": {"type": "number"}}}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["system", "pe_class"],
    "additionalProperties": False,
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": sorted(PRESETS)},
                "A": _MATRIX,
                "B": _MATRIX,
            },
        },
        "pe_class": {
            "type": "object",
            "required": ["T", "mu"],
            "additionalProperties": False,
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "mu": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "gain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["di", "neutral", "multi", "explicit"]},
                "rho": {"type": "number"},
                "k": {"type": "number"},
                "lam": {"type": "number"},
                "r": {"type": "number"},
                "K": _MATRIX,
            },
        },
        "signal": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["duty", "pwc", "constant"]},
                "pattern": {"enum": ["front", "back", "split"]},
                "on_value": {"type": "number"},
                "phase": {"type": "number"},
                "splits": {"type": "integer", "minimum": 1},
                "value": {"type": "number"},
                "breakpoints": {"type": "array", "items": {"type": "number"}},
                "values": {"type": "array", "items": {"type": "number"}},
                "extension": {"type": "object"},
            },
        },
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "max_step": {"type": ["number", "null"]},
        "x0": {"type": "array", "minItems": 1,
               "items": {"type": "array", "items": {"type": "number"}}},
        "seed": {"type": "integer"},
        "battery": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "size": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "params": {"type": "object"},
    },
}


@functools.cache
def _validator():
    from jsonschema import Draft7Validator
    return Draft7Validator(SCENARIO_SCHEMA)


def validate_scenario(obj: dict) -> list:
    """Schema violations as '<json pointer>: <message>' strings."""
    errs = sorted(_validator().iter_errors(obj), key=lambda e: list(e.path))
    return ["/" + "/".join(map(str, e.absolute_path)) + f": {e.message}"
            for e in errs]


def load_scenario(path) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    problems = validate_scenario(obj)
    if problems:
        raise DomainError("scenario schema violation: " + "; ".join(problems))
    return obj


def scenario_hash(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_system(sc: dict):
    sys = sc["system"]
    if "preset" in sys:
        A, B = PRESETS[sys["preset"]]
        return A.copy(), B.copy()
    if "A" not in sys or "B" not in sys:
        raise DomainError("system needs either a preset or explicit A and B")
    return np.array(sys["A"], dtype=float), np.array(sys["B"], dtype=float)


def build_gain(sc: dict, A: np.ndarray, B: np.ndarray,
               cls: PeClass) -> np.ndarray:
    g = sc.get("gain")
    if g is None or g.get("kind") == "explicit":
        if g and "K" in g:
            return np.array(g["K"], dtype=float)
        raise DomainError("no gain specified")
    kind = g.get("kind")
    if kind == "di":
        return di_gain(cls, g["rho"], g["k"], g.get("lam", 1.0)).K
    if kind == "neutral":
        return neutral_gain(A, B, g.get("r", 1.0))
    if kind == "multi":
        return multi_input_gain(B, g["k"])
    raise DomainError(f"unknown gain kind {kind!r}")


def build_signal(sc: dict, cls: PeClass) -> PwcSignal:
    s = sc.get("signal")
    if s is None:
        return make_duty(cls)
    kind = s.get("kind", "duty")
    if kind == "duty":
        return make_duty(cls, phase=s.get("phase", 0.0),
                         on_value=s.get("on_value", 1.0),
                         pattern=s.get("pattern", "front"),
                         splits=s.get("splits", 2))
    if kind == "constant":
        return PwcSignal.constant(s["value"])
    if kind == "pwc":
        return PwcSignal.from_json(s)
    raise DomainError(f"unknown signal kind {kind!r}")


def build_run(sc: dict) -> tuple:
    """(loop, horizon, x0 list) of a scenario's simulation; the horizon
    defaults to ten class periods and x0 to the first unit vector."""
    cls = PeClass(**sc["pe_class"])
    A, B = build_system(sc)
    loop = ClosedLoop(A, B, build_gain(sc, A, B, cls), build_signal(sc, cls))
    horizon = sc.get("horizon", 10.0 * cls.T)
    x0_list = sc.get("x0") or [[1.0] + [0.0] * (loop.n - 1)]
    return loop, horizon, x0_list
