"""Run configuration: the node budget, parameter overrides, output locations.

A config file is a JSON object whose keys (KEYS) match RunConfig's
fields, with SolverLimits' node_budget (null for none) in place of
`limits`. RunConfig.set checks one key's value and stores it; file
values and command-line flags both go through it, flags last, so a flag
overrides the file, which overrides the defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exceptions import MalformedInputError
from .formats import _read_json
from .geodesics import DEFAULT_GRID
from .segments import DEFAULT_M_MAX, DEFAULT_MS
from .solver import SolverLimits
from .spaces import as_fraction

__all__ = ["KEYS", "RunConfig"]

_LIMIT_KEYS = tuple(f.name for f in dataclasses.fields(SolverLimits))


@dataclass
class RunConfig:
    limits: SolverLimits = SolverLimits()
    sample_grid: tuple = DEFAULT_GRID
    delta: Fraction | None = None
    mu: Fraction | None = None
    ms: tuple = DEFAULT_MS
    m_max: int = DEFAULT_M_MAX
    out: str | None = None
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        obj = _read_json(Path(path), "config ")
        if not isinstance(obj, dict):
            raise MalformedInputError("config must be a JSON object")
        unknown = set(obj) - set(KEYS)
        if unknown:
            raise MalformedInputError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        cfg = cls()
        for key, value in obj.items():
            cfg.set(key, value)
        return cfg

    def set(self, key: str, value) -> None:
        """Check one key's value, given in config-file form, and store it."""
        value = _checked(key, value)
        if key in _LIMIT_KEYS:
            self.limits = dataclasses.replace(self.limits, **{key: value})
        else:
            setattr(self, key, value)

    def to_jsonable(self) -> dict:
        out = {}
        for key in KEYS:
            v = getattr(self.limits if key in _LIMIT_KEYS else self, key)
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = [str(x) if isinstance(x, Fraction) else x for x in v]
            out[key] = v
        return out


# the keys of a config file: SolverLimits' fields in place of `limits`
KEYS = _LIMIT_KEYS + tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.name != "limits"
)


def _checked(key: str, value):
    """A config value, type- and range-checked, in RunConfig's form."""
    if key == "m_max":
        return _int_at_least(key, value, 1)
    if key == "node_budget":
        return None if value is None else _int_at_least(key, value, 0)
    if key == "ms":
        return tuple(_int_at_least(key, v, 1) for v in _list(key, value))
    if key == "sample_grid":
        grid = tuple(as_fraction(v) for v in _list(key, value))
        if not all(0 <= t <= 1 for t in grid):
            raise MalformedInputError(f"{key} must be in [0, 1], got {value!r}")
        return grid
    if key in ("delta", "mu"):
        if value is None:
            return None
        radius = as_fraction(value)
        if radius <= 0:
            raise MalformedInputError(f"{key} must be > 0, got {value!r}")
        return radius
    if value is not None and not isinstance(value, str):  # out, out_dir
        raise MalformedInputError(f"{key} must be a path or null, got {value!r}")
    return value


def _int_at_least(key: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise MalformedInputError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"{key} must be a list, got {value!r}")
    if not value:
        raise MalformedInputError(f"{key} must be a non-empty list")
    return value
