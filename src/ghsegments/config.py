"""Run configuration: solver caps, parameter overrides, output locations.

A config file is a JSON object whose keys match RunConfig's fields,
with the fields of SolverLimits (bnb_max_side, node_budget) in place of
`limits`; command-line flags override file values, which override the
defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .exceptions import MalformedInputError
from .geodesics import DEFAULT_GRID
from .solver import SolverLimits
from .spaces import as_fraction

__all__ = ["RunConfig"]

_LIMIT_KEYS = frozenset(f.name for f in dataclasses.fields(SolverLimits))


@dataclass
class RunConfig:
    limits: SolverLimits = SolverLimits()
    sample_grid: tuple = DEFAULT_GRID
    delta: Fraction | None = None
    mu: Fraction | None = None
    ms: tuple = (2, 3, 4)
    m_max: int = 5
    strict: bool = False
    out: str | None = None
    out_dir: str | None = None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        p = Path(path)
        try:
            obj = json.loads(p.read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedInputError(f"cannot read config {p}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an int too long for int()
            raise MalformedInputError(f"config {p} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedInputError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)} - {"limits"} | _LIMIT_KEYS
        unknown = set(obj) - known
        if unknown:
            raise MalformedInputError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )
        cfg = cls()
        for key, value in obj.items():
            value = _checked(key, value)
            if key in _LIMIT_KEYS:
                cfg.limits = dataclasses.replace(cfg.limits, **{key: value})
            else:
                setattr(cfg, key, value)
        return cfg

    def to_jsonable(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, SolverLimits):
                out.update(dataclasses.asdict(v))
                continue
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = [str(x) if isinstance(x, Fraction) else x for x in v]
            out[f.name] = v
        return out


def _checked(key: str, value):
    """A config file value, type- and range-checked, in RunConfig's form."""
    if key == "bnb_max_side" or key == "m_max":
        return _int_at_least(key, value, 1)
    if key == "node_budget":
        return None if value is None else _int_at_least(key, value, 0)
    if key == "ms":
        return tuple(_int_at_least(key, v, 1) for v in _list(key, value))
    if key == "sample_grid":
        grid = tuple(as_fraction(v) for v in _list(key, value))
        if not all(0 <= t <= 1 for t in grid):
            raise MalformedInputError(f"config {key} must be in [0, 1], got {value!r}")
        return grid
    if key in ("delta", "mu"):
        return None if value is None else as_fraction(value)
    if key == "strict":
        if not isinstance(value, bool):
            raise MalformedInputError(
                f"config {key} must be true or false, got {value!r}"
            )
        return value
    if value is not None and not isinstance(value, str):  # out, out_dir
        raise MalformedInputError(f"config {key} must be a path or null, got {value!r}")
    return value


def _int_at_least(key: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise MalformedInputError(
            f"config {key} must be an integer >= {least}, got {value!r}"
        )
    return value


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"config {key} must be a list, got {value!r}")
    return value
