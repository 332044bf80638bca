"""Deterministic run reports.

A report echoes the command and the effective config (defaults, config
file and flags merged, so the config that ran), digests every input
file, and carries the exact results plus solver node counts. Identical
inputs and config produce byte-identical report text; anything
non-reproducible (wall time) goes to stderr instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Report", "digest_file"]


def digest_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Report:
    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    nodes: dict[str, int] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "config": self.config,
            "results": self.results,
            "nodes": self.nodes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"
