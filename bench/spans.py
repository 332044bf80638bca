"""Spans around the package's public functions, recorded from outside.

The tracer replaces a function at every module binding that holds it
(``solver.gh_exact`` is also bound in ``segments``, ``cli`` and the
package namespace, and ``geodesics`` imports it lazily from ``solver``),
so calls between layers and calls from the benchmark both pass through
one wrapper. Calls inside a module go through the module's global
binding, so ``FiniteMetricSpace`` reaching ``validate_metric`` is traced
too. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (layer, module that defines it, function name); "Class.method" wraps a method
TARGETS = [
    ("formats", "formats", "space_from_jsonable"),
    ("formats", "formats", "space_from_csv"),
    ("formats", "formats", "load_candidate"),
    ("formats", "formats", "load_space"),
    ("formats", "formats", "save_space"),
    ("formats", "formats", "space_to_jsonable"),
    ("spaces", "spaces", "FiniteMetricSpace.__post_init__"),
    ("spaces", "spaces", "validate_metric"),
    ("spaces", "spaces", "covering_number"),
    ("solver", "solver", "gh_exact"),
    ("solver", "solver", "gh_lower_bound"),
    ("correspondences", "correspondences", "distortion"),
    ("segments", "segments", "segment_membership"),
    ("segments", "segments", "noncompactness_report"),
    ("segments", "segments", "family_parameters"),
    ("segments", "segments", "build_segment_family"),
    ("segments", "segments", "simplex_graft"),
    ("segments", "segments", "star_extension"),
    ("segments", "segments", "lift_star"),
    ("segments", "segments", "lift_graft"),
    ("geodesics", "geodesics", "interpolate"),
    ("geodesics", "geodesics", "endpoint_lifts"),
    ("geodesics", "geodesics", "geodesic_samples"),
    ("cli", "cli", "main"),
    ("cli", "config", "RunConfig.from_file"),
    ("cli", "report", "Report.to_json"),
]

LAYERS = ["formats", "spaces", "solver", "correspondences", "segments", "geodesics", "cli"]
MODULES = [
    "cli", "config", "correspondences", "formats", "geodesics",
    "hausdorff", "report", "segments", "solver", "spaces",
]  # fmt: skip


def _note_solve(args, kwargs, out, exc):
    initial = kwargs.get("initial", args[4] if len(args) > 4 else None)
    if exc is not None:  # only ResourceLimitError carries nodes: a budget stop
        return {"nodes": getattr(exc, "nodes", 0), "stopped": hasattr(exc, "nodes"), "failed": True, "warm": initial is not None}
    method = getattr(out, "method", None)
    return {"nodes": out.nodes_explored, "method": method, "warm": initial is not None}


def _note_validate(args, kwargs, out, exc):
    n = len(args[0])
    return {"triples": n * (n - 1) * (n - 2) // 2}


def _note_points(args, kwargs, out, exc):
    return {"points": out.n if exc is None else 0}


def _note_text(args, kwargs, out, exc):
    return {"bytes": len(args[0].encode())}


def _note_json(args, kwargs, out, exc):
    return {"bytes": len(json.dumps(args[0]).encode())}


def _note_file(args, kwargs, out, exc):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except OSError:
        return {"bytes": 0}


NOTES = {
    "gh_exact": _note_solve,
    "validate_metric": _note_validate,
    "simplex_graft": _note_points,
    "star_extension": _note_points,
    "space_from_csv": _note_text,
    "space_from_jsonable": _note_json,
    "load_candidate": _note_file,
}


class Tracer:
    """Records (name, layer, start, end, parent, note) for each wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            exc = None
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                if note is not None:
                    span[5] = note(args, kwargs, None if exc else out, exc)
            return out

        return traced

    def install(self) -> None:
        mods = [sys.modules.get(f"ghsegments.{m}") for m in MODULES]
        mods = [sys.modules["ghsegments"]] + [m for m in mods if m is not None]
        for layer, home, qual in TARGETS:
            owner = sys.modules.get(f"ghsegments.{home}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if raw is None:
                    continue  # gone from the package: nothing to trace

                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, meth, layer))
                else:
                    wrapped = self._wrap(raw, meth, layer)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(owner, qual, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, qual, layer)
            for mod in mods:
                if getattr(mod, qual, None) is fn:
                    self._undo.append((mod, qual, fn))
                    setattr(mod, qual, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        rows = [
            {"name": n, "layer": l, "start": s, "end": e, "parent": p, "note": note}
            for n, l, s, e, p, note in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)

    # ----------------------------------------------------------- summaries

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for _, _, s, e, _, _ in self.spans]
        for _, _, s, e, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= e - s
        return own

    def ancestors(self, idx: int):
        parent = self.spans[idx][4]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][4]
