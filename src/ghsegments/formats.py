"""On-disk formats: spaces as JSON or CSV, read and written, and
correspondences written as JSON lists of [x_label, y_label] pairs.

Rationals travel as "p/q" strings (or bare integers on input). Any
string that fractions.Fraction reads exactly is accepted, decimals such
as "0.5" and "1e3" included, and "2/4" is the same entry as "1/2"; JSON
floats are refused because they cannot round-trip exactly. Entries are
read straight into an integer view (spaces.IntegerView.parse), with no
Fraction per entry. Both space formats carry labels plus the full square
matrix and are validated on ingestion, so an asymmetric file is rejected
with the violating witness pair.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .correspondences import Correspondence, _check_shape
from .exceptions import DomainError, MalformedInputError
from .spaces import FiniteMetricSpace, IntegerView, _checked_labels

__all__ = [
    "frac_str",
    "space_to_jsonable",
    "space_from_jsonable",
    "space_to_csv",
    "space_from_csv",
    "load_candidate",
    "load_space",
    "save_space",
    "correspondence_to_jsonable",
]


def frac_str(q: Fraction) -> str:
    """q as "p/q" text; DomainError when p or q has more digits than int()
    converts to a string, even if every input was within that limit."""
    try:
        return str(Fraction(q))
    except ValueError as exc:
        raise DomainError(
            "a result has a numerator or denominator past the limit of "
            f"{sys.get_int_max_str_digits()} digits (sys.get_int_max_str_digits())"
        ) from exc


def _entry_strings(space: FiniteMetricSpace) -> list[list[str]]:
    """The matrix as reduced rational strings, one str per distinct value."""
    rows, den = space.view.rows, space.view.den
    text = {v: frac_str(Fraction(v, den)) for v in set(chain.from_iterable(rows))}
    return [[text[v] for v in row] for row in rows]


def space_to_jsonable(space: FiniteMetricSpace) -> dict:
    return {"labels": list(space.labels), "dist": _entry_strings(space)}


def _candidate_from_jsonable(obj):
    if not isinstance(obj, dict) or "dist" not in obj:
        raise MalformedInputError('expected an object with a "dist" matrix')
    dist = obj["dist"]
    if not isinstance(dist, list) or not all(isinstance(r, list) for r in dist):
        raise MalformedInputError('"dist" must be a list of rows')
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(l, str) for l in labels)
    ):
        raise MalformedInputError('"labels" must be a list of strings')
    if labels is not None and len(labels) != len(dist):
        raise MalformedInputError(
            f'"labels" has {len(labels)} entries for {len(dist)} matrix rows'
        )
    view = IntegerView.parse(dist)
    return _checked_labels(labels, len(view)), view


def space_from_jsonable(obj) -> FiniteMetricSpace:
    labels, view = _candidate_from_jsonable(obj)
    return FiniteMetricSpace(labels, view)


def space_to_csv(space: FiniteMetricSpace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.labels)
    writer.writerows(_entry_strings(space))
    return buf.getvalue()


def _candidate_from_csv(text: str):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise MalformedInputError("empty CSV")
    labels = [c.strip() for c in rows[0]]
    if len(rows) != len(labels) + 1:
        raise MalformedInputError(
            f"CSV needs a header row plus {len(labels)} matrix rows, got "
            f"{len(rows) - 1} rows"
        )
    view = IntegerView.parse([c.strip() for c in row] for row in rows[1:])
    return _checked_labels(labels, len(view)), view


def space_from_csv(text: str) -> FiniteMetricSpace:
    labels, view = _candidate_from_csv(text)
    return FiniteMetricSpace(labels, view)


def load_candidate(path):
    """Parse a space file without checking the metric axioms.

    Returns (labels, IntegerView): the labels are checked as the space
    constructor checks them (unique; p0, p1, ... when the file has none),
    and the entries are read and the matrix is checked to be square and
    nonnegative, but not validated.
    The validate command uses this so axiom violations become a report,
    not a crash.
    """
    p = Path(path)
    if _known_suffix(p) == ".csv":
        return _candidate_from_csv(_read_text(p))
    return _candidate_from_jsonable(_read_json(p))


def _read_text(p: Path, what: str = "") -> str:
    try:
        return p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {what}{p}: {exc}") from exc


def _read_json(p: Path, what: str = ""):
    """The JSON document in file p, for space and config files alike;
    what ("config " or "") names the kind of file in messages."""
    text = _read_text(p, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a too long int, deep nesting
        raise MalformedInputError(f"{what}{p} is not valid JSON: {exc}") from exc


def _known_suffix(p: Path) -> str:
    suffix = p.suffix.lower()
    if suffix not in (".json", ".csv"):
        raise MalformedInputError(
            f"unsupported space file suffix {p.suffix!r} (use .json or .csv)"
        )
    return suffix


def load_space(path) -> FiniteMetricSpace:
    labels, view = load_candidate(path)
    return FiniteMetricSpace(labels, view)


def save_space(space: FiniteMetricSpace, path) -> None:
    p = Path(path)
    if _known_suffix(p) == ".csv":
        p.write_text(space_to_csv(space))
    else:
        p.write_text(json.dumps(space_to_jsonable(space), indent=2) + "\n")


def correspondence_to_jsonable(
    R: Correspondence, X: FiniteMetricSpace, Y: FiniteMetricSpace
) -> list[list[str]]:
    _check_shape(R, X, Y)
    return [[X.labels[a], Y.labels[b]] for a, b in R.sorted_pairs()]
