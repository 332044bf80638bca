from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ghsegments import (
    FiniteMetricSpace,
    MalformedInputError,
    MetricValidationError,
    ToolkitError,
    load_space,
    random_metric_space,
    save_space,
    simplex,
    space_from_csv,
    space_from_jsonable,
    space_to_csv,
    space_to_jsonable,
    validate_metric,
)
from ghsegments.cli import main
from tests.conftest import count_calls, random_space, run_python


@pytest.fixture()
def spaces(tmp_path: Path) -> dict[str, Path]:
    """A small on-disk fixture set: endpoints and a geodesic midpoint."""
    from ghsegments import gh_exact, interpolate

    X = simplex(3, Fraction(1))
    Y = simplex(3, Fraction(2))
    Z = interpolate(X, Y, gh_exact(X, Y).optimal, Fraction(1, 2)).realized
    paths = {}
    for name, sp in (("x", X), ("y", Y), ("z", Z)):
        p = tmp_path / f"{name}.json"
        save_space(sp, p)
        paths[name] = p
    return paths


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormats:
    def test_json_round_trip_exact(self, tmp_path: Path) -> None:
        X = random_metric_space(4, seed=83)
        p = tmp_path / "s.json"
        save_space(X, p)
        assert load_space(p) == X

    def test_csv_round_trip_exact(self, tmp_path: Path) -> None:
        X = random_metric_space(5, seed=84)
        p = tmp_path / "s.csv"
        save_space(X, p)
        assert load_space(p) == X

    def test_csv_keeps_one_third_exact(self) -> None:
        text = "a,b\n0,1/3\n1/3,0\n"
        X = space_from_csv(text)
        assert X.d(0, 1) == Fraction(1, 3)
        assert space_from_csv(space_to_csv(X)) == X

    def test_jsonable_round_trip(self) -> None:
        X = random_metric_space(3, seed=85)
        assert space_from_jsonable(space_to_jsonable(X)) == X

    def test_asymmetric_matrix_rejected_with_witness(self) -> None:
        obj = {"labels": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
        with pytest.raises(MetricValidationError) as exc:
            space_from_jsonable(obj)
        violation = exc.value.report.violations[0]
        assert violation.axiom == "symmetry" and violation.witness == (0, 1)

    def test_float_entries_rejected(self) -> None:
        with pytest.raises(MalformedInputError):
            space_from_jsonable({"labels": ["a", "b"], "dist": [[0.0, 1.5], [1.5, 0.0]]})

    def test_unknown_suffix_rejected(self, tmp_path: Path) -> None:
        X = simplex(2, Fraction(1))
        with pytest.raises(MalformedInputError):
            save_space(X, tmp_path / "s.xml")

    def test_missing_file_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(MalformedInputError):
            load_space(tmp_path / "absent.json")


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _spelling(rng: random.Random, v: Fraction, kind: str):
    """One exact way to write v in a space file."""
    p, q = v.numerator, v.denominator
    if kind == "json" and q == 1 and rng.random() < 0.2:
        return p  # a JSON int
    style = rng.randrange(9)
    if style == 1:
        k = rng.randint(2, 5)
        return f"{p * k}/{q * k}"  # "2/4", "0/5"
    if style == 2:
        return f"{p:03d}" if q == 1 else f"{p}/{q:02d}"  # "007", "4/08"
    if style == 3:
        return f" {v} "
    if style == 4:
        return f"+{v}"
    if style == 5 and 10**6 % q == 0:
        return f"{p * 10**6 // q}e-6"  # "1e3"-style exponent
    if style == 6 and 10**6 % q == 0:
        return f"{p // q}.{(p % q) * 10**6 // q:06d}"  # "0.5"-style decimal
    if style == 7:
        return str(v).translate(FULLWIDTH)  # "１"
    return str(v)


JSON_BAD = ["1/0", "3/-4", "", "x", "1_0", "²", "1/2/3", "-1/2", 0.5, 2.0, True, None, [1], -3]
CSV_BAD = ["1/0", "3/-4", "x", "1_0", "²", "1/2/3", "-1/2", " - 1", "1 /2"]


def _document(rng: random.Random, kind: str):
    """Labels (or None) and raw rows: a valid space in random spellings,
    sometimes with malformed entries, ragged rows, bad labels or a
    broken triangle planted in it."""
    n = rng.randint(1, 7)
    big = rng.choice([1, 1, 1, 10**30])  # big ints
    X = random_space(rng, n)
    matrix = [[v * big for v in row] for row in X.dist]
    labels = [f"q{i}" for i in range(n)]
    broken = n >= 3 and rng.random() < 0.6
    if broken:
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            what = rng.randrange(5)
            if what == 0 and i != j:  # a broken triangle, kept symmetric
                matrix[i][j] = matrix[j][i] = 3 * max(map(max, matrix)) + 1
            elif what == 1:
                labels[i] = labels[j]  # duplicate (or unchanged) label
    rows = [[_spelling(rng, v, kind) for v in row] for row in matrix]
    if broken:
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(n)
            what = rng.randrange(4)
            if what == 0:
                bad = JSON_BAD if kind == "json" else CSV_BAD
                rows[i][rng.randrange(len(rows[i]))] = rng.choice(bad)
            elif what == 1:
                rows[i].pop() if rng.random() < 0.5 else rows[i].append(rows[i][0])
            elif what == 2:
                labels.pop()  # miscounted labels
    if kind == "json" and rng.random() < 0.2:
        labels = None
    return labels, rows


def _reference_entry(v) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise MalformedInputError(f"cannot parse rational from {v!r}") from None
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise MalformedInputError(f"not a rational distance: {v!r}")


def _reference(kind: str, labels, rows):
    """What the Fraction route reads from a document: every entry through
    Fraction, then the Fraction constructor. A space, or what it raises."""
    if kind == "json" and labels is not None and len(labels) != len(rows):
        return MalformedInputError(
            f'"labels" has {len(labels)} entries for {len(rows)} matrix rows'
        )
    if kind == "csv" and len(labels) != len(rows):
        return MalformedInputError(
            f"CSV needs a header row plus {len(labels)} matrix rows, got {len(rows)} rows"
        )
    if kind == "csv":  # cells are stripped before they are read
        rows = [[v.strip() for v in row] for row in rows]
    try:
        matrix = [[_reference_entry(v) for v in row] for row in rows]
        return FiniteMetricSpace.from_matrix(matrix, labels)
    except ToolkitError as exc:
        return exc


def _lcm_view(dist):
    den = math.lcm(*(v.denominator for row in dist for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in dist), den


def _parse(kind: str, labels, rows):
    try:
        if kind == "json":
            doc = {"dist": rows} if labels is None else {"labels": labels, "dist": rows}
            return space_from_jsonable(json.loads(json.dumps(doc)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([labels] + rows)
        return space_from_csv(buf.getvalue())
    except ToolkitError as exc:
        return exc


def assert_same_outcome(got, want) -> None:
    if isinstance(want, FiniteMetricSpace):
        assert isinstance(got, FiniteMetricSpace), got
        assert got == want and hash(got) == hash(want)
        assert got.labels == want.labels and got.dist == want.dist
        assert (got.view.rows, got.view.den) == _lcm_view(want.dist)
    else:
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, MetricValidationError):
            assert got.report == want.report


class TestParseDifferential:
    """Parsers read entries straight into integers; a reference that reads
    every entry with Fraction must agree on each space and each refusal."""

    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_seeded_documents(self, kind: str) -> None:
        rng = random.Random(f"parse-differential-{kind}")
        accepted = refused = 0
        for _ in range(700):
            labels, rows = _document(rng, kind)
            want = _reference(kind, labels, rows)
            assert_same_outcome(_parse(kind, labels, rows), want)
            if isinstance(want, FiniteMetricSpace):
                accepted += 1
            else:
                refused += 1
        assert accepted >= 250 and refused >= 150

    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_each_spelling(self, kind: str) -> None:
        good = ["2/4", "4/08", "007", " 3/4 ", "0.5", "1e3", "+2", "１", str(10**40)]
        if kind == "json":
            good += [7, 10**40]
        for token in good:
            rows = [["0/5", token], [token, "-0"]]
            want = _reference(kind, ["a", "b"], rows)
            assert isinstance(want, FiniteMetricSpace), token
            assert_same_outcome(_parse(kind, ["a", "b"], rows), want)
        for token in JSON_BAD if kind == "json" else CSV_BAD:
            rows = [["0", token, "1"], [token, "0", "1"], ["1", "1", "0"]]
            want = _reference(kind, ["a", "b", "c"], rows)
            assert_same_outcome(_parse(kind, ["a", "b", "c"], rows), want)

    def test_half_is_one_view(self) -> None:
        a = space_from_csv("a,b\n0,2/4\n1/2,0\n")
        b = space_from_jsonable({"dist": [["0/5", "1/2"], ["4/08", 0]], "labels": ["a", "b"]})
        assert a == b and a.view == b.view
        assert a.view.rows == ((0, 1), (1, 0)) and a.view.den == 2

    def test_entries_are_read_before_shape_and_sign(self) -> None:
        def read(kind, rows):
            if kind in ("json", "csv"):
                return _parse(kind, ["a", "b", "c"], rows)
            try:
                if kind == "validate_metric":
                    return validate_metric(rows)
                return FiniteMetricSpace.from_matrix(rows, ["a", "b", "c"])
            except ToolkitError as exc:
                return exc

        cases = [
            ([["-1", "0"], ["0", "0", "x"], ["x", "1", "0"]], "cannot parse rational from 'x'"),
            ([["0", "-2/4", "1"], ["0", "1"], ["1", "1", "0"]], "negative entry -1/2"),
            (
                [["0", "1", "1"], ["1", "0"], ["-1", "1", "0"]],
                "matrix is not square: 3 rows but a row of length 2",
            ),
        ]
        for rows, message in cases:
            for kind in ("json", "csv", "validate_metric", "from_matrix"):
                got = read(kind, rows)
                assert isinstance(got, MalformedInputError) and str(got) == message, kind

    @pytest.mark.parametrize("kind", ["json", "csv"])
    def test_planted_triangle_is_validated(self, kind: str) -> None:
        X = random_metric_space(6, seed=86)
        matrix = [list(row) for row in X.dist]
        matrix[1][4] = matrix[4][1] = matrix[1][2] + matrix[2][4] + 1
        with pytest.raises(MetricValidationError) as want:
            FiniteMetricSpace.from_matrix(matrix, X.labels)
        got = _parse(kind, list(X.labels), [[str(v) for v in row] for row in matrix])
        assert isinstance(got, MetricValidationError)
        assert got.report == want.value.report and not got.report.ok


class TestCliBasics:
    def test_gh_of_space_with_itself(self, capsys, spaces) -> None:
        code, out, _ = run(capsys, "gh", str(spaces["x"]), str(spaces["x"]))
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["distance"] == "0"

    def test_gh_reports_distance_and_witness(self, capsys, spaces) -> None:
        code, out, err = run(capsys, "gh", str(spaces["x"]), str(spaces["y"]))
        assert code == 0
        res = json.loads(out)["results"]
        assert res["distance"] == "1/2"
        assert len(res["correspondence"]) >= 3
        assert "s]" in err  # wall time goes to stderr only

    def test_gh_emit_correspondence(self, capsys, spaces, tmp_path: Path) -> None:
        sigma_path = tmp_path / "sigma.json"
        code, out, _ = run(
            capsys,
            "gh",
            str(spaces["x"]),
            str(spaces["y"]),
            "--emit-correspondence",
            str(sigma_path),
        )
        assert code == 0
        stored = json.loads(sigma_path.read_text())
        assert stored == json.loads(out)["results"]["correspondence"]

    def test_validate_good_space(self, capsys, spaces) -> None:
        code, out, _ = run(capsys, "validate", str(spaces["x"]))
        assert code == 0
        assert json.loads(out)["results"]["ok"] is True

    def test_validate_reports_violations(self, capsys, tmp_path: Path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text('{"labels": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}')
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 4
        res = json.loads(out)["results"]
        assert res["ok"] is False
        assert res["violations"][0]["axiom"] == "symmetry"
        assert res["violations"][0]["witness"] == ["a", "b"]

    def test_validate_label_count_mismatch_is_exit_3(self, capsys, tmp_path: Path) -> None:
        # the matrix also breaks the triangle inequality: a report would
        # name points by labels that do not exist
        bad = tmp_path / "bad.json"
        bad.write_text('{"labels": ["a"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}')
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 3
        assert out == "" and "error:" in err
        with pytest.raises(MalformedInputError):
            load_space(bad)
        # repeated labels, which every command refuses, validate included
        dup_json = tmp_path / "dup.json"
        dup_json.write_text('{"labels": ["a", "a"], "dist": [["0", "1"], ["1", "0"]]}')
        dup_csv = tmp_path / "dup.csv"
        dup_csv.write_text("a,a\n0,1\n1,0\n")
        for path in (dup_json, dup_csv):
            for argv in (["validate", str(path)], ["gh", str(path), str(path)]):
                code, out, err = run(capsys, *argv)
                assert code == 3 and out == "", argv
                assert "labels must be unique" in err, argv

    def test_hausdorff_subcommand(self, capsys, spaces) -> None:
        code, out, _ = run(
            capsys, "hausdorff", str(spaces["x"]), "--a", "p0,p1", "--b", "p2"
        )
        assert code == 0
        assert json.loads(out)["results"]["value"] == "1"

    def test_usage_error_is_exit_2(self, capsys, spaces) -> None:
        x = str(spaces["x"])
        assert run(capsys, "gh", x)[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        for flags in (
            ["--limit-nodes", "-5"],
            ["--limit-nodes", "many"],
            ["--seed", "1"],
            ["--method", "exhaustive"],
        ):
            assert run(capsys, "gh", x, x, *flags)[0] == 2

    def test_missing_input_file_is_exit_3(self, capsys, spaces, tmp_path: Path) -> None:
        code, _, err = run(capsys, "gh", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"))
        assert code == 3
        assert "error:" in err
        # a setting or label list that is missing from a readable input
        x, z = str(spaces["x"]), str(spaces["z"])
        for argv in (
            ["star", z, "--z0", "(p0,p0)"],
            ["graft", z, "--m", "2"],
            ["hausdorff", x, "--a", ",", "--b", "p0"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and err.startswith("error:"), argv
            assert len(err.splitlines()) == 1, argv

    @pytest.mark.parametrize(
        "name, data",
        [
            ("latin.json", b'\xff{"dist": [[0]]}'),
            ("latin.csv", b"a\n\xff\n"),
            ("long.json", b'{"dist": [[0, ' + b"1" * 5000 + b'], [1, 0]]}'),
            ("array.json", b"[1]"),
            ("dist.json", b'{"dist": "x"}'),
            ("labels.json", b'{"dist": [["0"]], "labels": [1]}'),
            ("blank.csv", b"\n"),
            ("exp.json", b'{"dist": [[0, "1e5000"], ["1e5000", 0]]}'),
            ("negexp.json", b'{"dist": [[0, "1e-5000"], ["1e-5000", 0]]}'),
            ("nested.json", b"[" * 100000 + b"]" * 100000),
        ],
        ids=[
            "not-utf8-json", "not-utf8-csv", "long-int-json",
            "json-array", "dist-not-rows", "labels-not-strings", "blank-csv",
            "exponent-past-digit-limit", "negative-exponent-past-digit-limit",
            "nested-past-recursion-limit",
        ],  # fmt: skip
    )
    def test_unreadable_file_is_exit_3(self, capsys, spaces, tmp_path: Path, name, data) -> None:
        # bytes that are not UTF-8, a JSON int longer than int() converts,
        # an exponent that would make one, nesting deeper than the parser
        # recurses, and documents of the wrong shape, as a space file and
        # as a config file
        path = tmp_path / name
        path.write_bytes(data)
        x = str(spaces["x"])
        for argv in (
            ["validate", str(path)],
            ["gh", str(path), str(path)],
            ["gh", x, x, "--config", str(path)],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and "error:" in err, argv

    def test_node_budget_exhaustion_is_exit_5(self, capsys, spaces) -> None:
        code, _, err = run(
            capsys, "gh", str(spaces["x"]), str(spaces["y"]), "--limit-nodes", "2"
        )
        assert code == 5
        assert "best bounds so far" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gh", "p", "q"], 3),
            (["geodesic", "p", "q"], 3),
            (["segment-check", "p", "q", "p"], 3),
            (["gh", "p", "q", "--limit-nodes", "0"], 5),
        ],
        ids=["gh", "geodesic", "segment-check", "gh-node-budget"],
    )
    def test_result_past_digit_limit(self, capsys, tmp_path: Path, argv, code) -> None:
        # each input prints within the int digit limit, but a distance
        # between them has a denominator near 3^6000 * 2^9000, which does not
        for name, den in (("p", 3**6000), ("q", 2**9000)):
            entry = f"1/{den}"
            (tmp_path / f"{name}.json").write_text(json.dumps({"dist": [[0, entry], [entry, 0]]}))
        argv = [str(tmp_path / f"{a}.json") if a in ("p", "q") else a for a in argv]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert f"{sys.get_int_max_str_digits()} digits" in err
        assert "sys.get_int_max_str_digits()" in err
        if code == 5:
            assert "best bounds so far" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gh", "bad", "bad"], 4),
            (["segment-check", "bad", "bad", "bad"], 4),
            (["validate", "bad"], 3),
        ],
        ids=["gh", "segment-check", "validate"],
    )
    def test_violation_past_digit_limit(self, capsys, tmp_path: Path, argv, code) -> None:
        # 1 > 1/3^6000 + 1/2^9000 breaks the triangle inequality, and the
        # right-hand side has a denominator past the int digit limit
        entries = ["1", f"1/{3**6000}", f"1/{2**9000}"]
        dist = [["0", entries[0], entries[1]], [entries[0], "0", entries[2]],
                [entries[1], entries[2], "0"]]  # fmt: skip
        (tmp_path / "bad.json").write_text(json.dumps({"dist": dist}))
        argv = [str(tmp_path / "bad.json") if a == "bad" else a for a in argv]
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert f"{sys.get_int_max_str_digits()} digits" in err
        if code == 4:
            lines = err.splitlines()
            assert lines[0] == "error: metric axioms violated"
            assert lines[1].startswith("  triangle violated at (0, 2, 1): not printed: ")

    def test_violation_lines_on_exit_4(self, capsys, tmp_path: Path) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text('{"dist": [["0", "1"], ["2", "0"]]}')
        code, out, err = run(capsys, "gh", str(bad), str(bad))
        assert (code, out) == (4, "")
        assert err.splitlines()[:2] == [
            "error: metric axioms violated",
            "  symmetry violated at (0, 1): 1 vs 2",
        ]

    def test_cli_imports_no_numpy(self) -> None:
        proc = run_python(
            "-c", "import sys, ghsegments.cli; print('numpy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestCliPipelines:
    def test_segment_check_on_midpoint(self, capsys, spaces) -> None:
        # endpoints first, candidate last
        code, out, _ = run(
            capsys, "segment-check", str(spaces["x"]), str(spaces["y"]), str(spaces["z"])
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["member"] is True
        assert res["d_xz"] == "1/4" and res["d_zy"] == "1/4" and res["d_xy"] == "1/2"

    def test_geodesic_out_dir(self, capsys, spaces, tmp_path: Path) -> None:
        out_dir = tmp_path / "geo"
        code, out, _ = run(
            capsys,
            "geodesic",
            str(spaces["x"]),
            str(spaces["y"]),
            "--ts",
            "0,1/2,1",
            "--out-dir",
            str(out_dir),
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["samples"]) == 3
        mid = load_space(out_dir / "sample_01.json")
        assert mid.n == 3
        res = json.loads(out)["results"]
        assert all(entry["on_segment"] for entry in res["samples"])

    def test_geodesic_takes_one_solve(self, capsys, spaces, monkeypatch) -> None:
        # d_XY is the only solve: every sample, t = 0 and t = 1 included,
        # is certified by lifts of its witness
        from ghsegments import cli, segments, solver

        calls = {
            mod.__name__: count_calls(monkeypatch, mod, "gh_exact")
            for mod in (cli, segments, solver)
        }
        code, out, _ = run(capsys, "geodesic", str(spaces["x"]), str(spaces["y"]))
        assert code == 0
        assert {k: c["gh_exact"] for k, c in calls.items()} == {
            "ghsegments.cli": 1,
            "ghsegments.segments": 0,
            "ghsegments.solver": 0,
        }
        res = json.loads(out)["results"]
        assert [(s["t"], s["gh_from_x"], s["gh_to_y"]) for s in res["samples"]] == [
            ("0", "0", "1/2"),
            ("1/4", "1/8", "3/8"),
            ("1/2", "1/4", "1/4"),
            ("3/4", "3/8", "1/8"),
            ("1", "1/2", "0"),
        ]

    def test_geodesic_endpoint_above_the_side_cap(self, capsys, tmp_path: Path) -> None:
        # Y has 15 points; d(X, Y) against a point is a one-node search,
        # and the t = 1 sample Y needs no solve
        pt, y15 = tmp_path / "pt.json", tmp_path / "y15.json"
        save_space(simplex(1, Fraction(1)), pt)
        save_space(random_metric_space(15, seed=3), y15)
        code, out, err = run(capsys, "geodesic", str(pt), str(y15))
        assert code == 0, err
        res = json.loads(out)["results"]
        assert res["distance"] == "7/4"
        last = res["samples"][-1]
        assert (last["t"], last["points"], last["gh_from_x"], last["gh_to_y"]) == (
            "1", 15, "7/4", "0"
        )

    def test_geodesic_refused_grid_writes_nothing(self, capsys, spaces, tmp_path: Path) -> None:
        out_dir = tmp_path / "geo"
        code, out, err = run(
            capsys, "geodesic", str(spaces["x"]), str(spaces["y"]),
            "--ts", "0,1/2,3/2", "--out-dir", str(out_dir),
        )  # fmt: skip
        assert code == 3
        assert out == "" and "error:" in err
        assert not out_dir.exists()

    def test_star_subcommand_writes_space(self, capsys, spaces, tmp_path: Path) -> None:
        out_path = tmp_path / "zstar.json"
        code, out, _ = run(
            capsys,
            "star",
            str(spaces["z"]),
            "--z0",
            "(p0,p0)",
            "--delta",
            "1/2",
            "--out",
            str(out_path),
        )
        assert code == 0
        star = load_space(out_path)
        assert star.n == 4
        assert json.loads(out)["results"]["delta"] == "1/2"

    def test_star_unknown_label_is_exit_3(self, capsys, spaces) -> None:
        assert run(capsys, "star", str(spaces["z"]), "--z0", "nope", "--delta", "1")[0] == 3

    def test_graft_defaults_to_most_isolated(self, capsys, spaces) -> None:
        code, out, _ = run(capsys, "graft", str(spaces["z"]), "--m", "3", "--mu", "1/4")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["points"] == 5 and res["m"] == 3
        assert res["z_star"] in ("(p0,p0)", "(p1,p1)", "(p2,p2)")

    def test_family_end_to_end(self, capsys, spaces) -> None:
        code, out, _ = run(
            capsys,
            "family",
            str(spaces["x"]),
            str(spaces["y"]),
            str(spaces["z"]),
            "--ms",
            "2,3",
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert [e["m"] for e in res["entries"]] == [2, 3]
        assert all(e["certificate"]["member"] for e in res["entries"])
        assert all(e["cov"] >= e["m"] for e in res["entries"])

    def test_family_on_nonmember_is_exit_6(self, capsys, spaces, tmp_path: Path) -> None:
        far = tmp_path / "far.json"
        save_space(simplex(2, Fraction(30)), far)
        code, _, err = run(
            capsys, "family", str(spaces["x"]), str(spaces["y"]), str(far)
        )
        assert code == 6
        assert "error:" in err

    @pytest.mark.parametrize("cmd", ["report", "family"])
    def test_failed_certificate_is_exit_7(self, capsys, spaces, monkeypatch, cmd) -> None:
        # a lift that dilates cannot tie with d_XY; that is a bug, never the
        # input's fault, and gets its own code with nothing on stdout
        from ghsegments import Correspondence, segments

        real = segments.lift_graft

        def dilating(R, z_star, m):
            L = real(R, z_star, m)
            extra = min(w for w in range(L.ny) if (0, w) not in L.pairs)
            return Correspondence(L.pairs | {(0, extra)}, L.nx, L.ny)

        monkeypatch.setattr(segments, "lift_graft", dilating)
        code, out, err = run(capsys, cmd, *(str(spaces[k]) for k in "xyz"))
        assert code == 7
        assert out == ""
        assert err.startswith("error: internal certificate check failed: lifted witnesses give")

    def test_report_builds_no_member(self, capsys, spaces, monkeypatch) -> None:
        # the table comes from the family's one check at m <= 3: no graft
        # and no covering beyond it, however long the table
        from ghsegments import segments

        calls = count_calls(monkeypatch, segments, "simplex_graft", "covering_number")
        code, out, _ = run(capsys, "report", *(str(spaces[k]) for k in "xyz"), "--m-max", "200")
        assert code == 0
        assert calls["simplex_graft"] <= 2 and calls["covering_number"] == 1
        table = json.loads(out)["results"]["table"]
        assert [(r["m"], r["points"]) for r in table] == [(m, m + 2) for m in range(1, 201)]

    def test_report_plot_data(self, capsys, spaces, tmp_path: Path) -> None:
        plot = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys,
            "report",
            str(spaces["x"]),
            str(spaces["y"]),
            str(spaces["z"]),
            "--m-max",
            "4",
            "--plot-data",
            str(plot),
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["all_members"] is True and res["cov_at_least_m"] is True
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "m,cov"
        body = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
        assert body == [(e["m"], e["cov"]) for e in res["table"]]
        assert all(cov >= m for m, cov in body)

    def test_family_and_report_agree(self, capsys, spaces) -> None:
        xyz = [str(spaces[k]) for k in "xyz"]
        code, out, _ = run(capsys, "family", *xyz, "--ms", "1,2,3")
        assert code == 0
        fam = json.loads(out)["results"]
        code, out, _ = run(capsys, "report", *xyz, "--m-max", "3")
        assert code == 0
        rep = json.loads(out)["results"]
        for key in ("z_star", "mu", "eps", "d_xz", "d_zy"):
            assert fam[key] == rep[key], key
        assert [
            (e["m"], e["cov"], e["certificate"]["member"], e["points"])
            for e in fam["entries"]
        ] == [(r["m"], r["cov"], r["member"], r["points"]) for r in rep["table"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "{z}", "--z0", "(p0,p0)", "--delta", "1/2", "--out", "{bad}"],
            ["graft", "{z}", "--mu", "1/4", "--m", "3", "--out", "{bad}"],
            ["report", "{x}", "{y}", "{z}", "--m-max", "2", "--out", "{bad}"],
            ["report", "{x}", "{y}", "{z}", "--m-max", "2", "--plot-data", "{bad}"],
            ["family", "{x}", "{y}", "{z}", "--ms", "2", "--report", "{bad}"],
            ["gh", "{x}", "{y}", "--emit-correspondence", "{bad}"],
            ["geodesic", "{x}", "{y}", "--ts", "1/2", "--out-dir", "{x}"],
        ],
        ids=["star", "graft", "report-out", "plot-data", "family-report", "gh", "geodesic"],
    )
    def test_unwritable_output_is_exit_3(
        self, capsys, spaces, tmp_path: Path, argv: list[str]
    ) -> None:
        # a file in a directory that does not exist; --out-dir names a file
        bad = str(tmp_path / "no-such-dir" / "out.json")
        paths = {k: str(v) for k, v in spaces.items()}
        code, out, err = run(capsys, *(a.format(bad=bad, **paths) for a in argv))
        assert code == 3
        assert out == ""
        assert err.startswith("error: [Errno")


class TestCliDeterminism:
    def test_byte_identical_reports(self, capsys, spaces) -> None:
        _, first, _ = run(
            capsys, "report", str(spaces["x"]), str(spaces["y"]), str(spaces["z"])
        )
        _, second, _ = run(
            capsys, "report", str(spaces["x"]), str(spaces["y"]), str(spaces["z"])
        )
        assert first == second

    def test_config_file_merging(self, capsys, spaces, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_budget": 2}))
        code, _, _ = run(
            capsys, "gh", str(spaces["x"]), str(spaces["y"]), "--config", str(cfg)
        )
        assert code == 5
        every_key = {
            "node_budget": None,
            "sample_grid": ["0", "1/2", "1"],
            "delta": "1/4",
            "mu": None,
            "ms": [2, 3],
            "m_max": 3,
            "out": None,
            "out_dir": None,
        }
        cfg.write_text(json.dumps(every_key))
        code, out, _ = run(
            capsys, "gh", str(spaces["x"]), str(spaces["y"]), "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["config"] == every_key
        # a flag replaces the file's node budget and keeps its other keys
        code, out, _ = run(
            capsys, "gh", str(spaces["x"]), str(spaces["y"]), "--config", str(cfg),
            "--limit-nodes", "7",
        )  # fmt: skip
        assert code == 0
        assert json.loads(out)["config"] == {**every_key, "node_budget": 7}

    def test_config_output_locations(self, capsys, spaces, tmp_path: Path) -> None:
        geo_dir, graft_out = tmp_path / "geo", tmp_path / "w.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(geo_dir), "out": str(graft_out)}))
        xy = [str(spaces["x"]), str(spaces["y"])]
        code, _, _ = run(capsys, "geodesic", *xy, "--ts", "0,1", "--config", str(cfg))
        assert code == 0
        manifest = json.loads((geo_dir / "manifest.json").read_text())
        assert [s["file"] for s in manifest["samples"]] == ["sample_00.json", "sample_01.json"]
        graft = [str(spaces["z"]), "--m", "3", "--mu", "1/4", "--config", str(cfg)]
        code, out, _ = run(capsys, "graft", *graft)
        assert code == 0
        assert space_to_jsonable(load_space(graft_out)) == json.loads(out)["results"]["space"]
        # a flag still wins over the config value
        flag_dir, flag_out = tmp_path / "flag-geo", tmp_path / "flag-w.json"
        graft_out.unlink()
        assert run(capsys, "graft", *graft, "--out", str(flag_out))[0] == 0
        assert flag_out.exists() and not graft_out.exists()
        code, _, _ = run(
            capsys, "geodesic", *xy, "--ts", "1/2", "--config", str(cfg),
            "--out-dir", str(flag_dir),
        )  # fmt: skip
        assert code == 0
        assert (flag_dir / "sample_00.json").exists()
        assert json.loads((geo_dir / "manifest.json").read_text()) == manifest

    @pytest.mark.parametrize(
        "base, flag, setting",
        [
            ("geodesic {x} {y}", ["--ts", "0,1/2"], {"sample_grid": ["0", "1/2"]}),
            ("geodesic {x} {y} --ts 1/2", ["--out-dir", "{tmp}/geo"], {"out_dir": "{tmp}/geo"}),
            ("star {z} --z0 (p0,p0)", ["--delta", "1/4"], {"delta": "1/4"}),
            ("graft {z} --m 3", ["--mu", "1/4"], {"mu": "1/4"}),
            ("family {x} {y} {z}", ["--ms", "2,3"], {"ms": [2, 3]}),
            ("report {x} {y} {z}", ["--m-max", "3"], {"m_max": 3}),
            ("star {z} --z0 (p0,p0) --delta 1/2", ["--out", "{tmp}/s.json"], {"out": "{tmp}/s.json"}),
            ("gh {x} {y}", ["--limit-nodes", "1000"], {"node_budget": 1000}),
        ],
        ids=["ts", "out-dir", "delta", "mu", "ms", "m-max", "out", "limit-nodes"],
    )
    def test_flag_and_config_key_agree(
        self, capsys, spaces, tmp_path: Path, base, flag, setting
    ) -> None:
        # a flag and its config key give the same results, and the echoed
        # config is the one that ran, whichever way a value was set
        def fill(v):
            return v.format(**spaces, tmp=tmp_path) if isinstance(v, str) else v

        argv = [fill(a) for a in base.split()]
        setting = {key: fill(v) for key, v in setting.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        by_flag = run(capsys, *argv, *map(fill, flag))
        by_file = run(capsys, *argv, "--config", str(cfg))
        assert by_flag[0] == by_file[0] == 0
        got, want = json.loads(by_flag[1]), json.loads(by_file[1])
        assert got["results"] == want["results"]
        assert got["config"] == want["config"]
        assert {key: got["config"][key] for key in setting} == setting

    def test_bad_flag_value_is_exit_3_before_input_is_read(
        self, capsys, tmp_path: Path
    ) -> None:
        # bad.json fails validation (exit 4) once read; a bad value exits 3 first
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dist": [[0, 3, 1], [3, 0, 1], [1, 1, 0]]}))
        b = str(bad)
        for argv in (
            ["geodesic", b, b, "--ts", "3/2"],
            ["geodesic", b, b, "--ts", "0,x"],
            ["geodesic", b, b, "--ts", ","],
            ["family", b, b, b, "--ms", "2,x"],
            ["family", b, b, b, "--ms", "0"],
            ["family", b, b, b, "--ms", ","],
            ["family", b, b, b, "--mu", "0"],
            ["graft", b, "--m", "2", "--mu", "0"],
            ["star", b, "--z0", "p0", "--delta", "0"],
            ["report", b, b, b, "--m-max", "0"],
            ["graft", b, "--m", "2", "--mu", "x"],
            ["star", b, "--z0", "p0", "--delta", "1/0"],
            ["graft", b, "--m", "0", "--mu", "1/4"],
            ["graft", b, "--m", "2"],
            ["star", b, "--z0", "p0"],
            ["hausdorff", b, "--a", ",", "--b", "p0"],
            # values whose numerator or denominator int() could not print
            ["graft", b, "--m", "2", "--mu", "1e5000"],
            ["family", b, b, b, "--mu", "1e-5000"],
            ["star", b, "--z0", "p0", "--delta", "1e5000"],
            ["star", b, "--z0", "p0", "--delta", "1e-5000"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and "error:" in err, argv
        cfg = tmp_path / "cfg.json"
        for setting, argv in (
            ({"mu": "1e5000"}, ["graft", b, "--m", "2"]),
            ({"delta": "1e-5000"}, ["star", b, "--z0", "p0"]),
        ):
            cfg.write_text(json.dumps(setting))
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert code == 3 and out == "" and "cannot parse rational" in err, setting
        assert run(capsys, "report", b, b, b)[0] == 4
        assert run(capsys, "report", b, b, b, "--m-max", "x")[0] == 2

    def test_unknown_config_key_is_exit_3(self, capsys, spaces, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.json"
        for bad in (
            {"node_budgets": 2},
            {"limits": {"node_budget": 2}},
            {"enumeration_cap": "x"},
            {"seed": 1},
            {"bnb_max_side": 0},
            {"bnb_max_side": "10"},
            {"bnb_max_side": True},
            {"node_budget": -1},
            {"node_budget": 1.5},
            {"m_max": 0},
            {"ms": 3},
            {"ms": [2, "3"]},
            {"ms": []},
            {"mu": "0"},
            {"delta": "-1/2"},
            {"strict": "yes"},
            {"sample_grid": "1/2"},
            {"sample_grid": ["3/2"]},
            {"sample_grid": ["0", "-1/4"]},
            {"sample_grid": []},
            {"out": 7},
        ):
            cfg.write_text(json.dumps(bad))
            code, _, err = run(
                capsys, "gh", str(spaces["x"]), str(spaces["x"]), "--config", str(cfg)
            )
            assert code == 3, bad
            assert "error:" in err

    def test_random_spaces_round_trip_through_cli(self, capsys, tmp_path: Path) -> None:
        rng = random.Random(606)
        for k in range(5):
            X = random_space(rng, rng.randint(1, 5))
            p = tmp_path / f"r{k}.csv"
            save_space(X, p)
            code, out, _ = run(capsys, "validate", str(p))
            assert code == 0 and json.loads(out)["results"]["ok"] is True
