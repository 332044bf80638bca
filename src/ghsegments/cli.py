"""Command line entry point.

One command per invocation; every successful run prints a deterministic
JSON report to stdout (wall time goes to stderr). `geodesic` prints one
gh_exact and its geodesic_samples.

The settings that run are one RunConfig: its defaults, then the --config
file, then each override flag that was given (a flag's dest is its
config key), every value checked by RunConfig.set. The report echoes
that effective config. Every search runs under the node budget
(100000 unless set; null for none), whatever the sides. Exit codes:

    0  success
    2  command line usage error
    3  malformed input, argument outside its domain, or unwritable output
    4  metric validation failure
    5  solver node budget exhausted (best bounds on stderr)
    6  construction hypothesis not satisfied (no admissible parameters)
    7  internal certificate check failed (a bug, never a property of the input)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import KEYS, RunConfig
from .exceptions import (
    DomainError,
    HypothesisError,
    MalformedInputError,
    MetricValidationError,
    ResourceLimitError,
    ToolkitError,
)
from .formats import (
    correspondence_to_jsonable,
    frac_str,
    load_candidate,
    load_space,
    save_space,
    space_to_jsonable,
)
from .hausdorff import hausdorff_distance
from .report import Report, digest_file
from .segments import (
    GraftParams,
    StarParams,
    _pick_z_star,
    build_segment_family,
    geodesic_samples,
    segment_membership,
    simplex_graft,
    star_extension,
)
from .solver import SolverLimits, gh_exact
from .spaces import (
    PointSubset,
    isolation_radius,
    validate_metric,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_VALIDATION = 4
EXIT_RESOURCE = 5
EXIT_HYPOTHESIS = 6
EXIT_CERTIFICATE = 7


def _budget(text: str) -> int:
    """argparse type for --limit-nodes: an integer >= 0, else a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _printable(template: str, *values) -> str:
    """template filled with each value's frac_str text, or "not printed:
    ..." when one is past the int digit limit."""
    try:
        return template.format(*map(frac_str, values))
    except DomainError as err:
        return f"not printed: {err}"


def _parse_labels(text: str) -> list[str]:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise MalformedInputError(f"empty label list {text!r}")
    return labels


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for key in KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in ("sample_grid", "ms"):  # comma separated
            value = [part.strip() for part in value.split(",") if part.strip()]
        if key == "ms":
            try:
                value = [int(part) for part in value]
            except ValueError as exc:
                raise MalformedInputError(f"ms must be integers, got {args.ms!r}") from exc
        cfg.set(key, value)
    return cfg


def _load(report: Report, path: str):
    space = load_space(path)
    report.inputs[str(path)] = digest_file(path)
    return space


def _cert_jsonable(cert, X, W, Y) -> dict:
    return {
        "d_xz": frac_str(cert.d_xz),
        "d_zy": frac_str(cert.d_zy),
        "d_xy": frac_str(cert.d_xy),
        "gap": frac_str(cert.gap),
        "member": cert.member,
        "witness_xz": correspondence_to_jsonable(cert.witness_xz, X, W),
        "witness_zy": correspondence_to_jsonable(cert.witness_zy, W, Y),
        "witness_xy": correspondence_to_jsonable(cert.witness_xy, X, Y),
    }


def cmd_validate(args, cfg: RunConfig, report: Report) -> int:
    labels, view = load_candidate(args.space)
    report.inputs[str(args.space)] = digest_file(args.space)
    vr = validate_metric(view)
    report.results = {
        "ok": vr.ok,
        "n": len(view),
        "violations": [
            {
                "axiom": v.axiom,
                "witness": [labels[i] for i in v.witness],
                "lhs": frac_str(v.lhs),
                "rhs": frac_str(v.rhs),
            }
            for v in vr.violations
        ],
    }
    return EXIT_OK if vr.ok else EXIT_VALIDATION


def cmd_gh(args, cfg: RunConfig, report: Report) -> int:
    X = _load(report, args.x)
    Y = _load(report, args.y)
    res = gh_exact(X, Y, limits=cfg.limits)
    pairs = correspondence_to_jsonable(res.optimal, X, Y)
    report.results = {
        "distance": frac_str(res.distance),
        "distortion": frac_str(2 * res.distance),
        "nx": X.n,
        "ny": Y.n,
        "correspondence": pairs,
    }
    report.nodes["gh"] = res.nodes_explored
    if args.emit_correspondence:
        Path(args.emit_correspondence).write_text(
            json.dumps(pairs, indent=2) + "\n"
        )
    return EXIT_OK


def cmd_geodesic(args, cfg: RunConfig, report: Report) -> int:
    X = _load(report, args.x)
    Y = _load(report, args.y)
    res = gh_exact(X, Y, limits=cfg.limits)
    report.nodes["gh_xy"] = res.nodes_explored
    # every sample is built and certified before anything is written
    certified = geodesic_samples(X, Y, res.optimal, res.distance, cfg.sample_grid)
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    for idx, (sample, cert) in enumerate(certified):
        space = sample.realized
        entry = {
            "t": frac_str(sample.t),
            "points": space.n,
            "gh_from_x": frac_str(cert.d_xz),
            "gh_to_y": frac_str(cert.d_zy),
            "on_segment": cert.member,
        }
        if out_dir is not None:
            name = f"sample_{idx:02d}.json"
            save_space(space, out_dir / name)
            entry["file"] = name
        else:
            entry["space"] = space_to_jsonable(space)
        samples.append(entry)
    report.results = {
        "distance": frac_str(res.distance),
        "correspondence": correspondence_to_jsonable(res.optimal, X, Y),
        "samples": samples,
    }
    if out_dir is not None:
        manifest = {
            "distance": frac_str(res.distance),
            "samples": samples,
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_OK


def cmd_segment_check(args, cfg: RunConfig, report: Report) -> int:
    X = _load(report, args.x)
    Y = _load(report, args.y)
    Z = _load(report, args.z)
    cert = segment_membership(X, Y, Z, limits=cfg.limits)
    report.results = _cert_jsonable(cert, X, Z, Y)
    return EXIT_OK


def cmd_star(args, cfg: RunConfig, report: Report) -> int:
    if cfg.delta is None:
        raise MalformedInputError("star needs --delta (or a config value)")
    Z = _load(report, args.z)
    z0 = Z.index_of(args.z0)
    star = star_extension(Z, StarParams(z0, cfg.delta))
    report.results = {
        "z0": args.z0,
        "delta": frac_str(cfg.delta),
        "points": star.n,
        "space": space_to_jsonable(star),
    }
    if cfg.out:
        save_space(star, cfg.out)
    return EXIT_OK


def cmd_graft(args, cfg: RunConfig, report: Report) -> int:
    if cfg.mu is None:
        raise MalformedInputError("graft needs --mu (or a config value)")
    if args.m < 1:  # simplex_graft's own check, made before the input is read
        raise DomainError(f"simplex size must be >= 1, got {args.m}")
    Z = _load(report, args.z)
    z_star = Z.index_of(args.zstar) if args.zstar else _pick_z_star(Z)
    W = simplex_graft(Z, GraftParams(z_star, cfg.mu, args.m))
    results = {
        "z_star": Z.labels[z_star],
        "mu": frac_str(cfg.mu),
        "m": args.m,
        "points": W.n,
        "space": space_to_jsonable(W),
    }
    if Z.n >= 2:
        results["isolation"] = frac_str(isolation_radius(Z, z_star))
    report.results = results
    if cfg.out:
        save_space(W, cfg.out)
    return EXIT_OK


def _graft_family(args, cfg: RunConfig, report: Report, ms):
    """X, Y and the certified graft family W(mu, m), m in ms, shared by
    `family` and `report`."""
    X = _load(report, args.x)
    Y = _load(report, args.y)
    Z = _load(report, args.z)
    z_star = Z.index_of(args.zstar) if args.zstar else None
    return X, Y, build_segment_family(X, Y, Z, ms, z_star, cfg.mu, cfg.limits)


def cmd_family(args, cfg: RunConfig, report: Report) -> int:
    X, Y, fam = _graft_family(args, cfg, report, cfg.ms)
    eps = frac_str(fam.eps)
    report.results = {
        "z_star": fam.z_star_label,
        "mu": frac_str(fam.mu),
        "eps": eps,
        "admissible_mu": str(fam.window),
        "d_xz": frac_str(fam.d_xz),
        "d_zy": frac_str(fam.d_zy),
        "d_xy": frac_str(fam.d_xy),
        "entries": [
            {
                "m": e.m,
                "points": e.points,
                "cov": e.cov,
                "certificate": _cert_jsonable(e.certificate, X, e.space, Y),
                "space": space_to_jsonable(e.space),
            }
            for e in fam.entries
        ],
        "covering_table": [{"m": e.m, "eps": eps, "cov": e.cov} for e in fam.entries],
    }
    if args.report:
        Path(args.report).write_text(report.to_json())
    return EXIT_OK


def cmd_report(args, cfg: RunConfig, report: Report) -> int:
    _, _, fam = _graft_family(args, cfg, report, range(1, cfg.m_max + 1))
    eps = frac_str(fam.eps)
    report.results = {
        "z_star": fam.z_star_label,
        "mu": frac_str(fam.mu),
        "eps": eps,
        "d_xz": frac_str(fam.d_xz),
        "d_zy": frac_str(fam.d_zy),
        "all_members": fam.all_members,
        "cov_at_least_m": fam.cov_at_least_m,
        "table": [
            {
                "m": e.m,
                "eps": eps,
                "cov": e.cov,
                "member": e.member,
                "points": e.points,
            }
            for e in fam.entries
        ],
    }
    if args.plot_data:
        lines = ["m,cov"] + [f"{e.m},{e.cov}" for e in fam.entries]
        Path(args.plot_data).write_text("\n".join(lines) + "\n")
    if cfg.out:
        Path(cfg.out).write_text(report.to_json())
    return EXIT_OK


def cmd_hausdorff(args, cfg: RunConfig, report: Report) -> int:
    a, b = _parse_labels(args.a), _parse_labels(args.b)
    X = _load(report, args.space)
    A = PointSubset.from_labels(X, a)
    B = PointSubset.from_labels(X, b)
    res = hausdorff_distance(X, A, B)
    report.results = {
        "value": frac_str(res.value),
        "witness_a": X.labels[res.witness_a],
        "witness_b": X.labels[res.witness_b],
        "a": A.labels_sorted(),
        "b": B.labels_sorted(),
    }
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (RunConfig keys)")
    common.add_argument(
        "--limit-nodes",
        dest="node_budget",
        metavar="LIMIT_NODES",
        type=_budget,
        help=f"solver node budget, an integer >= 0 (default {SolverLimits().node_budget})",
    )

    parser = argparse.ArgumentParser(
        prog="ghseg",
        description=(
            "Exact Gromov-Hausdorff distances and metric-segment "
            "constructions for finite metric spaces."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", parents=[common], help="check the metric axioms")
    p.add_argument("space")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("gh", parents=[common], help="exact GH distance")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument(
        "--method",
        choices=["auto", "bnb", "branch_and_bound"],
        default="auto",
        help="accepted for compatibility and ignored: there is one solver",
    )
    p.add_argument("--emit-correspondence", metavar="PATH")
    p.set_defaults(handler=cmd_gh)

    p = sub.add_parser(
        "geodesic", parents=[common], help="sample the geodesic between two spaces"
    )
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument(
        "--ts",
        dest="sample_grid",
        metavar="TS",
        help="comma separated parameters, default 0,1/4,1/2,3/4,1",
    )
    p.add_argument("--out-dir", help="write one matrix file per sample plus a manifest")
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser(
        "segment-check", parents=[common], help="certify segment membership of Z"
    )
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.set_defaults(handler=cmd_segment_check)

    p = sub.add_parser("star", parents=[common], help="one-point star extension")
    p.add_argument("z")
    p.add_argument("--z0", required=True, help="base point label")
    p.add_argument("--delta", help="star radius p/q")
    p.add_argument("--out", help="write the extended space here")
    p.set_defaults(handler=cmd_star)

    p = sub.add_parser("graft", parents=[common], help="simplex graft W(mu, m)")
    p.add_argument("z")
    p.add_argument("--zstar", help="grafted point label (default: most isolated)")
    p.add_argument("--mu", help="graft radius p/q")
    p.add_argument("--m", type=int, required=True, help="simplex size")
    p.add_argument("--out", help="write the grafted space here")
    p.set_defaults(handler=cmd_graft)

    p = sub.add_parser(
        "family", parents=[common], help="certified graft family inside [X, Y]"
    )
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.add_argument("--ms", help="comma separated simplex sizes, default 2,3,4")
    p.add_argument("--zstar", help="grafted point label (default: most isolated)")
    p.add_argument("--mu", help="graft radius p/q (default: midpoint of the window)")
    p.add_argument("--report", metavar="PATH", help="also write the report here")
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser(
        "report", parents=[common], help="non-compactness table for [X, Y]"
    )
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.add_argument("--m-max", type=int)
    p.add_argument("--zstar", help="grafted point label (default: most isolated)")
    p.add_argument("--mu", help="graft radius p/q (default: midpoint of the window)")
    p.add_argument("--plot-data", metavar="PATH", help="write m,cov columns as CSV")
    p.add_argument("--out", metavar="PATH", help="also write the report here")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser(
        "hausdorff", parents=[common], help="Hausdorff distance between two subsets"
    )
    p.add_argument("space")
    p.add_argument("--a", required=True, help="comma separated labels")
    p.add_argument("--b", required=True, help="comma separated labels")
    p.set_defaults(handler=cmd_hausdorff)

    return parser


def main(argv=None) -> int:
    arg_list = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(arg_list)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    started = time.perf_counter()
    report = Report(command=["ghseg"] + arg_list)
    try:
        cfg = _merge_config(args)
        report.config = cfg.to_jsonable()
        code = args.handler(args, cfg, report)
    except (MalformedInputError, DomainError, OSError) as exc:  # OSError: unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except MetricValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            pts = ", ".join(map(str, v.witness))
            values = _printable("{} vs {}", v.lhs, v.rhs)
            print(f"  {v.axiom} violated at ({pts}): {values}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        bounds = _printable("{} <= d_GH <= {}", exc.lower, exc.upper)
        print(f"  best bounds so far: {bounds}", file=sys.stderr)
        return EXIT_RESOURCE
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ToolkitError as exc:  # a witness or lift that fails its own check
        print(f"error: internal certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    sys.stdout.write(report.to_json())
    elapsed = time.perf_counter() - started
    print(f"[{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
