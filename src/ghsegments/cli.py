"""Command line entry point.

One command per invocation; every successful run prints a deterministic
JSON report to stdout (wall time goes to stderr). Exit codes:

    0  success
    2  command line usage error
    3  malformed input, argument outside its domain, or unwritable output
    4  metric validation failure
    5  solver size cap or node budget exceeded
    6  construction hypothesis not satisfied (no admissible parameters)
    7  internal certificate check failed (a bug, never a property of the input)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .config import RunConfig
from .correspondences import identity_correspondence
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
from .geodesics import endpoint_lifts, interpolate
from .hausdorff import hausdorff_distance
from .report import Report, digest_file
from .segments import (
    GraftParams,
    StarParams,
    _pick_z_star,
    build_segment_family,
    certify_by_lifts,
    segment_membership,
    simplex_graft,
    star_extension,
)
from .solver import gh_exact
from .spaces import (
    PointSubset,
    as_fraction,
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


def _parse_fractions(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"cannot parse fraction list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse integer list {text!r}") from exc


def _budget(text: str) -> int:
    """argparse type for --limit-nodes: an integer >= 0, else a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parse_labels(text: str) -> list[str]:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise MalformedInputError(f"empty label list {text!r}")
    return labels


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.limit_nodes is not None:
        cfg.limits = dataclasses.replace(cfg.limits, node_budget=args.limit_nodes)
    if getattr(args, "strict", False):
        cfg.strict = True
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
    names = labels if labels is not None else [f"p{i}" for i in range(len(view))]
    report.results = {
        "ok": vr.ok,
        "n": len(view),
        "violations": [
            {
                "axiom": v.axiom,
                "witness": [names[i] for i in v.witness],
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
    grid = _parse_fractions(args.ts) if args.ts else cfg.sample_grid
    res = gh_exact(X, Y, limits=cfg.limits)
    report.nodes["gh_xy"] = res.nodes_explored
    R = res.optimal
    left, right = endpoint_lifts(R)
    out_dir = args.out_dir or cfg.out_dir
    out_dir = Path(out_dir) if out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    for idx, t in enumerate(grid):
        sample = interpolate(X, Y, R, t)
        space = sample.realized
        if t == 0:
            seed = identity_correspondence(X.n)
            from_x = gh_exact(X, space, limits=cfg.limits, initial=seed).distance
            to_y = res.distance
        elif t == 1:
            seed = identity_correspondence(Y.n)
            from_x = res.distance
            to_y = gh_exact(space, Y, limits=cfg.limits, initial=seed).distance
        else:
            cert = certify_by_lifts(X, Y, space, left, right, res.distance, R)
            from_x, to_y = cert.d_xz, cert.d_zy
        entry = {
            "t": frac_str(sample.t),
            "points": space.n,
            "gh_from_x": frac_str(from_x),
            "gh_to_y": frac_str(to_y),
            "on_segment": from_x + to_y == res.distance,
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
        "correspondence": correspondence_to_jsonable(R, X, Y),
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
    Z = _load(report, args.z)
    z0 = Z.index_of(args.z0)
    delta = as_fraction(args.delta) if args.delta is not None else cfg.delta
    if delta is None:
        raise MalformedInputError("star needs --delta (or a config value)")
    star = star_extension(Z, StarParams(z0, delta))
    report.results = {
        "z0": args.z0,
        "delta": frac_str(delta),
        "points": star.n,
        "space": space_to_jsonable(star),
    }
    out = args.out or cfg.out
    if out:
        save_space(star, out)
    return EXIT_OK


def cmd_graft(args, cfg: RunConfig, report: Report) -> int:
    Z = _load(report, args.z)
    z_star = Z.index_of(args.zstar) if args.zstar else _pick_z_star(Z)
    mu = as_fraction(args.mu) if args.mu is not None else cfg.mu
    if mu is None:
        raise MalformedInputError("graft needs --mu (or a config value)")
    W = simplex_graft(Z, GraftParams(z_star, mu, args.m), strict=cfg.strict)
    results = {
        "z_star": Z.labels[z_star],
        "mu": frac_str(mu),
        "m": args.m,
        "points": W.n,
        "space": space_to_jsonable(W),
    }
    if Z.n >= 2:
        results["isolation"] = frac_str(isolation_radius(Z, z_star))
    report.results = results
    out = args.out or cfg.out
    if out:
        save_space(W, out)
    return EXIT_OK


def _graft_family(args, cfg: RunConfig, report: Report, ms):
    """X, Y and the certified graft family W(mu, m), m in ms, shared by
    `family` and `report`."""
    X = _load(report, args.x)
    Y = _load(report, args.y)
    Z = _load(report, args.z)
    z_star = Z.index_of(args.zstar) if args.zstar else None
    mu = as_fraction(args.mu) if args.mu else cfg.mu
    return X, Y, build_segment_family(X, Y, Z, ms, z_star, mu, cfg.limits)


def cmd_family(args, cfg: RunConfig, report: Report) -> int:
    ms = _parse_ints(args.ms) if args.ms else cfg.ms
    X, Y, fam = _graft_family(args, cfg, report, ms)
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
    m_max = args.m_max if args.m_max is not None else cfg.m_max
    _, _, fam = _graft_family(args, cfg, report, range(1, m_max + 1))
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
    out = args.out or cfg.out
    if out:
        Path(out).write_text(report.to_json())
    return EXIT_OK


def cmd_hausdorff(args, cfg: RunConfig, report: Report) -> int:
    X = _load(report, args.space)
    A = PointSubset.from_labels(X, _parse_labels(args.a))
    B = PointSubset.from_labels(X, _parse_labels(args.b))
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
        "--limit-nodes", type=_budget, default=None, help="solver node budget"
    )
    common.add_argument(
        "--strict", action="store_true", help="strict admissibility validation"
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
    p.add_argument("--ts", help="comma separated parameters, default 0,1/4,1/2,3/4,1")
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
    p.add_argument("--m-max", type=int, default=None)
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
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except MetricValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            print(f"  {v.describe()}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.lower is not None and exc.upper is not None:
            print(
                f"  best bounds so far: {exc.lower} <= d_GH <= {exc.upper}",
                file=sys.stderr,
            )
        return EXIT_RESOURCE
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ToolkitError as exc:  # a witness or lift that fails its own check
        print(f"error: internal certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    sys.stdout.write(report.to_json())
    elapsed = time.perf_counter() - started
    print(f"[{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
