"""Seeded benchmark of ghsegments: end-to-end metrics, or per-layer ones.

    python3 bench/run.py --workload solve-pairs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.
``--workload all`` runs the four workloads one after another. With
``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` the run also repeats set-up and
op list with every public function of the package wrapped, and the
metrics are the per-layer ones. The exit code is non-zero when any
answer is wrong (the last line then says ``"correct": false``) and when
the package cannot be found. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
STARTUPS = 5  # subprocess imports timed for cli.startup_ms
# Passes over the op list per run. Each pass builds its plan afresh, so
# set-ups and passes alternate over the run; setup_s and ops_per_s are
# medians over passes. --seconds divided by the approximate time of one
# pass on a 2-core x86 VM gives the pass count, never below MIN_PASSES.
MIN_PASSES = 3
PASS_SECONDS = {
    "solve-pairs": 5.5,
    "segment-certs": 2.5,
    "ingest-validate": 12,
    "cli-script": 4.5,
}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("formats.self_ms", "ms"),
    ("formats.parse_ms", "ms"),
    ("formats.bytes", "bytes"),
    ("spaces.self_ms", "ms"),
    ("spaces.construct_ms", "ms"),
    ("spaces.validate_ms", "ms"),
    ("spaces.validate_calls", "count"),
    ("spaces.validate_triples", "count"),
    ("spaces.cover_ms", "ms"),
    ("spaces.cover_calls", "count"),
    ("solver.self_ms", "ms"),
    ("solver.solve_ms", "ms"),
    ("solver.solve_calls", "count"),
    ("solver.nodes", "count"),
    ("solver.unsolved", "count"),
    ("solver.exhaustive_frac", "ratio"),
    ("solver.warm_frac", "ratio"),
    ("solver.lower_bound_ms", "ms"),
    ("solver.lb_tight_frac", "ratio"),
    ("correspondences.self_ms", "ms"),
    ("correspondences.distortion_ms", "ms"),
    ("correspondences.distortion_calls", "count"),
    ("segments.self_ms", "ms"),
    ("segments.membership_ms", "ms"),
    ("segments.solves_per_membership", "ratio"),
    ("segments.report_ms", "ms"),
    ("segments.graft_ms", "ms"),
    ("segments.lift_ms", "ms"),
    ("segments.family_points", "count"),
    ("geodesics.self_ms", "ms"),
    ("geodesics.interpolate_ms", "ms"),
    ("geodesics.samples", "count"),
    ("cli.self_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.inprocess_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="approximate op time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import ghsegments from ./src of this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "ghsegments" / "__init__.py").is_file():
        print(f"error: no package at {src / 'ghsegments'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ghsegments.cli  # noqa: F401  (also imports config and report)


# ---------------------------------------------------------------- running


class Pass:
    """Outcome of one run through an op list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.facts: list[dict] = []

    @property
    def ok(self) -> int:
        return sum(1 for f in self.facts if f["ok"])


def run_ops(plan) -> Pass:
    out = Pass()
    gc.collect()
    for op in plan.ops:
        err = None
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # a typed error or a traceback fails the op
            err = exc
        t1 = time.perf_counter()
        out.latencies.append(t1 - t0)
        if err is None:
            facts = op.check(res)
        elif op.on_error is not None:
            facts = op.on_error(err)
        else:
            facts = {"ok": False, "error": type(err).__name__}
        facts["kind"] = op.kind
        out.facts.append(facts)
    return out


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest integer percentile with at least ten samples above its rank."""
    n = len(latencies)
    xs = sorted(latencies)
    if n <= 10:
        return xs[-1], 100
    pct = 100 * (n - 10) // n
    rank = max(1, -(-pct * n // 100))  # nearest rank, ceil(pct * n / 100)
    return xs[rank - 1], pct


def peak_rss_mb(children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def list_seconds(passes: list[Pass]) -> float:
    """Time of the op list: each op's median over passes, summed."""
    return sum(statistics.median(ts) for ts in zip(*(p.latencies for p in passes)))


def end_to_end(passes: list[Pass], setup_s: float, name: str) -> tuple[dict, dict]:
    """Latency percentiles pool every pass; throughput uses list_seconds,
    so a slow spell of the machine during one pass moves it little."""
    lat = [t for p in passes for t in p.latencies]
    facts = [f for p in passes for f in p.facts]
    ok = sum(p.ok for p in passes)
    tail_s, pct = tail(lat)
    metrics = {
        "ops_per_s": passes[0].ok / list_seconds(passes),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_s,
        "ok_frac": ok / len(lat),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=name == "cli-script"),
    }
    by_kind: dict[str, list[float]] = {}
    for f, t in zip(facts, lat):
        by_kind.setdefault(f["kind"], []).append(t)
    info = {
        "passes": len(passes),
        "attempted": len(lat),
        "failed": len(lat) - ok,
        "tail_percentile": pct,
        "samples": len(lat),
        "kinds_ms": {k: [len(v), round(1000 * statistics.median(v), 3), round(1000 * max(v), 3)] for k, v in sorted(by_kind.items())},
    }
    return metrics, info


# ---------------------------------------------------------------- tracing


def per_layer(tracer, traced: Pass, untraced_s: float, extra: dict) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    ms = {}

    def self_ms(*names, layer=None):
        return 1000 * sum(
            (t for s, t in zip(spans, own) if (layer is not None and s[1] == layer) or s[0] in names), 0.0
        )

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def noted(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    for layer in LAYERS:
        ms[f"{layer}.self_ms"] = self_ms(layer=layer)
    solves = [s for s in spans if s[0] == "gh_exact"]
    solved = [s for s in solves if s[5] and not s[5].get("failed")]
    memberships = [i for i, s in enumerate(spans) if s[0] == "segment_membership"]
    member_solves = sum(
        1 for i, s in enumerate(spans) if s[0] == "gh_exact" and "segment_membership" in tracer.ancestors(i)
    )
    outer_members = [i for i in memberships if "segment_membership" not in tracer.ancestors(i)]
    lb_ops = [f for f in traced.facts if "lb_tight" in f]
    ms.update(
        {
            "formats.parse_ms": self_ms("space_from_jsonable", "space_from_csv", "load_candidate", "load_space"),
            "formats.bytes": sum(noted(n, "bytes") for n in ("space_from_jsonable", "space_from_csv", "load_candidate")),
            "spaces.construct_ms": self_ms("__post_init__"),
            "spaces.validate_ms": self_ms("validate_metric"),
            "spaces.validate_calls": calls("validate_metric"),
            "spaces.validate_triples": noted("validate_metric", "triples"),
            "spaces.cover_ms": self_ms("covering_number"),
            "spaces.cover_calls": calls("covering_number"),
            "solver.solve_ms": self_ms("gh_exact"),
            "solver.solve_calls": len(solves),
            "solver.nodes": noted("gh_exact", "nodes"),
            "solver.unsolved": sum(1 for s in solves if s[5] and s[5].get("stopped")),
            "solver.exhaustive_frac": ratio(sum(1 for s in solved if s[5]["method"] == "exhaustive"), len(solved)),
            "solver.warm_frac": ratio(sum(1 for s in solves if s[5] and s[5]["warm"]), len(solves)),
            "solver.lower_bound_ms": self_ms("gh_lower_bound"),
            "solver.lb_tight_frac": ratio(sum(f["lb_tight"] for f in lb_ops), len(lb_ops)),
            "correspondences.distortion_ms": self_ms("distortion"),
            "correspondences.distortion_calls": calls("distortion"),
            "segments.membership_ms": 1000 * sum(spans[i][3] - spans[i][2] for i in outer_members),
            "segments.solves_per_membership": ratio(member_solves, len(memberships)),
            "segments.report_ms": self_ms("noncompactness_report", "family_parameters", "build_segment_family"),
            "segments.graft_ms": self_ms("simplex_graft", "star_extension"),
            "segments.lift_ms": self_ms("lift_star", "lift_graft"),
            "segments.family_points": noted("simplex_graft", "points") + noted("star_extension", "points"),
            "geodesics.interpolate_ms": self_ms("interpolate"),
            "geodesics.samples": calls("interpolate"),
            "cli.startup_ms": extra.get("startup_ms", 0.0),
            "cli.inprocess_ms": extra.get("inprocess_ms", 0.0),
            "bench.trace_overhead_frac": sum(traced.latencies) / untraced_s - 1,
        }
    )
    return ms


def ratio(num, den) -> float:
    return num / den if den else 0.0


def cli_extras(plan) -> dict:
    """cli.startup_ms, and cli.inprocess_ms from the traced pass's checks."""
    starts = []
    for _ in range(STARTUPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import ghsegments.cli"], env=plan.extra["env"], check=True, timeout=120
        )
        starts.append(time.perf_counter() - t0)
    inprocess = sum(t for _, _, t in plan.extra["refs"].values())
    return {"startup_ms": 1000 * statistics.median(starts), "inprocess_ms": 1000 * inprocess}


# ------------------------------------------------------------------- main


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),  # None once the package drops it
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    build = workloads.WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    setups, passes = [], []
    for _ in range(max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))):
        plan = None  # let the last pass's plan go before collecting
        gc.collect()
        t0 = time.perf_counter()
        plan = build(seed, work)
        setups.append(time.perf_counter() - t0)
        passes.append(run_ops(plan))
        if outcomes_digest(passes[-1]) != outcomes_digest(passes[0]):
            raise workloads.WrongAnswer("two passes over the same ops gave different answers")
    setup_s = statistics.median(setups)
    first = passes[0]
    metrics, info = end_to_end(passes, setup_s, name)
    info.update(
        inputs_digest=plan.digest,
        outcomes_digest=outcomes_digest(first),
        failures=sorted(
            {f["kind"] + ":" + str(f.get("exit", f.get("error", "stop"))) for f in first.facts if not f["ok"]}
        ),
    )
    result = {"name": name, "metrics": metrics, "info": info}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_plan = build(seed, work)
            traced = run_ops(traced_plan)
            extra = cli_extras(traced_plan) if name == "cli-script" else {}
        finally:
            tracer.uninstall()
        if outcomes_digest(traced) != info["outcomes_digest"]:
            raise workloads.WrongAnswer("the traced pass gave other answers than the untraced one")
        result["layers"] = per_layer(tracer, traced, list_seconds(passes), extra)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-seed{seed}.json")
    shutil.rmtree(work, ignore_errors=True)
    return result


def outcomes_digest(p: Pass) -> str:
    return inputs.digest([sorted(f.items()) for f in p.facts])


def show(result: dict) -> None:
    name = result["name"]
    for key, unit in END_TO_END:
        print(f"{name}/{key} = {result['metrics'][key]:.6g} {unit}")
    for key, unit in PER_LAYER if "layers" in result else ():
        value = result["layers"][key]
        print(f"{name}/{key} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"{name} info {json.dumps(result['info'], sort_keys=True)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            show(results[-1])
    except workloads.WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        attempted = sum(r["info"]["attempted"] for r in results) or 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for r in results:
        values = r["layers"] if args.trace else r["metrics"]
        prefix = "" if len(results) == 1 else r["name"] + "/"
        for key, unit in table:
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    line = {
        "correct": True,
        "attempted": sum(r["info"]["attempted"] for r in results),
        "failed": sum(r["info"]["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
