"""Alternating parent/change pairs of bench/run.py, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --seconds 20 --out BENCH_N.json --claim ingest-validate/ops_per_s \
        --trace ingest-validate

Each checkout runs its own bench/run.py on its own src/, with
PYTHONDONTWRITEBYTECODE=1. Pair k runs at seed k: every workload is run
on both sides back to back, the parent first when k is odd and the
change first when k is even. Metric names, directions and bounds come
from the change's BENCHMARK.json. --trace W adds one --trace 1 run of
workload W at seed 1 per side, for the per-layer metrics. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
VERDICT_RULE = (
    "for each workload and end-to-end metric: 'better' when every change run "
    "reads better than every parent run; otherwise 'unresolved' when the "
    "parent's spread (interquartile range over median) exceeds the bound; "
    "otherwise 'no worse' when the change's median is not worse, 'within the "
    "bound' when it is worse by at most the bound, and 'worse beyond the "
    "bound' beyond it. Bounds are BENCHMARK.json's, read as fractions of the "
    "parent's median. Quartiles are statistics.quantiles(n=4, "
    "method='inclusive'). A claim is met when the change is better on at "
    "least 9 of 10 pairs and the medians differ, in the better direction, by "
    "more than the parent's interquartile range"
)


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in checkout root: exit code, wall time, info, final line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    info = next((json.loads(l.split(" info ", 1)[1]) for l in lines
                 if l.startswith(f"{workload} info ")), None)
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = None
    return {"exit": proc.returncode, "wall_s": round(wall, 2), "info": info, "final_line": final}


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]] if xs else [0.0, 0.0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def metric_summary(parent: dict, change: dict, higher: bool, bound: float) -> dict:
    """parent and change map seed -> value; the verdict of VERDICT_RULE."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    pm, cm = statistics.median(p), statistics.median(c)
    pq, cq = quartiles(p), quartiles(c)
    iqr = pq[1] - pq[0]
    spread = iqr / pm if pm else 0.0
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    better = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
    ratios = [cv / pv for pv, cv in zip(p, c) if pv]
    if (min(c) > max(p)) if higher else (max(c) < min(p)):
        verdict = "better: every change run reads better than every parent run"
    elif spread > bound:
        verdict = "unresolved: parent spread exceeds the bound"
    elif worse_by <= 0:
        verdict = "no worse"
    elif worse_by <= bound:
        verdict = "within the bound"
    else:
        verdict = "worse beyond the bound"
    return {
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "parent_quartiles": [round(v, 6) for v in pq],
        "change_quartiles": [round(v, 6) for v in cq],
        "parent_iqr": round(iqr, 6),
        "parent_spread": round(spread, 4),
        "change_worse_by": round(worse_by, 4),
        "bound": bound,
        "change_better_pairs": f"{better}/{len(seeds)}",
        "pair_ratio_median": round(statistics.median(ratios), 4) if ratios else None,
        "pair_ratio_quartiles": [round(v, 4) for v in quartiles(ratios)] if ratios else None,
        "verdict": verdict,
    }


def claim_met(s: dict, higher: bool) -> bool:
    """The claim rule of VERDICT_RULE on one metric_summary: the change is
    better on at least 9 of 10 pairs, a tie counting for neither side, and
    the medians differ, in the better direction, by more than the parent's
    interquartile range."""
    done, total = map(int, s["change_better_pairs"].split("/"))
    gap = s["change_median"] - s["parent_median"]
    return 10 * done >= 9 * total and (gap if higher else -gap) > s["parent_iqr"]


def summarise(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        by_side = {s: {r["seed"]: r for r in mine if r["side"] == s} for s in SIDES}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        finals = {s: {k: (r["final_line"] or {}) for k, r in by_side[s].items()} for s in SIDES}
        out = {
            "seeds": seeds,
            "runs_per_side": len(seeds),
            "all_correct": all(f.get("correct") is True for s in SIDES for f in finals[s].values()),
            "failed_ops": {s: [finals[s][k].get("failed") for k in seeds] for s in SIDES},
        }
        for m in metrics:
            name = m["name"]
            vals = {s: {k: f["metrics"][name]["value"] for k, f in finals[s].items()
                        if name in f.get("metrics", {})} for s in SIDES}
            if vals["parent"] and vals["change"]:
                out[name] = metric_summary(vals["parent"], vals["change"],
                                           m["better"] == "higher", m["bound"])
        digests = {s: {k: (r["info"] or {}).get("outcomes_digest") for k, r in by_side[s].items()}
                   for s in SIDES}
        out["outcome_digests_equal"] = all(digests["parent"][k] == digests["change"][k] for k in seeds)
        summary[w] = out
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload of BENCHMARK.json, in its order")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD",
                    help="workloads to run once per side at seed 1 with --trace 1")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD/METRIC")
    ap.add_argument("--what", default="")
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        for w in workloads:
            for ran, side in enumerate(order, 1):
                r = run_bench(roots[side], w, k, args.seconds, 0)
                runs.append({"workload": w, "seed": k, "side": side, "ran": ran, **r})
                m = (r["final_line"] or {}).get("metrics", {}).get("ops_per_s", {})
                print(f"pair {k} {w} {side}: exit {r['exit']}, ops_per_s {m.get('value')}",
                      file=sys.stderr, flush=True)
    trace = {w: {s: (run_bench(roots[s], w, 1, args.seconds, 1)["final_line"] or {}).get("metrics")
                 for s in SIDES} for w in args.trace}

    summary = summarise(runs, workloads, metrics)
    doc = {
        "what": args.what,
        "parent": args.parent_rev,
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                   f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1; each side "
                   f"run from its own checkout",
        "order": f"pairs k = 1..{args.pairs} at seed k; in each pair the workloads in the "
                 f"order {', '.join(workloads)}, each run on both sides back to back, the "
                 f"parent first when k is odd and the change first when k is even. 'ran' "
                 f"is 1 for the side that ran first in its pair",
        "verdict_rule": VERDICT_RULE,
    }
    if args.claim:
        w, m = args.claim.split("/")
        s = summary[w][m]
        higher = next(x["better"] == "higher" for x in metrics if x["name"] == m)
        doc["claim"] = {
            "workload": w,
            "metric": m,
            "parent_median": s["parent_median"],
            "change_median": s["change_median"],
            "parent_iqr": s["parent_iqr"],
            "change_better_pairs": s["change_better_pairs"],
            "pair_ratio_median": s["pair_ratio_median"],
            "met": claim_met(s, higher),
        }
    if trace:
        doc["trace"] = {"command": f"python3 bench/run.py --workload <workload> --seed 1 "
                                   f"--seconds {args.seconds:g} --trace 1", **trace}
    doc["summary"] = summary
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
