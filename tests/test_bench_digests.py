"""The benchmark's outcome digests, pinned in the CI workflow, as a test.

A digest hashes every answer, stop and node count of one workload's
seeded pass, so a change that moves any of them shows here. The pins are
the workflow's BENCH_DIGESTS lines, read from the file, so they have one
definition. Each run copies bench/ into its own directory next to a link
to this checkout's src, so runs share no work directory and two of them
go at once.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# the order of the workflow's digests: bench/run.py --workload all's run order
WORKLOADS = ("solve-pairs", "segment-certs", "ingest-validate", "cli-script")


def pinned() -> dict[str, dict[str, str]]:
    """The workflow's digests by pin name and workload."""
    pins = {}
    for name, digests in re.findall(r"^\s*(BENCH_DIGESTS\w*): *(.+)$", WORKFLOW.read_text(), re.M):
        pins[name] = dict(zip(WORKLOADS, digests.split(), strict=True))
    return pins


def outcome_digest(tmp_path: Path, workload: str, seed: int, optimize: bool) -> str:
    root = tmp_path / f"{workload}-{seed}-{int(optimize)}"
    shutil.copytree(ROOT / "bench", root / "bench")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    if optimize:
        env["PYTHONOPTIMIZE"] = "1"
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    info = next(line for line in proc.stdout.splitlines() if line.startswith(f"{workload} info "))
    return json.loads(info.split(" info ", 1)[1])["outcomes_digest"]


def test_outcome_digests_match_the_workflow_pins(tmp_path) -> None:
    # seeds 1 and 2 of the in-process workloads, seed 1 again with asserts
    # stripped, and cli-script once: its digest is the same at both seeds
    pins = pinned()
    runs = [("cli-script", 1, False, "BENCH_DIGESTS")]
    for workload in WORKLOADS[:3]:
        runs += [
            (workload, 1, False, "BENCH_DIGESTS"),
            (workload, 2, False, "BENCH_DIGESTS_SEED2"),
            (workload, 1, True, "BENCH_DIGESTS"),
        ]
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(lambda r: outcome_digest(tmp_path, *r[:3]), runs))
    want = [pins[pin][workload] for workload, _, _, pin in runs]
    labels = [f"{w} seed {s}{' -O' if o else ''}" for w, s, o, _ in runs]
    assert dict(zip(labels, got)) == dict(zip(labels, want))
