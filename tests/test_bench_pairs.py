"""tools/bench_pairs.py: the verdict of each end-to-end metric and the
claim rule, on hand-made runs. Every BENCH_*.json verdict rests on them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs by seed: median 104.5, quartiles 102.25 and 106.75
PARENT = {seed: 99.0 + seed for seed in range(1, 11)}


def summary(change: list[float], higher: bool = False, parent=PARENT, bound: float = 0.25):
    return bench_pairs.metric_summary(parent, dict(zip(sorted(parent), change)), higher, bound)


def verdict(*args, **kwargs) -> str:
    return summary(*args, **kwargs)["verdict"].split(":")[0]


class TestVerdicts:
    def test_parent_quartiles(self) -> None:
        s = summary(list(PARENT.values()))
        assert (s["parent_median"], s["parent_quartiles"], s["parent_iqr"]) == (
            104.5, [102.25, 106.75], 4.5
        )

    def test_every_change_run_better(self) -> None:
        assert verdict([v - 10 for v in PARENT.values()]) == "better"
        assert verdict([v + 10 for v in PARENT.values()], higher=True) == "better"

    def test_one_overlap_is_not_better(self) -> None:
        change = [v - 10 for v in PARENT.values()]
        change[0] = 100.0  # ties the parent's best run
        assert verdict(change) == "no worse"

    def test_parent_spread_past_the_bound_is_unresolved(self) -> None:
        wide = {seed: 10.0 * seed for seed in range(1, 11)}  # IQR 45 on a median of 55
        assert verdict([2 * v for v in wide.values()], parent=wide) == "unresolved"

    def test_no_worse(self) -> None:
        assert verdict(list(PARENT.values())) == "no worse"
        assert verdict([v + 1 for v in PARENT.values()], higher=True) == "no worse"

    @pytest.mark.parametrize("higher", [False, True])
    def test_within_and_beyond_the_bound(self, higher: bool) -> None:
        # worse by a tenth, then by a half, of the parent's median
        for factor, want in ((0.1, "within the bound"), (0.5, "worse beyond the bound")):
            change = [v * (1 - factor if higher else 1 + factor) for v in PARENT.values()]
            s = summary(change, higher)
            assert s["verdict"] == want
            assert s["change_worse_by"] == pytest.approx(factor)


class TestClaimRule:
    def met(self, change: list[float], higher: bool = False) -> bool:
        return bench_pairs.claim_met(summary(change, higher), higher)

    def test_ten_better_pairs_past_the_iqr(self) -> None:
        assert self.met([v - 10 for v in PARENT.values()])
        assert self.met([v + 10 for v in PARENT.values()], higher=True)
        assert not self.met([v + 10 for v in PARENT.values()])

    def test_nine_of_ten_pairs_with_a_tie(self) -> None:
        change = [v - 10 for v in PARENT.values()]
        change[-1] = PARENT[10]  # a tie
        assert summary(change)["change_better_pairs"] == "9/10"
        assert self.met(change)

    def test_ties_count_for_neither(self) -> None:
        change = [v - 10 for v in PARENT.values()]
        change[-2:] = [PARENT[9], PARENT[10]]  # two ties: 8 of 10 better
        assert summary(change)["change_better_pairs"] == "8/10"
        assert not self.met(change)
        change[-2] = PARENT[9] + 1  # a tie and a worse pair
        assert not self.met(change)

    def test_gap_must_exceed_the_parent_iqr(self) -> None:
        # better on every pair, but the medians differ by 4.5, the IQR itself
        assert summary([v - 4.5 for v in PARENT.values()])["change_better_pairs"] == "10/10"
        assert not self.met([v - 4.5 for v in PARENT.values()])
        assert self.met([v - 4.6 for v in PARENT.values()])
