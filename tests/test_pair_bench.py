"""The summary arithmetic of ``scripts/pair_bench.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

PAIR_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "pair_bench.py"


def load_pair_bench():
    spec = importlib.util.spec_from_file_location("pair_bench", PAIR_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(job_s, ops, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"job_s": {"value": job_s, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


END_TO_END = [{"name": "job_s", "better": "lower", "bound": 0.25},
              {"name": "ops_per_s", "better": "higher", "bound": 0.25},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def test_parse_seeds_reads_ranges_and_single_seeds():
    assert load_pair_bench().parse_seeds("3101-3103,3107") == [3101, 3102, 3103, 3107]


def test_summary_of_four_pairs():
    pb = load_pair_bench()
    parent = [run(1.0, 8.0), run(2.0, 8.0), run(3.0, 8.0), run(4.0, 8.0, failed=1)]
    change = [run(0.5, 5.0), run(1.5, 5.0), run(3.5, 9.0, correct=False), run(2.5, 5.0)]
    out = pb.summarize([1, 2, 3, 4], [True, False, True, False], parent, change, END_TO_END)
    assert out["pairs"] == 4 and out["seeds"] == [1, 2, 3, 4]
    assert out["parent_first"] == [True, False, True, False]
    assert out["all_correct"] == {"parent": True, "change": False}
    assert out["attempted_failed"] == {"parent": [40, 1], "change": [40, 0]}
    assert list(out["metrics"]) == ["job_s", "ops_per_s"]  # setup_s is not reported

    job = out["metrics"]["job_s"]
    assert job["parent"] == [1.0, 2.0, 3.0, 4.0]
    assert job["parent_quartiles"] == [1.75, 2.5, 3.25]
    assert job["change_quartiles"] == [1.25, 2.0, 2.75]
    assert job["ratio"] == pytest.approx(0.8)
    assert job["change_better_pairs"] == 3
    # the 0.5 gap between medians is inside the parent's 1.5 interquartile distance
    assert job["median_gap_beyond_parent_iqr"] is False
    assert job["worse_than_bound"] is False

    ops = out["metrics"]["ops_per_s"]
    assert ops["ratio"] == pytest.approx(5.0 / 8.0)
    assert ops["change_better_pairs"] == 1
    assert ops["median_gap_beyond_parent_iqr"] is True  # parent's spread is 0
    assert ops["worse_than_bound"] is True  # 0.625x of a higher-better metric


def test_a_lower_better_metric_is_worse_than_its_bound_past_it():
    pb = load_pair_bench()
    parent = [run(1.0, 8.0)] * 3
    for job_s, worse in ((1.25, False), (1.26, True)):
        out = pb.summarize([1, 2, 3], [True, False, True], parent, [run(job_s, 8.0)] * 3,
                           END_TO_END)
        assert out["metrics"]["job_s"]["worse_than_bound"] is worse
