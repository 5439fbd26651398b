"""The summary `scripts/bench_pairs.py` prints and writes, on fixed samples."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_fixed_samples():
    parent = [0.20, 0.21, 0.19, 0.20, 0.22, 0.20, 0.18, 0.20, 0.21, 0.20]
    change = [0.18, 0.19, 0.18, 0.18, 0.20, 0.20, 0.19, 0.17, 0.18, 0.18]
    s = bench_pairs.summarize(parent, change, "lower", 0.24)
    assert s == {
        "parent_median": 0.2, "parent_quartiles": [0.2, 0.2075],
        "change_median": 0.18, "change_quartiles": [0.18, 0.19],
        "change_lower_in": 8, "change_higher_in": 1,  # a tie in pair 5
        "relative_change": -0.1, "within_bound": True,
    }


def test_within_bound_counts_the_worse_direction():
    summarize = bench_pairs.summarize
    assert not summarize([1.0] * 3, [1.3] * 3, "lower", 0.24)["within_bound"]
    assert summarize([1.0] * 3, [1.3] * 3, "higher", 0.24)["within_bound"]
    assert not summarize([1.0] * 3, [0.98] * 3, "higher", 0.01)["within_bound"]
    assert summarize([0.0] * 3, [0.0] * 3, "lower", 0.1)["relative_change"] == 0.0
