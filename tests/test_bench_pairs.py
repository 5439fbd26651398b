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
        "gain_shown": False,  # lower in 8 pairs, not 9
    }


def test_within_bound_counts_the_worse_direction():
    summarize = bench_pairs.summarize
    assert not summarize([1.0] * 3, [1.3] * 3, "lower", 0.24)["within_bound"]
    assert summarize([1.0] * 3, [1.3] * 3, "higher", 0.24)["within_bound"]
    assert not summarize([1.0] * 3, [0.98] * 3, "higher", 0.01)["within_bound"]
    assert summarize([0.0] * 3, [0.0] * 3, "lower", 0.1)["relative_change"] == 0.0


def test_gain_shown_needs_nine_wins_and_a_gap_beyond_the_parent_iqr():
    summarize = bench_pairs.summarize
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # quartiles 0.9925, 1.0075
    faster = [p - 0.05 for p in parent]
    assert summarize(parent, faster, "lower", 0.24)["gain_shown"]
    assert not summarize(parent, faster, "higher", 0.24)["gain_shown"]
    assert summarize(faster, parent, "higher", 0.24)["gain_shown"]
    # nine wins and one loss still show it; eight wins and two ties do not
    assert summarize(parent, faster[:9] + [1.10], "lower", 0.24)["gain_shown"]
    assert not summarize(parent, faster[:8] + parent[8:], "lower", 0.24)["gain_shown"]
    # winning every pair by less than the parent's own spread shows nothing
    assert not summarize(parent, [p - 0.01 for p in parent], "lower", 0.24)["gain_shown"]
