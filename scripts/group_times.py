#!/usr/bin/env python3
"""Per-group times of one benchmark workload, slowest first:

    python3 scripts/group_times.py lattice-insoluble --passes 5

Runs N passes of the workload in this interpreter, each as perfbench runs
it (`perfbench/workloads.py`: the same groups, pass function and output
check), and prints each group's least time over the passes with its name.
So it names the group behind perfbench's `slowest_group_s`, which is the
largest of these. corpus-cached first makes one uncounted pass that writes
the lattice cache into a temporary directory. Corpus passes use the pinned
lemma-sampler seed. Later passes reuse what the interpreter has loaded, so
the figures are not perfbench's, which starts each pass afresh.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import (LATTICE_GROUPS, SHARD, check_corpus,  # noqa: E402
                       check_lattice, corpus_pass, lattice_pass, load_pins)

WORKLOADS = ("corpus-full", "corpus-cached", "lattice-insoluble")


def group_times(workload: str, passes: int) -> dict[str, float]:
    """Each group's least seconds over `passes` checked passes."""
    from formations.storage import builtin_corpus_path, load_corpus

    pins = load_pins()
    names = LATTICE_GROUPS if workload == "lattice-insoluble" else SHARD
    entries = [e for e in load_corpus(builtin_corpus_path()) if e.name in names]
    best: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="group_times-") as tmp:
        cache_dir = tmp if workload == "corpus-cached" else None
        if cache_dir:
            corpus_pass(entries, pins["default_seed"], cache_dir)
        for _ in range(passes):
            if workload == "lattice-insoluble":
                result = lattice_pass(entries)
                bad = check_lattice(result, pins)
            else:
                result = corpus_pass(entries, pins["default_seed"], cache_dir)
                bad = check_corpus(result, pins["default_seed"], pins)
            if bad:
                raise SystemExit(f"wrong output: {bad}")
            for name, s in result["group_s"].items():
                best[name] = min(s, best.get(name, s))
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    best = group_times(args.workload, args.passes)
    for name, s in sorted(best.items(), key=lambda kv: -kv[1]):
        print(f"{s:.5f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
