#!/usr/bin/env python3
"""Compare two revisions with perfbench in alternating pairs:

    python3 scripts/bench_pairs.py PARENT CHANGE --seed-base 141 \\
        --out BENCH_topic.json

Each revision is extracted with `git archive` into its own directory, and
`perfbench/run.py --seconds 30 --trace 0` runs from each tree in turn, 10
pairs per workload: the parent first in even pairs and the change first in
odd pairs, with seed = seed-base + pair on both sides. Workloads run one
after another, in the order given.

For every workload and end-to-end metric of BENCHMARK.json this prints,
and writes to --out, the summary the BENCH_*.json files carry: both
medians, inclusive quartiles, the number of pairs in which the change read
lower and higher (ties count for neither), the relative change of the
median, and whether that change stays within the metric's bound in the
direction that is worse. Every pair's figures are written as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SECONDS = 30


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary of one metric over paired runs (parent[i] with change[i]).

    `relative_change` is change median / parent median - 1 (the difference
    itself when the parent median is 0); `within_bound` holds when that
    change, counted in the direction `better` calls worse, is at most bound.
    """
    pm, cm = statistics.median(parent), statistics.median(change)
    rel = cm / pm - 1 if pm else cm - pm
    worse = rel if better == "lower" else -rel
    return {
        "parent_median": round(pm, 5),
        "parent_quartiles": _quartiles(parent),
        "change_median": round(cm, 5),
        "change_quartiles": _quartiles(change),
        "change_lower_in": sum(c < p for p, c in zip(parent, change)),
        "change_higher_in": sum(c > p for p, c in zip(parent, change)),
        "relative_change": round(rel, 4),
        "within_bound": worse <= bound,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 5)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 5), round(q3, 5)]


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run from a source tree: its end-to-end metrics plus
    whether every output checked correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise SystemExit(f"perfbench printed nothing in {tree}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {k: round(v["value"], 5) for k, v in out["metrics"].items()}
    row.update(correct=out["correct"], failed=out["failed"], attempted=out["attempted"])
    return row


def extract(rev: str, into: Path) -> Path:
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    doc = {"command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {SECONDS} --trace 0, run from a git archive "
                      "of each revision",
           "revisions": {"parent": args.parent, "change": args.change},
           "protocol": f"{PAIRS} pairs per workload, parent first in even pairs "
                       "and change first in odd pairs; seed = "
                       f"{args.seed_base} + pair on both sides; quartiles are the "
                       "inclusive 25th and 75th percentiles",
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: extract(rev, Path(tmp) / side)
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        for workload in workloads:
            pairs = []
            for pair in range(PAIRS):
                seed = args.seed_base + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                row = {"pair": pair, "first": order[0], "seed": seed}
                for side in order:
                    row[side] = run_side(trees[side], workload, seed)
                pairs.append(row)
                print(f"# {workload} pair {pair}: " + ", ".join(
                    f"{side} wall_s {row[side]['wall_s']}" for side in SIDES),
                    file=sys.stderr, flush=True)
            summary = {m["name"]: summarize([p["parent"][m["name"]] for p in pairs],
                                            [p["change"][m["name"]] for p in pairs],
                                            m["better"], m["bound"])
                       for m in metrics}
            doc["workloads"][workload] = {"summary": summary, "pairs": pairs}
            for name, s in summary.items():
                print(f"{workload} {name}: {s['parent_median']} -> {s['change_median']} "
                      f"({s['relative_change']:+.2%}), parent IQR {s['parent_quartiles']}, "
                      f"change IQR {s['change_quartiles']}, lower in "
                      f"{s['change_lower_in']}/{len(pairs)}, higher in "
                      f"{s['change_higher_in']}/{len(pairs)}, within bound: "
                      f"{s['within_bound']}", flush=True)
            if args.out:
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
