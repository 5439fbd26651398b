#!/usr/bin/env python3
"""Benchmark of the formations library, run from the root of a source tree:

    python3 perfbench/run.py --workload corpus-full --seed 1 --seconds 30 --trace 0

Workloads (a pass of each is defined in workloads.py):
  corpus-full        run_corpus over a fixed corpus shard, no lattice cache
  corpus-cached      the same with a lattice cache that set-up writes
  lattice-insoluble  subgroup lattice and maximal subgroups of A5, S5, A6

--seed is the lemma-sampler seed (RunConfig.seed) of a run's first pass;
each later pass uses a seed derived from it (pass_seed), so that a run's
figures cover several inputs. The lattice workload has no seeded input.
One closed-loop client, workers=1, pure-Python kernel: each pass runs in
a fresh interpreter started with PYTHONPATH=src and FORMATIONS_PURE=1, so
no memo table or peak-RSS figure carries over between passes. Every pass's output is checked (workloads.py) before its time counts.

--trace 0 runs passes until --seconds is used up (at least three) and reports
medians of the end-to-end metrics, except slowest_group_s, which is the
largest over groups of each group's least time over the passes; setup_s is
the median set-up time of the passes, and on corpus-cached adds the one
cache-populating pass the run makes. --trace 1 alternates two untraced and
two traced passes (on corpus-cached after one traced cache-populating
set-up) and reports per-layer metrics from the traced ones; every count
must agree between the two traced passes.

The last line of standard output is the result object; the line before it
holds the run environment, the per-pass samples and the report digests, and
is also written to .perfbench_out/ together with the spans of traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("corpus-full", "corpus-cached", "lattice-insoluble")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "frac", "slowest_group_s": "s"}

# Per-layer figures: self seconds of these spans ...
SELF_TIMES = (
    "groups.from_generators", "groups.direct_product", "groups.closure_bits",
    "groups.normal_closure_bits", "groups.core_bits", "groups.quotient",
    "groups.as_group", "lattice.all_subgroups", "lattice.normal_subgroups",
    "lattice.minimal_normal_subgroups", "lattice.chief_series",
    "formation.residual", "formation.local_membership", "formation.f_subnormal_bits",
    "structure.profile", "structure.dispersiveness",
    "theorems.verify_theorem.A", "theorems.verify_theorem.B",
    "theorems.verify_theorem.C", "theorems.verify_theorem.D",
    "theorems.verify_lemma", "theorems.classify_type",
    "harness.run_entry_checks", "harness.lemma_instances",
    "storage.load_cached_lattice", "storage.cache_lattice", "storage.report_dumps",
)
# ... call counts of these ...
CALLS = ("groups.closure_bits", "groups.normal_closure_bits", "groups.core_bits",
         "groups.quotient", "groups.as_group", "formation.member",
         "storage.load_cached_lattice")
# ... and closure counts by innermost traced caller (the rest go to "other").
CLOSURE_CALLERS = (
    "lattice.all_subgroups", "lattice.normal_subgroups", "lattice.sylow",
    "lattice.fitting", "groups.normal_closure_bits", "groups.derived_bits",
    "groups.as_group", "formation.local_membership", "theorems.verify_lemma",
)
# Figures that describe the cache-populating set-up on corpus-cached.
FROM_POPULATE = ("storage.cache_lattice.s", "storage.cache_lattice.bytes_written")


class BenchError(Exception):
    """The benchmark could not run here; no result is printed."""


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    calls, self_s, work = summary["calls"], summary["self_s"], summary["work"]
    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        m[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    m["groups.closure_bits.elements"] = (work.get("groups.closure_bits", 0), "count")
    by_caller = dict(summary["closure_by_caller"])
    for caller in CLOSURE_CALLERS:
        m[f"groups.closure_bits.calls.{caller}"] = (by_caller.pop(caller, 0), "count")
    m["groups.closure_bits.calls.other"] = (sum(by_caller.values()), "count")
    m["lattice.all_subgroups.enumerations"] = (summary["enumerations"], "count")
    m["lattice.subgroups_per_closure"] = (
        summary["enum_subgroups"] / summary["enum_closures"]
        if summary["enum_closures"] else 0.0, "ratio")
    member_calls = calls.get("formation.member", 0)
    m["formation.member.hit_frac"] = (
        1 - work.get("formation.member", 0) / member_calls if member_calls else 0.0,
        "frac")
    m["storage.load_cached_lattice.bytes_read"] = (
        work.get("storage.load_cached_lattice", 0), "bytes")
    m["storage.cache_lattice.bytes_written"] = (
        work.get("storage.cache_lattice", 0), "bytes")
    return m


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if v[1] != "s"}


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FORMATIONS_PURE="1")
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.children = 0

    def spawn(self, role="pass", trace=0, cache_dir=None, seed=None) -> dict:
        """Run one worker to completion; returns its report plus the wall
        time from starting the interpreter to its exit and to its readiness."""
        self.children += 1
        seed = self.seed if seed is None else seed
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--trace", str(trace)]
        if cache_dir:
            cmd += ["--cache-dir", str(cache_dir)]
        if trace:
            spans = OUT / f"spans-{self.workload}-{self.seed}-{role}-{self.children}.json"
            cmd += ["--spans-out", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a pass")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {role} pass did not finish within {timeout:.0f} s")
        ended = time.monotonic()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        env = out["env"]
        if env["kernel_backend"] != "python":
            raise BenchError(f"kernel backend is {env['kernel_backend']!r}, not the pure one")
        if not Path(env["formations_file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"imported formations from {env['formations_file']}")
        out["role"] = role
        out["elapsed_s"] = ended - started
        out["setup_s"] = out["ready_at"] - started
        if out["digest"] is not None:
            if self.digests.setdefault(seed, out["digest"]) != out["digest"]:
                out["failed"] = {g: "report differs from this run's first report "
                                    "at the same seed" for g in out["groups"]}
        for group, reason in out["failed"].items():
            print(f"# {role} pass: {group}: {reason}", file=sys.stderr)
        self.attempted += out["attempted"]
        self.failed += len(out["failed"])
        out["ok"] = not out["failed"]
        return out


def fresh_dir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def pass_seed(seed: int, index: int) -> int:
    """Lemma-sampler seed of a run's pass ``index``: the run's own seed
    first, then seeds drawn from it. The sampled lemma instances change the
    slowest group's time by about 7% between seeds (quartile spread over
    twelve seeds on a 2-vCPU AMD EPYC VM), so a run that repeated one seed
    would carry that variation whole into its figures."""
    return seed if index == 0 else random.Random(f"{seed}:{index}").randrange(1, 2**31)


def slowest_group(passes) -> float:
    """Each group's least time over the passes, then the largest of those.

    A single group gets no averaging inside a pass, unlike wall_s, and a
    burst of host load that falls on it moves its median over three passes
    by more than the metric's bound; its least time is the one with the
    least interference.
    """
    return max(min(p["group_s"][g] for p in passes) for g in passes[0]["group_s"])


def run_untraced(r: Runner, seconds: float):
    start = time.monotonic()
    populate_s = 0.0
    cache_dir = None
    populates = []
    passes = []
    try:
        if r.workload == "corpus-cached":
            cache_dir = fresh_dir(f"cache-{os.getpid()}")
            populates.append(r.spawn("populate", cache_dir=cache_dir))
            populate_s = populates[0]["elapsed_s"]
        while True:
            passes.append(r.spawn(cache_dir=cache_dir, seed=pass_seed(r.seed, len(passes))))
            per_pass = statistics.mean(p["elapsed_s"] for p in passes)
            remaining = start + seconds - time.monotonic()
            if len(passes) >= MIN_PASSES and (per_pass > remaining or
                                             per_pass > r.deadline - time.monotonic()):
                break
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    good = [p for p in passes if p["ok"]]
    if not good:
        return {}, populates + passes, False
    med = lambda key: statistics.median(p[key] for p in good)
    metrics = {
        "wall_s": med("wall_s"),
        "setup_s": populate_s + med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ok_frac": 1 - r.failed / r.attempted,
        "slowest_group_s": slowest_group(good),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, populates + passes, True


def run_traced(r: Runner):
    """Untraced and traced passes alternate, so the overhead figure compares
    passes that ran under the same machine load."""
    cache_dir = None
    populate = []
    untraced = []
    traced = []
    try:
        if r.workload == "corpus-cached":
            cache_dir = fresh_dir(f"cache-{os.getpid()}")
            populate.append(r.spawn("populate", trace=1, cache_dir=cache_dir))
        for _ in range(2):
            untraced.append(r.spawn(cache_dir=cache_dir))
            traced.append(r.spawn(trace=1, cache_dir=cache_dir))
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    samples = populate + untraced + traced
    per_pass = [layer_metrics(t["layers"]) for t in traced]
    # Median of each timing; a count must repeat exactly, so take the first.
    metrics = {k: (statistics.median(p[k][0] for p in per_pass) if unit == "s" else v, unit)
               for k, (v, unit) in per_pass[0].items()}
    agree = counts_of(per_pass[0]) == counts_of(per_pass[1])
    if populate:
        # The cache is written once per run: its byte count must equal what
        # the traced passes read back, which the comparison above repeats.
        written = layer_metrics(populate[0]["layers"])
        metrics.update({k: written[k] for k in FROM_POPULATE})
        agree &= (written["storage.cache_lattice.bytes_written"][0]
                  == metrics["storage.load_cached_lattice.bytes_read"][0])
    if not agree:
        print("# counts differ between the traced passes", file=sys.stderr)
    ok = agree and all(s["ok"] for s in samples)
    if ok:
        metrics["trace.overhead_frac"] = (
            statistics.median(t["wall_s"] for t in traced)
            / statistics.median(u["wall_s"] for u in untraced) - 1, "frac")
    return metrics, samples, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    begin = time.monotonic()
    if not (ROOT / "src" / "formations" / "__init__.py").is_file():
        print(f"no formations source tree under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    r = Runner(args.workload, args.seed, begin + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, samples, ok = run_traced(r)
        else:
            metrics, samples, ok = run_untraced(r, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    correct = ok and r.failed == 0
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": samples[0]["env"], "report_digests": r.digests,
        "samples": [{k: s[k] for k in ("role", "wall_s", "setup_s", "elapsed_s",
                                        "peak_rss_mb", "slowest_group_s", "failed")}
                    for s in samples],
        "run_s": time.monotonic() - begin,
    }
    text = json.dumps(info, sort_keys=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": correct, "attempted": r.attempted, "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
