#!/usr/bin/env python3
"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

Set-up (imports, corpus load) ends when the pass is ready to start; the
worker reports that moment on the monotonic clock, which run.py compares with
the moment it started the interpreter. A corpus pass with --cache-dir reads
the lattice cache there and writes the lattices it lacks, so one pass into an
empty directory is the cache-populating set-up of corpus-cached. With
--trace 1 the tracer is installed during set-up, spans are written to
--spans-out, and their summary is returned.

The last line of standard output is one JSON object with the measurements.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import (LATTICE_GROUPS, SHARD, check_corpus, check_lattice,
                       corpus_pass, lattice_pass, load_pins)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import numpy
    import formations
    from formations.storage import builtin_corpus_path, load_corpus

    env = {"kernel_backend": formations.KERNEL_BACKEND,
           "formations_file": formations.__file__,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": os.cpu_count(), "cpu": cpu_model()}
    pins = load_pins()
    corpus = load_corpus(builtin_corpus_path())
    names = LATTICE_GROUPS if args.workload == "lattice-insoluble" else SHARD
    entries = [e for e in corpus if e.name in names]
    if len(entries) != len(names):
        raise SystemExit(f"corpus lacks some of {names}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready_at = time.monotonic()

    try:
        if args.workload == "lattice-insoluble":
            result = lattice_pass(entries, tracer)
            bad = check_lattice(result, pins)
        else:
            result = corpus_pass(entries, args.seed, args.cache_dir)
            bad = check_corpus(result, args.seed, pins)
    except Exception as exc:  # a pass that raises fails every group in it
        traceback.print_exc()
        result = {"wall_s": None, "group_s": {}}
        bad = {e.name: f"pass raised {type(exc).__name__}: {exc}" for e in entries}

    out = {
        "ready_at": ready_at,
        "wall_s": result["wall_s"],
        "group_s": result["group_s"],
        "slowest_group_s": max(result["group_s"].values(), default=None),
        "attempted": len(entries),
        "groups": [e.name for e in entries],
        "failed": bad,
        "digest": result.get("digest"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": env,
    }
    if tracer is not None:
        from tracer import summarize
        out["layers"] = summarize(tracer.spans)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
