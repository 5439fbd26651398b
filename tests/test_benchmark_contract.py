"""The benchmark worker still runs against the library.

`perfbench/worker.py` reaches into the library by name: its tracer wraps the
functions listed in `tracer.SPANS`, and it reads `RunConfig(cache_dir=...)`
and `formations.KERNEL_BACKEND`. These tests run one pass of two workloads
the way `perfbench/run.py` starts them, so that removing something the
benchmark uses fails here. The worker imports numpy, so they skip without it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parent.parent
PINNED_SEED = 20260809  # perfbench/pins.json's default_seed


def worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corpus_full_pass_matches_pins():
    """At the pinned seed the worker checks every group's rows and the
    shard's report digest against perfbench's pins."""
    out = worker("--workload", "corpus-full", "--seed", str(PINNED_SEED))
    assert out["failed"] == {}
    assert out["digest"] is not None


def test_traced_lattice_pass(tmp_path):
    """The tracer finds every function it wraps, and a traced pass reports
    per-layer figures."""
    spans = tmp_path / "spans.json"
    out = worker("--workload", "lattice-insoluble", "--seed", "1", "--trace", "1",
                 "--spans-out", str(spans))
    assert out["failed"] == {}
    assert out["layers"]
    assert spans.stat().st_size > 0
