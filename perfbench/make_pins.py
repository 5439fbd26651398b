#!/usr/bin/env python3
"""Regenerate ``pins.json``, the expected outputs the benchmark checks, and
print how well ``SHARD`` stands in for the whole corpus.

    PYTHONPATH=src FORMATIONS_PURE=1 python3 perfbench/make_pins.py

Runs the full shipped corpus at the default seed under the tracer (about a
minute with the pure-Python kernel) and refuses to write anything unless its
report has the digest pinned in ROADMAP.md. A run over ``SHARD`` alone must
give the same rows as the full run for each of its groups; its per-group row
digests and report digest are the pins. Lattice expectations come from one
lattice pass; A5, S5 and A6 must have the known 59, 156 and 501 subgroups.

The layer table it prints has each layer's share of traced time in the full
run, in the shard's groups of that run, and in the shard run itself; closure
time is split by the layer that issued the closure.
"""

import hashlib
import json
import sys

from tracer import CLOSURE, Tracer, self_times
from workloads import (LATTICE_GROUPS, PINS_PATH, SHARD, group_digests,
                       lattice_pass)

REPORT_DIGEST = "8254b8a138fee98a25ce11bab82ea60c47d727ed5ef0e7d30842f4463107202e"
SUBGROUP_COUNTS = {"A5": 59, "S5": 156, "A6": 501}


def layer_seconds(spans, groups=None) -> dict[str, float]:
    """Self seconds per layer, over the spans of ``groups`` (all if None)."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name, parent, group = span[0], span[3], span[4]
        if groups is not None and group not in groups:
            continue
        if name == CLOSURE:
            name += " <- " + (spans[parent][0] if parent >= 0 else "top")
        out[name] = out.get(name, 0.0) + own
    return out


def print_mix(columns: dict[str, dict[str, float]]) -> None:
    shares = {}
    for title, secs in columns.items():
        total = sum(secs.values())
        shares[title] = {k: v / total for k, v in secs.items()}
        print(f"# {title}: {total:.2f} s traced")
    first = next(iter(shares.values()))
    print(f"{'layer':55s}" + "".join(f"{t[:14]:>15s}" for t in shares))
    for name in sorted(first, key=first.get, reverse=True):
        print(f"{name:55s}" + "".join(f"{100 * s.get(name, 0.0):14.2f}%" for s in shares.values()))
    for title, s in list(shares.items())[1:]:
        l1 = sum(abs(s.get(k, 0.0) - first.get(k, 0.0)) for k in set(s) | set(first))
        print(f"# sum of |share difference| from the full corpus, {title}: {l1:.4f}")


def main() -> int:
    from formations.harness import DEFAULT_SEED, RunConfig, run_corpus
    from formations.storage import builtin_corpus_path, load_corpus, report_dumps

    corpus = load_corpus(builtin_corpus_path())
    tracer = Tracer()
    tracer.install()
    full = run_corpus(corpus, cfg=RunConfig(seed=DEFAULT_SEED), detail=True)
    digest = hashlib.sha256(report_dumps(full).encode()).hexdigest()
    if digest != REPORT_DIGEST:
        print(f"full-corpus digest {digest} != pinned {REPORT_DIGEST}", file=sys.stderr)
        return 1
    groups = group_digests(full)
    mix = {"full corpus": layer_seconds(tracer.spans, set(full["groups"])),
           "shard in full": layer_seconds(tracer.spans, set(SHARD))}

    tracer.spans.clear()
    shard = run_corpus([e for e in corpus if e.name in SHARD],
                       cfg=RunConfig(seed=DEFAULT_SEED), detail=True)
    mix["shard alone"] = layer_seconds(tracer.spans, set(SHARD))
    shard_groups = group_digests(shard)
    for name, digests in shard_groups.items():
        if digests != groups[name]:
            print(f"{name}: shard rows differ from the full run", file=sys.stderr)
            return 1
    print_mix(mix)

    lat = lattice_pass([e for e in corpus if e.name in LATTICE_GROUPS])
    if lat["errors"] or any(lat["found"][n]["subgroups"] != c
                            for n, c in SUBGROUP_COUNTS.items()):
        print(f"lattice pass: {lat['errors'] or lat['found']}", file=sys.stderr)
        return 1

    pins = {
        "default_seed": DEFAULT_SEED,
        "report_digest": REPORT_DIGEST,
        "shard": list(SHARD),
        "shard_digest": hashlib.sha256(report_dumps(shard).encode()).hexdigest(),
        "groups": shard_groups,
        "lattice": lat["found"],
    }
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
