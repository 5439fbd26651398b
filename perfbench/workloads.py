"""The benchmark's workloads: one pass of each, and the check of its output.

A corpus pass is one ``run_corpus`` call over ``SHARD`` plus ``report_dumps``
of its detailed report, which is what ``formations corpus --suite full
--format json`` does. The whole 97-group corpus takes about a minute per pass
with the pure-Python kernel, so a run of it would not fit the time a run of
the benchmark is given. ``SHARD`` is a sixth of the corpus by time, chosen so
that its layer mix matches the corpus's: in a traced full-corpus pass, each
group's self seconds per layer (closure time split by the layer that issued
the closure) were summed over candidate subsets of 8.5-9.8 s, and the subset
whose layer shares were closest to the whole corpus's, by the sum of absolute
differences, was kept. ``make_pins.py`` prints the shares of the corpus and of
the shard each time it runs. Normal-closure work is about 63% of the time in
both, subgroup enumeration 21% and group construction 8%. C210 is the
shard's slowest group, as C420 is the corpus's.

A lattice pass is what ``formations lattice`` does for A5, S5 and A6.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

SHARD = ("A4xC5", "C11:C5", "C15", "C210", "C3:C8", "D10xFrob21", "F20",
         "F20xC21", "Frob21xC2", "G18", "He3xC2", "S3", "S3xC5", "S3xS3", "S4",
         "S6")
LATTICE_GROUPS = ("A5", "S5", "A6")
SEED_FREE = "lemma-suite"   # the only check whose instances depend on the seed

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rows_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rows_by_group(report: dict) -> dict[str, list]:
    out: dict[str, list] = {name: [] for name in report["groups"]}
    for row in report["results"]:
        out[row["group"]].append(row)
    return out


def group_digests(report: dict) -> dict[str, dict[str, str]]:
    """Per group: digest of all its rows, and of the rows that do not
    depend on the lemma-sampler seed."""
    return {name: {"rows": rows_digest(rows),
                   "seed_free_rows": rows_digest(
                       [r for r in rows if r["suite_check"] != SEED_FREE])}
            for name, rows in rows_by_group(report).items()}


# ---------------------------------------------------------------------------
# corpus workloads


def corpus_pass(entries, seed: int, cache_dir) -> dict:
    """One timed run_corpus pass; per-group seconds come from timing each
    ``run_entry_checks`` call, which is how run_corpus visits a group."""
    from formations import harness
    from formations.harness import RunConfig, run_corpus
    from formations.storage import report_dumps

    group_s: dict[str, float] = {}
    inner = harness.run_entry_checks

    def timed(entry, checks, cfg):
        t0 = time.perf_counter()
        try:
            return inner(entry, checks, cfg)
        finally:
            group_s[entry.name] = time.perf_counter() - t0

    harness.run_entry_checks = timed
    try:
        t0 = time.perf_counter()
        report = run_corpus(entries, cfg=RunConfig(seed=seed, cache_dir=cache_dir),
                            detail=True)
        text = report_dumps(report)
        wall = time.perf_counter() - t0
    finally:
        harness.run_entry_checks = inner
    return {"wall_s": wall, "group_s": group_s, "report": report,
            "digest": hashlib.sha256(text.encode()).hexdigest()}


def check_corpus(result: dict, seed: int, pins: dict) -> dict[str, str]:
    """Groups whose output is wrong, with the reason.

    Every seed: the seed-free rows of each group match the pin, and no lemma
    instance with its hypotheses met fails its conclusion (the lemmas are
    theorems, so a failure is a defect). At the pinned seed: each group's
    rows and the digest of the whole report match the pins, which were taken
    from a full-corpus run that reproduces the ROADMAP report digest.
    """
    report = result["report"]
    pinned = pins["groups"]
    bad: dict[str, str] = {}
    for name, digests in group_digests(report).items():
        want = pinned.get(name)
        if want is None:
            bad[name] = "no pin for this group"
        elif digests["seed_free_rows"] != want["seed_free_rows"]:
            bad[name] = "seed-free rows differ from the pin"
        elif seed == pins["default_seed"] and digests["rows"] != want["rows"]:
            bad[name] = "rows differ from the pin"
    for row in report["results"]:
        if row.get("hypotheses_met") and row.get("conclusion_holds") is False:
            bad.setdefault(row["group"], f"{row['check']} failed: {row.get('witness')}")
    if report.get("status") != "ok":
        bad.setdefault("*", f"report status {report.get('status')!r}")
    if seed == pins["default_seed"] and result["digest"] != pins["shard_digest"]:
        bad.setdefault("*", "report digest differs from the pin")
    if "*" in bad:
        reason = bad.pop("*")
        for name in report["groups"]:
            bad.setdefault(name, reason)
    return bad


# ---------------------------------------------------------------------------
# lattice workload


def lattice_pass(entries, tracer=None) -> dict:
    """Build each group from its corpus spec, enumerate its subgroup lattice
    and take the maximal subgroups of the top, as ``formations lattice``
    does. A group that raises is recorded and the pass goes on."""
    from formations.dsl import parse_group
    from formations.lattice import all_subgroups

    group_s: dict[str, float] = {}
    found: dict[str, dict] = {}
    errors: dict[str, str] = {}
    t0 = time.perf_counter()
    for entry in entries:
        if tracer is not None:
            tracer.group = entry.name
        g0 = time.perf_counter()
        try:
            g = parse_group(entry.spec, name=entry.name)
            lat = all_subgroups(g)
            maximal = lat.maximal_subgroups(g.full_subgroup())
            found[entry.name] = {
                "subgroups": len(lat.subgroups),
                "maximal_orders": sorted((m.order for m in maximal), reverse=True)}
        except Exception as exc:  # a failed group is counted, not fatal
            errors[entry.name] = f"{type(exc).__name__}: {exc}"
        group_s[entry.name] = time.perf_counter() - g0
    return {"wall_s": time.perf_counter() - t0, "group_s": group_s,
            "found": found, "errors": errors}


def check_lattice(result: dict, pins: dict) -> dict[str, str]:
    bad = dict(result["errors"])
    for name, want in pins["lattice"].items():
        got = result["found"].get(name)
        if name not in bad and got != want:
            bad[name] = f"expected {want}, got {got}"
    return bad
