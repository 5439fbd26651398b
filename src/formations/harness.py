"""Corpus harness: run theorem/lemma checks over many groups and aggregate
machine-readable results with witnesses, vacuity counts, skips, and the
errors of checks that raised.

Work items are independent per group; with workers > 1 they run in a process
pool and the merge is order-independent, so reports stay byte-identical
across runs either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .arith import prime_divisors
from .dsl import parse_group
from .errors import (CorpusParseError, FormationsError, InvalidParams,
                     LatticeExceedsCap)
from .formation import (BUILTINS, NILPOTENT, f_subnormal_bits,
                        local_membership, member, p_groups)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup
from .lattice import all_subgroups, normal_subgroups
from .storage import CorpusEntry, cache_lattice, load_cached_lattice
from .structure import dispersiveness, profile
from .theorems import (TheoremReport, classify_type, verify_lemma,
                       verify_theorem)

DEFAULT_SEED = 20260809
LEMMA_GROUPS_MAX_ORDER = 400   # lattice-heavy lemma sampling bound
LEMMA_INSTANCES_PER_GROUP = 4


@dataclass
class RunConfig:
    seed: int = DEFAULT_SEED
    workers: int = 1
    cache_dir: Optional[str] = None
    order_cap: int = DEFAULT_ORDER_CAP

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidParams(f"need workers >= 1, got {self.workers}")


# ---------------------------------------------------------------------------
# checks


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    kind: str            # "theorem" | "lemma" | "satellite" | "classify" | "mann"
    grid: tuple = ()


def theorem_grid_a() -> tuple:
    return tuple((f_name, r, n)
                 for f_name, r in (("N", 0), ("U", 1), ("N^2", 1), ("N^3", 2))
                 for n in (1, 2, 3, 4))


def full_suite() -> list[CheckSpec]:
    return [
        CheckSpec("satellite-crosscheck", "satellite", ("N", "U", "N^2", "S")),
        CheckSpec("theorem-A", "theorem", theorem_grid_a()),
        CheckSpec("theorem-B", "theorem", tuple((fn, None, n) for fn in ("N", "U") for n in (1, 2, 3))),
        CheckSpec("theorem-C", "theorem", tuple((fn, None, None) for fn in ("N", "U"))),
        CheckSpec("theorem-D", "theorem", tuple((fn, None, n) for fn in ("N", "U") for n in (1, 2, 3))),
        CheckSpec("mann-subnormal", "mann", (1, 2, 3)),
        CheckSpec("lemma-suite", "lemma",
                  ("2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2", "2.3", "2.7",
                   "2.9", "2.10", "2.13", "2.14", "2.15")),
        CheckSpec("classify-structural", "classify", (("Frob21", "N", 2),)),
    ]


def smoke_suite() -> list[CheckSpec]:
    return [
        CheckSpec("satellite-crosscheck", "satellite", ("N", "U")),
        CheckSpec("theorem-C", "theorem", (("N", None, None), ("U", None, None))),
    ]


SUITES = {"full": full_suite, "smoke": smoke_suite}


# ---------------------------------------------------------------------------
# lemma instance samplers


def _rng_for(seed: int, lemma_id: str, gname: str) -> random.Random:
    return random.Random(f"{seed}:{lemma_id}:{gname}")


def _sample(rng: random.Random, pool: list, k: int) -> list:
    if len(pool) <= k:
        return list(pool)
    return rng.sample(pool, k)


def lemma_instances(lemma_id: str, g: FiniteGroup, seed: int, k: int) -> list[dict]:
    """Bound parameters for up to k instances of the lemma on this group."""
    rng = _rng_for(seed, lemma_id, g.name)
    hered = [BUILTINS["N"], BUILTINS["U"], BUILTINS["S"], BUILTINS["N^2"]]

    if lemma_id in ("2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2", "2.3", "2.15"):
        lat = all_subgroups(g)
        out = []
        for f in _sample(rng, hered, 2):
            if lemma_id == "2.2":
                out.append({"f": f})
            elif lemma_id == "2.3":
                out.append({"f": f, "n": rng.choice((1, 2))})
            elif lemma_id == "2.1.4":
                pool = [s.bits for s in lat.subgroups]
                out.extend({"f": f, "k_bits": b} for b in _sample(rng, pool, k))
            elif lemma_id == "2.15":
                pool = [s.bits for s in lat.subgroups]
                for hb in _sample(rng, pool, k):
                    supers = [s.bits for s in lat.subgroups if s.bits & hb == hb]
                    out.append({"f": f, "h_bits": hb, "m_bits": rng.choice(supers)})
            else:
                good = sorted(f_subnormal_bits(g, f))
                pool = [s.bits for s in lat.subgroups]
                for hb in _sample(rng, good, k):
                    if lemma_id == "2.1.1":
                        out.append({"f": f, "h_bits": hb, "k_bits": rng.choice(pool)})
                    elif lemma_id == "2.1.2":
                        nb = rng.choice([s.bits for s in normal_subgroups(g)])
                        out.append({"f": f, "h_bits": hb, "n_bits": nb})
                    else:  # 2.1.3
                        kb = rng.choice(sorted(f_subnormal_bits(g, f, Subgroup(g, hb))))
                        out.append({"f": f, "h_bits": hb, "k_bits": kb})
        return out

    if lemma_id in ("2.4", "2.5"):
        return [{"f": f} for f in _sample(rng, hered, 2)]
    if lemma_id in ("2.7", "2.14"):
        pool = [s.bits for s in normal_subgroups(g)]
        if lemma_id == "2.7":
            pool = [b for b in pool if len(prime_divisors(b.bit_count())) == 1 and b != 1]
        fs = [BUILTINS["N"], BUILTINS["U"], BUILTINS["N^2"], BUILTINS["S"]]
        return [{"f": f, "e_bits": b}
                for f in _sample(rng, fs, 2) for b in _sample(rng, pool, k)]
    if lemma_id == "2.9":
        lat = all_subgroups(g)
        subs = lat.subgroups
        pairs = [(subs[i].bits, subs[j].bits) for i, j in lat.factorizations()]
        xs = tuple(_sample(rng, list(range(g.order)), 4))
        return [{"a_bits": ab, "b_bits": bb, "xs": xs} for ab, bb in _sample(rng, pairs, k)]
    if lemma_id == "2.10":
        fs = [NILPOTENT] + [p_groups(p) for p in g.pi()][:2]
        return [{"f": f} for f in _sample(rng, fs, 2)]
    if lemma_id == "2.13":
        _, wit = dispersiveness(g)
        orderings = []
        if wit:
            orderings.append(wit)
            if len(wit) > 1:
                alt = list(wit)
                rng.shuffle(alt)
                orderings.append(tuple(alt))
        return [{"ordering": o} for o in orderings]
    if lemma_id == "3.4":
        return [{"f": BUILTINS["N"], "r": 0, "p": 2}, {"f": BUILTINS["N^2"], "r": 1, "p": 2}]
    if lemma_id == "3.7":
        return [{"n": n} for n in (1, 2)]
    return [{}]


# ---------------------------------------------------------------------------
# per-group evaluation


def _build_entry(entry: CorpusEntry, cfg: RunConfig) -> FiniteGroup:
    return parse_group(entry.spec, name=entry.name, cap=cfg.order_cap)


def run_entry_checks(entry: CorpusEntry, checks: Sequence[CheckSpec],
                     cfg: RunConfig) -> list[dict]:
    """All check results for one corpus entry (deterministic order). An
    exception outside the checks (building the group, its lattice cache)
    becomes one error row per check, and the run goes on; a file error
    (`OSError`, say an unusable cache directory) still ends the run."""
    try:
        return _entry_rows(entry, checks, cfg)
    except OSError:
        raise
    except Exception as exc:
        return [_error(c.check_id, entry.name, exc) for c in checks]


def _entry_rows(entry: CorpusEntry, checks: Sequence[CheckSpec], cfg: RunConfig) -> list[dict]:
    try:
        g = _build_entry(entry, cfg)
    except FormationsError as exc:
        return [_skip(c.check_id, entry.name, f"build failed: {exc}") for c in checks]
    loaded_from_cache = False
    if cfg.cache_dir:
        try:
            loaded_from_cache = load_cached_lattice(g, cfg.cache_dir) is not None
        except FormationsError:
            pass

    out: list[dict] = []
    for check in checks:
        out.extend(_run_one_check(g, check, cfg))

    if cfg.cache_dir and not loaded_from_cache and g._lattice is not None:
        cache_lattice(g, g._lattice, cfg.cache_dir)
    return out


def _result(rep: TheoremReport, suite_check: str) -> dict:
    doc = rep.to_json()
    doc["suite_check"] = suite_check
    return doc


def _skip(check_id, gname, reason) -> dict:
    return {"check": check_id, "suite_check": check_id, "group": gname, "skip": reason}


def _error(check_id, gname, exc: Exception) -> dict:
    return {"check": check_id, "suite_check": check_id, "group": gname,
            "error": f"{type(exc).__name__}: {exc}"}


def _run_one_check(g, check: CheckSpec, cfg: RunConfig) -> list[dict]:
    """The rows of one check on one group. A lattice cap hit anywhere in
    the check becomes one skip row in place of its rows, any other
    exception one error row, and the run goes on."""
    try:
        return _check_rows(g, check, cfg)
    except LatticeExceedsCap:
        return [_skip(check.check_id, g.name, "lattice cap")]
    except Exception as exc:
        return [_error(check.check_id, g.name, exc)]


def _check_rows(g, check: CheckSpec, cfg: RunConfig) -> list[dict]:
    out = []
    if check.kind == "satellite":
        for fname in check.grid:
            f = BUILTINS[fname]
            agree = member(f, g) == local_membership(g, f)
            witness = None if agree else f"membership and local definition disagree for {fname}"
            rep = TheoremReport(check.check_id, g.name, {"formation": fname}, True, agree, witness)
            out.append(_result(rep, check.check_id))
        return out

    if check.kind == "classify":
        for gname, fname, n in check.grid:
            if gname != g.name:
                continue
            outcome = classify_type(g, n, BUILTINS[fname])
            ok = outcome.kind == "type_ii"
            witness = None if ok else f"expected type_ii, got {outcome.kind}: {outcome.failures}"
            notes = (f"a_order={outcome.a_order}", f"b_order={outcome.b_order}",
                     f"a_shape={outcome.a_shape}")
            rep = TheoremReport(check.check_id, g.name, {"formation": fname, "n": n},
                                True, ok, witness, notes)
            out.append(_result(rep, check.check_id))
        return out

    prof = profile(g)
    if check.kind == "mann":
        if not prof.soluble:
            return [_skip(check.check_id, g.name, "not soluble")]
        for n in check.grid:
            out.append(_result(verify_lemma("3.7", g, n=n), check.check_id))
        return out

    if check.kind == "lemma":
        if not prof.soluble and g.order > 60:
            return [_skip(check.check_id, g.name, "insoluble group excluded from lemma sampling")]
        if g.order > LEMMA_GROUPS_MAX_ORDER:
            return [_skip(check.check_id, g.name, "order above lemma sampling bound")]
        for lemma_id in check.grid:
            for inst in lemma_instances(lemma_id, g, cfg.seed, LEMMA_INSTANCES_PER_GROUP):
                rep = verify_lemma(lemma_id, g, **inst)
                out.append(_result(rep, check.check_id))
        return out

    # theorem grids: (formation, r, n), None where the theorem takes no such parameter
    if not prof.soluble:
        return [_skip(check.check_id, g.name, "not soluble")]
    theorem_id = check.check_id.removeprefix("theorem-")
    for fname, r, n in check.grid:
        rep = verify_theorem(theorem_id, g, n=n, r=r, f=BUILTINS[fname])
        out.append(_result(rep, check.check_id))
    return out


# ---------------------------------------------------------------------------
# aggregation


def _aggregate(check_ids: Sequence[str], rows: list[dict]) -> dict:
    """Per-check counts. A check that raised lists its error rows under
    `errors` (absent when there are none) and makes the status "errors",
    which outranks "violations"."""
    checks = []
    any_violation = any_error = False
    for cid in check_ids:
        mine = [r for r in rows if r["suite_check"] == cid]
        skips = [r for r in mine if "skip" in r]
        errors = [r for r in mine if "error" in r]
        results = [r for r in mine if "skip" not in r and "error" not in r]
        met = [r for r in results if r["hypotheses_met"]]
        failures = [r for r in met if r["conclusion_holds"] is False]
        any_violation |= bool(failures)
        any_error |= bool(errors)
        entry = {
            "id": cid,
            "instances": len(results),
            "hypotheses_met": len(met),
            "vacuous": len(results) - len(met),
            "passes": len(met) - len(failures),
            "failures": [
                {"group": r["group"], "check": r["check"],
                 "params": r.get("params", {}), "witness": r.get("witness")}
                for r in failures
            ],
            "skips": [{"group": r["group"], "reason": r["skip"]} for r in skips],
        }
        if errors:
            entry["errors"] = [{"group": r["group"], "error": r["error"]} for r in errors]
        checks.append(entry)
    status = "errors" if any_error else "violations" if any_violation else "ok"
    return {"checks": checks, "status": status}


def run_corpus(entries: Iterable[CorpusEntry], cfg: Optional[RunConfig] = None,
               suite: str = "full", detail: bool = False) -> dict:
    """Run a check suite over a corpus; returns the aggregated report dict."""
    cfg = cfg or RunConfig()
    checks = SUITES[suite]()
    entries = sorted(entries, key=lambda e: e.name)
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise CorpusParseError("duplicate group names in corpus")

    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_run_entry_star, [(e, tuple(checks), cfg) for e in entries]))
    else:
        chunks = [run_entry_checks(e, checks, cfg) for e in entries]

    rows: list[dict] = []
    for chunk in chunks:
        rows.extend(chunk)
    rows.sort(key=_row_key)
    summary = _aggregate([c.check_id for c in checks], rows)
    report = {
        "suite": suite,
        "seed": cfg.seed,
        "groups": names,
        **summary,
    }
    if detail:
        report["results"] = rows
    return report


def _row_key(r: dict) -> tuple:
    return (r["suite_check"], r["check"], r["group"],
            repr(sorted(r.get("params", {}).items())), r.get("skip") or "")


def _run_entry_star(args):
    entry, checks, cfg = args
    return run_entry_checks(entry, checks, cfg)
