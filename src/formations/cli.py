"""Command-line front end.

Exit codes: 0 = all checks passed (or pure analysis succeeded); 1 = at least
one verification had its hypotheses met and its conclusion fail (a witness is
printed); 2 = usage, parse, cap or file errors; 3 = a check raised an
unexpected exception on some group (`corpus` puts an error row in place of its
rows, `verify` an error report in place of that group's reports; the other
checks and groups still run).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .dsl import formation_from_text, parse_group
from .errors import FormationsError, InvalidParams
from .formation import f_hypercentre, is_f_critical, member, residual
from .groups import DEFAULT_ORDER_CAP
from .harness import (DEFAULT_SEED, LEMMA_INSTANCES_PER_GROUP, RunConfig, SUITES,
                      lemma_instances, run_corpus)
from .lattice import DEFAULT_SUBGROUP_CAP, all_subgroups
from .storage import (builtin_corpus_path, load_corpus, report_dumps,
                      write_report)
from .structure import dispersiveness, profile
from .theorems import (LEMMA_IDS, TheoremReport, classify_type, lemma_parameters,
                       verify_lemma, verify_theorem)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ERROR = 3


def _emit(doc: dict, args) -> None:
    if args.output:
        write_report(doc, args.output)
    if args.format == "json":
        sys.stdout.write(report_dumps(doc))
    else:
        _print_text(doc)


def _print_text(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, val in doc.items():
        if key == "schema":
            continue
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_text(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _print_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {val}")


def cmd_analyze(args) -> int:
    g = parse_group(args.group, cap=args.order_cap)
    f = formation_from_text(args.formation)
    prof = profile(g)
    res = residual(g, f)
    doc = {
        "command": "analyze",
        "group": g.name,
        "order": g.order,
        "profile": {
            "pi": list(prof.pi),
            "abelian": prof.abelian,
            "nilpotent": prof.nilpotent,
            "soluble": prof.soluble,
            "supersoluble": prof.supersoluble,
            "nilpotent_length": prof.nilpotent_length,
            "exponent": prof.exponent,
        },
        "formation": f.name,
        "residual_order": res.order,
        "in_class": member(f, g),
        "critical": is_f_critical(g, f),
    }
    ore, wit = dispersiveness(g)
    doc["ore_dispersive"] = ore
    doc["dispersive_witness"] = list(wit) if wit else None
    if f.has_satellite:
        doc["hypercentre_order"] = f_hypercentre(g, f).order
    else:
        doc["hypercentre_order"] = None
        doc["note"] = "no canonical satellite for this formation; hypercentre skipped"
    _emit(doc, args)
    return EXIT_OK


def cmd_lattice(args) -> int:
    g = parse_group(args.group, cap=args.order_cap)
    lat = all_subgroups(g, args.lattice_cap, args.subgroup_cap)
    by_order: dict[int, int] = {}
    for s in lat.subgroups:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    doc = {
        "command": "lattice",
        "group": g.name,
        "order": g.order,
        "subgroups": len(lat.subgroups),
        "by_order": {str(k): v for k, v in sorted(by_order.items())},
        "maximal_subgroup_orders": sorted(
            (m.order for m in lat.maximal_subgroups(g.full_subgroup())), reverse=True),
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    g = parse_group(args.group, cap=args.order_cap)
    f = formation_from_text(args.formation)
    outcome = classify_type(g, args.n, f)
    doc = {"command": "classify", "group": g.name, "formation": f.name,
           "n": args.n, **outcome.to_json()}
    _emit(doc, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if bool(args.theorem) == bool(args.lemma):
        raise InvalidParams("verify needs exactly one of --theorem or --lemma")
    f = formation_from_text(args.formation) if args.formation else None
    overrides = {}  # for a lemma: parameter name -> flag value
    if args.theorem:
        if args.r is not None and args.theorem != "A":
            raise InvalidParams("-r applies only to --theorem A")
        if args.n is not None and args.theorem == "C":
            raise InvalidParams("--theorem C takes no -n")
    else:
        takes = lemma_parameters(args.lemma)
        for flag, name, value in (("--formation", "f", f), ("-n", "n", args.n),
                                  ("-r", "r", args.r)):
            if value is not None:
                if name not in takes:
                    raise InvalidParams(f"--lemma {args.lemma} takes no {flag}")
                overrides[name] = value
    if args.corpus:
        groups = [parse_group(e.spec, name=e.name, cap=args.order_cap)
                  for e in load_corpus(args.corpus)]
    else:
        if not args.group:
            raise InvalidParams("verify needs --group or --corpus")
        groups = [parse_group(args.group, cap=args.order_cap)]

    check_id = f"theorem-{args.theorem}" if args.theorem else f"lemma-{args.lemma}"
    docs, violations, errors = [], False, False
    for g in groups:
        try:
            if args.theorem:
                n = 1 if args.n is None else args.n
                reports = [verify_theorem(args.theorem, g, n=n, r=args.r or 0, f=f)]
            else:
                reports = _lemma_reports(args.lemma, g, overrides)
        except FormationsError:
            raise
        except Exception as exc:
            docs.append({"check": check_id, "group": g.name,
                         "error": f"{type(exc).__name__}: {exc}"})
            errors = True
            continue
        docs.extend(r.to_json() for r in reports)
        violations |= any(r.is_violation for r in reports)

    doc = {
        "command": "verify",
        "target": args.theorem or args.lemma,
        "reports": docs,
        "status": "errors" if errors else "violations" if violations else "ok",
    }
    _emit(doc, args)
    return EXIT_ERROR if errors else EXIT_VIOLATION if violations else EXIT_OK


def _lemma_reports(lemma_id, g, overrides):
    """Sampled instances for a lemma on one group, each with the flag
    overrides (parameter name -> value) in place of its own values."""
    instances = lemma_instances(lemma_id, g, DEFAULT_SEED, LEMMA_INSTANCES_PER_GROUP)
    seen = set()
    out = []
    for inst in instances:
        inst = {**inst, **overrides}
        key = repr(sorted((k, getattr(v, "key", v)) for k, v in inst.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(verify_lemma(lemma_id, g, **inst))
    if not out:
        out.append(TheoremReport(check_id=f"lemma-{lemma_id}", group=g.name,
                                 params={}, hypotheses_met=False,
                                 conclusion_holds=None,
                                 notes=("no instances could be sampled on this group",)))
    return out


def cmd_corpus(args) -> int:
    path = args.path or builtin_corpus_path()
    entries = load_corpus(path)
    if args.tags:
        wanted = set(args.tags.split(","))
        entries = [e for e in entries if wanted & set(e.tags)]
        if not entries:
            raise InvalidParams(f"no corpus group carries a tag in {args.tags!r}")
    cfg = RunConfig(seed=args.seed, workers=args.workers, cache_dir=args.cache_dir,
                    order_cap=args.order_cap)
    started = time.monotonic()
    report = run_corpus(entries, cfg=cfg, suite=args.suite, detail=args.detail)
    if args.timing:
        report["elapsed_seconds"] = round(time.monotonic() - started, 3)
    _emit(report, args)
    return {"ok": EXIT_OK, "violations": EXIT_VIOLATION}.get(report["status"], EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="formations",
        description="Finite-group formation calculations and classification checks",
        allow_abbrev=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", help="also write the JSON report to this path")
    common.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="profile a group against a formation",
                       parents=[common], allow_abbrev=False)
    p.add_argument("--group", required=True)
    p.add_argument("--formation", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("lattice", help="subgroup counts by order",
                       parents=[common], allow_abbrev=False)
    p.add_argument("--group", required=True)
    p.add_argument("--lattice-cap", type=int, default=DEFAULT_ORDER_CAP)
    p.add_argument("--subgroup-cap", type=int, default=DEFAULT_SUBGROUP_CAP)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("classify", help="type a group per the classification theorem",
                       parents=[common], allow_abbrev=False)
    p.add_argument("--group", required=True)
    p.add_argument("--formation", required=True)
    p.add_argument("-n", type=int, default=1)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="verify a theorem or lemma on a group or corpus",
                       parents=[common], allow_abbrev=False)
    p.add_argument("--theorem", choices=("A", "B", "C", "D"))
    p.add_argument("--lemma", choices=LEMMA_IDS)
    p.add_argument("--formation")
    p.add_argument("--group")
    p.add_argument("--corpus")
    p.add_argument("-n", type=int,
                   help="n for a theorem (default 1); for a lemma that takes n, "
                        "replaces n in every sampled instance")
    p.add_argument("-r", type=int,
                   help="r for theorem A (default 0), or for a lemma that takes r")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="run a check suite over a corpus file",
                       parents=[common], allow_abbrev=False)
    p.add_argument("--path", help="corpus JSON (defaults to the shipped corpus)")
    p.add_argument("--suite", choices=sorted(SUITES), default="full")
    p.add_argument("--tags", help="only groups carrying one of these comma-separated tags")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--detail", action="store_true",
                   help="include every per-instance result in the report")
    p.set_defaults(fn=cmd_corpus)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except FormationsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
