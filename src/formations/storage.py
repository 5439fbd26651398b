"""Persistence: corpus files, JSON reports, and the lattice cache.

All three formats are JSON with an explicit schema version. Reports are
dumped with sorted keys and no timestamps, so identical runs produce
byte-identical files; only `formations corpus --timing` adds a wall-clock
field (`elapsed_seconds`) to a report. Cache writes go through a
temp-file-then-rename so concurrent readers never observe a partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from operator import and_, or_
from pathlib import Path
from typing import Optional

from .dsl import parse_group_spec
from .errors import CacheVersionMismatch, CorpusParseError, FormationsError
from .groups import FiniteGroup, Subgroup, bits_of
from .lattice import SubgroupLattice

CORPUS_SCHEMA = "formations-corpus/1"
REPORT_SCHEMA = "formations-report/1"
CACHE_SCHEMA = "formations-lattice-cache/1"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    spec: str
    tags: tuple[str, ...] = ()


def load_corpus(path) -> list[CorpusEntry]:
    """Read a corpus file: either a bare JSON array of {name, spec, tags}
    or an object {"schema": ..., "groups": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CorpusParseError(f"cannot read corpus {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusParseError(f"corpus {path} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        schema = doc.get("schema", CORPUS_SCHEMA)
        if schema != CORPUS_SCHEMA:
            raise CorpusParseError(f"corpus {path}: unsupported schema {schema!r}")
        items = doc.get("groups")
        if not isinstance(items, list):
            raise CorpusParseError(f"corpus {path}: missing 'groups' array")
    elif isinstance(doc, list):
        items = doc
    else:
        raise CorpusParseError(f"corpus {path}: expected an array or object")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise CorpusParseError(f"corpus entry {i}: expected an object")
        if "name" not in item:
            raise CorpusParseError(f"corpus entry {i}: missing 'name'")
        if "spec" not in item:
            raise CorpusParseError(f"corpus entry {i} ({item.get('name')}): missing 'spec'")
        tags = item.get("tags", [])
        if not isinstance(tags, list):
            raise CorpusParseError(f"corpus entry {i} ({item['name']}): 'tags' must be a list")
        spec = str(item["spec"])
        try:
            parse_group_spec(spec)
        except FormationsError as exc:
            raise CorpusParseError(
                f"corpus entry {i} ({item['name']}): unparseable spec: {exc}") from exc
        out.append(CorpusEntry(name=str(item["name"]), spec=spec,
                               tags=tuple(str(t) for t in tags)))
    return out


def builtin_corpus_path() -> Path:
    return Path(str(resources.files("formations").joinpath("data/corpus.json")))


def write_corpus(entries, path) -> None:
    doc = {
        "schema": CORPUS_SCHEMA,
        "groups": [{"name": e.name, "spec": e.spec, "tags": list(e.tags)} for e in entries],
    }
    _atomic_write_json(doc, path)


def report_dumps(report: dict) -> str:
    """Canonical serialization: the bytes of `json.dumps(doc, sort_keys=True,
    indent=2, separators=(",", ": "))` plus a trailing newline, written by
    one recursive function (`_put_json`) instead of json's pure-Python
    generator chain, which `indent` selects.

    A report holds dicts with str keys, lists, tuples (written as lists),
    str, int, float, bool and None, each of exactly that type; anything
    else raises TypeError.
    """
    out: list[str] = []
    _put_json({"schema": REPORT_SCHEMA, **report}, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _put_json(o, nl: str, put) -> None:
    """Write o as json.dumps does with indent=2, at the nesting level whose
    line break and indentation is nl."""
    t = type(o)
    if t is str:
        put(_quote(o))
    elif t is dict:
        if not o:
            put("{}")
            return
        inner, sep = nl + "  ", "{"
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"report key {key!r} is not a str")
            put(sep + inner + _quote(key) + ": ")
            _put_json(o[key], inner, put)
            sep = ","
        put(nl + "}")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif t is int:
        put(int.__repr__(o))
    elif o is None:
        put("null")
    elif t is list or t is tuple:
        if not o:
            put("[]")
            return
        inner, sep = nl + "  ", "["
        for item in o:
            put(sep + inner)
            _put_json(item, inner, put)
            sep = ","
        put(nl + "]")
    elif t is float:
        put("NaN" if o != o else "Infinity" if o == _INF else "-Infinity" if o == -_INF
            else float.__repr__(o))
    else:
        raise TypeError(f"{t.__name__} is not written in a report: {o!r}")


_quote = json.encoder.encode_basestring_ascii  # the function json.dumps calls
_INF = float("inf")


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_dumps(report))


# ---------------------------------------------------------------------------
# lattice cache


def _cache_file(g: FiniteGroup, directory) -> Path:
    return Path(directory) / f"{g.fingerprint}.json"


def cache_lattice(g: FiniteGroup, lat: SubgroupLattice, directory) -> Path:
    """Persist a lattice keyed by the group's table fingerprint (atomic)."""
    doc = {
        "schema": CACHE_SCHEMA,
        "fingerprint": g.fingerprint,
        "order": g.order,
        "subgroups": [list(s.members) for s in lat.subgroups],
        "gens": [list(s.gens) for s in lat.subgroups],
        "maximals": lat.maximals_of,
    }
    path = _cache_file(g, directory)
    _atomic_write_json(doc, path)
    return path


def load_cached_lattice(g: FiniteGroup, directory) -> Optional[SubgroupLattice]:
    """Load a cached lattice; None when absent, keyed to a different table,
    or unreadable or inconsistent (truncated, not JSON, missing fields, see
    `_valid_lattice`): a cache miss.

    Raises CacheVersionMismatch for files written under another schema.
    """
    path = _cache_file(g, directory)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict):
        return None
    if doc.get("schema") != CACHE_SCHEMA:
        raise CacheVersionMismatch(f"{path}: schema {doc.get('schema')!r} != {CACHE_SCHEMA}")
    if doc.get("fingerprint") != g.fingerprint or doc.get("order") != g.order:
        return None
    try:
        members, gens, maximals = doc["subgroups"], doc["gens"], doc["maximals"]
        if not len(members) == len(gens) == len(maximals):
            return None
        members = [_indices(mem, g.order) for mem in members]
        subs = [Subgroup(g, bits_of(mem), gens=_indices(gs, g.order))
                for mem, gs in zip(members, gens)]
        lat = SubgroupLattice(group=g, subgroups=subs,
                              maximals_of=[_indices(row, len(subs)) for row in maximals])
    except (KeyError, TypeError, ValueError):
        return None
    if any(a >= b for row in lat.maximals_of for a, b in zip(row, row[1:])):
        return None
    if not _valid_lattice(lat, members):
        return None
    g._lattice = lat
    return lat


def _indices(values, bound: int) -> list[int]:
    """The list as indices below bound; ValueError for anything else."""
    if not isinstance(values, list) or not all(
            type(v) is int and 0 <= v < bound for v in values):
        raise ValueError("not a list of indices")
    return values


def _valid_lattice(lat: SubgroupLattice, members: list[list[int]]) -> bool:
    """Whether cached subgroups and covers are consistent.

    The subgroups must run strictly by (order, bits) from the trivial group
    to g, and each must be regenerated by its recorded gens. The covers
    must be exactly those of containment: for every subgroup j, the
    subgroups properly containing j are those containing one of the
    subgroups listed as covering j, and no listed cover contains another.
    """
    g, subs = lat.group, lat.subgroups
    keys = [(s.order, s.bits) for s in subs]
    if not subs or keys[0] != (1, 1) or keys[-1] != (g.order, g.full_bits()):
        return False
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    if any(g.closure_bits(s.gens) != s.bits for s in subs):
        return False
    holding = [0] * g.order  # holding[x]: positions of the subgroups containing x
    for k, mem in enumerate(members):
        for x in mem:
            holding[x] |= 1 << k
    above = [reduce(and_, map(holding.__getitem__, mem)) for mem in members]
    for j, covers in enumerate(lat.overgroups_of):
        if reduce(or_, (above[i] for i in covers), 0) != above[j] & ~(1 << j):
            return False
        if any(above[a] >> b & 1 for a in covers for b in covers if a != b):
            return False
    return True


def _atomic_write_json(doc, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
