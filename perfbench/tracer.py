"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``formations`` modules from outside
the library: nothing in ``src/`` knows about it. Each call becomes one span
``[name, start, end, parent, group, work]`` kept in memory; ``parent`` is the
index of the innermost open span (-1 at top level), ``group`` the corpus
group being worked on, and ``work`` a per-call count where one is defined
(subgroup order for closures, subgroups found for an enumeration, bytes
moved for cache I/O, 1 for the first membership test of a pair).

A function is patched in every ``formations`` namespace that holds it, since
``from .lattice import all_subgroups`` gives ``harness``, ``formation``,
``theorems`` and ``structure`` bindings of their own. ``closure_bits`` is a
method and is patched on ``FiniteGroup``.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer boundaries that get a span, as (module, function).
SPANS = (
    ("groups", "from_generators"),
    ("groups", "direct_product"),
    ("groups", "normal_closure_bits"),
    ("groups", "core_bits"),
    ("groups", "derived_bits"),
    ("groups", "quotient"),
    ("groups", "as_group"),
    ("lattice", "all_subgroups"),
    ("lattice", "normal_subgroups"),
    ("lattice", "minimal_normal_subgroups"),
    ("lattice", "chief_series"),
    ("lattice", "sylow"),
    ("lattice", "fitting"),
    ("formation", "member"),
    ("formation", "residual"),
    ("formation", "local_membership"),
    ("formation", "f_subnormal_bits"),
    ("structure", "profile"),
    ("structure", "dispersiveness"),
    ("theorems", "verify_theorem"),
    ("theorems", "verify_lemma"),
    ("theorems", "classify_type"),
    ("harness", "run_entry_checks"),
    ("harness", "lemma_instances"),
    ("storage", "load_cached_lattice"),
    ("storage", "cache_lattice"),
    ("storage", "report_dumps"),
)

CLOSURE = "groups.closure_bits"


def _read_io(field: str) -> tuple[int, int]:
    """A /proc/self/io counter as shown, and the bytes this read returned."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    for line in text.splitlines():
        key, _, value = line.partition(b":")
        if key.decode() == field:
            return int(value), len(text)
    raise RuntimeError(f"/proc/self/io has no {field}")


def _io_mark(field: str) -> int:
    """The counter just after this call. The counter file shows the value
    from before its own read, and that read is itself counted in rchar."""
    shown, size = _read_io(field)
    return shown + (size if field == "rchar" else 0)


def _io_since(mark: int, field: str) -> int:
    """Bytes read (rchar) or written (wchar) since ``_io_mark``."""
    return _read_io(field)[0] - mark


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.group: str | None = None
        self._stack: list[int] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every span point in every loaded ``formations`` namespace."""
        from formations.groups import FiniteGroup

        namespaces = [m for name, m in sys.modules.items()
                      if name == "formations" or name.startswith("formations.")]
        for mod_name, fn_name in SPANS:
            fn = getattr(sys.modules[f"formations.{mod_name}"], fn_name)
            hooks = getattr(self, f"_hook_{fn_name}", None)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", fn, hooks)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
        FiniteGroup.closure_bits = self._wrap_closure(FiniteGroup.closure_bits)

    def _wrap(self, name, fn, hooks):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = hooks() if hooks else (None, None)
        name_of = (lambda args: f"{name}.{str(args[0]).upper()}") \
            if name == "theorems.verify_theorem" else (lambda args: name)

        def traced(*args, **kwargs):
            state = before(args) if before else None
            span = [name_of(args), 0.0, 0.0, stack[-1] if stack else -1, self.group, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                span[5] = after(state, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_closure(self, fn):
        # Hot path (hundreds of thousands of calls): a leaf, so the span is
        # appended on exit and no child ever refers to its index.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def closure_bits(g, gens):
            start = clock()
            bits = fn(g, gens)
            end = clock()
            spans.append((CLOSURE, start, end, stack[-1] if stack else -1,
                          self.group, bits.bit_count()))
            return bits

        return functools.wraps(fn)(closure_bits)

    # -- per-function hooks: (before(args) -> state, after(state, args, result) -> work)

    def _hook_run_entry_checks(self):
        def before(args):
            self.group = args[0].name
        return before, None

    def _hook_all_subgroups(self):
        # An enumeration is a call on a group with no lattice yet: neither an
        # earlier all_subgroups call nor a cache load gave it one.
        def before(args):
            return args[0]._lattice is None

        def after(enumerates, args, lat):
            return len(lat.subgroups) if enumerates else None
        return before, after

    def _hook_load_cached_lattice(self):
        def after(rchar0, args, lat):
            return _io_since(rchar0, "rchar")
        return (lambda args: _io_mark("rchar")), after

    def _hook_cache_lattice(self):
        def after(wchar0, args, path):
            return _io_since(wchar0, "wchar")
        return (lambda args: _io_mark("wchar")), after

    def _hook_member(self):
        # member memoizes its answer in g._memo: a pair not there yet is new.
        def before(args):
            return ("member", args[0].key) not in args[1]._memo

        def after(first, args, result):
            return int(first)
        return before, after

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "group", "work"],
                "spans": self.spans}


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, group, work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans) -> dict:
    """Per-name call counts, self seconds, work sums, and the derived
    closure-attribution, enumeration and membership figures."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    closure_by_caller: dict[str, int] = {}
    enum_subgroups = 0
    enum_closures = 0
    enumerations = set()
    for i, (name, start, end, parent, group, w) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if w is not None:
            work[name] = work.get(name, 0) + w
        if name == "lattice.all_subgroups" and w is not None:
            enumerations.add(i)
            enum_subgroups += w
    for name, start, end, parent, group, w in spans:
        if name != CLOSURE:
            continue
        caller = spans[parent][0] if parent >= 0 else "top"
        closure_by_caller[caller] = closure_by_caller.get(caller, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != "lattice.all_subgroups":
            p = spans[p][3]
        if p in enumerations:
            enum_closures += 1
    return {
        "calls": calls, "self_s": self_s, "work": work,
        "closure_by_caller": closure_by_caller,
        "enumerations": len(enumerations),
        "enum_subgroups": enum_subgroups,
        "enum_closures": enum_closures,
    }
