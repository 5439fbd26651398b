"""Every corpus lattice, byte for byte.

The report and lemma pins only see the subgroups that some check reads.
This pin covers the whole output of `all_subgroups` on every shipped
corpus group: each subgroup's bitmask and recorded generators, in lattice
order, and the maximality relation.
"""

import hashlib
import json

from formations.dsl import parse_group
from formations.lattice import all_subgroups
from formations.storage import builtin_corpus_path, load_corpus

LATTICES_SHA256 = "8a33c0e6ebf809d87eb986e39e4907128736c220dc4fd0a294ff83aeed8368e4"


def test_corpus_lattices_digest():
    h = hashlib.sha256()
    for entry in load_corpus(builtin_corpus_path()):
        lat = all_subgroups(parse_group(entry.spec, name=entry.name))
        subs = [[s.bits, list(s.gens)] for s in lat.subgroups]
        h.update(json.dumps([subs, lat.maximals_of]).encode() + b"\n")
    assert h.hexdigest() == LATTICES_SHA256
