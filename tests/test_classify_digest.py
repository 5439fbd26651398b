"""Every classification outcome on the shipped corpus, byte for byte.

The corpus report runs `classify_type` on one group only, and theorem B's
rows keep just the outcome's kind. This pin covers the whole outcome (the
residual and complement orders, the shape, the II(2) records, failure texts
and notes) for every corpus group, f in {N, U} and n in {1, 2, 3}.
"""

import hashlib
import json
from collections import Counter

import pytest

from formations.dsl import parse_group
from formations.formation import BUILTINS
from formations.storage import builtin_corpus_path, load_corpus
from formations.theorems import classify_type

CLASSIFY_SHA256 = "fb5deab2d27222c3c7455ebfeed7005b4dc85a6f73831cc2b94c3b03a2ee4112"


@pytest.fixture(scope="module")
def outcomes():
    out = []
    for entry in load_corpus(builtin_corpus_path()):
        g = parse_group(entry.spec, name=entry.name)
        for fname in ("N", "U"):
            for n in (1, 2, 3):
                out.append(classify_type(g, n, BUILTINS[fname]))
    return out


def test_classify_outcomes_digest(outcomes):
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == CLASSIFY_SHA256


def test_classify_outcome_kinds(outcomes):
    kinds = Counter(o.kind for o in outcomes)
    assert kinds == {"type_i": 324, "type_ii": 41, "neither": 217}
