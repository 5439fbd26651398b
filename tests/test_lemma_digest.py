"""Every lemma's reports on the shipped corpus, byte for byte.

The corpus report digest covers only the lemmas of the full suite; this
pin covers all of them. Each corpus group of order at most 400 runs every
lemma on the instances `lemma_instances` samples at the default seed, four
per group, and one sha256 of the canonical reports pins every verdict,
witness and note.
"""

import hashlib
import json
from collections import Counter

import pytest

from formations.dsl import parse_group
from formations.harness import DEFAULT_SEED, lemma_instances
from formations.storage import builtin_corpus_path, load_corpus
from formations.theorems import LEMMA_IDS, verify_lemma

ALL_LEMMAS_SHA256 = "df056735f0605cd8d4ed52ed9799c4a58c27ce995c48949add16dc180be5b0b0"
MAX_ORDER = 400


@pytest.fixture(scope="module")
def lemma_reports():
    reports = []
    for entry in load_corpus(builtin_corpus_path()):
        g = parse_group(entry.spec, name=entry.name)
        if g.order > MAX_ORDER:
            continue
        for lemma_id in LEMMA_IDS:
            for inst in lemma_instances(lemma_id, g, DEFAULT_SEED, 4):
                reports.append(verify_lemma(lemma_id, g, **inst))
    return reports


def test_all_lemma_reports_digest(lemma_reports):
    h = hashlib.sha256()
    for rep in lemma_reports:
        h.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == ALL_LEMMAS_SHA256


def test_lemma_2_4_exercises_both_branches(lemma_reports):
    """Lemma 2.4 has instances that meet its hypotheses and instances that
    fail them only through an F-abnormal maximal subgroup outside the class."""
    reps = [r for r in lemma_reports if r.check_id == "lemma-2.4"]
    outcome = Counter("met" if r.hypotheses_met else ";".join(r.notes) for r in reps)
    assert outcome["met"] == 36
    assert outcome["an F-abnormal maximal subgroup lies outside the class"] == 5
