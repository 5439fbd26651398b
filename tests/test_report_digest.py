"""The detailed full-corpus report, byte for byte.

Rewrites of the group kernels must leave every verdict, witness and count
of the shipped corpus unchanged; one sha256 of the canonical report pins
all of them at once.
"""

import hashlib

from formations.harness import RunConfig, run_corpus
from formations.storage import builtin_corpus_path, load_corpus, report_dumps

FULL_CORPUS_DETAIL_SHA256 = "8254b8a138fee98a25ce11bab82ea60c47d727ed5ef0e7d30842f4463107202e"


def test_full_corpus_report_digest():
    report = run_corpus(load_corpus(builtin_corpus_path()), cfg=RunConfig(), detail=True)
    digest = hashlib.sha256(report_dumps(report).encode()).hexdigest()
    assert digest == FULL_CORPUS_DETAIL_SHA256
