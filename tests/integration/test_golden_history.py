"""Simulation histories pinned against the committed golden corpus.

``tests/golden/fingerprints.json`` holds result and per-round digests for
every preset up to city-2k (three seeds), the open-world mechanisms, a
churning world with random-waypoint wanderers, the SAT coordinator mode,
the Fig. 5 round-2 snapshot, whole-run per-user profits of retained
runs, proportional pricing from the round view's positions, every
mobility policy (two random-waypoint groups included), the final
position of every user and every task's final state and completeness
by round.  It pins the engine's history to itself
rather than to a second implementation that could share a bug.  Regenerate with ``scripts/golden_fingerprints.py`` only when a
history change is intended.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CORPUS = json.loads((ROOT / "tests" / "golden" / "fingerprints.json").read_text())


_SPEC = importlib.util.spec_from_file_location(
    "golden_fingerprints", ROOT / "scripts" / "golden_fingerprints.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_corpus_covers_every_case():
    assert [case["id"] for case in CORPUS["cases"]] == [
        case["id"] for case in golden.cases()
    ]


@pytest.mark.parametrize(
    "case", CORPUS["cases"], ids=[case["id"] for case in CORPUS["cases"]]
)
def test_history_matches_golden(case):
    assert golden.fingerprints(case) == golden.recorded(case)
