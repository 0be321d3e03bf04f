"""Second scale tier of the acceptance gate: full verification of families
B, C and D at ranks 13 to 16, under a wall-clock budget of its own.

As in test_scale_tier.py, each report must pass and must match its pinned
row count and the sha256 of its compact sorted-key JSON, so a faster path
that changed any row, witness or flag fails here.
"""

from __future__ import annotations

import hashlib
import json
import time

from weylsymbols.engine import verify

# (family, rank) -> (rows, sha256 of the compact sorted-key report JSON)
_PINS = {
    ("B", 13): (602, "25582eda193e83a47c3d32b2da70560b47d8196189cbdcc8efb956a59a2ad0d4"),
    ("B", 14): (858, "d9d635f25dc517650ac62d46bb303b36c80b693d30c38fd8b53a3667a9d91b6e"),
    ("B", 15): (1206, "fc811f32963b83f742584c2a5db6d547957081cdf85c0f39d7f2ef7769969ab1"),
    ("B", 16): (1687, "af41cfdb0d0fa1bfb1bdde620b60c2efcbb4a03a6b251aa7df7e40d100edacf7"),
    ("C", 13): (728, "1779de52889852045d732ee42bbfc2c626923f76386d0e368887bb8224df2ac6"),
    ("C", 14): (1040, "3e8c590b66cee990704e986c838bd470cbb0469b6ffa64238ddcb0253e1cefed"),
    ("C", 15): (1472, "17e6ceb4af4b1a322e9cfc118809380c8e3f7a1f26da9262c1abddf7a1d69c1c"),
    ("C", 16): (2062, "5dd20ff237fd256720dd47ef9b1841d791e4fb93ca8722b01feff7bf327e9939"),
    ("D", 13): (501, "59abb12250029464742a890f16add0f5b3923ab05b7df81b04e14a64eb89930d"),
    ("D", 14): (737, "ecd37c4489778d34838bf456e8f7595663e9cb645089a9e80ff3cd5f77f3a199"),
    ("D", 15): (1016, "26f9e9b2209860624e818ff81554afe193cce0311d304a63f0b3dbd0a9fdc674"),
    ("D", 16): (1453, "3e3ce338d68a2288c6d91a68a9bc1715f37a5f1d17b162678ce773f19d1a40c3"),
}

BUDGET_S = 60


def test_full_verification_at_ranks_thirteen_to_sixteen():
    t0 = time.monotonic()
    for (family, n), (rows, digest) in _PINS.items():
        report = verify(family, n)
        assert report.ok(), (family, n)
        assert len(report.rows) == rows, (family, n)
        text = json.dumps(report.to_json(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n)
    assert time.monotonic() - t0 < BUDGET_S
