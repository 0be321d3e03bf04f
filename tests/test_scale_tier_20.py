"""Fourth scale tier of the acceptance gate: full verification of families
B, C and D at rank 20, under a wall-clock budget of its own.

As in test_scale_tier_17.py, each report must pass and must match its
pinned row count and the sha256 of its compact sorted-key JSON, so a
faster path that changed any row, witness or flag fails here.
"""

from __future__ import annotations

import hashlib
import json
import time

from weylsymbols.engine import verify

# (family, rank) -> (rows, sha256 of the compact sorted-key report JSON)
_PINS = {
    ("B", 20): (5922, "1c3b51a34c30080091442dfff871bd2c9c55c9f1660365df640aa27598dc2048"),
    ("C", 20): (7336, "43c505499e66ff55acdc956f69d8df787e3ea52ef0b1a70da97e26f14ca4498b"),
    ("D", 20): (5138, "b8f1318d7233a9c3103827f85fc73bc1cc1bb4f616c32002e36e059ab6bbb6c2"),
}

BUDGET_S = 60


def test_full_verification_at_rank_twenty():
    t0 = time.monotonic()
    for (family, n), (rows, digest) in _PINS.items():
        report = verify(family, n)
        assert report.ok(), (family, n)
        assert len(report.rows) == rows, (family, n)
        text = json.dumps(report.to_json(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n)
    assert time.monotonic() - t0 < BUDGET_S
