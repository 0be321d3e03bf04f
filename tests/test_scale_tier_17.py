"""Third scale tier of the acceptance gate: full verification of families
B, C and D at rank 17, under a wall-clock budget of its own.

As in test_scale_tier_high.py, each report must pass and must match its
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
    ("B", 17): (2331, "a3792b43e26a8a497306cdb08a70ac8ab1d0cac80c25feb91f814cee24366dd2"),
    ("C", 17): (2864, "bf7908d854aa785b96abab86a95ea19bf9559d553bc17005a0d4468cd0b6b176"),
    ("D", 17): (1981, "92eff41a8267100a5e2f2498e7c88440fba3f8093e8086b287cae65e115b6568"),
}

BUDGET_S = 30


def test_full_verification_at_rank_seventeen():
    t0 = time.monotonic()
    for (family, n), (rows, digest) in _PINS.items():
        report = verify(family, n)
        assert report.ok(), (family, n)
        assert len(report.rows) == rows, (family, n)
        text = json.dumps(report.to_json(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n)
    assert time.monotonic() - t0 < BUDGET_S
