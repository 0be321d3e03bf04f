"""Scale tier of the acceptance gate: full verification of families B, C
and D at ranks 11 and 12, under a wall-clock budget of its own.

Each report must pass and must match its pinned row count and the sha256
of its compact sorted-key JSON, so a faster path that changed any row,
witness or flag fails here.  The gate in test_acceptance.py stays the
exhaustive check of the lower ranks.
"""

from __future__ import annotations

import hashlib
import json
import time

from weylsymbols.engine import verify

# (family, rank) -> (rows, sha256 of the compact sorted-key report JSON)
_PINS = {
    ("B", 11): (287, "802532c0d91e2282726b68887351a3c4bd0dcc5e598626f21aca4894a455e62d"),
    ("B", 12): (420, "c4fb74e3783d2cda5f9005a8ebc39eb39babf55cb86253a62c6510a6641dbe51"),
    ("C", 11): (344, "10273d3046cf98311d48662e51255709d3b379eaeedc9aae9a8c8e7577356ae8"),
    ("C", 12): (504, "9cdc91ba93de8ddd09e18e4d80e40cc4ae794229a2f13a1f68ca71bb154d32d4"),
    ("D", 11): (236, "d2835313dc9aa16c62f8a2e5ecb6f4573a32b8d620b7f99b17e9692c986d6d67"),
    ("D", 12): (361, "a676328bacdf8b93b2d14a34eea83f13d9f66e7bddd5554b7c3fffc4c7263676"),
}

BUDGET_S = 60


def test_full_verification_at_ranks_eleven_and_twelve():
    t0 = time.monotonic()
    for (family, n), (rows, digest) in _PINS.items():
        report = verify(family, n)
        assert report.ok(), (family, n)
        assert len(report.rows) == rows, (family, n)
        text = json.dumps(report.to_json(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n)
    assert time.monotonic() - t0 < BUDGET_S
