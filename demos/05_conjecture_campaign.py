"""Probing mdim <= l1 + 2c on random general graphs.

    python3 demos/05_conjecture_campaign.py
"""

import json
import tempfile
from pathlib import Path

from mixedmetric import (
    CampaignConfig,
    build_graph,
    evaluate_conjecture,
    run_campaign,
)

# One-off evaluations: the bound is a theorem on cacti, open in general.
k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
record = evaluate_conjecture(k4)
print("K4:", json.dumps(record._asdict(), sort_keys=True))

# K4 is 3-connected, and 3-connected graphs satisfy the strict form mdim < 2c.
print("K4 strict mdim < 2c:", record.mdim < 2 * record.cyclomatic)

# A seeded campaign streams one JSONL record per graph and is replayable:
# the same config always produces the same bytes, and an interrupted file
# resumes where its seed sequence stopped.
with tempfile.TemporaryDirectory() as scratch:
    out = Path(scratch) / "campaign.jsonl"
    config = CampaignConfig(count=60, output_path=str(out), seed=42,
                            n_range=(4, 9), m_strategy="density", density=0.5)
    summary = run_campaign(config)
    print("\ncampaign summary:")
    print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    print("\nfirst three records:")
    for line in out.read_text().splitlines()[:3]:
        print("  ", line)
