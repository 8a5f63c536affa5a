"""The benchmark's specification, read from BENCHMARK.json at the checkout root.

run_seconds, the metric names and their units are defined there only.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: metric name -> unit, end-to-end and per-layer
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
