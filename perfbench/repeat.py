"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload deep --seeds 1-10 --seconds 15

For each metric prints the median, the quartiles (statistics.quantiles,
n=4) and the spread, the interquartile distance as a share of the
median, next to the bound in BENCHMARK.json; "ok" marks a spread below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import SPEC
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = bounds[name]
        print(f"{name:<34} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
              f" spread {s['spread']:.4f}  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
