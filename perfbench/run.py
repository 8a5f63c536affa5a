"""End-to-end and per-layer benchmark of padic-trunk.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--seconds defaults to run_seconds in BENCHMARK.json, which also names
the metrics and their units.

Each workload runs in fresh worker processes, one after another, with
PADIC_TRUNK_MAX_PRIME removed from their environment.  ``--trace 0``
reports the end-to-end metrics: set-up is timed over several process
starts, then one closed-loop client runs whole passes over a seeded list
of about ``--seconds`` of requests, as many passes as fit in
``--seconds`` of request time and at least one.  The list's length
depends only on the workload and ``--seconds``, so for a seed the
requests attempted and failed repeat exactly.  ``--trace 1`` runs a
fixed prefix of the same requests once untraced and once traced, and
reports the per-layer metrics.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  A full record (environment,
request hash, latencies, failures) is written to .perfbench_out/.  Any
wrong answer or failed trace self-check exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import PER_LAYER, SPEC, UNITS
from tracer import UNMEASURED, SelfCheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("deep", "wide", "session")

#: Requests in the traced prefix: fixed, so per-layer counts repeat
#: exactly for a seed and compare across commits.
TRACE_REQUESTS = {"deep": 48, "wide": 100, "session": 48}
#: Fresh processes timed for set-up, besides the timed run's; the median is reported.
SETUP_RUNS = 15

#: The host is shared, and its speed drifts by a third and more from one
#: minute to the next, moving every time of a run with it.  So the time
#: metrics are given at a reference host speed: each latency is scaled by
#: HOST_REFERENCE_S over the median time of ``worker.host_probe`` around
#: it (PROBE_WINDOW requests on either side), and each set-up time by
#: HOST_REFERENCE_S over the probe's median time in its own process.
HOST_REFERENCE_S = 4.0e-4
PROBE_WINDOW = 8

#: Time allowed per worker process for import and input generation.
SETUP_ALLOWANCE_S = 3.0
#: Untraced: wall time allowed per second of request time; a pass may
#: overrun --seconds on a slower commit, and the answer checks outside
#: the timing cost up to about as much again.
TIMED_FACTOR = 3.0
#: Traced: the untraced and the traced prefix, with checks and calibration.
TRACE_ALLOWANCE_S = 120.0


def deadline_s(workloads: int, seconds: float, trace: int) -> float:
    """Wall time after which a run is abandoned as hung."""
    per_workload = (TRACE_ALLOWANCE_S if trace else
                    (SETUP_RUNS + 1) * SETUP_ALLOWANCE_S + TIMED_FACTOR * seconds)
    return workloads * per_workload


class BenchError(RuntimeError):
    """A worker failed: wrong answer, failed self-check, crash or timeout."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PADIC_TRUNK_MAX_PRIME", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; returns its JSON plus its start time."""
    start = time.monotonic()
    if start >= deadline:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=deadline - start)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(proc.stderr.strip() or f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _read_git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "git_commit": _read_git_commit(),
    }


def at_reference_speed(latencies: list[float], probes: list[float]) -> list[float]:
    """Each latency scaled to the reference host speed measured around it."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        out.append(latency * HOST_REFERENCE_S / local)
    return out


def _request_metrics(answered: int, latencies: list[float]) -> dict:
    lat_ms = [x * 1000 for x in latencies]
    return {
        "requests_per_s": answered / sum(latencies),
        "request_p50_ms": statistics.median(lat_ms),
        "request_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[-1],
    }


def run_untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    starts = [_spawn(base + ["--mode", "setup"], deadline) for _ in range(SETUP_RUNS)]
    timed = _spawn(base + ["--mode", "timed"], deadline)
    starts.append(timed)
    setups = [r["setup_s"] * HOST_REFERENCE_S / r["setup_probe_s"] for r in starts]
    scaled = at_reference_speed(timed["latencies_s"], timed["probe_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        **_request_metrics(timed["answered"], scaled),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return {
        "attempted": timed["attempted"], "failed": timed["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "detail": {
            "request_hash": timed["request_hash"], "setup_samples_s": setups,
            "setup_unscaled_s": statistics.median(r["setup_s"] for r in starts),
            "busy_s": timed["busy_s"], "passes": timed["passes"],
            "executed": timed["executed"], "answered": timed["answered"],
            "failed_frac": timed["failed"] / timed["attempted"],
            "over_cap_frac": timed["over_cap"] / timed["attempted"],
            "failures": timed["failures"],
            "host_probe_median_s": statistics.median(timed["probe_s"]),
            "on_this_host": _request_metrics(timed["answered"], timed["latencies_s"]),
            "latencies_ms": [x * 1000 for x in timed["latencies_s"]],
            "probes_ms": [x * 1000 for x in timed["probe_s"]],
        },
    }


def run_traced(workload: str, seed: int, count: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}-spans.jsonl"
    base = ["--workload", workload, "--seed", str(seed), "--count", str(count)]
    plain = _spawn(base + ["--mode", "prefix"], deadline)
    traced = _spawn(base + ["--mode", "traced", "--spans", str(spans)], deadline)
    for i, (a, b) in enumerate(zip(plain["fingerprints"], traced["fingerprints"])):
        if a != b:
            raise SelfCheckFailed(f"trace self-check: request {i} answered {b!r} traced"
                                  f" but {a!r} untraced")
    layers = traced["layers"]
    layers["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1
    return {
        "attempted": traced["attempted"], "failed": traced["failed"],
        "metrics": {k: {"value": layers[k], "unit": UNITS[k]} for k in PER_LAYER},
        "detail": {
            "request_hash": traced["request_hash"], "traced_requests": count,
            "untraced_busy_s": plain["busy_s"], "traced_busy_s": traced["busy_s"],
            "attributed_s": traced["attributed_s"], "wrapper_cost_ns": traced["wrapper_cost_ns"],
            "spans": traced["spans"], "spans_file": str(spans.relative_to(ROOT)),
            "not_wrapped": traced["missing"], "measured_only_in_part": UNMEASURED,
        },
    }


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload: str, seed: int, trace: int, result: dict, env: dict) -> None:
    d = result["detail"]
    print(f"== {workload}  seed {seed}  trace {trace}  requests sha256 {d['request_hash'][:16]}")
    print(f"   python {env['python']}  {env['platform']}  nproc {env['nproc']}  cpu {env['cpu']}"
          f"  commit {env['git_commit'][:12]}")
    if not trace:
        print(f"   {result['attempted']} requests, each answer checked; {d['passes']} pass(es),"
              f" {d['executed']} executed in {d['busy_s']:.2f} s of request time, {d['answered']} answered")
        notes = {
            "setup_s": f"median of {len(d['setup_samples_s'])} process starts",
            "request_p50_ms": f"n = {d['executed']}",
            "request_p90_ms": f"n = {d['executed']}",
        }
        for name, m in result["metrics"].items():
            print(f"   {name:<16} {_format(m['value']):>12} {m['unit']:<4} {notes.get(name, '')}")
        print(f"   {'failed_frac':<16} {_format(d['failed_frac']):>12}      "
              f"{result['failed']} of {result['attempted']}; over-cap share {_format(d['over_cap_frac'])}")
        unscaled = {"setup_s": d["setup_unscaled_s"], **d["on_this_host"]}
        print(f"   times are at the reference host speed (probe {HOST_REFERENCE_S * 1e6:.0f} us);"
              f" this host's probe took {d['host_probe_median_s'] * 1e6:.0f} us, and unscaled: "
              + ", ".join(f"{k} {_format(v)}" for k, v in unscaled.items()))
        for line in d["failures"][:3]:
            print(f"     failed: {line[:160]}")
    else:
        print(f"   {result['attempted']} requests traced, {d['spans']} spans in {d['spans_file']};"
              " trace self-checks passed")
        for name, m in result["metrics"].items():
            print(f"   {name:<36} {_format(m['value']):>14} {m['unit']}")
        cost = d["wrapper_cost_ns"]
        print(f"   wrapper cost per call, inside/outside the callee: span {cost['span'][0]:.0f}/"
              f"{cost['span'][1]:.0f} ns, leaf {cost['leaf'][0]:.0f}/{cost['leaf'][1]:.0f} ns;"
              f" self times less that cost sum to {d['attributed_s']:.3f} s"
              f" against {d['untraced_busy_s']:.3f} s untraced")
        for what, why in d["measured_only_in_part"].items():
            print(f"   note: {what}: {why}")
        if d["not_wrapped"]:
            print(f"   not wrapped (missing in this commit): {', '.join(d['not_wrapped'])}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="padic-trunk benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="request time measured per untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "padic_trunk" / "__init__.py").is_file():
        print("error: src/padic_trunk is not in this checkout; nothing to benchmark", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + deadline_s(len(names), args.seconds, args.trace)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = run_traced(name, args.seed, TRACE_REQUESTS[name], deadline)
            else:
                results[name] = run_untraced(name, args.seed, args.seconds, deadline)
    except (BenchError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for name, result in results.items():
        report(name, args.seed, args.trace, result, env)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **result}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
