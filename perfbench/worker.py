"""One benchmark process: set up, then run one workload in one mode.

Set-up imports ``padic_trunk`` from this checkout's ``src/`` and
generates the workload's requests; the parent times it from process
start.  Then, by ``--mode``:

  setup   stop;
  timed   closed loop, one request at a time, in whole passes over a list
          of about ``--seconds`` of requests (``workloads.list_length``);
          every answer is checked outside the timing;
  prefix  the first ``--count`` requests, unchecked: their answers and
          total time, the untraced side of the trace overhead;
  traced  the same requests with the tracer installed, each answer checked.

Prints one JSON object on stdout.  Exit code 3 means a wrong answer or a
failed trace self-check, with the reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads
from execute import FAILURES, execute, fingerprint
from tracer import SelfCheckFailed, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV_MAX_PRIME = "PADIC_TRUNK_MAX_PRIME"


class SetupError(RuntimeError):
    """The package to benchmark is not in this checkout."""


def load_package():
    """Import padic_trunk from this checkout, with the prime cap at its default."""
    os.environ.pop(ENV_MAX_PRIME, None)
    init = SRC / "padic_trunk" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import padic_trunk
    import padic_trunk.cli  # noqa: F401  (binds pt.cli for CLI requests)
    if Path(padic_trunk.__file__).resolve() != init.resolve():
        raise SetupError(f"imported padic_trunk from {padic_trunk.__file__}, not from {SRC}")
    return padic_trunk


def _check_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"check:{seed}:{index}")


#: The host probe's fixed work, independent of the package: Horner steps on
#: small integers and divisions of a 1500-bit integer, the two kinds of
#: arithmetic the workloads spend their time in.
_PROBE_COEFFS = (17, -3, 41, 0, -29, 5, 1)
_PROBE_BIG = 13**400 * 7


#: host_probe calls after set-up, to scale setup_s like the request times.
SETUP_PROBES = 5


def host_probe() -> float:
    """Seconds this host takes, right now, for a fixed piece of work (about 0.4 ms)."""
    start = time.perf_counter()
    for x in range(300):
        v = 0
        for c in _PROBE_COEFFS:
            v = (v * x + c) % 1000003
    n = _PROBE_BIG
    while n % 13 == 0:
        n //= 13
    return time.perf_counter() - start


def _run_one(pt, req):
    """(answer, error, seconds) of one request; only the call is timed."""
    error = answer = None
    start = time.perf_counter()
    try:
        answer = execute(pt, req)
    except FAILURES as exc:
        error = exc
    return answer, error, time.perf_counter() - start


def timed_loop(pt, requests, seconds: float, seed: int) -> dict:
    """Whole passes over the request list, as many as fit in ``seconds``, at least one.

    The first pass checks every answer; later passes must repeat its
    answers exactly.  Every request is attempted once per pass, so the
    requests attempted and failed depend on the list only.  After each
    request, outside its timing, ``host_probe`` measures the host's speed.
    """
    latencies: list[float] = []
    probes: list[float] = []
    prints: list[str] = []
    failures: list[str] = []
    busy = 0.0
    answered = 0
    for i, req in enumerate(requests):
        answer, error, elapsed = _run_one(pt, req)
        busy += elapsed
        latencies.append(elapsed)
        probes.append(host_probe())
        prints.append(fingerprint(req, answer, error))
        if error is None:
            answered += 1
            checks.check(pt, req, answer, _check_rng(seed, i))
        else:
            failures.append(f"{req.kind} {req.text!r}: {error}")
        answer = None
    passes = max(1, int(seconds / busy))
    for _ in range(passes - 1):
        for i, req in enumerate(requests):
            answer, error, elapsed = _run_one(pt, req)
            busy += elapsed
            latencies.append(elapsed)
            probes.append(host_probe())
            answered += error is None
            again = fingerprint(req, answer, error)
            if again != prints[i]:
                raise checks.Mismatch(f"request {i} ({req.kind} {req.text!r}) answered"
                                      f" {again!r} after {prints[i]!r}")
            answer = None
    return {
        "attempted": len(requests), "failed": len(failures), "passes": passes,
        "over_cap": sum(req.over_cap for req in requests),
        "executed": len(latencies), "answered": answered,
        "busy_s": busy, "latencies_s": latencies, "probe_s": probes, "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def prefix_run(pt, requests, count: int, tracer: Tracer | None = None, seed: int = 0) -> dict:
    """The first count requests; traced and checked when a tracer is given."""
    busy = 0.0
    prints: list[str] = []
    failed = 0
    for i, req in enumerate(requests[:count]):
        if tracer is not None:
            tracer.begin_request(i, req.kind)
        try:
            answer, error, elapsed = _run_one(pt, req)
        finally:
            if tracer is not None:
                tracer.end_request()
        busy += elapsed
        prints.append(fingerprint(req, answer, error))
        failed += error is not None
        if tracer is not None and error is None:
            if req.argv:
                tracer.counts["cli.output_bytes"] += len(answer.value.encode())
            checks.check(pt, req, answer, _check_rng(seed, i))
    return {"attempted": min(count, len(requests)), "failed": failed, "busy_s": busy,
            "fingerprints": prints}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "prefix", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--spans", help="file for the traced run's spans (JSON lines)")
    args = ap.parse_args(argv)

    try:
        pt = load_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    count = args.count or workloads.list_length(args.workload, args.seconds)
    requests = workloads.generate(args.workload, args.seed, count)
    result: dict = {"ready": time.monotonic()}
    result["setup_probe_s"] = statistics.median(host_probe() for _ in range(SETUP_PROBES))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    result["request_hash"] = workloads.request_hash(requests)
    try:
        if args.mode == "timed":
            result.update(timed_loop(pt, requests, args.seconds, args.seed))
        elif args.mode == "prefix":
            result.update(prefix_run(pt, requests, args.count))
        else:
            tracer = Tracer()
            tracer.install(pt)
            tracer.calibrate()
            result.update(prefix_run(pt, requests, args.count, tracer, args.seed))
            tracer.self_check()
            result["layers"] = tracer.metrics(overhead_frac=0.0)
            result["wrapper_cost_ns"] = {"span": tracer.cost_ns[True], "leaf": tracer.cost_ns[False]}
            result["attributed_s"] = tracer.attributed_s()
            result["missing"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
            result["spans"] = len(tracer.spans)
    except (checks.Mismatch, SelfCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
