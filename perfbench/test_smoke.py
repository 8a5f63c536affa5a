"""Smoke tests of the benchmark itself; a few seconds in all.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
import worker
from execute import execute
from spec import PER_LAYER
from tracer import SelfCheckFailed, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def pt():
    return worker.load_package()


def _first(requests, **fields):
    return next(r for r in requests if all(getattr(r, k) == v for k, v in fields.items()))


def test_same_seed_same_requests():
    a, b = workloads.generate("wide", 3, 40), workloads.generate("wide", 3, 40)
    assert workloads.request_hash(a) == workloads.request_hash(b)
    assert workloads.request_hash(a) != workloads.request_hash(workloads.generate("wide", 4, 40))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_timed_run_checks_every_answer(pt, name):
    requests = workloads.generate(name, 1, 24)
    result = worker.timed_loop(pt, requests, 0.3, 1)
    assert result["attempted"] == len(requests)
    assert result["executed"] == result["passes"] * len(requests)
    # only over-cap moduli are refused
    assert result["failed"] == result["over_cap"]


def test_list_length_is_whole_blocks_of_about_seconds():
    for name in workloads.WORKLOADS:
        block = workloads.BLOCK[name]
        assert workloads.list_length(name, 0.01) == block
        n = workloads.list_length(name, 20)
        assert n % block == 0 and abs(n - 20 * workloads.SEED_RATE[name]) <= block / 2


def test_prime_root_count_agrees_with_brute_force(pt):
    polys = [r.poly for r in workloads.generate("wide", 5, 20)[:6]]
    polys += [r.poly for r in workloads.generate("deep", 5, 8)[:6]]
    polys += [workloads.Poly(3, (((0, 1), 2),)), workloads.Poly(1, (((-1, 0, 1), 1),))]
    for poly in polys:
        for p in (2, 3, 7, 997):
            expected = pt.brute_force(pt.Polynomial(poly.expanded()), p, budget=p)
            assert checks.prime_root_count(poly, p) == len(expected)


def test_check_rejects_injected_wrong_answers(pt):
    requests = workloads.generate("deep", 1, 16)
    rng = random.Random(0)
    req = _first(requests, kind="balls")
    answer = execute(pt, req)
    checks.check(pt, req, answer, rng)

    wrong_count = dataclasses.replace(answer.value, count=answer.value.count + 1)
    with pytest.raises(checks.Mismatch):
        checks.check(pt, req, dataclasses.replace(answer, value=wrong_count, count=wrong_count.count), rng)
    ball = answer.value.balls[0]
    moved = [dataclasses.replace(ball, r=ball.r + 1)] + answer.value.balls[1:]
    with pytest.raises(checks.Mismatch):
        checks.check(pt, req, dataclasses.replace(answer, value=dataclasses.replace(answer.value, balls=moved)), rng)

    member = _first(requests, kind="member")
    answer = execute(pt, member)
    with pytest.raises(checks.Mismatch):
        checks.check(pt, member, dataclasses.replace(answer, value=not answer.value), rng)


def test_check_rejects_a_missing_root_mod_a_large_prime(pt):
    requests = workloads.generate("wide", 1, 40)
    req = next(r for r in requests if r.kind == "balls" and r.e == 1 and len(execute(pt, r).value.balls) > 1)
    answer = execute(pt, req)
    checks.check(pt, req, answer, random.Random(0))
    dropped = dataclasses.replace(answer.value, balls=answer.value.balls[1:], count=answer.value.count - 1)
    with pytest.raises(checks.Mismatch):
        checks.check(pt, req, dataclasses.replace(answer, value=dropped, count=dropped.count), random.Random(0))


def test_check_rejects_wrong_cli_output(pt):
    req = _first(workloads.generate("session", 1, 12), kind="cli.solve")
    answer = execute(pt, req)
    checks.check(pt, req, answer, random.Random(0))
    doc = json.loads(answer.value)
    doc["payload"]["count"] = str(int(doc["payload"]["count"]) + 1)
    with pytest.raises(checks.Mismatch):
        checks.check(pt, req, dataclasses.replace(answer, value=json.dumps(doc)), random.Random(0))


def test_trace_self_check_catches_an_unwrapped_default(pt):
    requests = [r for r in workloads.generate("wide", 1, 40) if r.kind == "crt" and not r.over_cap][:2]
    tracer = Tracer()
    tracer.install(pt)
    try:
        worker.prefix_run(pt, requests, len(requests), tracer)
        tracer.self_check()
        assert tracer.calls["trunk.thickness"] > 0
        assert set(tracer.metrics(0.0)) == set(PER_LAYER)

        # undo the rebinding of crt_solve's trunk_builder default
        crt = pt.solver.crt_solve.__wrapped__
        crt.__kwdefaults__ = {**crt.__kwdefaults__, "trunk_builder": pt.trunk.build_trunk.__wrapped__}
        worker.prefix_run(pt, requests, len(requests), tracer)
        with pytest.raises(SelfCheckFailed):
            tracer.self_check()
    finally:
        tracer.uninstall()
    assert pt.solver.crt_solve.__kwdefaults__["trunk_builder"] is pt.build_trunk
    assert not hasattr(pt.build_trunk, "__wrapped__")


@pytest.mark.parametrize("trace, names", [(0, {"setup_s", "requests_per_s"}),
                                           (1, {"trace.overhead_frac"})])
def test_command_prints_contract_result(monkeypatch, capsys, trace, names):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "TRACE_REQUESTS", dict.fromkeys(workloads.WORKLOADS, 3))
    assert run.main(["--workload", "all", "--seed", "2", "--seconds", "0.2", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 3
    assert {f"{w}.{n}" for w in workloads.WORKLOADS for n in names} <= set(result["metrics"])


def test_latencies_are_scaled_by_the_host_speed_around_them():
    ref = run.HOST_REFERENCE_S
    probes = [ref] * 20 + [2 * ref] * 20
    scaled = run.at_reference_speed([1.0] * 40, probes)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrapper_cost_is_taken_off_callee_and_caller():
    tracer = Tracer()
    tracer.cost_ns = {True: (100.0, 50.0), False: (10.0, 5.0)}
    leaf = tracer._wrap("leaf", lambda: None, False)

    def body():
        for _ in range(3):
            leaf()

    outer = tracer._wrap("outer", body, True)
    tracer.begin_request(0, "t")
    outer()
    tracer.end_request()
    raw = tracer.self_ns
    assert tracer.corrected_self_ns("leaf") == max(raw["leaf"] - 3 * 10, 0)
    assert tracer.corrected_self_ns("outer") == max(raw["outer"] - 100 - 3 * 5, 0)
    assert tracer.corrected_self_ns("request.t") == max(raw["request.t"] - 50, 0)
