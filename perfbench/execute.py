"""Run one request through the public API and fingerprint its answer.

Every call goes through attributes of the package looked up at call time
(``pt.parse``, ``pt.cli.main``, ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Any

from workloads import Request


class RequestFailed(RuntimeError):
    """A CLI request exited nonzero; carries its stderr."""


#: What a failed request may raise.  The package reports bad input and
#: refusals as ValueError subclasses and factoring failures as
#: RuntimeError, the same split its CLI catches.  Anything else is a bug
#: in the benchmark or the package and aborts the run.
FAILURES = (ValueError, RuntimeError)


@dataclass
class Answer:
    """value is what the request returned; trunk is kept for the checks."""

    value: Any
    count: int | None = None
    trunk: Any = None


def execute(pt, req: Request) -> Answer:
    if req.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pt.cli.main(list(req.argv))
        if rc != 0:
            raise RequestFailed(f"exit {rc}: {err.getvalue().strip()}")
        return Answer(out.getvalue())
    P = pt.parse(req.text)
    if req.kind == "crt":
        return Answer(pt.crt_solve(P, req.n, count_only=req.count_only))
    trunk = pt.build_trunk(P, req.p, max(req.e, 1))
    if req.kind == "count":
        return Answer(None, pt.count_solutions(trunk, req.e), trunk)
    if req.kind == "balls":
        count = pt.count_solutions(trunk, req.e)
        return Answer(pt.ball_decomposition(trunk, req.e), count, trunk)
    if req.kind == "member":
        return Answer(pt.is_solution(trunk, req.x, req.e), None, trunk)
    if req.kind == "list":
        return Answer(pt.enumerate_solutions(trunk, req.e), None, trunk)
    raise ValueError(f"unknown request kind {req.kind!r}")


def _h(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(req: Request, answer: Answer | None, error: BaseException | None = None) -> str:
    """Canonical one-line form of an answer, for comparing two runs."""
    if error is not None:
        return f"failed {type(error).__name__}"
    v = answer.value
    if req.argv:
        return f"cli {_h(v)}"
    if req.kind == "count":
        return f"count {answer.count}"
    if req.kind == "balls":
        balls = ",".join(f"{b.r}:{b.k}" for b in v.balls)
        return f"balls {answer.count} {v.count} {_h(balls)}"
    if req.kind == "member":
        return f"member {v}"
    if req.kind == "list":
        return f"list {len(v)} {_h(','.join(map(str, v)))}"
    factors = ";".join(f"{pp.p}^{pp.e}:{s.count}:" + ",".join(f"{b.r}:{b.k}" for b in s.balls)
                       for pp, s in v.factors)
    sols = "-" if v.solutions is None else _h(",".join(map(str, v.solutions)))
    return f"crt {v.count} {_h(factors)} {sols}"
