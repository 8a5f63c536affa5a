"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each package module and
replaces every reference to them: module attributes, names bound by
``from ... import`` in other modules, class attributes (including
aliases such as ``__rmul__ = __mul__``) and function defaults bound at
definition time (``crt_solve(..., trunk_builder=build_trunk)``).

A wrapped call pushes a frame; its self time is its duration minus the
time of the wrapped calls inside it, minus the tracer's own cost.  That
cost is measured when the tracer is installed, on calls of a no-op
(``calibrate``): the part of a wrapped call inside its own interval is
taken off the callee's self time, the part outside it (entering and
leaving the wrapper) off the caller's.  Calls of the layer boundaries are
kept as spans (name, start, end, parent span, request id) in memory and
written out at the end.  The three hottest leaf functions (``val_p``,
``Polynomial.__eq__``, ``Polynomial.evaluate``) run up to millions of
times per run, so they only add to counts and self time.  Counts are
taken in the same wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import statistics
from collections import Counter

from spec import PER_LAYER

_ns = time.perf_counter_ns

#: (metric prefix, module, attribute, kept as spans)
TARGETS = (
    ("parser.parse", "parser", "parse", True),
    ("polynomial.mul", "polynomial", "Polynomial.__mul__", True),
    ("polynomial.shift_scale", "polynomial", "Polynomial.shift_scale", True),
    ("polynomial.p_content", "polynomial", "Polynomial.p_content", True),
    ("polynomial.val_p", "polynomial", "val_p", False),
    ("polynomial.eq", "polynomial", "Polynomial.__eq__", False),
    ("polynomial.evaluate", "polynomial", "Polynomial.evaluate", False),
    ("trunk.build_trunk", "trunk", "build_trunk", True),
    ("trunk.thickness", "trunk", "thickness", True),
    ("trunk.hensel_lift", "trunk", "hensel_lift", True),
    ("primes.is_prime", "primes", "is_prime", True),
    ("primes.factorize", "primes", "factorize", True),
    ("solver.count_solutions", "solver", "count_solutions", True),
    ("solver.ball_decomposition", "solver", "ball_decomposition", True),
    ("solver.is_solution", "solver", "is_solution", True),
    ("solver.enumerate_solutions", "solver", "enumerate_solutions", True),
    ("solver.crt_solve", "solver", "crt_solve", True),
    ("analysis.poincare_series", "analysis", "poincare_series", True),
    ("cli.main", "cli", "main", True),
)
#: Generator counted but not timed: its time falls to whoever consumes it.
TRAVERSAL = ("trunk", "Trunk.iter_nodes")

#: Measured from outside only in part, with the reason.
UNMEASURED = {
    "ancestor scan walk": "the generator over ancestors inside build_trunk is not a function;"
                          " only its Polynomial.__eq__ calls are timed, the walk itself is"
                          " part of trunk.build_trunk.self_s",
    "window traversal": "_window_balls and _require_depth are private; their time is part of"
                        " the self time of the solver function that calls them",
    "cli rendering vs argument parsing": "both run inside cli.main and are reported together"
                                         " as cli.main.self_s",
    "tracing cost": "the wrappers' cost per call is measured on a no-op and subtracted from the"
                    " self times; what that misses shows as the corrected self times' sum"
                    " exceeding the untraced time; trace.overhead_frac is the total cost",
}

#: Calls of the no-op per calibration round, and rounds (the median is used).
CALIBRATION_CALLS = 10_000
CALIBRATION_ROUNDS = 7

class SelfCheckFailed(AssertionError):
    """The wrappers missed a call site or changed an answer."""


def _resolve(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _walk(trunk):
    """Non-root vertices, without calling the (wrapped) Trunk.iter_nodes."""
    stack = list(trunk.root.children)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


class Tracer:
    def __init__(self):
        self.active = False
        self.request_id = -1
        # frames: [name, span id, start ns, child ns, innermost span id, parent span id,
        #          wrapped child calls kept as spans, other wrapped child calls]
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        # wrapped calls made directly by each name, split as frame fields 6 and 7
        self.child_calls: Counter = Counter()
        self.keeps: dict[str, bool] = {}
        # wrapper cost per call in ns: {kept as span: (inside, outside)}
        self.cost_ns = {True: (0.0, 0.0), False: (0.0, 0.0)}
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._hooks = {
            "trunk.thickness": self._on_thickness,
            "trunk.build_trunk": self._on_trunk,
            "polynomial.evaluate": self._on_evaluate,
            "polynomial.val_p": self._on_val_p,
            "trunk.hensel_lift": self._on_hensel,
            "solver.enumerate_solutions": self._on_listing,
            "solver.crt_solve": self._on_crt,
        }

    # -- frames ---------------------------------------------------------

    # The start clock is read first thing in the wrapper and the end clock
    # first thing in _exit; the wrapper then takes the time from that end
    # to its return (bookkeeping and hooks) out of the caller's self time.
    # What remains of the tracer's cost, calibrate() measures.

    def _enter(self, name: str, keep: bool, start: int) -> list:
        outer = self.stack[-1][4] if self.stack else None
        sid = None
        if keep:
            sid = self._next_id
            self._next_id += 1
        frame = [name, sid, start, 0, sid if keep else outer, outer, 0, 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> int:
        end = _ns()
        self.stack.pop()
        name, sid, start, child, _, outer, kept, other = frame
        self.calls[name] += 1
        self.self_ns[name] += end - start - child
        self.child_calls[name, True] += kept
        self.child_calls[name, False] += other
        if self.stack:
            parent = self.stack[-1]
            parent[3] += end - start
            parent[6 if sid is not None else 7] += 1
        if sid is not None:
            self.spans.append((sid, name, outer, self.request_id, start, end))
        return end

    def begin_request(self, request_id: int, kind: str) -> None:
        self.request_id = request_id
        self.active = True
        self._request = self._enter(f"request.{kind}", True, _ns())

    def end_request(self) -> None:
        self._exit(self._request)
        self.active = False

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self
        hook = self._hooks.get(name)
        self.keeps[name] = keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, keep, _ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._exit(frame)
            if hook is not None:
                hook(args, kwargs, result)
            if tracer.stack:
                tracer.stack[-1][3] += _ns() - end
            return result
        return wrapper

    def _wrap_traversal(self, fn):
        tracer = self

        def counted(gen):
            for node in gen:
                tracer.counts["solver.nodes_visited"] += 1
                yield node

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts["solver.traversals"] += 1
            return counted(fn(*args, **kwargs))
        return wrapper

    def install(self, package) -> None:
        """Wrap every target and rebind every reference to it in the package."""
        prefix = package.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for name, modname, attr, keep in TARGETS + (("solver.traversals", *TRAVERSAL, None),):
            original = _resolve(sys.modules.get(f"{prefix}.{modname}"), attr)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = (self._wrap_traversal(original) if keep is None
                       else self._wrap(name, original, keep))
            self._rebind(modules, original, wrapper)

    def calibrate(self) -> None:
        """Measure the wrappers' cost per call, inside and outside the callee's interval.

        A scratch tracer times CALIBRATION_CALLS calls of a wrapped no-op
        from inside a request: the no-op's recorded self time, less what a
        plain call of it costs, is the inside part; the request's recorded
        self time per call, less an empty loop's, is the outside part.
        """
        # three positional arguments, as in the hottest call, P.evaluate(x, p)
        def noop(a, b, c):
            pass

        def loop(fn):
            for _ in range(CALIBRATION_CALLS):
                fn(None, 0, 1)

        def empty():
            for _ in range(CALIBRATION_CALLS):
                pass

        def per_call(fn, *args) -> float:
            start = _ns()
            fn(*args)
            return (_ns() - start) / CALIBRATION_CALLS

        rounds: dict[str, list[float]] = {}
        for _ in range(CALIBRATION_ROUNDS):
            rounds.setdefault("empty", []).append(per_call(empty))
            rounds.setdefault("plain", []).append(per_call(loop, noop))
            for keep in (True, False):
                scratch = Tracer()
                wrapped = scratch._wrap("noop", noop, keep)
                scratch.begin_request(0, "calibration")
                loop(wrapped)
                scratch.end_request()
                rounds.setdefault(("inside", keep), []).append(
                    scratch.self_ns["noop"] / CALIBRATION_CALLS)
                rounds.setdefault(("outside", keep), []).append(
                    scratch.self_ns["request.calibration"] / CALIBRATION_CALLS)
        m = {k: statistics.median(v) for k, v in rounds.items()}
        call = m["plain"] - m["empty"]
        self.cost_ns = {keep: (max(m["inside", keep] - call, 0.0),
                               max(m["outside", keep] - m["empty"], 0.0))
                        for keep in (True, False)}

    def _set(self, owner, key: str, value, old) -> None:
        setattr(owner, key, value)
        self._restore.append((owner, key, old))

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper, original)
                owners = [value] if hasattr(value, "__kwdefaults__") else []
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for ckey, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, ckey, wrapper, original)
                        elif hasattr(cvalue, "__kwdefaults__"):
                            owners.append(cvalue)
                # a function wrapped earlier keeps its defaults on the original
                owners += [fn.__wrapped__ for fn in owners if hasattr(fn, "__wrapped__")]
                for fn in owners:
                    kw = fn.__kwdefaults__ or {}
                    if any(v is original for v in kw.values()):
                        self._set(fn, "__kwdefaults__",
                                  {k: wrapper if v is original else v for k, v in kw.items()}, kw)
                    pos = fn.__defaults__ or ()
                    if any(v is original for v in pos):
                        self._set(fn, "__defaults__",
                                  tuple(wrapper if v is original else v for v in pos), pos)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, old = self._restore.pop()
            setattr(owner, key, old)

    # -- hooks ----------------------------------------------------------

    def _on_thickness(self, args, kwargs, result) -> None:
        bits = max((abs(c).bit_length() for c in result[1].coeffs), default=0)
        if bits > self.counts["polynomial.successor_bits_max"]:
            self.counts["polynomial.successor_bits_max"] = bits

    def _on_trunk(self, args, kwargs, trunk) -> None:
        for node in _walk(trunk):
            self.counts["trunk.nonroot"] += 1
            self.counts[f"trunk.nodes.{node.status.split('-')[0]}"] += 1
            if node.k > self.counts["trunk.depth_max"]:
                self.counts["trunk.depth_max"] = node.k

    def _on_evaluate(self, args, kwargs, result) -> None:
        if self.stack and self.stack[-1][0] == "trunk.build_trunk":
            self.counts["trunk.root_scan.candidates"] += 1

    def _on_val_p(self, args, kwargs, result) -> None:
        if result != float("inf"):
            self.counts["polynomial.val_p.valuations"] += result

    def _on_hensel(self, args, kwargs, result) -> None:
        self.counts["trunk.hensel_lift.digits"] += args[3] if len(args) > 3 else kwargs["e"]

    def _on_listing(self, args, kwargs, result) -> None:
        self.counts["solver.solutions_listed"] += len(result)

    def _on_crt(self, args, kwargs, result) -> None:
        if result.solutions is not None:
            self.counts["solver.solutions_listed"] += len(result.solutions)

    # -- results --------------------------------------------------------

    def self_check(self) -> None:
        """Every vertex of every returned trunk came from one traced thickness call."""
        thickness = self.calls["trunk.thickness"]
        vertices = self.counts["trunk.nonroot"]
        if "trunk.thickness" not in self.missing and thickness != vertices:
            raise SelfCheckFailed(
                f"trace self-check: {thickness} traced thickness calls but {vertices}"
                " non-root vertices in the returned trunks; a call site was not wrapped")

    def corrected_self_ns(self, name: str) -> float:
        """Self time of name less the wrappers' cost in it (never below 0)."""
        own = self.calls[name] * self.cost_ns[self.keeps[name]][0] if name in self.keeps else 0.0
        children = sum(self.child_calls[name, keep] * self.cost_ns[keep][1] for keep in (True, False))
        return max(self.self_ns[name] - own - children, 0.0)

    def attributed_s(self) -> float:
        """Sum of all corrected self times, requests included: compare with the untraced time."""
        return sum(self.corrected_self_ns(name) for name in self.self_ns) / 1e9

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in PER_LAYER:
            target, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[target]
            elif field == "self_s":
                out[name] = self.corrected_self_ns(target) / 1e9
            else:
                out[name] = self.counts[name]
        out["polynomial.val_p.divisions"] = (self.counts["polynomial.val_p.valuations"]
                                             + self.calls["polynomial.val_p"])
        candidates = self.counts["trunk.root_scan.candidates"]
        out["trunk.root_scan.hit_ratio"] = self.calls["trunk.thickness"] / candidates if candidates else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, request, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "request": request, "start_ns": start, "end_ns": end}))
                fh.write("\n")
