"""Benchmark-side probes: a span tracer and delegating layer wrappers.

Every probe sits *outside* the program, on a public extension point: a
``PassManager`` built from timed pass wrappers, and ``Scheduler``,
``Router`` and ``StepLatencyModel`` subclasses that forward each call to
the real implementation and time it.  The wrappers only observe, so a
traced run is digest-identical and source-identical to an untraced one.

Spans are kept in memory as ``[name, start, end, parent, args]`` records
(``parent`` is an index into the span list, -1 for a root) and written as
Chrome trace-event JSON at the end of a run; Perfetto and
``chrome://tracing`` open the file directly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List

from repro.pipeline import PassManager
from repro.pipeline.passes import CompilerPass
from repro.serving.router import Router
from repro.serving.scheduler import Scheduler
from repro.serving.step_model import StepLatencyModel


def clock() -> float:
    """CPU seconds used by this process, every thread included.

    Every timing in the benchmark process reads this clock.  The harness is
    single-threaded and the program's own work here is too (compiles run
    serially), so on an idle machine it equals wall time; on a shared host
    it leaves out the time the scheduler hands to other processes, which
    wall time counts and which made wall-clock runs of the same code
    differ by up to 2x.
    """
    return time.process_time()


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []

    def begin(self, name: str, **args) -> int:
        """Open a span; children recorded before :meth:`end` nest under it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, args])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def leaf(self, name: str, start: float, end: float, args=None) -> None:
        """Record an already-timed span under the open span (no children)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, args])

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write_chrome(self, path, process_name: str) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}}
        ]
        for index, (name, start, end, parent, args) in enumerate(self.spans):
            event_args = {"span": index, "parent": parent}
            if args:
                event_args.update(args)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": event_args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                      separators=(",", ":"))


# --------------------------------------------------------------------------- #
# Compiler passes
# --------------------------------------------------------------------------- #
class TimedPass(CompilerPass):
    """Runs the wrapped pass inside a ``pass.<name>`` span."""

    def __init__(self, inner: CompilerPass, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer

    def run(self, ctx) -> None:
        span = self.tracer.begin(f"pass.{self.name}")
        try:
            self.inner.run(ctx)
        finally:
            self.tracer.end(span)


def timed_pass_manager(tracer: Tracer) -> PassManager:
    """The default pipeline with every pass wrapped in a :class:`TimedPass`."""
    return PassManager([TimedPass(p, tracer) for p in PassManager().passes])


# --------------------------------------------------------------------------- #
# Serving layers
# --------------------------------------------------------------------------- #
class TimedScheduler(Scheduler):
    """Forwards every policy call to ``inner``; times ``select_memory`` and
    ``preempt_order`` and counts the waiting entries handed to selection."""

    def __init__(self, inner: Scheduler, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.select_calls = 0
        self.waiting_scanned = 0
        self.preempt_calls = 0

    def select(self, waiting, running, free_slots, now_ms, more_arrivals):
        return self.inner.select(waiting, running, free_slots, now_ms, more_arrivals)

    def select_memory(self, waiting, running, free_slots, now_ms, more_arrivals, memory):
        start = clock()
        chosen = self.inner.select_memory(
            waiting, running, free_slots, now_ms, more_arrivals, memory
        )
        self.tracer.leaf("scheduler.select", start, clock())
        self.select_calls += 1
        self.waiting_scanned += len(waiting)
        return chosen

    def preempt_order(self, running, now_ms):
        start = clock()
        order = self.inner.preempt_order(running, now_ms)
        self.tracer.leaf("scheduler.preempt_order", start, clock())
        self.preempt_calls += 1
        return order

    def next_event_ms(self, waiting, now_ms):
        return self.inner.next_event_ms(waiting, now_ms)


class TimedRouter(Router):
    """Forwards to ``inner``; each ``route`` is a span tagged with the
    request id."""

    def __init__(self, inner: Router, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.route_calls = 0

    def reset(self, num_replicas: int, seed: int = 0) -> None:
        self.inner.reset(num_replicas, seed)

    def route(self, request, replicas):
        start = clock()
        choice = self.inner.route(request, replicas)
        self.tracer.leaf("router.route", start, clock(),
                         {"request_id": request.request_id})
        self.route_calls += 1
        return choice


class TimedStepModel(StepLatencyModel):
    """A :class:`StepLatencyModel` whose ``precompile`` and
    ``step_latency_ms`` run inside spans."""

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def precompile(self, *args, **kwargs):
        span = self.tracer.begin("step_model.precompile")
        try:
            return super().precompile(*args, **kwargs)
        finally:
            self.tracer.end(span)

    def step_latency_ms(self, *args, **kwargs):
        span = self.tracer.begin("step_model.lookup")
        try:
            return super().step_latency_ms(*args, **kwargs)
        finally:
            self.tracer.end(span)
