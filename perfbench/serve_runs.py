"""Serving runs: cold step-model set-up, timed serves and the traced serve.

Shared by the two serving workloads and by the short library-kernel serve
of ``compile-families``.  Only public entry points are driven:
``StepLatencyModel.precompile`` / ``step_breakdown_ms`` / ``step_latency_ms``,
``ServingSimulator`` / ``ClusterSimulator.simulate`` and
``ServeReport.digest`` / ``ClusterReport.digest``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Dict, List, Optional

from repro.pipeline import CompileCache, compile_program
from repro.serving import ClusterSimulator, ServingSimulator, StepLatencyModel
from repro.serving.report import percentile
from repro.serving.router import get_router
from repro.serving.scheduler import get_scheduler
from repro.synthesis.smem_solver import clear_smem_cache
from repro.utils.memo import cache_stats, clear_caches

from perfbench import workloads as wl
from perfbench.layers import (
    PASS_NAMES,
    SEARCH_COUNTERS,
    pass_times,
    put_compile_layers,
    put_step_model_layers,
    summed,
)
from perfbench.outcome import Outcome, geomean, latency_cycles, median
from perfbench.probes import (
    TimedRouter,
    TimedScheduler,
    TimedStepModel,
    Tracer,
    clock,
    timed_pass_manager,
)
from perfbench.speed import SpeedProbe

# A cold serving set-up takes ~3.8 s of CPU time on an idle machine and
# ~10 s while the host is loaded (tv-synthesis dominates); two per run keep
# a 70-run check under 2600 s even then.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class ServeSpec:
    """One served configuration: its traffic and how to build the simulator."""

    name: str
    traffic: Callable[[int], list]
    backend: str
    scheduler: str
    router: Optional[str] = None
    replicas: int = 1
    kv_budget_blocks: Optional[int] = None
    # Distinct traces served per run; the modeled metrics are their median.
    num_traces: int = 1

    def trace_seeds(self, seed: int) -> List[int]:
        """Trace ``i`` of run seed ``s`` is drawn from ``s * num_traces + i``,
        so trace 0 of seed 0 is ``traffic(0)``."""
        return [seed * self.num_traces + i for i in range(self.num_traces)]

    def traces(self, seed: int) -> List[list]:
        return [self.traffic(trace_seed) for trace_seed in self.trace_seeds(seed)]

    def make(self, model, scheduler=None, router=None):
        scheduler = scheduler if scheduler is not None else self.scheduler
        common = dict(
            backend=self.backend, scheduler=scheduler, arch=wl.ARCH,
            max_batch_size=wl.MAX_BATCH, step_model=model,
            kv_budget_blocks=self.kv_budget_blocks,
        )
        if self.router is None:
            return ServingSimulator(wl.SIM_MODEL, **common)
        return ClusterSimulator(
            wl.SIM_MODEL, replicas=self.replicas,
            router=router if router is not None else self.router, **common,
        )


FCFS = ServeSpec("serve-fcfs-diurnal", wl.fcfs_traffic, "hexcute", "fcfs")
FLEET = ServeSpec(
    "fleet-slo-prefix", wl.fleet_traffic, "hexcute", "slo",
    router="prefix-affinity", replicas=2, kv_budget_blocks=wl.FLEET_KV_BLOCKS,
    num_traces=wl.FLEET_TRACES,
)
# compile-families' serve: library kernels, so the compiler does none of it.
CONTROL = ServeSpec("control-library-fcfs", wl.control_traffic, "baseline", "fcfs")


def memo_totals() -> Dict[str, int]:
    infos = cache_stats().values()
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


def clear_compile_state() -> None:
    """Drop every process-wide compiler memo so the next compile is cold."""
    clear_caches()
    clear_smem_cache()
    gc.collect()


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Setup:
    model: StepLatencyModel
    compiled: int
    precompile_s: float
    lookup_s: float
    memo: Dict[str, int]
    cache: Dict[str, int]

    @property
    def total_s(self) -> float:
        return self.precompile_s + self.lookup_s


def replica_buckets(model: StepLatencyModel) -> List[int]:
    """The batch buckets a replica's ``precompile()`` covers."""
    return [b for b in model.buckets if b <= wl.MAX_BATCH]


def cold_setup(spec: ServeSpec, tracer: Optional[Tracer] = None) -> Setup:
    """Serving start-up from cold caches: ``precompile()`` of the replica's
    batch buckets, then the first step-latency lookup of every batch size
    up to the max batch (these replay the precompiled kernels).

    Both run serially (``max_workers=1``, ``parallel=False``), the same
    work as the simulator's threaded start-up.  With the two-thread
    fan-out, GIL contention made one ``precompile()`` take anywhere from
    5.3 to 10.0 s on the same machine, while the serial compiles of
    compile-families varied by under 10%.
    """
    clear_compile_state()
    cache = CompileCache()
    start = clock()
    if tracer is None:
        model = StepLatencyModel(wl.ARCH, cache=cache)
    else:
        model = TimedStepModel(tracer, wl.ARCH, cache=cache)
    stats = model.precompile(wl.SIM_MODEL, spec.backend, buckets=replica_buckets(model),
                             max_workers=1)
    mid = clock()
    for batch in range(1, wl.MAX_BATCH + 1):
        model.step_breakdown_ms(wl.SIM_MODEL, spec.backend, batch, parallel=False)
    end = clock()
    return Setup(model, stats.compiled, mid - start, end - mid, memo_totals(),
                 cache.stats.as_dict())


def cached_kernels(cache: CompileCache) -> list:
    """The compile-cache entries holding a kernel (read after its stats)."""
    entries = [cache.get(key) for key in cache.keys()]
    return [entry for entry in entries if entry is not None and entry.kernel is not None]


def put_setup_metrics(out: Outcome, setups: List[Setup], factor: float) -> None:
    """Set-up metrics in seconds at the reference speed (CPU seconds x
    ``factor``)."""
    out.put("setup_s", median(s.total_s for s in setups) * factor, "s")
    out.put("compile_cold_s", median(s.precompile_s for s in setups) * factor, "s")
    out.put("compile_warm_s", median(s.lookup_s for s in setups) * factor, "s")
    kernels = [entry.kernel for entry in cached_kernels(setups[-1].model.cache)]
    out.put("kernel_latency_cycles_geomean", geomean(map(latency_cycles, kernels)), "cycles")
    out.put("generated_source_bytes", sum(len(k.source.encode()) for k in kernels), "bytes")
    out.note(f"set-up x{len(setups)}: " + ", ".join(
        f"{s.precompile_s:.2f}+{s.lookup_s:.2f} s ({s.compiled} compiled, "
        f"{s.cache['replays']} replays)" for s in setups) + " of CPU time")


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def check_report(out: Outcome, spec: ServeSpec, requests, report, digest: str,
                 seed: int, expected: dict) -> None:
    """Conservation, per-request timestamp order and the seed-0 digest."""
    arrival = {r.request_id: r.arrival_ms for r in requests}
    done = [m.request_id for m in report.requests]
    out.check(len(set(done)) == len(done), f"{spec.name}: a request completed twice")
    out.check(set(done) <= set(arrival), f"{spec.name}: completed an unknown request")
    lost = len(requests) - len(set(done) & set(arrival)) - report.shed
    out.check(lost == 0, f"{spec.name}: {lost} requests neither completed nor shed",
              operations=max(lost, 1))
    disorder = sum(
        1 for m in report.requests
        if not (arrival.get(m.request_id) == m.arrival_ms
                <= m.scheduled_ms <= m.first_token_ms <= m.finish_ms)
    )
    out.check(disorder == 0,
              f"{spec.name}: {disorder} requests violate arrival <= scheduled "
              f"<= first token <= finish", operations=max(disorder, 1))
    want = expected[spec.name]
    if seed == want["seed"]:
        out.check(digest == want["digest"],
                  f"{spec.name}: seed-{seed} digest {digest} != expected {want['digest']}")


def layer_stats(report) -> dict:
    replicas = getattr(report, "replicas", None) or [report]
    steps = sum(r.steps for r in replicas)
    return {
        "steps": steps,
        "mean_batch": sum(r.mean_batch_size * r.steps for r in replicas) / steps,
        "mean_queue_depth": sum(r.mean_queue_depth * r.steps for r in replicas) / steps,
        "preemptions": sum(r.preemptions for r in replicas),
        "peak_kv_util": max(r.kv_peak_utilization for r in replicas),
        "prefix_hits": sum(r.prefix_hits for r in replicas),
        "prefix_evictions": sum(r.prefix_evictions for r in replicas),
        "prefix_hit_rate": report.prefix_hit_rate,
        "queue_wait_p99_ms": percentile([m.queue_ms for m in report.requests], 99),
    }


# --------------------------------------------------------------------------- #
# Timed serves
# --------------------------------------------------------------------------- #
def serve_once(sim, spec: ServeSpec, requests):
    """One ``simulate()`` plus ``digest()``, timed separately."""
    gc.collect()
    start = clock()
    report = sim.simulate(requests, workload=spec.name)
    mid = clock()
    digest = report.digest()
    return report, digest, mid - start, clock() - mid


class ServeSeries:
    """Timed serves of a run's traces, in rotation.

    Every serve is checked.  The first serve of each trace also supplies
    that trace's modeled results, and later serves of it must reproduce
    its digest.  ``sim_rps`` is the median over all serves; the modeled
    metrics are the median over the traces.
    """

    def __init__(self, out: Outcome, spec: ServeSpec, seed: int, expected: dict,
                 speed: SpeedProbe):
        self.out, self.spec, self.expected, self.speed = out, spec, expected, speed
        self.seeds = spec.trace_seeds(seed)
        self.traces = spec.traces(seed)
        self.rates: List[float] = []
        self.digests: Dict[int, str] = {}
        self.tok_s: List[float] = []
        self.ttft_p99_ms: List[float] = []

    def run(self, model, seconds: float, min_serves: int) -> None:
        """Serve on ``model`` for ``seconds`` of wall time, and at least
        until ``min_serves`` serves have been made in all."""
        out, spec = self.out, self.spec
        sim = spec.make(model)
        begin = time.perf_counter()
        while len(self.rates) < min_serves or time.perf_counter() - begin < seconds:
            index = len(self.rates) % len(self.traces)
            requests = self.traces[index]
            report, digest, sim_s, digest_s = serve_once(sim, spec, requests)
            self.rates.append(len(requests) / (sim_s + digest_s))
            out.attempted += len(requests)
            if index not in self.digests:
                self.digests[index] = digest
                self._first_report(index, report, digest)
            else:
                out.check(digest == self.digests[index],
                          f"{spec.name}: repeated serve changed the digest")
            del report
        self.speed.sample()

    def _first_report(self, index: int, report, digest: str) -> None:
        out = self.out
        check_report(out, self.spec, self.traces[index], report, digest,
                     self.seeds[index], self.expected)
        self.tok_s.append(report.throughput_tok_s)
        self.ttft_p99_ms.append(report.ttft_percentile_ms(99))
        stats = layer_stats(report)
        out.note(
            f"{self.spec.name} trace seed {self.seeds[index]}: "
            f"{len(report.requests)} requests completed "
            f"(the modeled-latency sample count), {stats['steps']} steps, "
            f"mean queue depth {stats['mean_queue_depth']:.0f}, "
            f"{stats['preemptions']} preemptions, {self.tok_s[-1]:.0f} tok/s, "
            f"TTFT p99 {self.ttft_p99_ms[-1]:.0f} ms, digest {digest[:16]}"
        )

    def finish(self) -> None:
        """Puts the serving metrics; ``sim_rps`` at the reference speed."""
        self.out.put("sim_rps", median(self.rates) / self.speed.factor, "1/s")
        self.out.put("modeled_tok_s", median(self.tok_s), "tok/s")
        self.out.put("modeled_ttft_p99_ms", median(self.ttft_p99_ms), "ms")
        self.out.note(f"{self.spec.name}: {len(self.rates)} serves, req per CPU second " +
                      ", ".join(f"{r:.0f}" for r in self.rates))


# --------------------------------------------------------------------------- #
# The traced serve
# --------------------------------------------------------------------------- #
def traced_serve(out: Outcome, spec: ServeSpec, model, requests, seed: int,
                 expected: dict, tracer: Tracer) -> float:
    """An untraced serve, then the same serve with every serving layer
    wrapped; the two must digest identically.  Puts the serving per-layer
    metrics and returns the tracing overhead (traced over untraced
    ``simulate()`` time, minus one)."""
    base_report, base_digest, base_sim_s, _ = serve_once(spec.make(model), spec, requests)
    out.attempted += len(requests)
    check_report(out, spec, requests, base_report, base_digest, seed, expected)
    del base_report

    scheduler = TimedScheduler(get_scheduler(spec.scheduler), tracer)
    router = TimedRouter(get_router(spec.router), tracer) if spec.router else None
    sim = spec.make(model, scheduler=scheduler, router=router)
    gc.collect()
    span = tracer.begin("simulate", workload=spec.name)
    report = sim.simulate(requests, workload=spec.name)
    tracer.end(span)
    span = tracer.begin("report.digest")
    digest = report.digest()
    tracer.end(span)
    out.attempted += len(requests)
    out.check(digest == base_digest,
              f"{spec.name}: traced serve digest {digest} != untraced {base_digest}")

    simulate_s = tracer.total("simulate")
    self_times = tracer.self_times()
    stats = layer_stats(report)
    out.put("serving.simulator.simulate_s", simulate_s, "s")
    out.put("serving.simulator.engine_self_s", self_times.get("simulate", 0.0), "s")
    out.put("serving.simulator.steps", stats["steps"], "count")
    out.put("serving.simulator.mean_batch", stats["mean_batch"], "count")
    out.put("serving.simulator.mean_queue_depth", stats["mean_queue_depth"], "count")
    out.put("serving.scheduler.select_s", tracer.total("scheduler.select"), "s")
    out.put("serving.scheduler.select_calls", scheduler.select_calls, "count")
    out.put("serving.scheduler.waiting_scanned", scheduler.waiting_scanned, "count")
    out.put("serving.scheduler.preempt_s", tracer.total("scheduler.preempt_order"), "s")
    out.put("serving.scheduler.preempt_calls", scheduler.preempt_calls, "count")
    out.put("serving.scheduler.queue_wait_p99_ms", stats["queue_wait_p99_ms"], "ms")
    out.put("serving.router.route_s", tracer.total("router.route"), "s")
    out.put("serving.router.route_calls", router.route_calls if router else 0, "count")
    out.put("serving.step_model.lookup_s", _within(tracer, "step_model.lookup", "simulate"), "s")
    out.put("serving.memory.preemptions", stats["preemptions"], "count")
    out.put("serving.memory.peak_kv_util", stats["peak_kv_util"], "ratio")
    out.put("serving.prefix.hits", stats["prefix_hits"], "count")
    out.put("serving.prefix.hit_rate", stats["prefix_hit_rate"], "ratio")
    out.put("serving.prefix.evictions", stats["prefix_evictions"], "count")
    out.put("serving.report.digest_s", tracer.total("report.digest"), "s")
    out.note(f"{spec.name}: simulate {simulate_s:.3f} s traced vs {base_sim_s:.3f} s "
             f"untraced (overhead {simulate_s / base_sim_s - 1.0:+.1%})")
    layers = {name: _within(tracer, name, "simulate")
              for name in ("scheduler.select", "scheduler.preempt_order", "router.route",
                           "step_model.lookup")}
    out.note(f"{spec.name} self time in simulate(): " + ", ".join(
        f"{name} {seconds:.3f} s" for name, seconds in layers.items()
    ) + f", unattributed engine {self_times.get('simulate', 0.0):.3f} s "
        f"of {simulate_s:.3f} s")
    return simulate_s / base_sim_s - 1.0


def _within(tracer: Tracer, name: str, ancestor: str) -> float:
    """Total duration of ``name`` spans whose parent is an ``ancestor`` span."""
    spans = tracer.spans
    return sum(end - start for n, start, end, parent, _ in spans
               if n == name and parent >= 0 and spans[parent][0] == ancestor)


# --------------------------------------------------------------------------- #
# Compile-side per-layer metrics of a serving set-up
# --------------------------------------------------------------------------- #
def warm_replays(out: Outcome, spec: ServeSpec, model, tracer: Tracer) -> None:
    """Replay the set-up's compile requests (freshly built, equivalent
    programs) through a timed pass manager: the path the first lookups
    take, pass by pass.  Each must be a cache replay of the cold kernel."""
    manager = timed_pass_manager(tracer)
    cold = {entry.key: entry.source_digest for entry in cached_kernels(model.cache)}
    requests = model.precompile_requests(wl.SIM_MODEL, spec.backend, replica_buckets(model))
    for request in requests:
        span = tracer.begin("compile.warm", kernel=request.program.name)
        try:
            kernel = compile_program(
                request.program, arch=request.arch, instructions=request.instructions,
                options=request.options, cache=model.cache, pass_manager=manager,
            )
        except (ValueError, RuntimeError):
            continue  # an infeasible tile, exactly as precompile() tolerates it
        finally:
            tracer.end(span)
        out.attempted += 1
        same = cold.get(kernel.fingerprint) == sha256(kernel.source.encode()).hexdigest()
        out.check(kernel.cache_hit and same,
                  f"{spec.name}: warm replay of {request.program.name} is not a "
                  f"bit-identical cache replay")


# --------------------------------------------------------------------------- #
# The serving workloads
# --------------------------------------------------------------------------- #
def run(spec: ServeSpec, seed: int, seconds: float, trace: bool, expected: dict) -> Outcome:
    out = Outcome()
    if trace:
        return run_traced(out, spec, spec.traces(seed)[0], spec.trace_seeds(seed)[0],
                          expected)
    # Set-ups and serves alternate, so a slow spell of the machine lands on
    # one sample of each metric rather than on all of them.  Every trace is
    # served by the end.
    speed = SpeedProbe()
    speed.sample()
    series, setups = ServeSeries(out, spec, seed, expected, speed), []
    for repeat in range(1, SETUP_REPEATS + 1):
        setups.append(cold_setup(spec))
        speed.sample()
        series.run(setups[-1].model, seconds / SETUP_REPEATS,
                   min_serves=-(-spec.num_traces * repeat // SETUP_REPEATS))
    put_setup_metrics(out, setups, speed.factor)
    series.finish()
    out.note(f"{spec.name}: {speed.summary()}")
    return out


def run_traced(out: Outcome, spec: ServeSpec, requests, seed: int, expected: dict) -> Outcome:
    """One traced cold set-up, timed warm replays of its compiles, then the
    untraced and the traced serve."""
    tracer = Tracer()
    setup = cold_setup(spec, tracer)
    put_step_model_layers(out, setup)
    entries = cached_kernels(setup.model.cache)
    warm_replays(out, spec, setup.model, tracer)
    self_times = tracer.self_times()
    put_compile_layers(
        out,
        summed((e.pass_stats for e in entries), PASS_NAMES),
        pass_times(tracer)["warm"],
        self_times.get("compile.warm", 0.0),
        setup.memo,
        summed((e.pass_stats for e in entries), SEARCH_COUNTERS.values()),
        setup.cache,
    )
    overhead = traced_serve(out, spec, setup.model, requests, seed, expected, tracer)
    out.put("trace.overhead_ratio", overhead, "ratio")
    out.tracer = tracer
    return out
