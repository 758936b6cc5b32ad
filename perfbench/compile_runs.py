"""The compile-families workload and the compiler per-layer metrics.

Each cell compiles cold (fresh ``CompileCache``, every process-wide memo
dropped) and then warm, from a rebuilt equivalent program, through
``repro.pipeline.compile_program``.  The traced run passes a
benchmark-side ``PassManager`` whose passes time the real ones.
"""

from __future__ import annotations

import gc
import json
import time
from hashlib import sha256
from typing import List, Optional

import numpy as np

from repro.pipeline import CompileCache, compile_program
from repro.sim import run_kernel

from perfbench import workloads as wl
from perfbench.outcome import Outcome, geomean, latency_cycles, median
from perfbench.probes import Tracer, clock, timed_pass_manager
from perfbench.speed import SpeedProbe
from perfbench.layers import (
    PASS_NAMES,
    SEARCH_COUNTERS,
    pass_times,
    put_compile_layers,
    put_step_model_layers,
    summed,
)
from perfbench.serve_runs import (
    CONTROL,
    ServeSeries,
    clear_compile_state,
    cold_setup,
    memo_totals,
    traced_serve,
)

CONTROL_SECONDS = 3.0
# Building every tile program takes ~15 ms, so set-up is timed many times.
BUILD_REPEATS = 31
# Each pass over the 18 cells takes ~8 s of CPU time at reference speed,
# so --seconds alone would allow one; the compile times are the median of
# at least two.
COMPILE_PASSES = 2


def build_programs(cells):
    """A (cold, warm) program pair per cell, and the seconds building took."""
    gc.collect()
    start = clock()
    programs = [(cell.build(), cell.build()) for cell in cells]
    return programs, clock() - start


class CellResult:
    def __init__(self, cell):
        self.cell = cell
        self.cold = self.warm = None
        self.cold_s = self.warm_s = 0.0
        self.memo = {"hits": 0, "misses": 0}
        self.cache = {}


def compile_cell(cell, programs, manager=None, tracer: Optional[Tracer] = None) -> CellResult:
    """Cold compile, then the warm replay of the rebuilt program."""
    result = CellResult(cell)
    cold_program, warm_program = programs
    clear_compile_state()
    cache = CompileCache()
    for phase, program in (("cold", cold_program), ("warm", warm_program)):
        span = tracer.begin(f"compile.{phase}", cell=cell.label) if tracer else None
        start = clock()
        try:
            kernel = compile_program(
                program, arch=cell.arch, max_candidates=cell.max_candidates,
                cache=cache, backend=cell.backend, pass_manager=manager,
            )
        finally:
            elapsed = clock() - start
            if tracer:
                tracer.end(span)
        setattr(result, phase, kernel)
        setattr(result, f"{phase}_s", elapsed)
    result.memo = memo_totals()
    result.cache = cache.stats.as_dict()
    return result


def compile_all(out: Outcome, cells, manager=None, tracer=None) -> List[CellResult]:
    results = []
    programs, _ = build_programs(cells)
    for cell, pair in zip(cells, programs):
        out.attempted += 2
        try:
            results.append(compile_cell(cell, pair, manager, tracer))
        except Exception as exc:  # noqa: BLE001 - a failed compile is reported
            out.fail(f"{cell.label}: compile raised {type(exc).__name__}: {exc}", 2)
    return results


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def load_goldens() -> dict:
    path = wl.GOLDENS_DIR / "golden_backend_digests.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_cells(out: Outcome, results: List[CellResult], seed: int) -> None:
    goldens = load_goldens()
    cuda_sources = {r.cell.family: r.cold.source for r in results if r.cell.backend == "cuda"}
    for r in results:
        label, cold, warm = r.cell.label, r.cold, r.warm
        if r.cell.backend == "cuda" and r.cell.family in goldens:
            golden = goldens[r.cell.family]
            out.check(
                sha256(cold.source.encode()).hexdigest() == golden["source_sha256"]
                and [list(a) for a in cold.candidate.named_assignment(cold.program)]
                == golden["assignment"]
                and float(cold.latency_us).hex() == golden["latency_us"],
                f"{label}: differs from golden_backend_digests.json",
            )
        elif r.cell.backend != "cuda":
            out.check(cold.source != cuda_sources.get(r.cell.family),
                      f"{label}: source identical to the cuda backend's")
        out.check(
            warm.cache_hit and r.cache.get("replays") == 1
            and warm.source == cold.source
            and warm.latency_us == cold.latency_us
            and warm.candidate.named_assignment(warm.program)
            == cold.candidate.named_assignment(cold.program),
            f"{label}: warm compile is not a bit-identical cache replay",
        )
        if r.cell.gemm_shape is not None:
            check_gemm_numerics(out, r, seed)


def check_gemm_numerics(out: Outcome, result: CellResult, seed: int) -> None:
    """The compiled GEMM, run on the functional executor, against numpy."""
    m, n, k = result.cell.gemm_shape
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float16)
    b = rng.standard_normal((n, k)).astype(np.float16)
    buffers = {"a": a.reshape(-1).copy(), "b": b.reshape(-1).copy(),
               "c": np.zeros(m * n, dtype=np.float16)}
    try:
        run_kernel(result.cold.program, buffers)
    except Exception as exc:  # noqa: BLE001 - an executor failure fails the check
        out.fail(f"{result.cell.label}: executor raised {type(exc).__name__}: {exc}")
        return
    reference = a.astype(np.float32) @ b.astype(np.float32).T
    got = buffers["c"].reshape(m, n).astype(np.float32)
    out.check(np.allclose(got, reference, rtol=2e-2, atol=2e-1),
              f"{result.cell.label}: executor output differs from numpy a @ b.T "
              f"(max abs error {np.max(np.abs(got - reference)):.3g})")


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool, expected: dict) -> Outcome:
    out = Outcome()
    cells = wl.compile_cells(seed)
    speed = SpeedProbe()
    speed.sample()
    build_s = median(build_programs(cells)[1] for _ in range(BUILD_REPEATS))
    speed.sample()
    if trace:
        out.put("setup_s", build_s * speed.factor, "s")
        return run_traced(out, cells, seed, expected)

    cold_totals, warm_totals, results = [], [], None
    begin = time.perf_counter()
    while len(cold_totals) < COMPILE_PASSES or time.perf_counter() - begin < seconds:
        results = compile_all(out, cells)
        speed.sample()
        cold_totals.append(sum(r.cold_s for r in results))
        warm_totals.append(sum(r.warm_s for r in results))
    check_cells(out, results, seed)
    # Code quality of the golden families only: the seeded numerical-check
    # GEMM would make these vary with the seed rather than with the code.
    golden = [r.cold for r in results if r.cell.gemm_shape is None]
    out.put("kernel_latency_cycles_geomean", geomean(map(latency_cycles, golden)), "cycles")
    out.put("generated_source_bytes", sum(len(k.source.encode()) for k in golden), "bytes")
    out.note(f"compile-families: {len(results)} cells x {len(cold_totals)} passes, "
             f"cold " + ", ".join(f"{t:.2f}" for t in cold_totals) + " s, warm "
             + ", ".join(f"{t:.2f}" for t in warm_totals) + " s of CPU time")
    for r in results:
        out.note(f"  {r.cell.label:22s} cold {r.cold_s:6.3f} s  warm {r.warm_s:6.3f} s  "
                 f"latency {r.cold.latency_us:9.3f} us")

    series = ServeSeries(out, CONTROL, seed, expected, speed)
    series.run(cold_setup(CONTROL).model, CONTROL_SECONDS, min_serves=CONTROL.num_traces)
    series.finish()
    out.put("setup_s", build_s * speed.factor, "s")
    out.put("compile_cold_s", median(cold_totals) * speed.factor, "s")
    out.put("compile_warm_s", median(warm_totals) * speed.factor, "s")
    out.note(f"compile-families: {speed.summary()}")
    return out


def run_traced(out: Outcome, cells, seed: int, expected: dict) -> Outcome:
    """Untraced compiles, then traced compiles (sources must match), then
    the traced control serve."""
    plain = compile_all(out, cells)
    check_cells(out, plain, seed)
    plain_s = sum(r.cold_s + r.warm_s for r in plain)

    tracer = Tracer()
    traced = compile_all(out, cells, timed_pass_manager(tracer), tracer)
    traced_s = sum(r.cold_s + r.warm_s for r in traced)
    by_label = {r.cell.label: r for r in plain}
    for r in traced:
        base = by_label.get(r.cell.label)
        out.check(base is not None and r.cold.source == base.cold.source
                  and r.cold.latency_us == base.cold.latency_us
                  and r.warm.source == base.warm.source,
                  f"{r.cell.label}: traced compile differs from untraced")
    times = pass_times(tracer)
    self_times = tracer.self_times()
    put_compile_layers(
        out, times["cold"], times["warm"],
        self_times.get("compile.cold", 0.0) + self_times.get("compile.warm", 0.0),
        summed([r.memo for r in traced], ("hits", "misses")),
        summed([r.cold.pass_stats for r in traced], SEARCH_COUNTERS.values()),
        summed([r.cache for r in traced], ("hits", "misses", "replays")),
    )
    out.put("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio")
    out.note(f"compile-families: traced {traced_s:.2f} s vs untraced {plain_s:.2f} s")
    out.note("compile-families self time: " + ", ".join(
        f"{name} {self_times.get('pass.' + name, 0.0):.3f} s" for name in PASS_NAMES
    ) + f", unattributed {self_times.get('compile.cold', 0.0) + self_times.get('compile.warm', 0.0):.3f} s")

    setup = cold_setup(CONTROL, tracer)
    put_step_model_layers(out, setup)
    traced_serve(out, CONTROL, setup.model, CONTROL.traffic(seed), seed, expected, tracer)
    out.tracer = tracer
    return out
