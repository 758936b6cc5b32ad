"""Compiler and step-model per-layer metrics shared by every workload."""

from __future__ import annotations

from typing import Dict, Iterable

from perfbench.outcome import Outcome
from perfbench.probes import Tracer

PASS_NAMES = ("tv-synthesis", "instruction-selection", "smem-swizzle", "codegen", "timing")

# per-layer metric -> the counter instruction selection records in pass_stats
SEARCH_COUNTERS = {
    "synthesis.search.leaves_evaluated": "instruction-selection.leaves_evaluated",
    "synthesis.search.leaves_pruned": "instruction-selection.leaves_pruned",
    "synthesis.smem_solver.swizzles_scored": "instruction-selection.swizzles_scored",
    "synthesis.smem_solver.swizzles_pruned": "instruction-selection.swizzles_pruned",
}


def summed(stats_list: Iterable[dict], keys: Iterable[str]) -> Dict[str, float]:
    stats_list = list(stats_list)
    return {key: sum(stats.get(key, 0) for stats in stats_list) for key in keys}


def pass_times(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Seconds per pass under ``compile.cold`` and ``compile.warm`` spans."""
    spans = tracer.spans
    times: Dict[str, Dict[str, float]] = {"cold": {}, "warm": {}}
    for name, start, end, parent, _ in spans:
        if name.startswith("pass.") and parent >= 0:
            phase = times[spans[parent][0].split(".", 1)[1]]
            phase[name[5:]] = phase.get(name[5:], 0.0) + end - start
    return times


def put_compile_layers(out: Outcome, cold_pass: Dict[str, float],
                       warm_pass: Dict[str, float], compile_self_s: float,
                       memo: Dict[str, int], counters: Dict[str, float],
                       cache: Dict[str, int]) -> None:
    for name in PASS_NAMES:
        out.put(f"pipeline.pass.{name}.cold_s", cold_pass.get(name, 0.0), "s")
        out.put(f"pipeline.pass.{name}.warm_s", warm_pass.get(name, 0.0), "s")
    out.put("pipeline.compile.self_s", compile_self_s, "s")
    lookups = memo["hits"] + memo["misses"]
    out.put("layout.memo.lookups", lookups, "count")
    out.put("layout.memo.hit_ratio", memo["hits"] / lookups if lookups else 0.0, "ratio")
    for metric, stat in SEARCH_COUNTERS.items():
        out.put(metric, counters.get(stat, 0.0), "count")
    gets = cache.get("hits", 0) + cache.get("misses", 0)
    out.put("pipeline.cache.hit_ratio", cache.get("hits", 0) / gets if gets else 0.0, "ratio")
    out.put("pipeline.cache.replays", cache.get("replays", 0), "count")


def put_step_model_layers(out: Outcome, setup) -> None:
    out.put("serving.step_model.precompile_s", setup.precompile_s, "s")
    out.put("serving.step_model.first_lookup_s", setup.lookup_s, "s")
    out.put("serving.step_model.compiled", setup.compiled, "count")
