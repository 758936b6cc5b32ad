"""The benchmark's own tests: seeded inputs, observation-only probes and
the workload properties the benchmark's layer predictions rely on.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The serving
tests use shortened traces of the benchmark traffic on the process-wide
step model, so they finish in seconds once its kernels are compiled.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline import CompileCache, PassManager, compile_program
from repro.serving.router import get_router
from repro.serving.scheduler import get_scheduler
from repro.serving.step_model import shared_step_model

from perfbench import serve_runs, workloads as wl
from perfbench.outcome import Outcome
from perfbench.speed import REFERENCE_S, SpeedProbe
from perfbench.probes import (
    TimedRouter,
    TimedScheduler,
    TimedStepModel,
    Tracer,
    timed_pass_manager,
)

ROOT = Path(__file__).resolve().parent.parent
SHORT = 1500


def _ids(requests):
    return [(r.request_id, r.arrival_ms, r.prompt_tokens, r.output_tokens, r.prefix_id)
            for r in requests]


@pytest.mark.parametrize("traffic", [wl.fcfs_traffic, wl.fleet_traffic])
def test_traffic_is_seed_deterministic_and_seed_sensitive(traffic):
    assert _ids(traffic(7, SHORT)) == _ids(traffic(7, SHORT))
    assert _ids(traffic(7, SHORT)) != _ids(traffic(8, SHORT))


def test_control_traffic_is_seed_deterministic_and_seed_sensitive():
    assert _ids(wl.control_traffic(3)) == _ids(wl.control_traffic(3))
    assert _ids(wl.control_traffic(3)) != _ids(wl.control_traffic(4))


def test_serve_traces_are_distinct_and_start_from_the_run_seed():
    spec = dataclasses.replace(serve_runs.FLEET, traffic=lambda seed: wl.fleet_traffic(seed, 50))
    traces = spec.traces(1)
    assert len(traces) == wl.FLEET_TRACES
    assert [_ids(t) for t in traces] == [_ids(t) for t in spec.traces(1)]
    assert len({tuple(_ids(t)) for t in traces}) == len(traces)
    assert _ids(spec.traces(0)[0]) == _ids(wl.fleet_traffic(0, 50))
    assert _ids(serve_runs.FCFS.traces(3)[0]) == _ids(wl.fcfs_traffic(3))


def test_compile_cells_cover_every_family_and_backend_and_follow_the_seed():
    cells = wl.compile_cells(0)
    families = set(wl.family_builds())
    assert {(c.family, c.backend) for c in cells if c.gemm_shape is None} == {
        (f, b) for f in families for b in wl.BACKENDS
    }
    shapes = {seed: [c.gemm_shape for c in wl.compile_cells(seed) if c.gemm_shape]
              for seed in range(8)}
    assert all(shapes[s] == [c.gemm_shape for c in wl.compile_cells(s) if c.gemm_shape]
               for s in shapes)
    assert len({tuple(v) for v in shapes.values()}) > 1


def _serve(spec, requests, scheduler=None, router=None, model=None):
    sim = spec.make(model or shared_step_model(wl.ARCH), scheduler=scheduler, router=router)
    report = sim.simulate(requests, workload=spec.name)
    return report, report.digest()


@pytest.mark.parametrize("spec,traffic", [
    (serve_runs.FCFS, wl.fcfs_traffic),
    (serve_runs.FLEET, wl.fleet_traffic),
])
def test_delegating_wrappers_leave_the_digest_unchanged(spec, traffic):
    requests = traffic(1, SHORT)
    _, plain = _serve(spec, requests)
    tracer = Tracer()
    scheduler = TimedScheduler(get_scheduler(spec.scheduler), tracer)
    router = TimedRouter(get_router(spec.router), tracer) if spec.router else None
    model = TimedStepModel(tracer, wl.ARCH)
    _, wrapped = _serve(spec, requests, scheduler, router, model)
    assert wrapped == plain
    selects = [span for span in tracer.spans if span[0] == "scheduler.select"]
    assert scheduler.select_calls > 0 and len(selects) == scheduler.select_calls
    if router is not None:
        assert router.route_calls == len(requests)


def test_timed_pass_manager_leaves_the_compile_unchanged():
    cell = next(c for c in wl.compile_cells(0) if c.gemm_shape and c.backend == "rocm")
    tracer = Tracer()
    plain = compile_program(cell.build(), arch=cell.arch, max_candidates=cell.max_candidates,
                            cache=CompileCache(), backend=cell.backend)
    timed = compile_program(cell.build(), arch=cell.arch, max_candidates=cell.max_candidates,
                            cache=CompileCache(), backend=cell.backend,
                            pass_manager=timed_pass_manager(tracer))
    assert timed.source == plain.source and timed.latency_us == plain.latency_us
    assert [name for name, *_ in tracer.spans] == [
        f"pass.{name}" for name in PassManager().pass_names()
    ]


def test_fleet_workload_preempts_and_hits_the_prefix_cache():
    report, _ = _serve(serve_runs.FLEET, wl.fleet_traffic(0, SHORT))
    assert report.preemptions > 0
    assert report.prefix_hit_rate > 0.9
    assert report.num_requests + report.shed == SHORT


def test_fcfs_workload_never_preempts_and_declares_no_prefix():
    requests = wl.fcfs_traffic(0, SHORT)
    assert all(r.prefix_id is None for r in requests)
    report, _ = _serve(serve_runs.FCFS, requests)
    assert report.preemptions == 0
    assert report.prefix_hits == 0 and report.prefix_misses == 0
    assert report.num_requests == SHORT


def test_check_report_flags_a_lost_request():
    requests = wl.fcfs_traffic(2, 200)
    report, digest = _serve(serve_runs.FCFS, requests)
    expected = {serve_runs.FCFS.name: {"seed": 0, "digest": "-"}}
    clean = Outcome()
    serve_runs.check_report(clean, serve_runs.FCFS, requests, report, digest, 2, expected)
    assert clean.correct and clean.failed == 0
    never_served = dataclasses.replace(requests[-1], request_id=10**6)
    lossy = Outcome()
    serve_runs.check_report(lossy, serve_runs.FCFS, requests + [never_served], report,
                            digest, 2, expected)
    assert not lossy.correct and lossy.failed == 1
    wrong_digest = Outcome()
    serve_runs.check_report(wrong_digest, serve_runs.FCFS, requests, report, digest, 0, expected)
    assert not wrong_digest.correct


def test_speed_probe_scales_by_the_median_reference_sample():
    probe = SpeedProbe()
    probe.sample()
    assert probe.samples[0] > 0
    probe.samples = [2 * REFERENCE_S, 4 * REFERENCE_S, 100 * REFERENCE_S]
    assert probe.factor == pytest.approx(0.25)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
                    ["b", 5.0, 6.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert tracer.self_times() == {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}


def test_chrome_trace_export_round_trips(tmp_path):
    tracer = Tracer()
    outer = tracer.begin("simulate")
    tracer.leaf("router.route", 0.0, 0.0, {"request_id": 3})
    tracer.end(outer)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, "test")
    events = json.loads(path.read_text())["traceEvents"]
    route = next(e for e in events if e["name"] == "router.route")
    assert route["args"] == {"span": 1, "parent": 0, "request_id": 3}


def test_result_object_has_exactly_four_keys():
    out = Outcome()
    out.put("x", 1.5, "s")
    out.attempted = 2
    result = out.result(["x"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {"x": {"value": 1.5, "unit": "s"}}
    with pytest.raises(KeyError):
        out.result(["x", "missing"])


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile-families",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
