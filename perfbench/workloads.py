"""Seeded inputs of the three benchmark workloads.

Everything a run feeds the program is built here from ``--seed``: the
compile cells of ``compile-families`` and the request traces of the two
serving workloads.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

from repro.e2e import ModelConfig
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.serving import Request, diurnal_workload, prefix_shared_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDENS_DIR = REPO_ROOT / "tests" / "data"


def family_builds() -> dict:
    """``FAMILY_BUILDS`` of the golden recorder: family -> (build, arch,
    max_candidates), the configs ``golden_backend_digests.json`` pins."""
    spec = importlib.util.spec_from_file_location(
        "record_backend_goldens", GOLDENS_DIR / "record_backend_goldens.py"
    )
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder.FAMILY_BUILDS


BACKENDS = ("cuda", "rocm", "cpu-sim")

# Shapes and tiles the numerical GEMM check draws from; both compile and
# execute in well under a second on the functional executor.  The
# executor's peak memory follows the shape: 64x64 tiles left a run's peak
# RSS ~6 MB lower and k=128 ~6 MB higher, so the entries share tile area
# and depth, and the seed picks the orientation and the input matrices.
SMALL_GEMMS = (
    ((128, 64, 64), GemmConfig(bm=128, bn=64, bk=32, num_stages=2)),
    ((64, 128, 64), GemmConfig(bm=64, bn=128, bk=32, num_stages=2)),
)
SMALL_GEMM_CANDIDATES = 8


@dataclass(frozen=True)
class CompileCell:
    """One compile of the ``compile-families`` workload."""

    family: str
    backend: str
    arch: str
    max_candidates: int
    build: Callable
    # (m, n, k) of the numerically checked GEMM; None for golden families.
    gemm_shape: Tuple[int, int, int] = None

    @property
    def label(self) -> str:
        return f"{self.family}/{self.backend}"


def compile_cells(seed: int) -> List[CompileCell]:
    """The five golden families on their native arch under every backend,
    plus one seeded small fp16 GEMM per backend for the numerical check."""
    cells = [
        CompileCell(family, backend, arch, max_candidates, build)
        for family, (build, arch, max_candidates) in sorted(family_builds().items())
        for backend in BACKENDS
    ]
    (m, n, k), config = random.Random(seed).choice(SMALL_GEMMS)
    for backend in BACKENDS:
        cells.append(
            CompileCell(
                "gemm-small", backend, "a100", SMALL_GEMM_CANDIDATES,
                lambda m=m, n=n, k=k, config=config: build_fp16_gemm(m, n, k, config),
                gemm_shape=(m, n, k),
            )
        )
    return cells


# --------------------------------------------------------------------------- #
# Serving traffic
# --------------------------------------------------------------------------- #
# The 32-layer tiny-shape dense config of benchmarks/bench_sim_scale.py.
SIM_MODEL = ModelConfig(
    name="sim-scale-dense",
    num_layers=32,
    hidden_size=256,
    num_heads=4,
    kv_len=256,
    head_dim=64,
    dense_ffn_layers=32,
    ffn_intermediate=512,
    weight_dtype="fp16",
    tensor_parallel=1,
)
ARCH = "a100"
MAX_BATCH = 16

# bench_sim_scale's diurnal day (500..1500 req/s, 3x flash crowds covering
# 1/16 of each period), with two changes that keep a run's modeled tail
# latency steady across seeds: the crowds are split into 96 short spikes
# per period instead of 3 long ones, and the rate is scaled so the peaks
# overrun a replica by a margin the seed cannot erase.  Over ten seeds the
# TTFT p99 of the fcfs trace spreads by ~5% (quartile distance over
# median); with 3 spikes at the original rate it spread by 26%.
SPIKES_PER_PERIOD = 96


def diurnal_arrivals(num_requests: int, rate_scale: float, seed: int) -> List[Request]:
    period_s = num_requests / 2500.0
    return diurnal_workload(
        num_requests=num_requests,
        base_rate_rps=500.0 * rate_scale,
        peak_rate_rps=1500.0 * rate_scale,
        period_s=period_s,
        num_spikes=SPIKES_PER_PERIOD,
        spike_multiplier=3.0,
        spike_duration_s=period_s / 16.0 / (SPIKES_PER_PERIOD / 3),
        mean_prompt_tokens=64,
        mean_output_tokens=32,
        seed=seed,
    )


FCFS_REQUESTS = 40_000
FCFS_RATE_SCALE = 1.3


def fcfs_traffic(seed: int, num_requests: int = FCFS_REQUESTS) -> List[Request]:
    """serve-fcfs-diurnal: one replica's diurnal flash-crowd traffic, no
    prefix declarations, prompts far below the KV budget."""
    return diurnal_arrivals(num_requests, FCFS_RATE_SCALE, seed)


FLEET_REQUESTS = 10_000
FLEET_RATE_SCALE = 2.6  # two replicas' worth of the fcfs day
FLEET_TENANTS = 8
FLEET_KV_BLOCKS = 96
# prefix-affinity pins each tenant to the replica that first stored its
# prefix, so a seed decides how the 8 tenants split over the 2 replicas.
# An uneven split (5/3, 6/2: about one trace in six) leaves one replica
# draining a backlog alone, and the modeled throughput of that trace drops
# by 20-30%.  A run serves 5 traces and reports the median.
FLEET_TRACES = 5


def fleet_traffic(seed: int, num_requests: int = FLEET_REQUESTS) -> List[Request]:
    """fleet-slo-prefix: diurnal arrival times carrying prefix-shared
    prompts (a system prompt plus one of 8 tenant templates).

    Arrival times come from the diurnal generator and prompts, outputs,
    SLOs and prefix declarations from ``prefix_shared_workload``, each
    drawn from its own seed stream and zipped by position.
    """
    arrivals = diurnal_arrivals(num_requests, FLEET_RATE_SCALE, seed)
    prompts = prefix_shared_workload(
        num_requests=num_requests,
        rate_rps=1000.0,
        num_tenants=FLEET_TENANTS,
        system_prompt_tokens=48,
        tenant_template_tokens=16,
        mean_unique_tokens=16,
        mean_output_tokens=32,
        seed=seed + 1_000_003,
    )
    return [
        dataclasses.replace(prompt, arrival_ms=arrival.arrival_ms)
        for arrival, prompt in zip(arrivals, prompts)
    ]


CONTROL_REQUESTS = 20_000
CONTROL_RATE_SCALE = 0.9


def control_traffic(seed: int) -> List[Request]:
    """The short serve ``compile-families`` reports its serving metrics
    from: the fcfs day at a rate matched to the library-kernel replica."""
    return diurnal_arrivals(CONTROL_REQUESTS, CONTROL_RATE_SCALE, seed)
