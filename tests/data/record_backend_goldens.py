"""Record golden emitter digests for the five kernel families.

Run from the repo root (``PYTHONPATH=src python tests/data/record_backend_goldens.py``)
against the PRE-refactor tree; ``tests/test_backends.py`` then pins the
post-refactor backends to these digests, the same golden-gate shape the
serving digests use (``golden_sim_digests.json``).  Two files are written:

* ``golden_backend_digests.json`` — the cuda compile per family (source,
  winning assignment, simulated latency);
* ``golden_emitter_digests.json`` — the rocm (on mi300) and cpu-sim (on
  cpu-sim) emission of each family's cuda candidate, plus the source of the
  fig22 GEMM compiled end to end on mi300.

Each entry records the sha256 of the emitted source, the winning named
assignment, and the simulated latency for one representative compile per
kernel family on the default compile arch (a100).  The GEMM entry is the
fig22 configuration used by ``bench_compile_time.py`` so the cuda-vs-rocm
divergence criterion and the cuda bit-identity criterion share a config.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.codegen import get_backend
from repro.compiler import compile_kernel
from repro.kernels.attention import AttentionConfig, build_mha_decoding
from repro.kernels.fp8_gemm import Fp8GemmConfig, build_fp8_blockwise_gemm
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.kernels.mamba import ScanConfig, build_selective_scan
from repro.kernels.moe import MoeConfig, build_moe_gemm
from repro.sim.arch import CPU_SIM, MI300

OUT = Path(__file__).with_name("golden_backend_digests.json")
EMITTER_OUT = Path(__file__).with_name("golden_emitter_digests.json")

# One representative (builder, max_candidates) per kernel family.  The
# configs are small enough for the tier-1 suite but exercise every op kind
# the emitter handles.  gemm is the fig22 config (bench_compile_time.py).
FAMILY_BUILDS = {
    "gemm": (lambda: build_fp16_gemm(4096, 4096, 4096, GemmConfig(bm=128, bn=128, bk=32)), "a100", 102),
    "fp8_gemm": (lambda: build_fp8_blockwise_gemm(1024, 1024, 512, Fp8GemmConfig(bm=64, bn=64, bk=128)), "h100", 24),
    "attention": (lambda: build_mha_decoding(2048, 128, 8, 4, AttentionConfig(head_dim=128, block_kv=128)), "a100", 24),
    "mamba": (lambda: build_selective_scan(2048, 1024, 2, ScanConfig()), "a100", 24),
    "moe": (lambda: build_moe_gemm(64, 4096, 4096, MoeConfig()), "a100", 24),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_families() -> dict:
    """One fresh (uncached) cuda compile per kernel family."""
    return {
        family: compile_kernel(build(), arch=arch, max_candidates=max_candidates,
                               use_cache=False)
        for family, (build, arch, max_candidates) in sorted(FAMILY_BUILDS.items())
    }


def record(kernels: dict) -> dict:
    entries = {}
    for family, kernel in kernels.items():
        _, arch, max_candidates = FAMILY_BUILDS[family]
        entries[family] = {
            "arch": arch,
            "max_candidates": max_candidates,
            "source_sha256": sha256(kernel.source),
            "assignment": [list(item) for item in kernel.candidate.named_assignment(kernel.program)],
            "latency_us": float(kernel.timing.latency_us).hex(),
        }
    return entries


def record_emitters(kernels: dict) -> dict:
    families = {
        family: {
            "rocm_mi300_sha256": sha256(
                get_backend("rocm").emit(kernel.program, kernel.candidate, MI300)),
            "cpu_sim_sha256": sha256(
                get_backend("cpu-sim").emit(kernel.program, kernel.candidate, CPU_SIM)),
        }
        for family, kernel in kernels.items()
    }
    build, _, max_candidates = FAMILY_BUILDS["gemm"]
    fig22_mi300 = compile_kernel(build(), arch="mi300", max_candidates=max_candidates,
                                 use_cache=False)
    return {"families": families, "fig22_mi300_source_sha256": sha256(fig22_mi300.source)}


if __name__ == "__main__":
    kernels = compile_families()
    entries = record(kernels)
    OUT.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for family, entry in entries.items():
        print(f"{family}: {entry['source_sha256'][:16]}  latency={entry['latency_us']}")
    print(f"wrote {OUT}")
    emitters = record_emitters(kernels)
    EMITTER_OUT.write_text(json.dumps(emitters, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {EMITTER_OUT}")
