"""The codegen backend registry: one synthesis pipeline, N emitters.

The layout-synthesis core (thread-value synthesis, instruction selection,
shared-memory unification) is target-agnostic — the paper's contribution is
the synthesis, not the emitter — so the ``codegen`` pass dispatches through
a :class:`Backend` instead of hardwiring the CUDA emitter.  A backend owns
two target-specific decisions:

* :meth:`Backend.emit` — how a compiled tile program is lowered to source
  (one GPU emitter rendered in the CUDA or HIP dialect, or vectorized-loop
  pseudo-C);
* :meth:`Backend.smem_bank_params` — the shared-memory banking geometry the
  smem solver scores swizzles against, so synthesis *results* legitimately
  differ per target (CDNA's 256-byte LDS window admits a wider swizzle tier
  than NVIDIA's 128-byte phase; a CPU scratchpad has no banks at all).

``BACKENDS``/:func:`get_backend` mirror the serving layer's
``SCHEDULERS``/``ROUTERS`` registries: resolve by name, pass instances
through, and list the registered names on a typo.  Architectures declare
their backend (:attr:`repro.sim.arch.GpuArch.backend`); the pipeline
resolves it per compile and keys the compile cache on it, so a
cuda-compiled kernel is never replayed for rocm.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Union

from repro.codegen.cpu_emitter import emit_cpu_source
from repro.codegen.gpu_emitter import CUDA, ROCM, GpuDialect, emit_gpu_source
from repro.sim.arch import GpuArch
from repro.synthesis.smem_solver import SmemBankParams

__all__ = [
    "BACKENDS",
    "Backend",
    "CpuSimBackend",
    "GpuBackend",
    "get_backend",
]


class Backend(ABC):
    """One codegen target: an emitter plus its smem banking geometry."""

    name: str = "backend"

    @abstractmethod
    def emit(self, program, candidate, arch: GpuArch) -> str:
        """Lower a compiled tile program to target source text."""

    def smem_bank_params(self, arch: GpuArch) -> SmemBankParams:
        """The banking geometry shared-memory synthesis solves against.

        The default reads the architecture's declared banking
        (``smem_banks`` x ``smem_bank_bytes``); backends whose memory model
        is not banked at all (cpu-sim) override this.
        """
        return SmemBankParams(banks=arch.smem_banks, bank_bytes=arch.smem_bank_bytes)

    def __repr__(self) -> str:
        return f"<backend {self.name}>"


class GpuBackend(Backend):
    """A GPU target: the shared GPU emitter rendered in one dialect.

    ``cuda`` emits annotated pseudo-CUDA over NVIDIA banking; ``rocm`` emits
    HIP-flavored source for CDNA targets (MI300-class), whose 64 x 4 B LDS
    banks widen the swizzle search window — the synthesized layouts differ
    from the cuda path, not just the source text.
    """

    def __init__(self, dialect: GpuDialect) -> None:
        self.name = dialect.name
        self.dialect = dialect

    def emit(self, program, candidate, arch: GpuArch) -> str:
        return emit_gpu_source(program, candidate, arch, self.dialect)


class CpuSimBackend(Backend):
    """Vectorized-loop pseudo-C with no shared-memory stage.

    CPU scratch memory has no banks, so every layout is conflict-free and
    the solver keeps the identity swizzle regardless of which architecture
    entry the compile runs against.
    """

    name = "cpu-sim"

    def emit(self, program, candidate, arch: GpuArch) -> str:
        return emit_cpu_source(program, candidate, arch)

    def smem_bank_params(self, arch: GpuArch) -> SmemBankParams:
        # Unbanked: banks <= 1 short-circuits the conflict model to 1.0.
        return SmemBankParams(banks=1, bank_bytes=128)


BACKENDS: Dict[str, Backend] = {
    backend.name: backend
    for backend in (GpuBackend(CUDA), GpuBackend(ROCM), CpuSimBackend())
}


def get_backend(spec: Union[str, Backend]) -> Backend:
    """Resolve a backend from a registry name or pass an instance through."""
    if isinstance(spec, Backend):
        return spec
    try:
        return BACKENDS[spec]
    except KeyError:
        raise KeyError(
            f"unknown codegen backend {spec!r} (expected one of {sorted(BACKENDS)})"
        ) from None
