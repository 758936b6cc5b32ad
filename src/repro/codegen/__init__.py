"""Lowering and source emission for compiled tile programs.

Emission dispatches through the :class:`~repro.codegen.backend.Backend`
registry (``BACKENDS``/:func:`~repro.codegen.backend.get_backend`): one GPU
emitter rendered in the CUDA (``cuda``) or HIP-flavored CDNA (``rocm``)
dialect, and a vectorized-loop pseudo-C emitter with no shared-memory stage
(``cpu-sim``).  Architectures declare which backend they compile through
(:attr:`repro.sim.arch.GpuArch.backend`).
"""

from repro.codegen.backend import (
    BACKENDS,
    Backend,
    CpuSimBackend,
    GpuBackend,
    get_backend,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "CpuSimBackend",
    "GpuBackend",
    "get_backend",
]
