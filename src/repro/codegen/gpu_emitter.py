"""GPU source emission, one skeleton for every GPU target.

Hexcute lowers tile programs through Hidet IR to CUDA; in this reproduction
the lowering target is interpretable pseudo-CUDA (or pseudo-HIP) text.  The
emitted source records every decision the compiler made — the synthesized
thread-value and shared-memory layouts, the swizzles, the selected
instructions and the loop trip counts — so a reader (or a test) can verify
that the program structure matches the synthesized plan.  The functional
semantics are executed by :mod:`repro.sim.executor` instead of nvcc.

Targets differ only in spelling, so each is a :class:`GpuDialect` record
(headers, dtype names, lane width, instruction namespaces) rendered through
the same :func:`emit_gpu_source`.  The synthesized layouts themselves already
differ per target (the smem solver scored swizzles against the target's
banking, see :meth:`repro.codegen.backend.Backend.smem_bank_params`); the
emitter renders whatever plan synthesis installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from repro.ir.graph import KernelProgram
from repro.ir.ops import (
    AllocRegister,
    AllocShared,
    Cast,
    Copy,
    Elementwise,
    Fill,
    Gemm,
    GlobalView,
    Rearrange,
    Reduce,
)
from repro.ir.printer import format_operation
from repro.sim.arch import GpuArch

__all__ = ["CUDA", "ROCM", "GpuDialect", "emit_gpu_source", "lookup_ctype"]

CUDA_CTYPES = {
    "float64": "double",
    "float32": "float",
    "float16": "__half",
    "bfloat16": "__nv_bfloat16",
    "float8_e4m3": "__nv_fp8_e4m3",
    "float8_e5m2": "__nv_fp8_e5m2",
    "int32": "int",
    "uint32": "unsigned int",
    "int16": "short",
    "int8": "int8_t",
    "uint8": "uint8_t",
    "int4": "int4b_t",
    "uint4": "uint4b_t",
    "int2": "int2b_t",
    "uint2": "uint2b_t",
    "int1": "int1b_t",
    "uint1": "uint1b_t",
}

HIP_CTYPES = {
    **CUDA_CTYPES,
    "bfloat16": "hip_bfloat16",
    "float8_e4m3": "__hip_fp8_e4m3",
    "float8_e5m2": "__hip_fp8_e5m2",
}


def lookup_ctype(table: Mapping[str, str], dtype, language: str) -> str:
    """Look up ``dtype``'s spelling in ``table``, naming the known dtypes on a miss."""
    try:
        return table[dtype.name]
    except KeyError:
        raise KeyError(
            f"no {language} type mapping for dtype {dtype.name!r} "
            f"(known: {sorted(table)})"
        ) from None


@dataclass(frozen=True)
class GpuDialect:
    """The spellings one GPU target renders the shared skeleton with."""

    name: str
    language: str  # named by dtype-lookup errors
    ctypes: Mapping[str, str]
    includes: Tuple[str, ...]
    lane_width: int
    group: str  # "warp" or "wave": specialization and reduction wording
    group_index: str  # the declaration of the warp/wave index
    header_note: str = ""
    smem_label: str = ""
    copy_prefix: str = ""
    mma_prefix: str = ""
    mma_fallback: str = "mma"
    smem_name: str = "smem"

    def ctype(self, dtype) -> str:
        return lookup_ctype(self.ctypes, dtype, self.language)


CUDA = GpuDialect(
    name="cuda",
    language="CUDA C",
    ctypes=CUDA_CTYPES,
    includes=("cuda_runtime.h", "mma.h"),
    lane_width=32,
    group="warp",
    group_index="const int warp_id = tid / 32;",
)

ROCM = GpuDialect(
    name="rocm",
    language="HIP C",
    ctypes=HIP_CTYPES,
    includes=("hip/hip_runtime.h", "rocwmma/rocwmma.hpp"),
    lane_width=64,
    group="wave",
    group_index="const int wave = tid / 64;  // 64-lane wavefronts",
    header_note=" (rocm)",
    smem_label="LDS ",
    copy_prefix="amdgcn::",
    mma_prefix="rocwmma::",
    mma_fallback="mfma",
    smem_name="lds",
)


def emit_gpu_source(program: KernelProgram, candidate, arch: GpuArch, dialect: GpuDialect) -> str:
    """Emit annotated pseudo-GPU source for a compiled tile program."""
    params = ", ".join(
        f"{dialect.ctype(t.dtype)}* __restrict__ {t.buffer_name or t.name}"
        for t in program.global_tensors()
    )
    lines: List[str] = [
        f"// generated by the Hexcute reproduction compiler for {arch.name}{dialect.header_note}",
        f"// kernel: {program.name}",
        *(f"#include <{header}>" for header in dialect.includes),
        "",
        f"__global__ void __launch_bounds__({program.num_threads}) {program.name}({params}) {{",
        "    const int tid = threadIdx.x;",
        f"    {dialect.group_index}",
        f"    const int lane = tid % {dialect.lane_width};",
    ]
    if program.warp_specialized:
        g = dialect.group
        lines.append(f"    // {g}-specialized: producer {g} group feeds consumer {g} group")
    lines.append("")

    for op in program.operations:
        if isinstance(op, GlobalView):
            t = op.tensor
            lines.append(
                f"    // global view {t.name}: layout {t.layout} over "
                f"{'x'.join(map(str, t.shape))} {t.dtype}"
            )
        elif isinstance(op, AllocShared):
            t = op.tensor
            extra = ""
            if t.layout is not None:
                extra = f"  // {dialect.smem_label}layout {t.layout}"
                if t.swizzled_layout is not None:
                    extra += f", swizzle {t.swizzled_layout.swizzle}"
            lines.append(f"    __shared__ {dialect.ctype(t.dtype)} {t.name}[{t.numel()}];{extra}")
        elif isinstance(op, AllocRegister):
            t = op.tensor
            per_thread = t.tv_layout.values_per_thread if t.tv_layout is not None else t.numel()
            tv = f"  // tv layout {t.tv_layout.layout}" if t.tv_layout is not None else ""
            lines.append(f"    {dialect.ctype(t.dtype)} {t.name}[{per_thread}];{tv}")

    lines.append("")
    loop_open = False
    for op in program.operations:
        if isinstance(op, (GlobalView, AllocRegister, AllocShared)):
            continue
        if op.trips > 1 and not loop_open:
            lines.append(f"    for (int k_iter = 0; k_iter < {op.trips}; ++k_iter) {{")
            if program.num_stages > 1:
                stages = program.num_stages
                lines.append(f"        // software pipelined: {stages} stages in flight")
            loop_open = True
        if op.trips == 1 and loop_open:
            lines.append("    }")
            loop_open = False
        indent = "        " if loop_open else "    "
        lines.append(f"{indent}// {format_operation(op)}")
        lines.append(f"{indent}{_emit_op(op, candidate, dialect)}")
    if loop_open:
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _emit_op(op, candidate, dialect: GpuDialect) -> str:
    if isinstance(op, Copy):
        instr = candidate.assignment.get(op.op_id) if candidate is not None else None
        name = instr.name if instr is not None else "ld/st"
        width = f"{instr.vector_bytes}B" if instr is not None else "?"
        return f"{dialect.copy_prefix}{name}<{width}>({op.dst.name}, {op.src.name});"
    if isinstance(op, Gemm):
        instr = op.selected_instruction
        name = instr.name if instr is not None else dialect.mma_fallback
        return f"{dialect.mma_prefix}{name}({op.c.name}, {op.a.name}, {op.b.name}, {op.c.name});"
    if isinstance(op, Cast):
        return f"convert<{dialect.ctype(op.dst.dtype)}>({op.dst.name}, {op.src.name});"
    if isinstance(op, Rearrange):
        return f"rearrange_via_{dialect.smem_name}({op.dst.name}, {op.src.name}); __syncthreads();"
    if isinstance(op, Elementwise):
        args = ", ".join(t.name for t in op.inputs)
        return f"elementwise_{op.fn_name}({op.output.name}, {args});"
    if isinstance(op, Reduce):
        return f"{dialect.group}_reduce_{op.kind}({op.dst.name}, {op.src.name}, /*dim=*/{op.dim});"
    if isinstance(op, Fill):
        return f"fill({op.dst.name}, {op.value});"
    return "// (no-op)"
