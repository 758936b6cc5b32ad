"""Vectorized-loop pseudo-C emission for the cpu-sim target.

The CPU target has no thread blocks, no shared-memory stage and no banked
scratchpad: the kernel becomes one function whose grid loop walks the tile
blocks and whose copies/compute lower to ``#pragma omp simd`` loops at the
vector width instruction selection chose.  Shared-memory tensors degrade to
plain stack scratch (the smem solver keeps the identity swizzle for this
backend — conflicts cannot exist, see
:meth:`repro.codegen.backend.CpuSimBackend.smem_bank_params`), so the
emitted source carries no ``__shared__`` declarations at all.
"""

from __future__ import annotations

from typing import List

from repro.codegen.gpu_emitter import lookup_ctype
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

__all__ = ["emit_cpu_source"]

CPU_CTYPES = {
    "float64": "double",
    "float32": "float",
    "float16": "_Float16",
    "bfloat16": "uint16_t /* bf16 */",
    "float8_e4m3": "uint8_t /* fp8e4m3 */",
    "float8_e5m2": "uint8_t /* fp8e5m2 */",
    "int32": "int32_t",
    "uint32": "uint32_t",
    "int16": "int16_t",
    "int8": "int8_t",
    "uint8": "uint8_t",
    "int4": "uint8_t /* int4 packed */",
    "uint4": "uint8_t /* uint4 packed */",
    "int2": "uint8_t /* int2 packed */",
    "uint2": "uint8_t /* uint2 packed */",
    "int1": "uint8_t /* int1 packed */",
    "uint1": "uint8_t /* uint1 packed */",
}


def _ctype(dtype) -> str:
    return lookup_ctype(CPU_CTYPES, dtype, "C")


def emit_cpu_source(program: KernelProgram, candidate, arch: GpuArch) -> str:
    """Emit vectorized-loop pseudo-C for a compiled tile program."""
    lines: List[str] = []
    lines.append(
        f"// generated by the Hexcute reproduction compiler for {arch.name} (cpu-sim)"
    )
    lines.append(f"// kernel: {program.name}")
    lines.append("#include <stdint.h>")
    lines.append("#include <math.h>")
    lines.append("")
    params = ", ".join(
        f"{_ctype(t.dtype)}* restrict {t.buffer_name or t.name}"
        for t in program.global_tensors()
    )
    lines.append(f"void {program.name}({params}) {{")
    lines.append(
        f"  for (int64_t block = 0; block < {program.grid_blocks}; ++block) {{"
    )

    for op in program.operations:
        if isinstance(op, GlobalView):
            t = op.tensor
            lines.append(
                f"    // global view {t.name}: layout {t.layout} over "
                f"{'x'.join(map(str, t.shape))} {t.dtype}"
            )
        elif isinstance(op, AllocShared):
            t = op.tensor
            lines.append(
                f"    {_ctype(t.dtype)} {t.name}[{t.numel()}];"
                f"  // scratch tile (no shared-memory stage on cpu-sim)"
            )
        elif isinstance(op, AllocRegister):
            t = op.tensor
            lines.append(f"    {_ctype(t.dtype)} {t.name}[{t.numel()}];  // vector tile")

    lines.append("")
    loop_open = False
    for op in program.operations:
        if isinstance(op, (GlobalView, AllocRegister, AllocShared)):
            continue
        if op.trips > 1 and not loop_open:
            lines.append(f"    for (int k_iter = 0; k_iter < {op.trips}; ++k_iter) {{")
            loop_open = True
        if op.trips == 1 and loop_open:
            lines.append("    }")
            loop_open = False
        indent = "      " if loop_open else "    "
        lines.append(f"{indent}// {format_operation(op)}")
        for emitted in _emit_op(op, candidate):
            lines.append(f"{indent}{emitted}")
    if loop_open:
        lines.append("    }")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _emit_op(op, candidate) -> List[str]:
    if isinstance(op, Copy):
        instr = candidate.assignment.get(op.op_id) if candidate is not None else None
        lanes = max(1, instr.vector_bytes // max(1, op.dst.dtype.bits // 8)) if instr else 1
        note = f"  // {instr.name}: {instr.vector_bytes}B vectors" if instr else ""
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; i += {lanes}) "
            f"vstore_{lanes}({op.dst.name} + i, vload_{lanes}({op.src.name} + i));{note}",
        ]
    if isinstance(op, Gemm):
        return [
            f"for (int m = 0; m < {op.c.shape[0]}; ++m)",
            f"  for (int n = 0; n < {op.c.shape[1]}; ++n)",
            "#pragma omp simd reduction(+:acc)",
            f"    for (int k = 0; k < {op.a.shape[1]}; ++k) "
            f"{op.c.name}[m * {op.c.shape[1]} + n] += "
            f"{op.a.name}[m * {op.a.shape[1]} + k] * {op.b.name}[n * {op.b.shape[1]} + k];",
        ]
    if isinstance(op, Cast):
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; ++i) "
            f"{op.dst.name}[i] = ({_ctype(op.dst.dtype)}){op.src.name}[i];",
        ]
    if isinstance(op, Rearrange):
        return [f"rearrange_scratch({op.dst.name}, {op.src.name});"]
    if isinstance(op, Elementwise):
        args = ", ".join(f"{t.name}[i]" for t in op.inputs)
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.output.numel()}; ++i) "
            f"{op.output.name}[i] = {op.fn_name}({args});",
        ]
    if isinstance(op, Reduce):
        return [
            f"for (int i = 0; i < {op.src.numel()}; ++i) "
            f"reduce_{op.kind}(&{op.dst.name}[0], {op.src.name}[i], /*dim=*/{op.dim});",
        ]
    if isinstance(op, Fill):
        return [
            "#pragma omp simd",
            f"for (int i = 0; i < {op.dst.numel()}; ++i) {op.dst.name}[i] = {op.value};",
        ]
    return ["/* no-op */"]
