"""Compile-cache tests: fingerprint stability, hit equality, misses on
arch/option changes, the LRU bound, and the on-disk JSON store."""

import dataclasses

import pytest

from repro.compiler import compile_kernel
from repro.kernels.gemm import GemmConfig, build_fp16_gemm
from repro.pipeline import (
    CompileCache,
    CompileOptions,
    compile_key,
    program_fingerprint,
)
from repro.sim.arch import A100, get_arch
from repro.instructions.registry import instruction_set


def small_gemm(bm=64, bn=64, bk=32, k=64):
    return build_fp16_gemm(64, 64, k, GemmConfig(bm=bm, bn=bn, bk=bk))


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #
def test_fingerprint_stable_across_equivalent_programs():
    assert program_fingerprint(small_gemm()) == program_fingerprint(small_gemm())


def test_fingerprint_distinguishes_programs():
    base = program_fingerprint(small_gemm())
    assert program_fingerprint(small_gemm(bk=64, k=128)) != base
    other = small_gemm()
    other.unique_global_bytes = 123.0
    assert program_fingerprint(other) != base


def test_fingerprint_stable_across_compilation():
    """Synthesized layouts must not leak into the fingerprint: compiling a
    program (which installs TV/shared layouts and instructions in place)
    leaves its fingerprint unchanged."""
    program = small_gemm()
    before = program_fingerprint(program)
    compile_kernel(program, arch="a100", max_candidates=4, cache=CompileCache())
    assert program_fingerprint(program) == before


def test_compile_key_varies_with_arch_and_options():
    program = small_gemm()
    iset80 = instruction_set(80)
    opts = CompileOptions(max_candidates=4)
    base = compile_key(program, get_arch("a100"), iset80, opts)
    assert compile_key(program, get_arch("h100"), iset80, opts) != base
    assert (
        compile_key(program, get_arch("a100"), instruction_set(90), opts) != base
    )
    assert (
        compile_key(program, get_arch("a100"), iset80, CompileOptions(max_candidates=8))
        != base
    )


# --------------------------------------------------------------------------- #
# Hits, misses, replay semantics
# --------------------------------------------------------------------------- #
def test_cache_hit_returns_equal_kernel():
    cache = CompileCache()
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert cache.stats.hits == 1 and cache.stats.replays == 1
    assert warm.cache_hit and not cold.cache_hit
    assert warm.latency_us == cold.latency_us
    assert warm.source == cold.source
    assert warm.candidate.named_assignment(warm.program) == cold.candidate.named_assignment(
        cold.program
    )


def test_replay_installs_layouts_on_the_new_program():
    """A replayed compile must leave the new program in the same state a
    cold compile would: instructions selected, shared layouts installed."""
    cache = CompileCache()
    compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    program = small_gemm()
    kernel = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert kernel.program is program
    for copy in program.copies():
        assert copy.selected_instruction is not None
    for tensor in program.shared_tensors():
        assert tensor.layout is not None and tensor.swizzled_layout is not None
    for tensor in program.register_tensors():
        assert tensor.tv_layout is not None


def test_same_program_object_is_a_direct_hit():
    cache = CompileCache()
    program = small_gemm()
    cold = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    warm = compile_kernel(program, arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit
    assert cache.stats.hits == 1 and cache.stats.replays == 0
    assert warm.latency_us == cold.latency_us
    assert warm.candidate is cold.candidate


def test_arch_and_option_changes_miss():
    cache = CompileCache()
    compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    compile_kernel(small_gemm(), arch="h100", max_candidates=4, cache=cache)
    compile_kernel(small_gemm(), arch="a100", max_candidates=8, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 3
    assert len(cache) == 3


def test_same_named_arch_variant_misses():
    """An arch that keeps A100's name but changes its banking changes swizzle
    synthesis, so it must not replay A100's compile."""
    cache = CompileCache()
    narrow_banks = dataclasses.replace(A100, smem_banks=16)
    compile_kernel(small_gemm(), arch=A100, max_candidates=4, cache=cache)
    variant = compile_kernel(small_gemm(), arch=narrow_banks, max_candidates=4, cache=cache)
    assert not variant.cache_hit
    assert cache.stats.misses == 2


def test_uncacheable_options_bypass_the_cache():
    cache = CompileCache()
    compile_kernel(
        small_gemm(), arch="a100", max_candidates=4, cache=cache,
        copy_width_cap=lambda c: 4,
    )
    compile_kernel(
        small_gemm(), arch="a100", max_candidates=4, cache=cache, keep_alternatives=True
    )
    assert len(cache) == 0
    assert cache.stats.uncacheable == 2


def test_use_cache_false_skips_lookup_and_store():
    cache = CompileCache()
    compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache, use_cache=False)
    assert len(cache) == 0


# --------------------------------------------------------------------------- #
# LRU bound
# --------------------------------------------------------------------------- #
def test_lru_eviction_bound():
    cache = CompileCache(max_entries=2)
    programs = [small_gemm(), small_gemm(bk=64, k=128), small_gemm(bm=32)]
    keys = []
    for program in programs:
        kernel = compile_kernel(program, arch="a100", max_candidates=2, cache=cache)
        keys.append(kernel.fingerprint)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert keys[0] not in cache  # oldest entry evicted
    assert keys[1] in cache and keys[2] in cache


def test_lru_recency_updated_on_hit():
    cache = CompileCache(max_entries=2)
    first = small_gemm()
    k1 = compile_kernel(first, arch="a100", max_candidates=2, cache=cache)
    k2 = compile_kernel(small_gemm(bk=64, k=128), arch="a100", max_candidates=2, cache=cache)
    compile_kernel(first, arch="a100", max_candidates=2, cache=cache)  # touch entry 1
    compile_kernel(small_gemm(bm=32), arch="a100", max_candidates=2, cache=cache)
    assert k1.fingerprint in cache  # recently used: survives
    assert k2.fingerprint not in cache  # least recently used: evicted


# --------------------------------------------------------------------------- #
# Disk store
# --------------------------------------------------------------------------- #
def test_disk_store_roundtrip_and_replay(tmp_path):
    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert cold.candidates_explored > 1

    # A second process: fresh cache hydrated from disk, no pinned kernels.
    rehydrated = CompileCache(disk_path=path)
    assert len(rehydrated) == 1
    entry = rehydrated.get(cold.fingerprint)
    assert entry is not None and entry.kernel is None
    assert entry.latency_us == cold.latency_us
    assert entry.assignment == cold.candidate.named_assignment(cold.program)

    # Hitting the disk entry replays the stored assignment: one candidate
    # evaluated, bit-identical result.
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=rehydrated)
    assert warm.cache_hit
    assert warm.candidates_explored == 1
    assert warm.latency_us == cold.latency_us
    assert warm.source == cold.source


def test_disk_store_rejects_unknown_version(tmp_path):
    path = tmp_path / "compile_cache.json"
    path.write_text('{"version": 999, "entries": {"x": {}}}')
    cache = CompileCache(disk_path=str(path))
    assert len(cache) == 0


def test_stale_entry_falls_back_to_search_and_is_repaired():
    """An entry whose stored assignment no longer resolves (e.g. a damaged
    disk record) must fall back to the full search, report a miss, and be
    overwritten with the fresh result."""
    cache = CompileCache()
    cold = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    entry = cache.get(cold.fingerprint)
    entry.assignment = entry.assignment[:-1]  # truncate: cannot resolve
    entry.kernel = None

    repaired = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert not repaired.cache_hit
    assert repaired.candidates_explored > 1  # full search ran
    assert repaired.latency_us == cold.latency_us
    # The bad entry was replaced; the next compile replays normally.
    assert cache.get(cold.fingerprint).assignment == cold.candidate.named_assignment(
        cold.program
    )
    warm = compile_kernel(small_gemm(), arch="a100", max_candidates=4, cache=cache)
    assert warm.cache_hit and warm.candidates_explored == 1


def test_batch_compiles_flush_the_disk_store_once(tmp_path):
    """compile_many over a disk-backed cache must not rewrite the JSON store
    per insertion (O(n^2) I/O across a fan-out): puts inside the batch only
    mark the store dirty and one flush runs at the end."""
    from repro.pipeline import compile_many

    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    programs = [small_gemm(), small_gemm(bk=64, k=128), small_gemm(bm=32)]
    compile_many(programs, arch="a100", max_candidates=2, cache=cache)
    assert cache.stats.puts == 3
    assert cache.disk_writes == 1  # one flush for the whole batch
    # Write-through semantics survive for single compiles.
    compile_kernel(small_gemm(bm=32, bn=32), arch="a100", max_candidates=2, cache=cache)
    assert cache.disk_writes == 2
    # All four entries made it to disk.
    assert len(CompileCache(disk_path=path)) == 4


def test_flush_is_a_noop_when_clean(tmp_path):
    path = str(tmp_path / "compile_cache.json")
    cache = CompileCache(disk_path=path)
    assert cache.flush() is False  # nothing dirty yet
    compile_kernel(small_gemm(), arch="a100", max_candidates=2, cache=cache)
    writes = cache.disk_writes
    assert cache.flush() is False  # put already wrote through
    assert cache.disk_writes == writes
    with cache.deferred_writes():
        compile_kernel(small_gemm(bm=32), arch="a100", max_candidates=2, cache=cache)
        assert cache.disk_writes == writes  # deferred: no write yet
    assert cache.disk_writes == writes + 1  # flushed on scope exit
    # No disk store configured: flush is a harmless no-op.
    assert CompileCache().flush() is False


def test_disk_store_tolerates_corruption(tmp_path):
    """A damaged store degrades to a cold cache instead of failing the
    compile that tried to warm up from it, and is rewritten on the next put."""
    path = tmp_path / "compile_cache.json"
    path.write_text("{not json")
    cache = CompileCache(disk_path=str(path))
    assert len(cache) == 0
    kernel = compile_kernel(small_gemm(), arch="a100", max_candidates=2, cache=cache)
    assert kernel.latency_us > 0
    assert len(CompileCache(disk_path=str(path))) == 1
