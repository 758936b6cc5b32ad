"""Content-addressed compile cache.

A compile is keyed by a stable fingerprint of ``(KernelProgram, arch,
instruction set, options)``.  Program fingerprints are *structural*: tensors
and operations are numbered in program order, so two independently built
but identical programs (whose global ``tensor_id``/``op_id`` counters
differ) produce the same fingerprint, while any change to shapes, dtypes,
layouts, annotations, trip counts or launch configuration changes it.
Synthesized artifacts (thread-value layouts, shared-memory layouts,
swizzles, selected instructions) are deliberately excluded so a program's
fingerprint is the same before and after it has been compiled.

The cache itself is a thread-safe in-memory LRU with an optional on-disk
JSON store.  An entry records the winning instruction assignment in a
serializable form plus result metadata; in-memory entries additionally pin
the full :class:`CompiledKernel`.  On a hit the driver either returns the
pinned kernel directly (same program object, already carrying its
synthesized layouts) or *replays* the cached assignment through the pass
pipeline — evaluating a single candidate instead of searching — which
reproduces a bit-identical result on an equivalent program, including all
layout installation side effects.  Disk entries (no pinned kernel) always
take the replay path, which is what makes the store useful across
processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.instructions.registry import InstructionSet
from repro.ir.graph import KernelProgram
from repro.ir.ops import Elementwise, Fill, Reduce
from repro.ir.tensor import Scope, TileTensor
from repro.sim.arch import GpuArch

__all__ = [
    "program_fingerprint",
    "compile_key",
    "CacheEntry",
    "CacheStats",
    "CompileCache",
    "default_cache",
    "set_default_cache",
    "clear_default_cache",
]

_DISK_FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# Fingerprinting
# --------------------------------------------------------------------------- #
def _layout_token(layout) -> str:
    return f"{layout.shape!r}:{layout.stride!r}"


def _tensor_token(tensor: TileTensor, local_ids: Dict[int, int]) -> list:
    """A serializable description of one tensor, assigning a program-local
    id on first encounter.  Only *user-specified* layout information is
    included (global layouts, TV annotations); synthesized layouts are
    excluded so fingerprints are stable across compilation."""
    if tensor.tensor_id not in local_ids:
        local_ids[tensor.tensor_id] = len(local_ids)
    token = [
        local_ids[tensor.tensor_id],
        tensor.name,
        tensor.dtype.name,
        tensor.scope.value,
        list(tensor.shape),
        tensor.buffer_name,
    ]
    if tensor.scope is Scope.GLOBAL and tensor.layout is not None:
        token.append(_layout_token(tensor.layout))
    else:
        token.append(None)
    if tensor.tv_annotation is not None:
        token.append(
            [_layout_token(tensor.tv_annotation.layout), list(tensor.tv_annotation.tile_shape)]
        )
    else:
        token.append(None)
    return token


def _op_token(op, local_ids: Dict[int, int]) -> list:
    token = [
        op.op_name,
        [_tensor_token(t, local_ids) for t in op.inputs],
        [_tensor_token(t, local_ids) for t in op.outputs],
        op.trips,
        op.stage,
    ]
    # Operation-specific payloads that affect semantics but not operands.
    if isinstance(op, Elementwise):
        token.append(["fn", op.fn_name])
    elif isinstance(op, Reduce):
        token.append(["reduce", op.dim, op.kind])
    elif isinstance(op, Fill):
        token.append(["fill", op.value])
    else:
        token.append(None)
    return token


def _program_token(program: KernelProgram) -> list:
    local_ids: Dict[int, int] = {}
    return [
        program.name,
        program.num_threads,
        program.grid_blocks,
        program.num_stages,
        program.warp_specialized,
        program.unique_global_bytes,
        [_op_token(op, local_ids) for op in program.operations],
    ]


def _digest(token) -> str:
    payload = json.dumps(token, sort_keys=False, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_fingerprint(program: KernelProgram) -> str:
    """A stable content hash of a tile program (structure + launch config)."""
    return _digest(_program_token(program))


def _instruction_set_token(instructions: InstructionSet) -> list:
    return [
        instructions.arch,
        [[i.name, i.direction, i.vector_bytes] for i in instructions.memory],
        [i.name for i in instructions.mma],
    ]


def compile_key(
    program: KernelProgram,
    arch: GpuArch,
    instructions: InstructionSet,
    options,
    backend: Optional[str] = None,
) -> str:
    """The cache key of one ``(program, arch, backend, instructions, options)``.

    ``backend`` is the resolved codegen backend *name* (``None`` follows the
    architecture's declared backend).  It is part of the key so a kernel
    compiled for one target is never replayed for another — the synthesized
    swizzles and the emitted source both depend on it.  Every ``arch``
    field is keyed, not just its name: a variant with the same name but
    other banking synthesizes other swizzles.
    """
    token = [
        _program_token(program),
        [getattr(arch, f.name) for f in fields(arch)],
        backend if backend is not None else arch.backend,
        _instruction_set_token(instructions),
        options.max_candidates,
        options.keep_alternatives,
    ]
    return _digest(token)


# --------------------------------------------------------------------------- #
# Cache entries
# --------------------------------------------------------------------------- #
@dataclass
class CacheEntry:
    """One cached compile result.

    ``assignment`` is the winning instruction choice per copy in program
    order (``(name, direction, vector_bytes)`` triples) — enough to replay
    the compile on an equivalent program without searching.  ``kernel``
    pins the full in-memory result and is ``None`` for entries loaded from
    disk.
    """

    key: str
    program_name: str
    assignment: List[Tuple[str, str, int]]
    latency_us: float
    source_digest: str
    pass_stats: Dict[str, float] = field(default_factory=dict)
    kernel: Optional[object] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "program_name": self.program_name,
            "assignment": [list(triple) for triple in self.assignment],
            "latency_us": self.latency_us,
            "source_digest": self.source_digest,
            "pass_stats": dict(self.pass_stats),
        }

    @classmethod
    def from_json(cls, record: dict) -> "CacheEntry":
        return cls(
            key=record["key"],
            program_name=record["program_name"],
            assignment=[tuple(triple) for triple in record["assignment"]],
            latency_us=record["latency_us"],
            source_digest=record["source_digest"],
            pass_stats=dict(record.get("pass_stats", {})),
        )


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache instance."""

    hits: int = 0
    replays: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    uncacheable: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(asdict(self))


class CompileCache:
    """A thread-safe LRU of compile results with an optional JSON store.

    ``max_entries`` bounds the in-memory LRU; ``disk_path`` (a JSON file)
    enables write-through persistence — entries are loaded on construction
    and rewritten on every put, so a later process starts warm (its hits
    replay the stored assignments instead of searching).

    A single compile writes through immediately, but rewriting the whole
    store once per insertion is O(n²) disk I/O under a ``compile_many``
    fan-out — so batch drivers wrap their puts in :meth:`deferred_writes`,
    which marks the store dirty instead of writing and :meth:`flush`\\ es
    once on exit.  ``flush()`` is idempotent and a no-op when clean.
    """

    def __init__(self, max_entries: int = 256, disk_path: Optional[str] = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.disk_path = disk_path
        self.stats = CacheStats()
        self._lock = threading.RLock()
        # Separate lock for file writes so disk I/O never blocks get/put.
        self._disk_lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._dirty = False
        self._defer_depth = 0
        self.disk_writes = 0
        if disk_path is not None and os.path.exists(disk_path):
            self.load_disk()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def get(self, key: Optional[str]) -> Optional[CacheEntry]:
        if key is None:
            with self._lock:
                self.stats.uncacheable += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.puts += 1
            self._dirty = True
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            deferred = self._defer_depth > 0
        # Write-through happens outside the lock: save_disk snapshots the
        # entries under the lock but performs file I/O without it, so
        # concurrent compiles are not serialized behind disk writes.  Under
        # deferred_writes() the store is only marked dirty; the driver
        # flushes once after its batch.
        if self.disk_path is not None and not deferred:
            self.save_disk()

    @contextmanager
    def deferred_writes(self):
        """Batch scope: puts mark the store dirty instead of rewriting it;
        one flush runs on exit.  Re-entrant (inner scopes defer to the
        outermost flush); a no-op for caches without a disk store.

        The deferral is deliberately cache-wide, not per-thread: a batch's
        puts land on thread-pool workers, so a thread-local depth would
        defeat the whole mechanism.  A concurrent single compile on
        another thread is therefore folded into the batch's flush instead
        of writing through — its entry persists at the same moment the
        batch's do."""
        with self._lock:
            self._defer_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._defer_depth -= 1
                outermost = self._defer_depth == 0
            if outermost:
                self.flush()

    def flush(self) -> bool:
        """Write the store to disk if it has unsaved puts; True if written."""
        if self.disk_path is None:
            return False
        with self._lock:
            if not self._dirty:
                return False
        self.save_disk()
        return True

    def note_replay(self) -> None:
        with self._lock:
            self.stats.replays += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Disk persistence
    # ------------------------------------------------------------------ #
    def save_disk(self, path: Optional[str] = None) -> str:
        path = path or self.disk_path
        if path is None:
            raise ValueError("no disk path configured for this cache")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        # Snapshot *inside* the disk lock: if two puts race, the second
        # writer's snapshot is taken after the first writer finished, so the
        # file never regresses to an older view of the entries.
        with self._disk_lock:
            with self._lock:
                payload = {
                    "version": _DISK_FORMAT_VERSION,
                    "entries": {
                        key: entry.to_json() for key, entry in self._entries.items()
                    },
                }
                # Cleared at snapshot time: a put racing past this point
                # re-marks dirty and triggers its own write.
                if path == self.disk_path:
                    self._dirty = False
            try:
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, indent=0)
                os.replace(tmp_path, path)
            except BaseException:
                # The snapshot never reached disk: re-mark dirty so a retry
                # flush() does not silently no-op on a "clean" cache.
                if path == self.disk_path:
                    with self._lock:
                        self._dirty = True
                raise
            with self._lock:
                self.disk_writes += 1
        return path

    def load_disk(self, path: Optional[str] = None) -> int:
        """Merge entries from a JSON store; returns how many were loaded.

        The store is a best-effort cache: a corrupt or unreadable file (or
        unknown format version) degrades to a cold cache instead of failing
        the compile that tried to warm up from it."""
        path = path or self.disk_path
        if path is None:
            raise ValueError("no disk path configured for this cache")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(payload, dict) or payload.get("version") != _DISK_FORMAT_VERSION:
            return 0
        loaded = 0
        with self._lock:
            for key, record in payload.get("entries", {}).items():
                if key in self._entries:
                    continue
                try:
                    self._entries[key] = CacheEntry.from_json(record)
                except (KeyError, TypeError):
                    continue
                loaded += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return loaded


# --------------------------------------------------------------------------- #
# The process-wide default cache
# --------------------------------------------------------------------------- #
_default_cache = CompileCache()
_default_lock = threading.Lock()


def default_cache() -> CompileCache:
    return _default_cache


def set_default_cache(cache: CompileCache) -> CompileCache:
    global _default_cache
    with _default_lock:
        previous, _default_cache = _default_cache, cache
    return previous


def clear_default_cache() -> None:
    _default_cache.clear()
