"""What one benchmark run reports: metrics, operation counts and failures."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, List, Tuple


class Outcome:
    """Metrics by name plus the operations attempted and failed.

    An operation is one compile or one request.  A failed output check
    marks its operation failed and makes the whole run incorrect.
    """

    def __init__(self):
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.tracer = None  # the traced run's Tracer

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failures.append(message)
        self.failed += operations

    def check(self, ok: bool, message: str, operations: int = 1) -> None:
        if not ok:
            self.fail(message, operations)

    def note(self, line: str) -> None:
        self.notes.append(line)

    @property
    def correct(self) -> bool:
        return not self.failures

    def result(self, names: List[str]) -> dict:
        """The result object for ``names`` (every name must be measured)."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_cycles(kernel) -> float:
    """A compiled kernel's modeled latency in cycles of its arch's clock."""
    return kernel.latency_us * kernel.arch.clock_ghz * 1e3


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
