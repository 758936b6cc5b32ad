"""Machine-speed calibration: CPU seconds at a fixed reference speed.

The benchmark's host is shared, and its speed moves under the benchmark:
for tens of minutes at a time, compiles and ``simulate()`` took 2.4-2.7x
their usual CPU time, and process CPU time does not leave that out (the
kernel reported almost no steal time).  Every end-to-end timing is
therefore scaled by the speed of a fixed reference workload sampled
through the same run:

    seconds at reference speed = CPU seconds x REFERENCE_S / median sample

The reference workload updates a dictionary and sorts strings -- hashing,
small allocations and scattered reads, the interpreter work compiles and
serves are made of.  Through one slow spell it slowed by ~2.4x where
cold serving set-ups slowed by ~2.5x.  It runs in a child process, so it
neither adds to the run's peak RSS nor depends on the run's heap, and it
runs nothing of the program, so a change to the program cannot move it.
``REFERENCE_S`` is its time on an idle 2-CPU container, where scaled
seconds equal CPU seconds.

    python3 perfbench/speed.py

prints one sample: the median of three passes, in seconds.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

# One pass of reference_workload() on an idle 2-CPU container, in CPU seconds.
REFERENCE_S = 0.0445

_PASSES = 3


def reference_workload() -> float:
    """CPU seconds one pass of the fixed reference workload takes now."""
    start = time.process_time()
    counts = {}
    for i in range(300_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i * 3 // 7
    ordered = sorted(str(i) for i in range(100_000))
    elapsed = time.process_time() - start
    if len(counts) != 1000 or ordered[0] != "0":
        raise AssertionError("reference workload computed a wrong result")
    return elapsed


class SpeedProbe:
    """The machine's speed over one run, sampled between timed sections.

    A run calls :meth:`sample` before its first timed section and after
    each later one, then multiplies its CPU seconds by :attr:`factor`.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        """One sample, from a child process that has ended on return."""
        proc = subprocess.run([sys.executable, "-I", "-S", str(Path(__file__).resolve())],
                              capture_output=True, text=True, check=True, timeout=60)
        self.samples.append(float(proc.stdout))

    @property
    def factor(self) -> float:
        """Reference time over the median sample."""
        return REFERENCE_S / statistics.median(self.samples)

    def summary(self) -> str:
        return (f"reference workload {statistics.median(self.samples) * 1e3:.1f} ms "
                f"(median of {len(self.samples)} samples, {min(self.samples) * 1e3:.1f}.."
                f"{max(self.samples) * 1e3:.1f}) against {REFERENCE_S * 1e3:.1f} ms: "
                f"CPU seconds x {self.factor:.3f}")


if __name__ == "__main__":
    print(statistics.median(reference_workload() for _ in range(_PASSES)), flush=True)
    os._exit(0)  # skip tearing the interpreter down
