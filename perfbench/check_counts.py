"""Check that the traced run's deterministic counts repeat exactly.

    python3 perfbench/check_counts.py --workload <name> --seed <n>

Runs ``run.py --trace 1`` twice for one workload and seed and compares
every per-layer metric whose unit is ``count``: layout memo lookups,
search leaves, swizzles scored, select calls, waiting entries scanned,
preemptions, prefix hits and the rest.  Exits 1 on any difference.
Count-based claims rest on this.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    differ = sorted(name for name in first if first[name] != second.get(name))
    for name in sorted(first):
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:40s} {first[name]:>16} {second.get(name):>16}  {mark}")
    print(f"{args.workload} seed {args.seed}: {len(first) - len(differ)} of "
          f"{len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
