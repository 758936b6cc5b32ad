"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

from the repository root.  Workloads: ``compile-families``,
``serve-fcfs-diurnal`` and ``fleet-slo-prefix`` (see perfbench/README.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that measures the per-layer metrics and writes a
Chrome trace-event file under ``perfbench/out/``.  The last line of
standard output is the result object; the exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import compile_runs, serve_runs  # noqa: E402
from perfbench.outcome import peak_rss_mb  # noqa: E402

WORKLOADS = {
    "compile-families": compile_runs.run,
    "serve-fcfs-diurnal": lambda *args: serve_runs.run(serve_runs.FCFS, *args),
    "fleet-slo-prefix": lambda *args: serve_runs.run(serve_runs.FLEET, *args),
}
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[group]]

    expected = json.loads((OUT_DIR.parent / "expected.json").read_text(encoding="utf-8"))
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), expected)
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")

    for line in outcome.notes:
        print(line)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        outcome.tracer.write_chrome(path, args.workload)
        print(f"trace: {len(outcome.tracer.spans)} spans -> {path.relative_to(ROOT)}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    print(f"{args.workload} seed {args.seed}: {outcome.attempted} operations, "
          f"{outcome.failed} failed (fail_rate {outcome.failed / max(outcome.attempted, 1):.6f})")
    for name in names:
        value, unit = outcome.metrics[name]
        print(f"  {name:42s} {value:16.6f} {unit}")
    print(json.dumps(outcome.result(names)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
