"""The repository benchmark: one command, three seeded workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` explains
the workloads, metrics and checks.
"""
