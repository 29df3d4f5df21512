"""End-to-end benchmark of the PerPos pipelines, with per-layer self time.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer figure is expected to move.
"""
