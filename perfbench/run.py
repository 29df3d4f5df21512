"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload room_walk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced episodes.
``--trace 1`` alternates untraced and traced episodes and prints the
per-layer table of the traced ones (self time per layer, counts, the
unattributed remainder and the traced/untraced wall ratio).  Lines
before the last one are context: the input digest, the host-speed probe,
sample counts and, when traced, what each per-layer metric is expected
to move.  The run exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent

# What each per-layer metric is expected to move, and where it should stay
# flat, by the longest matching name prefix.  Names and units of all
# metrics come from BENCHMARK.json.
_PR = ("positions_per_s + p50 on room_walk", "phone_fleet, city_closed_loop")
_RS = ("positions_per_s on room_walk, phone_fleet", "city_closed_loop")
_SC = ("positions_per_s + p99 on city_closed_loop", "room_walk, phone_fleet")
NOTES = {
    "gateway.": ("positions_per_s + p50 on phone_fleet", "absent elsewhere"),
    "runtime.": ("p99 + positions_per_s on city_closed_loop; phone_fleet", "room_walk"),
    "core.dispatch_s": ("positions_per_s on all, most on city_closed_loop", "-"),
    "core.pcl_s": _RS,
    "processing.": _PR,
    "processing.resolver.": _RS,
    "processing.wire-adapter.": ("positions_per_s on phone_fleet", "others"),
    "model.": (
        "positions_per_s on phone_fleet (main), room_walk (minor)",
        "city_closed_loop",
    ),
    "scenario.": _SC,
    "control.": ("city_closed_loop", "room_walk, phone_fleet"),
    "sink.": ("positions_per_s on all three", "-"),
    "trace.": ("-", "-"),
    "host.": ("-", "-"),
}


def spec() -> dict:
    """The benchmark's declaration, BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> Dict[str, str]:
    """Metric name -> unit of ``section`` (``end_to_end`` or ``per_layer``)."""
    return {metric["name"]: metric["unit"] for metric in spec()[section]}


def notes(name: str) -> Tuple[str, str]:
    """What per-layer metric ``name`` should move, and where it stays flat."""
    return NOTES[max((p for p in NOTES if name.startswith(p)), key=len)]


def make_workload(name: str, seed: int):
    """Import the program and generate the workload's inputs."""
    if name == "room_walk":
        from perfbench.room_walk import RoomWalk as cls
    elif name == "phone_fleet":
        from perfbench.phone_fleet import PhoneFleet as cls
    else:
        from perfbench.city_loop import CityLoop as cls
    return cls(seed)


def end_to_end(result, peak_rss_mb: float) -> dict:
    from perfbench.harness import percentile

    floors = result.untraced
    latencies_ms = [s * 1000.0 for s in floors.latencies()]
    return {
        "positions_per_s": floors.outputs / floors.wall(),
        "ingest_to_sink_p50_ms": percentile(latencies_ms, 50),
        "ingest_to_sink_p99_ms": percentile(latencies_ms, 99),
        "setup_s": floors.setup,
        "peak_rss_mb": peak_rss_mb,
        "delivered_share": result.delivered / result.attempted,
    }


def per_layer(result, probe_ms: float) -> dict:
    from perfbench.harness import percentile

    episodes = result.traced.episodes
    values = {name: 0.0 for name in units("per_layer")}
    for name, total in result.layers.items():
        if name in values:
            values[name] = total / episodes
    waits_ms = [s * 1000.0 for s in result.lane_waits]
    if waits_ms:
        values["runtime.lane_wait_p50_ms"] = percentile(waits_ms, 50)
        values["runtime.lane_wait_p99_ms"] = percentile(waits_ms, 99)
    values["trace.overhead"] = result.traced.wall() / result.untraced.wall()
    values["host.probe_ms"] = probe_ms
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [workload["name"] for workload in spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is imported from this checkout's sources, not from an
    # installed copy.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import host_probe_ms, measure, peak_rss_mb

    probe_ms = host_probe_ms()
    started = time.perf_counter()
    workload = make_workload(args.workload, args.seed)
    generated_s = time.perf_counter() - started
    result = measure(workload, args.seconds, bool(args.trace))
    rss = peak_rss_mb()

    print(
        f"# {args.workload} seed={args.seed} input_sha256={workload.digest}"
        f" generate_s={generated_s:.3f} host_probe_ms={probe_ms:.3f}"
    )
    print(
        f"# floored episodes untraced={result.untraced.episodes}"
        f" traced={result.traced.episodes} of {result.episodes}"
        f" latency_samples={len(result.untraced.pairs)} per episode"
        f" lane_wait_samples={len(result.lane_waits)}"
    )
    for failure in result.failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    if args.trace:
        values = per_layer(result, probe_ms)
        unit_of = units("per_layer")
        for name, unit in unit_of.items():
            moves, flat = notes(name)
            print(
                f"# {name:38s} {values[name]:14.6f} {unit:6s}"
                f" moves: {moves} | flat: {flat}"
            )
    else:
        values = end_to_end(result, rss)
        unit_of = units("end_to_end")
    correct = result.failed == 0 and not result.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
