"""Gate benchmark artefacts against committed baselines (CI).

Compares machine-readable benchmark artefacts against committed baseline
copies.  Two schemas are understood, sniffed from the file's top-level
sections:

``configs`` / ``scalability`` (``BENCH_dispatch.json``, written by
``bench_overhead_ablation.py``)
    Raw datums/s are not comparable across runner generations, so every
    scalability figure is first normalised by the *same run's*
    bare-pipeline rate; the gate then requires

        (current throughput / current bare) /
        (baseline throughput / baseline bare)  >=  --min-ratio

    per topology size -- i.e. the dispatch fast path may not lose more
    than (1 - min-ratio) of its relative advantage.  The
    per-configuration overhead curve is gated the same way (a config's
    slowdown factor vs bare may not grow by more than 1 / min-ratio),
    and the disabled-observability assertion re-checks that two bare
    runs agreed within 5%.

``scale`` (``BENCH_scale.json``, written by ``bench_scale_runtime.py``)
    Each workload's figure is the batch/single-datum *speedup measured
    within one run*, which is already runner-independent.  The gate
    requires the current speedup to hold at least ``--min-ratio`` of the
    baseline's per workload, and re-checks the artefact's own absolute
    floor (``speedup_floor``) on its ``gated_workload``.

``shard`` (``BENCH_shard.json``, written by ``bench_shard_runtime.py``)
    Same within-run speedup comparison as ``scale`` (multiprocessing
    throughput over the single-shard run, per sweep cell), plus the
    artefact's own absolute floor (``speedup_floor``, 1.5x on the
    gated 4-shard cell).  The absolute floor is *conditional on
    hardware*: a run recorded on fewer than ``min_cpus`` cores cannot
    show parallel speedup, so the floor is skipped (and said so) when
    the current artefact's recorded ``cpu_count`` is below it -- the
    relative ratio gate still applies everywhere.

``gateway`` (``BENCH_gateway.json``, written by ``bench_gateway.py``)
    The clean-traffic figure is the gateway-over-direct *overhead
    factor measured within one run* (smaller is better): the gate
    requires the baseline/current overhead ratio to hold
    ``--min-ratio`` and re-checks the artefact's own absolute ceiling
    (``overhead_ceiling``, 1.15x on the gated ``clean`` workload).
    Degraded-traffic workloads are gated on their within-run rate
    relative to the same run's clean rate, and the recorded DLQ depth
    must respect the artefact's ``dlq_capacity`` bound.

``durability`` (``BENCH_durability.json``, written by
``bench_durability.py``)
    Correctness figures first: every depth cell must record
    ``lost == 0`` and ``replayed == expected_replayed``, and the
    handoff must record ``lost == 0`` with ``pause_ms`` under the
    artefact's own ``pause_ceiling_ms`` -- all within-run figures, so
    they gate the *current* artefact unconditionally.  The one
    cross-run figure is ``bytes_per_datum`` (serialized size per
    pending datum, runner-independent): it may not grow by more than
    1 / --min-ratio over the baseline's per depth.

``city`` (``BENCH_city.json``, written by ``bench_city_scenario.py``)
    The closed-loop-vs-open-loop scenario gate.  Every figure is
    simulated-time deterministic, so the within-run checks gate the
    current artefact unconditionally: the closed loop must drop fewer
    datums than the open loop on the same seed, hold the artefact's own
    ``improvement_floor``, keep lane depth under ``depth_ceiling``,
    record at least one controller decision, and (when a
    ``sharded_closed`` run is present) reproduce the single-engine
    drop/alert/decision figures exactly.  The cross-run figure is the
    improvement itself, which may not shrink below ``--min-ratio`` of
    the baseline's.

A missing or malformed artefact is a harness error, not a regression:
the tool prints what went wrong and exits 2 (regressions exit 1).

When ``$GITHUB_STEP_SUMMARY`` names a writable file (GitHub Actions
sets it), a markdown pair/ratio/floor table of every gated figure is
appended there so the gate's outcome is readable from the run page;
stdout output is unchanged either way.

Usage (one or many pairs per invocation):
    python benchmarks/check_regression.py \
        --pair /tmp/dispatch-baseline.json benchmarks/results/BENCH_dispatch.json \
        --pair /tmp/scale-baseline.json benchmarks/results/BENCH_scale.json \
        --min-ratio 0.8

The legacy single-pair form ``--baseline X --current Y`` is still
accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

RERUN_TOLERANCE = 1.05


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def emit(
    rows: list,
    line: str,
    *,
    artefact: str,
    metric: str,
    figure: str,
    baseline: str,
    ratio: float,
    floor: float,
    status: str,
) -> None:
    """Print one gated figure and capture it for the markdown summary."""
    print(line)
    rows.append(
        {
            "artefact": artefact,
            "metric": metric,
            "figure": figure,
            "baseline": baseline,
            "ratio": ratio,
            "floor": floor,
            "status": status,
        }
    )


def render_markdown(rows: list, failures: list) -> str:
    """The ``$GITHUB_STEP_SUMMARY`` table: every gated figure, one row."""
    lines = [
        "### Benchmark regression gate",
        "",
        "| artefact | metric | figure | baseline | ratio | floor | status |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row['artefact']} | {row['metric']} | {row['figure']}"
            f" | {row['baseline']} | {row['ratio']:.3f}"
            f" | {row['floor']:g} | {row['status']} |"
        )
    lines.append("")
    if failures:
        lines.append(f"**FAILED** ({len(failures)} regressions):")
        lines.extend(f"- {failure}" for failure in failures)
    else:
        lines.append("**passed**")
    lines.append("")
    return "\n".join(lines)


def bare_rate(data: dict) -> float:
    return float(data["configs"]["datums_per_s"]["bare pipeline"])


def check_dispatch(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []

    rerun = float(current["configs"]["bare_rerun_ratio"])
    if not 1 / RERUN_TOLERANCE < rerun < RERUN_TOLERANCE:
        failures.append(
            "disabled-observability assertion: bare re-run ratio"
            f" {rerun:.3f} outside +/-5%"
        )

    base_bare, cur_bare = bare_rate(baseline), bare_rate(current)

    for size, base_row in baseline.get("scalability", {}).items():
        cur_row = current.get("scalability", {}).get(size)
        if cur_row is None:
            failures.append(f"scalability size {size} missing from current")
            continue
        base_norm = float(base_row["throughput"]) / base_bare
        cur_norm = float(cur_row["throughput"]) / cur_bare
        ratio = cur_norm / base_norm
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        emit(
            rows,
            f"scalability {size}: normalised throughput ratio"
            f" {ratio:.3f} (min {min_ratio}) [{status}]",
            artefact="dispatch",
            metric=f"scalability {size}",
            figure=f"{cur_norm:.2f}x bare",
            baseline=f"{base_norm:.2f}x bare",
            ratio=ratio,
            floor=min_ratio,
            status=status,
        )
        if ratio < min_ratio:
            failures.append(
                f"scalability {size}: {ratio:.3f} < {min_ratio}"
            )

    base_rates = baseline["configs"]["datums_per_s"]
    cur_rates = current["configs"]["datums_per_s"]
    for label, base_value in base_rates.items():
        if label not in cur_rates or "re-run" in label:
            continue
        # Overhead factor vs bare, in the same run: smaller is better.
        base_overhead = base_bare / float(base_value)
        cur_overhead = cur_bare / float(cur_rates[label])
        ratio = base_overhead / cur_overhead
        if ratio < min_ratio:
            failures.append(
                f"config {label!r}: overhead vs bare grew"
                f" {base_overhead:.2f}x -> {cur_overhead:.2f}x"
                f" (ratio {ratio:.3f} < {min_ratio})"
            )

    return failures


def check_scale(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []
    base_scale = baseline["scale"]
    cur_scale = current["scale"]

    for key, base_row in base_scale.get("workloads", {}).items():
        cur_row = cur_scale.get("workloads", {}).get(key)
        if cur_row is None:
            failures.append(f"scale workload {key} missing from current")
            continue
        base_speedup = float(base_row["speedup"])
        cur_speedup = float(cur_row["speedup"])
        # Speedups are within-run figures; compare them directly.
        ratio = cur_speedup / base_speedup if base_speedup else 1.0
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        emit(
            rows,
            f"scale {key}: batch speedup {cur_speedup:.2f}x"
            f" (baseline {base_speedup:.2f}x,"
            f" ratio {ratio:.3f}, min {min_ratio}) [{status}]",
            artefact="scale",
            metric=key,
            figure=f"{cur_speedup:.2f}x",
            baseline=f"{base_speedup:.2f}x",
            ratio=ratio,
            floor=min_ratio,
            status=status,
        )
        if ratio < min_ratio:
            failures.append(
                f"scale {key}: speedup ratio {ratio:.3f} < {min_ratio}"
            )

    gated = cur_scale.get("gated_workload")
    floor = float(cur_scale.get("speedup_floor", 0.0))
    if gated:
        row = cur_scale.get("workloads", {}).get(gated)
        if row is None:
            failures.append(f"gated workload {gated} missing from current")
        elif float(row["speedup"]) < floor:
            failures.append(
                f"scale {gated}: absolute speedup"
                f" {float(row['speedup']):.2f}x below the artefact's own"
                f" floor {floor}x"
            )

    return failures


def check_shard(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []
    base_shard = baseline["shard"]
    cur_shard = current["shard"]

    for key, base_row in base_shard.get("workloads", {}).items():
        cur_row = cur_shard.get("workloads", {}).get(key)
        if cur_row is None:
            failures.append(f"shard workload {key} missing from current")
            continue
        base_speedup = float(base_row["speedup"])
        cur_speedup = float(cur_row["speedup"])
        # Speedups are within-run figures; compare them directly.
        ratio = cur_speedup / base_speedup if base_speedup else 1.0
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        emit(
            rows,
            f"shard {key}: speedup {cur_speedup:.2f}x"
            f" (baseline {base_speedup:.2f}x,"
            f" ratio {ratio:.3f}, min {min_ratio}) [{status}]",
            artefact="shard",
            metric=key,
            figure=f"{cur_speedup:.2f}x",
            baseline=f"{base_speedup:.2f}x",
            ratio=ratio,
            floor=min_ratio,
            status=status,
        )
        if ratio < min_ratio:
            failures.append(
                f"shard {key}: speedup ratio {ratio:.3f} < {min_ratio}"
            )

    gated = cur_shard.get("gated_workload")
    floor = float(cur_shard.get("speedup_floor", 0.0))
    min_cpus = int(cur_shard.get("min_cpus", 2))
    cpu_count = int(cur_shard.get("cpu_count", 0))
    if gated:
        row = cur_shard.get("workloads", {}).get(gated)
        if row is None:
            failures.append(f"gated workload {gated} missing from current")
        elif cpu_count < min_cpus:
            # One core cannot show parallel speedup; the relative ratio
            # gate above still applied.
            print(
                f"shard {gated}: absolute {floor}x floor skipped"
                f" (recorded cpu_count={cpu_count} < {min_cpus})"
            )
        elif float(row["speedup"]) < floor:
            failures.append(
                f"shard {gated}: absolute speedup"
                f" {float(row['speedup']):.2f}x below the artefact's own"
                f" floor {floor}x (cpu_count={cpu_count})"
            )

    return failures


def check_gateway(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []
    base_gateway = baseline["gateway"]
    cur_gateway = current["gateway"]

    for key, base_row in base_gateway.get("workloads", {}).items():
        cur_row = cur_gateway.get("workloads", {}).get(key)
        if cur_row is None:
            failures.append(f"gateway workload {key} missing from current")
            continue
        if "overhead" in base_row:
            # Overhead factors are within-run figures; smaller is
            # better, so the ratio inverts vs the speedup gates.
            base_overhead = float(base_row["overhead"])
            cur_overhead = float(cur_row["overhead"])
            ratio = base_overhead / cur_overhead if cur_overhead else 1.0
            label = f"overhead {cur_overhead:.3f}x direct"
            detail = f"baseline {base_overhead:.3f}x"
            figure = f"{cur_overhead:.3f}x direct"
            base_figure = f"{base_overhead:.3f}x direct"
        else:
            # Degraded mixes: rate relative to the same run's clean
            # rate (runner-independent); bigger is better.
            base_rel = float(base_row["relative_rate"])
            cur_rel = float(cur_row["relative_rate"])
            ratio = cur_rel / base_rel if base_rel else 1.0
            label = f"relative rate {cur_rel:.2f}x clean"
            detail = f"baseline {base_rel:.2f}x"
            figure = f"{cur_rel:.2f}x clean"
            base_figure = f"{base_rel:.2f}x clean"
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        emit(
            rows,
            f"gateway {key}: {label}"
            f" ({detail}, ratio {ratio:.3f}, min {min_ratio}) [{status}]",
            artefact="gateway",
            metric=key,
            figure=figure,
            baseline=base_figure,
            ratio=ratio,
            floor=min_ratio,
            status=status,
        )
        if ratio < min_ratio:
            failures.append(f"gateway {key}: ratio {ratio:.3f} < {min_ratio}")

    gated = cur_gateway.get("gated_workload")
    ceiling = float(cur_gateway.get("overhead_ceiling", 0.0))
    if gated:
        row = cur_gateway.get("workloads", {}).get(gated)
        if row is None:
            failures.append(f"gated workload {gated} missing from current")
        elif ceiling and float(row["overhead"]) > ceiling:
            failures.append(
                f"gateway {gated}: absolute overhead"
                f" {float(row['overhead']):.3f}x above the artefact's own"
                f" ceiling {ceiling}x"
            )

    dlq_capacity = int(cur_gateway.get("dlq_capacity", 0))
    if dlq_capacity:
        for key, row in cur_gateway.get("workloads", {}).items():
            depth = int(row.get("dlq_depth", 0))
            if depth > dlq_capacity:
                failures.append(
                    f"gateway {key}: recorded dlq_depth {depth} exceeds"
                    f" the artefact's dlq_capacity {dlq_capacity}"
                )

    return failures


def check_durability(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []
    base_dur = baseline["durability"]
    cur_dur = current["durability"]

    for key, cur_row in cur_dur.get("depths", {}).items():
        # Within-run correctness figures: gate the current artefact
        # unconditionally, no baseline needed.
        lost = int(cur_row["lost"])
        replayed = int(cur_row["replayed"])
        expected = int(cur_row["expected_replayed"])
        if lost:
            failures.append(f"durability {key}: lost {lost} datums")
        if replayed != expected:
            failures.append(
                f"durability {key}: replayed {replayed},"
                f" expected {expected}"
            )
        base_row = base_dur.get("depths", {}).get(key)
        if base_row is None:
            failures.append(f"durability depth {key} missing from baseline")
            continue
        # Serialized size per pending datum is runner-independent;
        # smaller is better, so the ratio inverts vs the speedup gates.
        base_bpd = float(base_row["bytes_per_datum"])
        cur_bpd = float(cur_row["bytes_per_datum"])
        ratio = base_bpd / cur_bpd if cur_bpd else 1.0
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        emit(
            rows,
            f"durability {key}: {cur_bpd:.0f}B/datum"
            f" (baseline {base_bpd:.0f}B,"
            f" ratio {ratio:.3f}, min {min_ratio}) [{status}]",
            artefact="durability",
            metric=key,
            figure=f"{cur_bpd:.0f}B/datum",
            baseline=f"{base_bpd:.0f}B/datum",
            ratio=ratio,
            floor=min_ratio,
            status=status,
        )
        if ratio < min_ratio:
            failures.append(
                f"durability {key}: bytes_per_datum grew"
                f" {base_bpd:.0f}B -> {cur_bpd:.0f}B"
                f" (ratio {ratio:.3f} < {min_ratio})"
            )

    handoff = cur_dur["handoff"]
    ceiling = float(cur_dur.get("pause_ceiling_ms", 0.0))
    pause = float(handoff["pause_ms"])
    lost = int(handoff["lost"])
    ok = not lost and (not ceiling or pause <= ceiling)
    status = "ok" if ok else "REGRESSION"
    emit(
        rows,
        f"durability handoff: {handoff['datums']} datums,"
        f" pause {pause:.2f}ms (ceiling {ceiling:g}ms),"
        f" lost {lost} [{status}]",
        artefact="durability",
        metric="handoff pause",
        figure=f"{pause:.2f}ms, lost {lost}",
        baseline="(within-run)",
        ratio=1.0 if ok else 0.0,
        floor=ceiling,
        status=status,
    )
    if lost:
        failures.append(f"durability handoff: lost {lost} datums")
    if ceiling and pause > ceiling:
        failures.append(
            f"durability handoff: pause {pause:.2f}ms above the"
            f" artefact's own ceiling {ceiling:g}ms"
        )

    return failures


def check_city(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    failures = []
    base_city = baseline["city"]
    cur_city = current["city"]
    cur_open = cur_city["open"]
    cur_closed = cur_city["closed"]

    # Within-run gates: the whole scenario runs on simulated time, so
    # every figure is deterministic and gates the current artefact
    # unconditionally, no baseline needed.
    open_drops = int(cur_open["dropped"])
    closed_drops = int(cur_closed["dropped"])
    improvement = float(cur_city["improvement"])
    floor = float(cur_city.get("improvement_floor", 0.0))
    ceiling = int(cur_city.get("depth_ceiling", 0))
    high_water = int(cur_closed["high_water"])
    decisions = int(cur_closed.get("decisions", 0))

    if open_drops <= 0:
        failures.append(
            "city: open-loop baseline recorded no drops; the scenario"
            " never overloaded the lanes"
        )
    if closed_drops >= open_drops:
        failures.append(
            f"city: closed loop dropped {closed_drops} >="
            f" open loop {open_drops}"
        )
    if improvement < floor:
        failures.append(
            f"city: improvement {improvement:.3f} below the artefact's"
            f" own floor {floor}"
        )
    if ceiling and high_water > ceiling:
        failures.append(
            f"city: closed-loop high_water {high_water} above the"
            f" artefact's own depth_ceiling {ceiling}"
        )
    if decisions <= 0:
        failures.append("city: the control loop recorded no decisions")

    sharded = cur_city.get("sharded_closed")
    if sharded:
        for key in ("submitted", "dropped", "alerts", "decisions"):
            if sharded.get(key) != cur_closed.get(key):
                failures.append(
                    f"city: sharded closed loop diverged on {key}:"
                    f" {sharded.get(key)} != {cur_closed.get(key)}"
                )

    # Cross-run figure: the improvement itself is runner-independent,
    # so it may not shrink below min_ratio of the baseline's.
    base_improvement = float(base_city["improvement"])
    ratio = improvement / base_improvement if base_improvement else 1.0
    status = "ok" if ratio >= min_ratio and not failures else "REGRESSION"
    emit(
        rows,
        f"city closed-loop: {improvement:.1%} fewer drops"
        f" ({closed_drops} vs {open_drops} open; baseline"
        f" {base_improvement:.1%}, ratio {ratio:.3f}, min {min_ratio},"
        f" floor {floor:g}) [{status}]",
        artefact="city",
        metric="drop improvement",
        figure=f"{improvement:.1%}",
        baseline=f"{base_improvement:.1%}",
        ratio=ratio,
        floor=floor,
        status=status,
    )
    if ratio < min_ratio:
        failures.append(
            f"city: improvement shrank {base_improvement:.3f} ->"
            f" {improvement:.3f} (ratio {ratio:.3f} < {min_ratio})"
        )

    return failures


def check(
    baseline: dict, current: dict, min_ratio: float, rows: list
) -> list:
    """Dispatch on schema: which top-level sections the artefact carries."""
    if "city" in current or "city" in baseline:
        return check_city(baseline, current, min_ratio, rows)
    if "durability" in current or "durability" in baseline:
        return check_durability(baseline, current, min_ratio, rows)
    if "gateway" in current or "gateway" in baseline:
        return check_gateway(baseline, current, min_ratio, rows)
    if "shard" in current or "shard" in baseline:
        return check_shard(baseline, current, min_ratio, rows)
    if "scale" in current or "scale" in baseline:
        return check_scale(baseline, current, min_ratio, rows)
    if "configs" in current or "configs" in baseline:
        return check_dispatch(baseline, current, min_ratio, rows)
    return [
        "unrecognised artefact schema: expected a 'city', 'configs',"
        " 'durability', 'gateway', 'scale' or 'shard' top-level section"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "CURRENT"),
        default=[],
        help="one baseline/current artefact pair; repeatable",
    )
    parser.add_argument("--baseline", help="legacy single-pair form")
    parser.add_argument("--current", help="legacy single-pair form")
    parser.add_argument("--min-ratio", type=float, default=0.8)
    args = parser.parse_args(argv)

    pairs = list(args.pair)
    if args.baseline or args.current:
        if not (args.baseline and args.current):
            parser.error("--baseline and --current must be given together")
        pairs.append([args.baseline, args.current])
    if not pairs:
        parser.error("give at least one --pair (or --baseline/--current)")

    failures = []
    rows = []
    for baseline_path, current_path in pairs:
        print(f"== {current_path} vs {baseline_path}")
        try:
            baseline = load(baseline_path)
            current = load(current_path)
        except FileNotFoundError as exc:
            print(f"artefact missing: {exc.filename}", file=sys.stderr)
            return 2
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(
                f"artefact malformed: {baseline_path} / {current_path}:"
                f" {exc}",
                file=sys.stderr,
            )
            return 2
        try:
            failures += check(baseline, current, args.min_ratio, rows)
        except (KeyError, TypeError, ValueError) as exc:
            print(
                f"artefact schema error in {current_path} vs"
                f" {baseline_path}: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            return 2

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(render_markdown(rows, failures))

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
