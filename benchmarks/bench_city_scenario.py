"""E17 -- city-scale scenario: closed-loop control vs open-loop baseline.

The first experiment where the middleware adapts *itself* under load.
One deterministic city workload (``repro.scenario``: seeded device
population, churn, degraded-signal zones, a burst event overloading the
ingestion lanes) is driven twice against the same engine configuration:

* **open loop** -- no controllers; the burst overflows the bounded
  lanes and datums are dropped;
* **closed loop** -- the stock controller set (backpressure capacity
  growth, EnTracked sampling-threshold shedding, quarantine tuning)
  reads the lane stats each drain round and actuates the adaptation
  seams.

The gate: the closed loop must lose *measurably* fewer datums on the
same seed (``improvement >= IMPROVEMENT_FLOOR``) while keeping lane
depth bounded (``high_water <= DEPTH_CEILING``) and actually recording
decisions.  Because the whole scenario runs on simulated time, every
figure is exact and machine-independent -- the committed
``BENCH_city.json`` regenerates byte-identically, and the cross-run
ratio gate in ``check_regression.py`` is a pure consistency check.

A third run repeats the closed loop on a 2-shard in-process
``ShardedEngine`` and must reproduce the single-engine drop/alert
figures exactly (controller decisions included): sharding redistributes
work, it must not change adaptation.

Scaled up by the nightly workflow via ``E17_DEVICES`` / ``E17_TICKS`` /
``E17_SHARDS`` environment overrides (PR CI runs the committed
defaults).
"""

import os
import time

from repro.runtime import PositioningEngine, ShardedEngine
from repro.runtime.scheduler import RoundRobinScheduler
from repro.scenario import (
    BurstEvent,
    CityConfig,
    CityGenerator,
    ControlLoop,
    GeofenceRule,
    ScenarioRunner,
    build_city_graph,
    default_controllers,
)

SEED = 11
DEVICES = int(os.environ.get("E17_DEVICES", "80"))
TICKS = int(os.environ.get("E17_TICKS", "160"))
SHARDS = int(os.environ.get("E17_SHARDS", "2"))
CAPACITY = 8
QUANTUM = 3
MAX_CAPACITY = 256
IMPROVEMENT_FLOOR = 0.25
DEPTH_CEILING = MAX_CAPACITY

RULES = (GeofenceRule("downtown", 1000.0, 1000.0, 400.0, trigger="both"),)

CONFIG = CityConfig(
    seed=SEED,
    devices=DEVICES,
    churn_rate=0.01,
    bursts=(
        BurstEvent("stadium", 40, 60, 1000.0, 1000.0, 800.0, factor=10),
    ),
)


def recipe():
    """The scenario graph (module-level so shards can pickle it)."""
    return build_city_graph(RULES)


def run_city(*, closed, shards=0):
    """One full scenario run; returns (result, elapsed_s, runner)."""
    generator = CityGenerator(CONFIG)
    if shards:
        engine = ShardedEngine(
            recipe,
            shards,
            executor="inprocess",
            scheduler=("round_robin", QUANTUM),
        )
    else:
        engine = PositioningEngine(
            recipe(), scheduler=RoundRobinScheduler(quantum=QUANTUM)
        )
    control = None
    if closed:
        control = ControlLoop(
            default_controllers(max_capacity=MAX_CAPACITY)
        )
    runner = ScenarioRunner(
        generator, engine, control=control, capacity=CAPACITY
    )
    start = time.perf_counter()
    result = runner.run(TICKS)
    elapsed = time.perf_counter() - start
    if shards:
        engine.close()
    return result, elapsed, runner


def _figures(result):
    """The deterministic subset of a run's result that the gate reads."""
    keys = (
        "submitted",
        "accepted",
        "dropped",
        "rejected",
        "pending",
        "high_water",
        "alerts",
        "suppressed_fixes",
        "devices",
    )
    figures = {key: result[key] for key in keys}
    if "decisions" in result:
        figures["decisions"] = result["decisions"]
    return figures


def test_e17_city_scenario(benchmark, results_writer, bench_json_writer):
    open_result, open_s, _ = run_city(closed=False)
    (closed_result, closed_s, closed_runner) = benchmark.pedantic(
        lambda: run_city(closed=True), rounds=1, iterations=1
    )
    sharded_result, _sharded_s, _ = run_city(closed=True, shards=SHARDS)

    open_drops = open_result["dropped"]
    closed_drops = closed_result["dropped"]
    improvement = 1.0 - closed_drops / max(1, open_drops)
    rate = closed_result["submitted"] / closed_s if closed_s else 0.0

    # -- within-run gates (all deterministic) ------------------------------
    assert open_drops > 0, (
        "the open-loop baseline never overloaded; the burst is not"
        " exercising backpressure"
    )
    assert closed_drops < open_drops, (
        f"closed loop dropped {closed_drops} >= open loop {open_drops}"
    )
    assert improvement >= IMPROVEMENT_FLOOR, (
        f"closed-loop improvement {improvement:.3f} below the"
        f" {IMPROVEMENT_FLOOR} floor"
    )
    assert closed_result["high_water"] <= DEPTH_CEILING, (
        f"lane depth {closed_result['high_water']} exceeded the"
        f" {DEPTH_CEILING} ceiling"
    )
    assert closed_result["decisions"] > 0, "the control loop never acted"

    # -- sharded equivalence: adaptation is execution-mode independent -----
    for key in ("submitted", "dropped", "alerts", "decisions"):
        assert sharded_result[key] == closed_result[key], (
            f"{SHARDS}-shard closed loop diverged on {key}:"
            f" {sharded_result[key]} != {closed_result[key]}"
        )

    by_controller = dict(
        closed_runner.control.describe()["by_controller"]
    )
    lines = [
        f"City scenario: seed {SEED}, {DEVICES} devices, {TICKS} ticks,"
        f" capacity {CAPACITY}, quantum {QUANTUM},"
        f" burst x{CONFIG.bursts[0].factor}",
        (
            f"open loop:   submitted={open_result['submitted']},"
            f" dropped={open_drops},"
            f" high_water={open_result['high_water']},"
            f" alerts={open_result['alerts']} ({open_s:.2f}s)"
        ),
        (
            f"closed loop: submitted={closed_result['submitted']},"
            f" dropped={closed_drops},"
            f" high_water={closed_result['high_water']},"
            f" alerts={closed_result['alerts']},"
            f" decisions={closed_result['decisions']} ({closed_s:.2f}s)"
        ),
        (
            f"improvement: {improvement:.1%} fewer drops"
            f" (floor {IMPROVEMENT_FLOOR:.0%});"
            f" decisions by controller: {by_controller}"
        ),
        (
            f"equivalence: {SHARDS}-shard in-process closed loop =="
            " single engine (drops, alerts, decisions)"
        ),
    ]
    results_writer("E17_city_scenario", "\n".join(lines))
    bench_json_writer(
        "city",
        {
            "seed": SEED,
            "devices": DEVICES,
            "ticks": TICKS,
            "capacity": CAPACITY,
            "quantum": QUANTUM,
            "shards": SHARDS,
            "improvement_floor": IMPROVEMENT_FLOOR,
            "depth_ceiling": DEPTH_CEILING,
            "improvement": round(improvement, 4),
            "closed_rate": round(rate, 1),
            "open": _figures(open_result),
            "closed": _figures(closed_result),
            "sharded_closed": _figures(sharded_result),
            "decisions_by_controller": by_controller,
        },
        filename="BENCH_city.json",
    )
