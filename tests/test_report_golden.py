"""Golden tests: the reflective text surface, pinned byte for byte.

Two seeded fixtures:

* the Fig. 1 room application (``build_room_app``) after a 60 s walk
  with observability on: the full infrastructure report
  (``render_report``) and ``psl.describe`` of every component;
* a fleet app with all seven subsystems installed and non-empty
  (observability, supervision, runtime, sharding, gateway, durability,
  scenario with its control loop): the report and every series of the
  hub's metrics registry (name, labels, value).

Every figure in these texts is simulated-time or a count, so the output
is byte-stable; no wall-clock value or object address may appear.

After an intended change to either surface, rewrite the golden files
with ``PYTHONPATH=src python tests/test_report_golden.py`` and review
the diff.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Tuple

from repro.core import Kind, PerPos
from repro.core.component import (
    ApplicationSink,
    FunctionComponent,
    SourceComponent,
)
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.core.report import render_report
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import build_room_app
from repro.robustness import FaultInjectionFeature
from repro.runtime import PositioningEngine
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
from repro.sensors.gps import GpsReceiver, INDOOR, OPEN_SKY
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner

GOLDEN = Path(__file__).parent / "golden"
REPORT = GOLDEN / "room_app_report.txt"
DESCRIBE = GOLDEN / "room_app_describe.txt"
ALL_REPORT = GOLDEN / "all_enabled_report.txt"
ALL_METRICS = GOLDEN / "all_enabled_metrics.txt"

POS = Kind.POSITION_WGS84
FLEET = ("phone-0", "phone-1", "phone-2")


def room_app_surface() -> Tuple[str, str]:
    """(report text, describe lines) of the seeded room-app walk.

    ``describe`` renders one ``component.key = <json>`` line per key.
    """
    building = demo_building()
    grid = building.grid
    trajectory = WaypointTrajectory(
        [
            Waypoint(0.0, grid.to_wgs84(GridPosition(-30.0, 7.5))),
            Waypoint(30.0, grid.to_wgs84(GridPosition(-2.0, 7.5))),
            Waypoint(50.0, grid.to_wgs84(GridPosition(15.0, 7.5))),
            Waypoint(70.0, grid.to_wgs84(GridPosition(15.0, 12.0))),
        ]
    )

    def sky(t, position):
        inside = building.contains(grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    gps = GpsReceiver("gps-dev", trajectory, sky, seed=11)
    wifi = WifiScanner(
        "wifi-dev",
        trajectory,
        demo_radio_environment(building),
        grid,
        seed=12,
    )
    middleware = PerPos()
    middleware.enable_observability()
    build_room_app(middleware, gps, wifi, building)
    middleware.run_until(60.0)
    describe = [
        f"{name}.{key} = {json.dumps(value, sort_keys=True)}"
        for name in sorted(c.name for c in middleware.graph.components())
        for key, value in sorted(middleware.psl.describe(name).items())
    ]
    return render_report(middleware) + "\n", "\n".join(describe) + "\n"


def fix(device: str, step: int) -> dict:
    """One clean ``phone_tracker_v1`` reading."""
    return {
        "source_format": "phone_tracker_v1",
        "device_id": device,
        "timestamp": float(step),
        "lat": 56.1718 + 0.0001 * step,
        "lon": 10.1903 + 0.0001 * step,
        "speed_mps": 1.4,
        "accuracy_m": 8.0,
        "battery_pct": 0.9,
    }


def shard_recipe() -> ProcessingGraph:
    """src -> app, the graph every shard builds."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(ApplicationSink("app", ("x",)))
    graph.connect("src", "app")
    return graph


def all_enabled_surface() -> Tuple[str, str]:
    """(report text, metric series lines) with every subsystem installed.

    The fleet graph ``wire-src -> smooth -> fleet-app`` fails every
    seventh datum at ``smooth`` (a supervised failure); the gateway
    rate-limits per device and dead-letters one malformed fix; durability checkpoints once into
    a memory store and journals more traffic after it; sharding runs
    two in-process shards; a closed-loop city scenario with a geofence
    reports into the same hub.  ``metrics`` renders one ``kind name{labels} = <json>``
    line per series of the hub's registry.
    """
    middleware = PerPos()
    hub = middleware.enable_observability()
    middleware.enable_supervision()
    graph = middleware.graph
    graph.add(SourceComponent("wire-src", (POS,)))
    smooth = FunctionComponent("smooth", (POS,), (POS,), fn=lambda d: d)
    smooth.attach_feature(FaultInjectionFeature(fail_every=7))
    graph.add(smooth)
    graph.add(ApplicationSink("fleet-app", (POS,)))
    graph.connect("wire-src", "smooth")
    graph.connect("smooth", "fleet-app")

    engine = middleware.enable_runtime()
    gateway = middleware.enable_gateway("wire-src", rate_limit=100.0)
    middleware.enable_durability()
    for step in range(4):
        for device in FLEET:
            gateway.submit(fix(device, step))
    broken = fix("phone-9", 4)
    broken["lat"] = "north"
    gateway.submit(broken)
    gateway.forward()
    engine.drain_all()
    middleware.psl.snapshot()
    for step in range(4, 6):
        for device in FLEET:
            gateway.submit(fix(device, step))
    gateway.forward()
    engine.drain_round()

    sharding = middleware.enable_sharding(shard_recipe, 2)
    for i, target in enumerate(("t0", "t1", "t2")):
        sharding.track(target, "src", shard=i % 2)
        sharding.submit(target, Datum("x", i, float(i)))
    sharding.drain_all()

    fence = GeofenceRule("downtown", 1000.0, 1000.0, 900.0, trigger="both")
    city = PositioningEngine(
        build_city_graph((fence,)), scheduler=RoundRobinScheduler(quantum=2)
    )
    runner = ScenarioRunner(
        CityGenerator(
            CityConfig(
                seed=19,
                devices=20,
                churn_rate=0.0,
                zones=(),
                bursts=(
                    BurstEvent(
                        "rush", 5, 30, 1000.0, 1000.0, 5000.0, factor=8
                    ),
                ),
            )
        ),
        city,
        control=ControlLoop(default_controllers(max_capacity=64)),
        capacity=4,
        hub=hub,
    )
    runner.run(12)
    middleware.enable_scenario(runner)

    report = render_report(middleware) + "\n"
    metrics = [
        f"{kind} {name} = {json.dumps(value, sort_keys=True)}"
        for kind, series in sorted(hub.registry.snapshot().items())
        for name, value in sorted(series.items())
    ]
    middleware.disable_scenario()
    middleware.disable_sharding()
    return report, "\n".join(metrics) + "\n"


def test_report_and_describe_match_golden():
    report, describe = room_app_surface()
    for text in (report, describe):
        assert not re.search(r"0x[0-9a-f]{6,}", text)
    assert report == REPORT.read_text()
    assert describe == DESCRIBE.read_text()


def test_all_enabled_report_and_metrics_match_golden():
    report, metrics = all_enabled_surface()
    for text in (report, metrics):
        assert not re.search(r"0x[0-9a-f]{6,}", text)
    assert report == ALL_REPORT.read_text()
    assert metrics == ALL_METRICS.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    report, describe = room_app_surface()
    REPORT.write_text(report)
    DESCRIBE.write_text(describe)
    report, metrics = all_enabled_surface()
    ALL_REPORT.write_text(report)
    ALL_METRICS.write_text(metrics)
