"""Golden test: the reflective text surface of a seeded room app.

Pins the full infrastructure report (``render_report``) and
``psl.describe`` of every component for the Fig. 1 room application
(``build_room_app``) after a seeded 60 s walk with observability on.
Every figure in both texts is simulated-time or a count, so the output
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

from repro.core import PerPos
from repro.core.report import render_report
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import build_room_app
from repro.sensors.gps import GpsReceiver, INDOOR, OPEN_SKY
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner

GOLDEN = Path(__file__).parent / "golden"
REPORT = GOLDEN / "room_app_report.txt"
DESCRIBE = GOLDEN / "room_app_describe.txt"


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


def test_report_and_describe_match_golden():
    report, describe = room_app_surface()
    for text in (report, describe):
        assert not re.search(r"0x[0-9a-f]{6,}", text)
    assert report == REPORT.read_text()
    assert describe == DESCRIBE.read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    report, describe = room_app_surface()
    REPORT.write_text(report)
    DESCRIBE.write_text(describe)
