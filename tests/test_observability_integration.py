"""Integration tests: observability through the full room-number app.

Drives the Fig. 1 pipeline (GPS strand + WiFi strand -> fusion ->
resolver -> application) through :class:`PerPos` with observability
enabled, and asserts that (a) ``PerPos.trace`` names the actual
source-to-merge path behind a delivered position, and (b) the
infrastructure report embeds the live metrics section.
"""

import pytest

from repro.core import Kind, PerPos, infrastructure_snapshot, render_report
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import build_room_app
from repro.sensors.gps import GpsReceiver, INDOOR, OPEN_SKY
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner
from repro.geo.grid import GridPosition


@pytest.fixture(scope="module")
def room_app_run():
    """The room-app walk of ``examples/room_number_app.py``, observed."""
    building = demo_building()
    grid = building.grid
    waypoints = [
        (0.0, -40.0, 7.5),
        (40.0, -2.0, 7.5),
        (55.0, 5.0, 7.5),
        (75.0, 15.0, 7.5),
        (95.0, 15.0, 12.0),
        (150.0, 15.0, 12.0),
    ]
    trajectory = WaypointTrajectory(
        [
            Waypoint(t, grid.to_wgs84(GridPosition(x, y)))
            for t, x, y in waypoints
        ]
    )

    def sky(t, position):
        inside = building.contains(grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    gps = GpsReceiver("gps-device", trajectory, sky, seed=21)
    wifi = WifiScanner(
        "wifi-device",
        trajectory,
        demo_radio_environment(building),
        grid,
        seed=22,
    )
    middleware = PerPos()
    hub = middleware.enable_observability()
    app = build_room_app(middleware, gps, wifi, building)
    middleware.run_until(150.0)
    return middleware, hub, app


class TestEndToEndTrace:
    def test_room_id_trace_names_source_to_merge_path(self, room_app_run):
        middleware, _hub, app = room_app_run
        datum = app.provider.last_known(Kind.ROOM_ID)
        trace = middleware.trace(datum)
        assert trace is not None
        # Indoors at t=150 the WiFi strand wins the fusion: the trace
        # names the actual path, hop by hop, ending at the resolver that
        # minted the room id.
        assert trace.path == [
            "wifi",
            "wifi-positioning",
            "fusion",
            "resolver",
        ]
        assert trace.path[0] == datum.attribute("perpos.trace").source

    def test_hops_carry_monotonic_timestamps(self, room_app_run):
        middleware, _hub, app = room_app_run
        trace = middleware.trace(app.provider.last_known(Kind.ROOM_ID))
        stamps = [hop.timestamp for hop in trace]
        assert stamps == sorted(stamps)
        assert stamps[-1] <= 150.0

    def test_provider_last_trace_matches_middleware_trace(
        self, room_app_run
    ):
        middleware, _hub, app = room_app_run
        via_provider = app.provider.last_trace(Kind.ROOM_ID)
        via_middleware = middleware.trace(
            app.provider.last_known(Kind.ROOM_ID)
        )
        assert via_provider == via_middleware

    def test_every_trace_is_a_path_in_the_graph(self, room_app_run):
        middleware, _hub, app = room_app_run
        edges = {
            (c.producer, c.consumer)
            for c in middleware.graph.connections()
        }
        for datum in app.provider.sink.received:
            trace = middleware.trace(datum)
            assert trace is not None
            for a, b in zip(trace.path, trace.path[1:]):
                assert (a, b) in edges

    def test_fused_position_traced_to_one_strand(self, room_app_run):
        middleware, _hub, app = room_app_run
        trace = middleware.trace(
            app.provider.last_known(Kind.POSITION_WGS84)
        )
        assert trace.path[-1] == "fusion"
        assert trace.path[0] in ("gps", "wifi")


class TestLiveMetrics:
    def test_report_embeds_live_metrics_section(self, room_app_run):
        middleware, _hub, _app = room_app_run
        report = render_report(middleware)
        assert "live metrics:" in report
        assert "(observability disabled)" not in report
        # Per-component in/out counts appear for pipeline members.
        assert "fusion: in=" in report
        assert "gps-parser: in=" in report

    def test_snapshot_embeds_observability(self, room_app_run):
        middleware, hub, _app = room_app_run
        snapshot = infrastructure_snapshot(middleware)
        observability = snapshot["observability"]
        assert observability is not None
        assert observability["tracing"] is True
        components = observability["components"]
        assert components["fusion"]["items_in"] > 0
        assert components["fusion"]["latency"]["count"] > 0
        assert observability == hub.describe()

    def test_report_disabled_marker_without_hub(self):
        middleware = PerPos()
        assert "(observability disabled)" in render_report(middleware)
        assert infrastructure_snapshot(middleware)["observability"] is None

    def test_flow_conservation_across_the_app(self, room_app_run):
        middleware, hub, _app = room_app_run
        stats = hub.component_stats()
        # The application sink consumed no more than the graph produced.
        produced = sum(
            s.get("items_out", 0) for s in stats.values()
        )
        consumed_by_sink = stats["room-app"]["items_in"]
        assert 0 < consumed_by_sink <= produced

    def test_pcl_flow_summary_names_live_paths(self, room_app_run):
        middleware, _hub, _app = room_app_run
        by_path = {
            tuple(row["latest_path"] or ()): row
            for row in middleware.pcl.flow_summary()
        }
        assert ("gps", "gps-parser", "gps-interpreter") in by_path
        assert ("wifi", "wifi-positioning") in by_path

    def test_psl_metrics_reachable_for_all_members(self, room_app_run):
        middleware, _hub, _app = room_app_run
        metrics = middleware.psl.component_metrics()
        for name in (
            "gps",
            "gps-parser",
            "gps-interpreter",
            "wifi",
            "wifi-positioning",
            "fusion",
            "resolver",
            "room-app",
        ):
            assert name in metrics
