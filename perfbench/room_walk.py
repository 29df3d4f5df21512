"""``room_walk``: the paper's Fig. 1 Room Number Application, many walkers.

Each walker walks between seeded waypoints alternately inside and outside
the demo building and carries a GPS receiver (NMEA over a fragmenting serial
link) and a WiFi scanner.  Every walker gets its own ``PerPos`` +
``build_room_app`` + ``enable_runtime`` -- walkers cannot share a graph,
because the NMEA parser's line buffer and the fusion state are per
stream -- with one engine lane on its ``gps`` source and one on its
``wifi`` source.

Closed loop, one tick per simulated second: every walker's readings of
tick *k* are submitted to its lanes, then every walker's engine drains,
as one host serving all walkers would; tick *k+1* starts after that.
The readings are generated before timing.  Latency rule: a room id
delivered during tick *k* to walker *w*'s sink is matched FIFO to the
ingest calls of walker *w* in tick *k* (room-id outputs carry no
target).

Reference: each walker's room-id sequence must equal the one a plain
``PerPos.run_until`` pump run of the same readings produces (per-datum
dispatch, no engine).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Tuple

from repro.core import Kind, PerPos
from repro.core.data import Datum
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building, demo_radio_environment
from repro.processing.pipelines import build_room_app
from repro.runtime.scheduler import RoundRobinScheduler
from repro.sensors.emulator import EmulatorSensor
from repro.sensors.gps import INDOOR, OPEN_SKY, GpsReceiver
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.sensors.wifi import WifiScanner

from .harness import LatencyProbe, Taps, Verdict, default_prefix, lane_drops

WALKERS = 6
TICKS = 120
#: Episodes the timing floors are taken over (see ``harness.measure``):
#: about two thirds of what a 30 s run holds, so a slower commit
#: reaches it too.
FLOOR_EPISODES = 44
#: Walk area around the 40 m x 15 m building, in grid metres.
AREA = ((-15.0, 55.0), (-12.0, 27.0))
#: The building's floor, less a margin.
INDOOR_AREA = ((1.0, 39.0), (1.0, 14.0))
#: The building's footprint, which outdoor waypoints avoid.
FOOTPRINT = ((0.0, 40.0), (0.0, 15.0))
#: Seconds a walker stays at each waypoint, and takes to the next one.
DWELL_S = 8.0
LEG_S = 12.0
#: Deep enough that no lane ever drops within one tick.
LANE_CAPACITY = 256
#: One round drains a whole tick's lane, in lane order, like a pump.
QUANTUM = 256

Readings = List[Tuple[list, list]]  # per tick: (gps readings, wifi readings)


def _walk(
    rng: random.Random, building: Any, duration_s: float, inside: bool
) -> WaypointTrajectory:
    """Waypoints alternating inside the building and outside it.

    The walker stays ``DWELL_S`` at each waypoint and takes ``LEG_S`` to
    the next, so it crosses the building boundary once per leg (the GPS
    to WiFi hand-over of Fig. 1) and spends the same share of every
    period indoors whatever the seed: the seed moves the positions, not
    the mix of indoor and outdoor work a tick carries.
    """
    (x0, x1), (y0, y1) = AREA
    (bx0, bx1), (by0, by1) = INDOOR_AREA
    (fx0, fx1), (fy0, fy1) = FOOTPRINT
    waypoints = []
    t = 0.0
    while t <= duration_s:
        if inside:
            x, y = rng.uniform(bx0, bx1), rng.uniform(by0, by1)
        else:
            x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
            while fx0 <= x <= fx1 and fy0 <= y <= fy1:
                x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
        position = building.grid.to_wgs84(GridPosition(x, y))
        waypoints.append(Waypoint(t, position))
        waypoints.append(Waypoint(t + DWELL_S, position))
        inside = not inside
        t += DWELL_S + LEG_S
    return WaypointTrajectory(waypoints)


def generate(seed: int, walkers: int, ticks: int) -> List[Readings]:
    """Per walker, per tick 1..ticks: the readings a pump at that tick sees."""
    building = demo_building()
    environment = demo_radio_environment(building)

    def sky(_t: float, position: Any) -> Any:
        inside = building.contains(building.grid.to_grid(position))
        return INDOOR if inside else OPEN_SKY

    streams = []
    for index in range(walkers):
        rng = random.Random(seed * 1_000_003 + index)
        trajectory = _walk(rng, building, ticks + 1.0, inside=index % 2 == 0)
        gps = GpsReceiver(
            f"w{index:02d}-gps", trajectory, sky, seed=rng.randrange(1 << 30)
        )
        wifi = WifiScanner(
            f"w{index:02d}-wifi",
            trajectory,
            environment,
            building.grid,
            seed=rng.randrange(1 << 30),
        )
        streams.append(
            [(gps.sample(float(k)), wifi.sample(float(k))) for k in range(1, ticks + 1)]
        )
    return streams


def digest(streams: List[Readings]) -> str:
    """SHA-256 over every reading's sensor, time and payload."""
    sha = hashlib.sha256()
    for stream in streams:
        for gps, wifi in stream:
            for reading in gps + wifi:
                fields = (reading.sensor_id, reading.timestamp, reading.payload)
                sha.update(repr(fields).encode())
    return sha.hexdigest()


def _datum(reading: Any, kind: str, source: str, target: str) -> Datum:
    return Datum(
        kind=kind,
        payload=reading.payload,
        timestamp=reading.timestamp,
        producer=source,
        attributes={**reading.attributes, "target": target},
    )


def _room_ids(datums: List[Datum]) -> List[Tuple[float, Any]]:
    return [(d.timestamp, d.payload.room_id) for d in datums]


class Walker:
    """One walker's middleware, engine and lanes."""

    def __init__(self, index: int, building: Any) -> None:
        self.index = index
        self.middleware = PerPos()
        name = f"w{index:02d}"
        self.app = build_room_app(
            self.middleware,
            EmulatorSensor([], sensor_id=f"{name}-gps"),
            EmulatorSensor([], sensor_id=f"{name}-wifi"),
            building,
        )
        self.engine = self.middleware.enable_runtime(RoundRobinScheduler(QUANTUM))
        self.gps_lane = f"{name}.gps"
        self.wifi_lane = f"{name}.wifi"
        self.engine.track(self.gps_lane, "gps", capacity=LANE_CAPACITY)
        self.engine.track(self.wifi_lane, "wifi", capacity=LANE_CAPACITY)
        self.rooms: List[Datum] = []


class System:
    def __init__(self, building: Any, walkers: List[Walker]) -> None:
        self.building = building
        self.walkers = walkers
        self.tick = 0


class RoomWalk:
    """The ``room_walk`` workload (see the module docstring)."""

    name = "room_walk"
    floor_episodes = FLOOR_EPISODES

    def __init__(self, seed: int, walkers: int = WALKERS, ticks: int = TICKS) -> None:
        self.ticks = ticks
        self.streams = generate(seed, walkers, ticks)
        self.digest = digest(self.streams)
        # Engine-ready datums, pre-stamped with their lane's target so
        # ``engine.submit`` queues them as they are.
        self.datums = [
            [
                (
                    [_datum(r, Kind.NMEA_RAW, "gps", f"w{w:02d}.gps") for r in gps],
                    [_datum(r, Kind.WIFI_SCAN, "wifi", f"w{w:02d}.wifi") for r in wifi],
                )
                for gps, wifi in stream
            ]
            for w, stream in enumerate(self.streams)
        ]
        self.inputs = sum(len(g) + len(f) for s in self.datums for g, f in s)
        self.expected: List[List[Tuple[float, Any]]] = []

    def reference(self) -> None:
        """Room ids of a per-datum ``run_until`` pump run, per walker."""
        building = demo_building()
        self.expected = []
        for stream in self.streams:
            middleware = PerPos()
            gps = EmulatorSensor([r for g, _ in stream for r in g])
            wifi = EmulatorSensor([r for _, f in stream for r in f])
            app = build_room_app(middleware, gps, wifi, building)
            rooms: List[Datum] = []
            app.provider.add_listener(rooms.append, kind=Kind.ROOM_ID)
            middleware.run_until(float(self.ticks))
            self.expected.append(_room_ids(rooms))

    def load(self) -> None:
        """Inputs are generated once, in the constructor."""
        return None

    def setup(self, _load: None) -> System:
        building = demo_building()
        return System(building, [Walker(i, building) for i in range(len(self.streams))])

    def instrument(self, system: System, taps: Taps) -> None:
        taps.span(system.building, "resolve", "model.resolve_s")
        for walker in system.walkers:
            taps.graph(walker.middleware.graph, default_prefix)
            taps.pcl(walker.middleware.pcl)
            taps.engine(walker.engine)

    def attach(self, system: System, probe: LatencyProbe, taps: Any) -> None:
        for walker in system.walkers:
            rooms = walker.rooms
            index = walker.index

            def on_room(datum: Datum, rooms: list = rooms, index: int = index) -> None:
                probe.deliver((index, system.tick))
                rooms.append(datum)

            walker.app.provider.add_listener(
                taps.harness(on_room) if taps is not None else on_room,
                kind=Kind.ROOM_ID,
            )

    def run(self, system: System, probe: LatencyProbe) -> None:
        walkers = system.walkers
        ingest = probe.ingest
        for k in range(self.ticks):
            system.tick = k
            for walker, datums in zip(walkers, self.datums):
                gps, wifi = datums[k]
                submit = walker.engine.submit
                for datum in gps:
                    ingest((walker.index, k))
                    submit(walker.gps_lane, datum)
                for datum in wifi:
                    ingest((walker.index, k))
                    submit(walker.wifi_lane, datum)
            for walker in walkers:
                walker.engine.drain_all()
            probe.tick()

    def check(self, system: System, probe: LatencyProbe) -> Verdict:
        failures = []
        failed = 0
        outputs = 0
        for walker, expected in zip(system.walkers, self.expected):
            got = _room_ids(walker.rooms)
            outputs += len(got)
            if got != expected:
                wrong = sum(a != b for a, b in zip(got, expected))
                wrong += abs(len(got) - len(expected))
                failed += wrong
                failures.append(
                    f"walker {walker.index}: {wrong} room ids differ from the"
                    f" pump reference ({len(got)} vs {len(expected)})"
                )
            lost = lane_drops(walker.engine) + walker.engine.depth_total()
            if lost:
                failed += lost
                failures.append(
                    f"walker {walker.index}: {lost} inputs dropped or pending"
                )
        if probe.unmatched:
            failed += probe.unmatched
            failures.append(f"{probe.unmatched} room ids matched no ingest")
        return Verdict(
            attempted=self.inputs,
            delivered=self.inputs - failed,
            outputs=outputs,
            failures=failures,
            failed=failed,
        )

    def layer_counts(self, system: System, taps: Taps) -> Dict[str, float]:
        scans = taps.counts["processing.wifi-positioning.in"]
        positions = taps.produced["processing.wifi-positioning"][Kind.POSITION_WGS84]
        return {
            "processing.wifi-positioning.yield": positions / scans if scans else 0.0,
            "processing.gps-parser.dropped_lines": sum(
                w.middleware.graph.component("gps-parser").dropped_lines
                for w in system.walkers
            ),
            "runtime.rounds": sum(w.engine.rounds for w in system.walkers),
            "runtime.dropped": sum(lane_drops(w.engine) for w in system.walkers),
        }

