"""``phone_fleet``: phones posting ``phone_tracker_v1`` fixes to the gateway.

A fleet of devices walks in and around the demo building.  Every tick
each device posts one JSON-style fix; about 3% of the fixes are
malformed (out-of-range latitude, missing longitude, non-numeric
latitude, negative accuracy) and must be dead-lettered at the gateway's
``schema`` stage.  The path is ``PerPos.enable_runtime`` +
``enable_gateway`` -> ``wire-adapter`` (this benchmark's dict ->
``Wgs84Position`` step) -> ``RoomResolverComponent`` -> sink.

Known defect the adapter works around: the gateway mints
``POSITION_WGS84`` datums whose payload is the validated *dict*, and every
stock consumer of that kind (resolver, fusion, particle filter,
segmentation) expects a ``Wgs84Position`` -- ``Building.resolve({...})``
raises ``AttributeError``.  The adapter stands in for the missing
conversion; it is reported as ``processing.wire-adapter.*``.

Closed loop: a tick's fixes are submitted one by one, the gateway
forwards them into the engine lanes, the engine drains; then the next
tick.  All payloads are generated before timing.  Latency rule: every
fix carries a unique simulated timestamp (tick + device / 1000), and the
room id derived from it carries the same timestamp, so outputs match
their input exactly.

Reference: each clean fix yields exactly one room id, equal to
``Building.resolve`` of the generated position; each malformed fix is
dead-lettered at the ``schema`` stage; ``submitted == accepted +
rejected + shed + rate_limited + pending``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List, Tuple

from repro.core import Kind, PerPos
from repro.core.component import FunctionComponent, SourceComponent
from repro.core.data import Datum
from repro.geo.grid import GridPosition
from repro.geo.wgs84 import Wgs84Position
from repro.model.demo import demo_building
from repro.processing.resolver import RoomResolverComponent
from repro.runtime.scheduler import RoundRobinScheduler

from .harness import LatencyProbe, Taps, Verdict, default_prefix, lane_drops

DEVICES = 200
TICKS = 15
#: Episodes the timing floors are taken over (see ``harness.measure``):
#: about a third of what a 30 s run holds, so a slower commit
#: reaches it too.
FLOOR_EPISODES = 56
MALFORMED_SHARE = 0.03
#: Walk area around the 40 m x 15 m building, in grid metres.
AREA = ((-20.0, 60.0), (-15.0, 30.0))

Fix = Dict[str, Any]


def _malform(fix: Fix, rng: random.Random) -> Fix:
    """A copy of ``fix`` that fails the wire format's schema check."""
    broken = dict(fix)
    flaw = rng.randrange(4)
    if flaw == 0:
        broken["lat"] = 91.0 + rng.random() * 10.0
    elif flaw == 1:
        del broken["lon"]
    elif flaw == 2:
        broken["lat"] = "fifty-six"
    else:
        broken["accuracy_m"] = -1.0 - rng.random()
    return broken


def generate(seed: int, devices: int, ticks: int) -> List[List[Tuple[Fix, bool]]]:
    """Per tick, every device's fix and whether it is clean."""
    grid = demo_building().grid
    rng = random.Random(seed)
    (x0, x1), (y0, y1) = AREA
    walkers = [
        [rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(0.0, 2 * math.pi)]
        for _ in range(devices)
    ]
    ticks_out = []
    for tick in range(ticks):
        fixes = []
        for index, state in enumerate(walkers):
            if rng.random() < 0.2:
                state[2] = rng.uniform(0.0, 2 * math.pi)
            step = rng.uniform(0.5, 2.0)
            state[0] = min(max(state[0] + step * math.cos(state[2]), x0), x1)
            state[1] = min(max(state[1] + step * math.sin(state[2]), y0), y1)
            position = grid.to_wgs84(GridPosition(state[0], state[1]))
            fix = {
                "source_format": "phone_tracker_v1",
                "device_id": f"phone-{index:03d}",
                "timestamp": tick + index / 1000.0,
                "lat": round(position.latitude_deg, 7),
                "lon": round(position.longitude_deg, 7),
                "accuracy_m": round(rng.uniform(3.0, 15.0), 1),
                "battery_pct": round(rng.uniform(0.1, 1.0), 3),
            }
            if rng.random() < MALFORMED_SHARE:
                fixes.append((_malform(fix, rng), False))
            else:
                fixes.append((fix, True))
        ticks_out.append(fixes)
    return ticks_out


def digest(ticks: List[List[Tuple[Fix, bool]]]) -> str:
    """SHA-256 of the canonical JSON of every fix, in submission order."""
    sha = hashlib.sha256()
    for fixes in ticks:
        for fix, clean in fixes:
            sha.update(json.dumps([fix, clean], sort_keys=True).encode())
    return sha.hexdigest()


def position_of(fix: Fix) -> Wgs84Position:
    """The position a clean fix reports."""
    return Wgs84Position(
        fix["lat"], fix["lon"], accuracy_m=fix["accuracy_m"], timestamp=fix["timestamp"]
    )


def _adapt(datum: Datum) -> Datum:
    """Gateway dict payload -> ``Wgs84Position`` (see the module docstring)."""
    return Datum(
        kind=Kind.POSITION_WGS84,
        payload=position_of(datum.payload),
        timestamp=datum.timestamp,
        producer="wire-adapter",
        attributes=datum.attributes,
    )


class System:
    def __init__(self, devices: int, malformed: int) -> None:
        self.building = demo_building()
        self.middleware = PerPos()
        graph = self.middleware.graph
        graph.add(SourceComponent("phone-src", (Kind.POSITION_WGS84,)))
        graph.add(
            FunctionComponent(
                "wire-adapter", (Kind.POSITION_WGS84,), (Kind.POSITION_WGS84,), _adapt
            )
        )
        graph.add(RoomResolverComponent(self.building, name="resolver"))
        self.provider = self.middleware.create_provider(
            "phone-app", accepts=(Kind.ROOM_ID,), technologies=("gps",)
        )
        graph.connect("phone-src", "wire-adapter")
        graph.connect("wire-adapter", "resolver")
        graph.connect("resolver", self.provider.sink.name)
        self.engine = self.middleware.enable_runtime(RoundRobinScheduler(64))
        self.gateway = self.middleware.enable_gateway(
            "phone-src",
            admission_capacity=max(256, devices),
            dlq_capacity=max(256, malformed),
        )
        self.rooms: Dict[float, List[Any]] = {}


class PhoneFleet:
    """The ``phone_fleet`` workload (see the module docstring)."""

    name = "phone_fleet"
    floor_episodes = FLOOR_EPISODES

    def __init__(self, seed: int, devices: int = DEVICES, ticks: int = TICKS) -> None:
        self.devices = devices
        self.ticks = generate(seed, devices, ticks)
        self.digest = digest(self.ticks)
        self.inputs = devices * ticks
        self.malformed = sum(not clean for fixes in self.ticks for _f, clean in fixes)
        self.expected: Dict[float, Any] = {}

    def reference(self) -> None:
        """The room each clean fix resolves to, by timestamp."""
        building = demo_building()
        self.expected = {
            fix["timestamp"]: building.resolve(position_of(fix))
            for fixes in self.ticks
            for fix, clean in fixes
            if clean
        }

    def load(self) -> None:
        """Inputs are generated once, in the constructor."""
        return None

    def setup(self, _load: None) -> System:
        return System(self.devices, self.malformed)

    def instrument(self, system: System, taps: Taps) -> None:
        gateway = system.gateway
        for attr in ("submit", "submit_many"):
            taps.span(gateway, attr, "gateway.submit_s")
        taps.span(gateway, "forward", "gateway.forward_s")
        taps.span(system.building, "resolve", "model.resolve_s")
        taps.graph(system.middleware.graph, default_prefix)
        taps.pcl(system.middleware.pcl)
        taps.engine(system.engine)

    def attach(self, system: System, probe: LatencyProbe, taps: Any) -> None:
        rooms = system.rooms

        def on_room(datum: Datum) -> None:
            probe.deliver(datum.timestamp)
            rooms.setdefault(datum.timestamp, []).append(datum.payload)

        system.provider.add_listener(
            taps.harness(on_room) if taps is not None else on_room
        )

    def run(self, system: System, probe: LatencyProbe) -> None:
        gateway = system.gateway
        engine = system.engine
        ingest = probe.ingest
        for fixes in self.ticks:
            submit = gateway.submit
            for fix, _clean in fixes:
                ingest(fix["timestamp"])
                submit(fix)
            gateway.forward()
            engine.drain_all()
            probe.tick()

    def check(self, system: System, probe: LatencyProbe) -> Verdict:
        failures = []
        gateway = system.gateway
        rooms = system.rooms
        wrong = [ts for ts, room in self.expected.items() if rooms.get(ts) != [room]]
        extra = [ts for ts in rooms if ts not in self.expected]
        failed = len(wrong) + len(extra)
        if failed:
            failures.append(
                f"{len(wrong)} clean fixes did not yield exactly their reference"
                f" room; {len(extra)} room ids for fixes that had none"
            )
        stages = gateway.dlq.stats()["by_stage"]
        if gateway.rejected != self.malformed or stages != {"schema": self.malformed}:
            failed += abs(gateway.rejected - self.malformed)
            failures.append(
                f"{self.malformed} malformed fixes, gateway rejected"
                f" {gateway.rejected}, dead letters by stage {stages}"
            )
        balance = (
            gateway.accepted
            + gateway.rejected
            + gateway.shed
            + gateway.rate_limited
            + gateway.pending
        )
        if gateway.submitted != balance or gateway.submitted != self.inputs:
            failed += abs(self.inputs - balance)
            failures.append(
                f"gateway accounting: submitted {gateway.submitted} !="
                f" accepted + rejected + shed + rate_limited + pending = {balance}"
            )
        lost = system.engine.depth_total() + lane_drops(system.engine)
        if lost:
            failed += lost
            failures.append(f"{lost} accepted fixes dropped or still pending in lanes")
        if probe.unmatched:
            failed += probe.unmatched
            failures.append(f"{probe.unmatched} room ids matched no ingest")
        outputs = sum(len(v) for v in rooms.values())
        return Verdict(
            attempted=self.inputs,
            delivered=self.inputs - failed,
            outputs=outputs,
            failures=failures,
            failed=failed,
        )

    def layer_counts(self, system: System, taps: Taps) -> Dict[str, float]:
        gateway = system.gateway
        return {
            "gateway.accepted": gateway.accepted,
            "gateway.rejected": gateway.rejected,
            "gateway.shed": gateway.shed,
            "gateway.dlq_depth": len(gateway.dlq),
            "gateway.accept_ratio": gateway.accepted / gateway.submitted,
            "runtime.rounds": system.engine.rounds,
            "runtime.dropped": lane_drops(system.engine),
        }
