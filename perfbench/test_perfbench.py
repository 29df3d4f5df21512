"""Tests of the benchmark's own machinery.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import pytest

from perfbench import run
from perfbench.city_loop import CityLoop
from perfbench.harness import (
    HARNESS,
    Floors,
    LatencyProbe,
    Taps,
    Tracer,
    call_counts,
    measure,
    ROOT,
    percentile,
    self_times,
)
from perfbench.phone_fleet import PhoneFleet
from perfbench.room_walk import RoomWalk, _room_ids


def root_time(edges):
    return sum(inc for (parent, _n), (_c, inc) in edges.items() if parent == ROOT)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))

    def middle_body():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        clock.advance(5.0)
        middle()

    tracer.wrap("outer", outer_body)()
    tracer.wrap("outer", lambda: clock.advance(1.0))()

    assert self_times(tracer.edges) == {"outer": 6.0, "middle": 4.0, "leaf": 4.0}
    assert call_counts(tracer.edges) == {"outer": 2, "middle": 1, "leaf": 2}
    assert root_time(tracer.edges) == 14.0


def test_self_time_of_a_span_nested_in_itself():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("route", lambda: clock.advance(5.0))

    def receive_body():
        clock.advance(3.0)
        inner()

    receive = tracer.wrap("receive", receive_body)

    def route_body():
        clock.advance(2.0)
        receive()

    tracer.wrap("route", route_body)()

    # Outer route 2 s + inner route 5 s; receive 3 s between them.
    assert self_times(tracer.edges) == {"route": 7.0, "receive": 3.0}
    assert sum(self_times(tracer.edges).values()) == root_time(tracer.edges)


def _stamped(probe, clock, events):
    """Feed ``(seconds to advance, method, key)`` events to ``probe``."""
    for step, method, *key in events:
        clock.advance(step)
        getattr(probe, method)(*key)


def test_latency_matching_is_fifo_within_a_key():
    clock = FakeClock()
    probe = LatencyProbe(clock)
    _stamped(
        probe,
        clock,
        [
            (0.0, "tick"),
            (0.0, "ingest", "a"),
            (1.0, "ingest", "a"),
            (1.0, "ingest", "b"),
            (3.0, "deliver", "a"),  # oldest "a", ingested at 0
            (1.0, "deliver", "b"),  # ingested at 2
            (1.0, "deliver", "a"),  # second "a", ingested at 1
            (0.0, "deliver", "a"),  # nothing left to match
            (0.0, "deliver", "c"),
            (1.0, "tick"),
        ],
    )
    floors = Floors()
    floors.add(0.0, 3, probe)
    assert floors.latencies() == [5.0, 4.0, 6.0]
    assert probe.unmatched == 2
    assert probe.wall() == floors.wall() == 8.0


def _timeline(clock, gaps):
    """A probe with one ingest, one delivery and tick marks around them."""
    probe = LatencyProbe(clock)
    events = [(0.0, "tick"), (gaps[0], "ingest", "k")]
    events += [(gaps[1], "tick"), (gaps[2], "deliver", "k"), (gaps[3], "tick")]
    _stamped(probe, clock, events)
    return probe


def test_floor_takes_each_gaps_fastest_repeat():
    clock = FakeClock()
    floors = Floors()
    floors.add(0.3, 1, _timeline(clock, [1.0, 3.0, 1.0, 2.0]))
    floors.add(0.4, 1, _timeline(clock, [2.0, 1.0, 4.0, 1.0]))
    assert floors.setup == 0.3
    assert floors.gaps == [1.0, 1.0, 1.0, 1.0]
    # No single episode had a 2 s latency or a 4 s wall: each gap is
    # floored on its own.
    assert floors.latencies() == [2.0]
    assert floors.wall() == 4.0
    assert (floors.episodes, floors.outputs) == (2, 1)


def test_floor_refuses_a_different_timeline():
    clock = FakeClock()
    floors = Floors()
    floors.add(0.0, 1, _timeline(clock, [1.0, 1.0, 1.0, 1.0]))
    other = LatencyProbe(clock)
    _stamped(other, clock, [(0.0, "tick"), (1.0, "ingest", "k"), (1.0, "tick")])
    with pytest.raises(ValueError):
        floors.add(0.0, 0, other)


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 99) == pytest.approx(9.9)
    assert percentile([4.0], 99) == 4.0


SMALL = {
    "room_walk": lambda seed: RoomWalk(seed, walkers=2, ticks=24),
    "phone_fleet": lambda seed: PhoneFleet(seed, devices=40, ticks=6),
    "city_closed_loop": lambda seed: CityLoop(seed, devices=30, ticks=60),
}


def _digest(workload):
    workload.reference()  # the city stream is only known once it has run
    return workload.digest


@pytest.mark.parametrize("name", ["room_walk", "phone_fleet"])
def test_generator_is_deterministic_per_seed(name):
    make = SMALL[name]
    first = _digest(make(3))
    assert first == _digest(make(3))
    assert first != _digest(make(4))


def test_city_replays_one_scenario_for_every_seed():
    make = SMALL["city_closed_loop"]
    assert _digest(make(3)) == _digest(make(4))


def _outputs(workload, system):
    if isinstance(workload, RoomWalk):
        return [_room_ids(walker.rooms) for walker in system.walkers]
    if isinstance(workload, PhoneFleet):
        return system.rooms
    return workload._figures(system)


def _episode(workload, traced):
    system = workload.setup(workload.load())
    probe = LatencyProbe()
    taps = Taps(Tracer()) if traced else None
    if taps is not None:
        workload.instrument(system, taps)
    workload.attach(system, probe, taps)
    workload.run(system, probe)
    return system, workload.check(system, probe), taps


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_nothing_but_timing(name):
    workload = SMALL[name](5)
    workload.reference()
    plain, plain_verdict, _ = _episode(workload, traced=False)
    traced, traced_verdict, taps = _episode(workload, traced=True)
    assert plain_verdict.failures == [] and traced_verdict.failures == []
    assert _outputs(workload, plain) == _outputs(workload, traced)
    assert _outputs(workload, plain)
    recorded = set(self_times(taps.tracer.edges)) - {HARNESS}
    declared = set(run.units("per_layer"))
    assert recorded <= declared, recorded - declared


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_self_times_and_remainder_sum_to_wall(name):
    workload = SMALL[name](6)
    workload.floor_episodes = 4  # two of each kind
    result = measure(workload, seconds=0.0, trace=True)
    assert result.untraced.episodes == result.traced.episodes == 2
    assert result.episodes == 4
    assert result.failures == []
    values = run.per_layer(result, probe_ms=1.0)
    unit_of = run.units("per_layer")
    layers = sum(
        value
        for metric, value in values.items()
        if unit_of[metric] == "s" and not metric.startswith("trace.")
    )
    assert layers + values["trace.unattributed_s"] == pytest.approx(
        values["trace.wall_s"]
    )
    assert values["trace.overhead"] > 0


def test_every_per_layer_metric_has_notes():
    for name in run.units("per_layer"):
        moves, flat = run.notes(name)
        assert moves and flat
