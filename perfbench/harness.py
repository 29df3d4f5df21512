"""Measurement machinery shared by the workloads.

* :class:`Tracer` records spans around the public entry points of each
  layer.  A span is a call of a wrapped method; its parent is the span
  open when it started.  Spans are kept aggregated per (parent, name)
  edge -- call count and inclusive time -- which is all that self time
  needs: a name's self time is the inclusive time of its spans minus the
  inclusive time of their direct children (:func:`self_times`).
* :class:`Taps` installs those spans, plus the count hooks of the
  per-layer table, on the live objects of one episode's system.  Only
  instance attributes are replaced, so every episode starts from
  unwrapped classes.
* :class:`LatencyProbe` records an episode's timeline of ingest, sink
  output and tick events, and pairs each sink output with the ingest
  call of the input it derives from (FIFO per matching key).
* :func:`measure` runs episodes of one workload for a time budget:
  untimed reference, timed set-up, timed episode, output check; its
  :class:`Floors` keep the fastest time between each pair of
  consecutive timeline events, from which latencies and episode walls
  are read.

Work the benchmark itself does inside a traced episode (latency and
lane-wait bookkeeping) runs in :data:`HARNESS` spans, so it is never
charged to a program layer; it is part of ``trace.unattributed_s``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

#: Parent name of spans opened while no other span is open.
ROOT = ""
#: Span name of the benchmark's own hooks inside a traced episode.
HARNESS = "harness"

Clock = Callable[[], float]
Edges = Dict[Tuple[str, str], List[float]]


class Tracer:
    """Span recorder with per-(parent, name) aggregation."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        #: (parent, name) -> [calls, inclusive seconds]
        self.edges: Edges = {}
        self._stack: List[str] = [ROOT]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as a span called ``name``."""
        clock = self.clock
        stack = self._stack
        edges = self.edges

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            stack.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                edge = edges.get((parent, name))
                if edge is None:
                    edges[(parent, name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed

        return traced


def self_times(edges: Edges) -> Dict[str, float]:
    """Self time per span name: own inclusive time minus direct children's.

    Correct for recursion too (a name nested in itself): every span's
    inclusive time is added once for it and subtracted once for its
    parent, so the sum over all names equals the root spans' time.
    """
    totals: Dict[str, float] = defaultdict(float)
    for (parent, name), (_calls, inclusive) in edges.items():
        totals[name] += inclusive
        if parent != ROOT:
            totals[parent] -= inclusive
    return dict(totals)


def call_counts(edges: Edges) -> Dict[str, int]:
    """Spans recorded per name."""
    counts: Dict[str, int] = defaultdict(int)
    for (_parent, name), (calls, _inclusive) in edges.items():
        counts[name] += int(calls)
    return dict(counts)


class LatencyProbe:
    """One episode's timeline: ingest, delivery and tick events, in order.

    Every event appends its time to ``stamps``.  ``deliver(key)`` pairs a
    sink output with the oldest unmatched ingest of the same key and
    records the pair of event indices in ``pairs``; an output with no
    unmatched ingest is counted in ``unmatched``.  ``tick()`` marks a
    closed-loop tick boundary; ``marks`` holds the event indices of the
    marks.
    """

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.stamps: List[float] = []
        self.pairs: List[Tuple[int, int]] = []
        self.marks: List[int] = []
        self.unmatched = 0
        self._pending: Dict[Hashable, Deque[int]] = {}

    def tick(self) -> None:
        self.marks.append(len(self.stamps))
        self.stamps.append(self.clock())

    def ingest(self, key: Hashable) -> None:
        queue = self._pending.get(key)
        if queue is None:
            queue = self._pending[key] = deque()
        queue.append(len(self.stamps))
        self.stamps.append(self.clock())

    def deliver(self, key: Hashable) -> None:
        now = self.clock()
        queue = self._pending.get(key)
        if not queue:
            self.unmatched += 1
            return
        self.pairs.append((queue.popleft(), len(self.stamps)))
        self.stamps.append(now)
        if not queue:
            del self._pending[key]

    def gaps(self) -> List[float]:
        """Seconds between consecutive events."""
        stamps = self.stamps
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def wall(self) -> float:
        """Seconds from the first tick mark to the last."""
        return self.stamps[self.marks[-1]] - self.stamps[self.marks[0]]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Taps:
    """Installs spans and count hooks on one episode's live objects."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Dict[str, float] = defaultdict(float)
        #: Component metric prefix -> produced data kind -> count.
        self.produced: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.lane_waits: List[float] = []
        self._enqueued: Dict[Hashable, Deque[float]] = {}
        self._live_lanes = 0
        self.lanes_peak = 0

    def span(self, obj: Any, attr: str, name: str) -> None:
        """Record ``obj.attr`` calls as ``name`` spans, if it exists."""
        fn = getattr(obj, attr, None)
        if fn is not None:
            setattr(obj, attr, self.tracer.wrap(name, fn))

    def harness(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A benchmark hook, kept out of every program layer."""
        return self.tracer.wrap(HARNESS, fn)

    def count_results(self, obj: Any, attr: str, key: str) -> None:
        """Add the length of each ``obj.attr()`` result to ``key``."""
        fn = getattr(obj, attr)
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counts[key] += len(result)
            return result

        setattr(obj, attr, counted)

    def component(self, component: Any, prefix: str) -> None:
        """``prefix.self_s`` spans and ``prefix.in`` / ``.out`` counts."""
        counts = self.counts
        key_in, key_out = prefix + ".in", prefix + ".out"
        receive = component.receive
        receive_batch = component.receive_batch
        produce = component.produce
        produce_batch = component.produce_batch
        produced = self.produced[prefix]
        in_batch = [False]

        def tap_receive(port_name: str, datum: Any) -> None:
            # The default receive_batch loops receive: count once.
            if not in_batch[0]:
                counts[key_in] += 1
            receive(port_name, datum)

        def tap_receive_batch(port_name: str, datums: Any) -> None:
            counts[key_in] += len(datums)
            in_batch[0] = True
            try:
                receive_batch(port_name, datums)
            finally:
                in_batch[0] = False

        def tap_produce(datum: Any) -> None:
            counts[key_out] += 1
            produced[datum.kind] += 1
            produce(datum)

        def tap_produce_batch(datums: Any) -> None:
            counts[key_out] += len(datums)
            for datum in datums:
                produced[datum.kind] += 1
            produce_batch(datums)

        name = prefix + ".self_s"
        component.receive = self.tracer.wrap(name, tap_receive)
        component.receive_batch = self.tracer.wrap(name, tap_receive_batch)
        component.produce = tap_produce
        component.produce_batch = tap_produce_batch

    def graph(self, graph: Any, prefix_of: Callable[[Any], Optional[str]]) -> None:
        """Every non-source component, plus the graph's routing."""
        for component in graph.components():
            prefix = prefix_of(component)
            if prefix is not None:
                self.component(component, prefix)
        # Routing is the core layer's dispatch.  ``_route`` is the
        # per-datum twin of the public route_batch; without it, routing
        # time stays in the producing component's self time.
        self.span(graph, "route_batch", "core.dispatch_s")
        self.span(graph, "_route", "core.dispatch_s")

    def pcl(self, pcl: Any) -> None:
        """The PCL's graph-observer callbacks."""
        self.span(pcl, "data_consumed", "core.pcl_s")
        self.span(pcl, "data_produced", "core.pcl_s")

    def engine(self, engine: Any) -> None:
        """Engine entry points plus lane-wait and lane-count hooks."""
        clock = self.tracer.clock
        enqueued = self._enqueued
        submit = self.tracer.wrap("runtime.submit_s", engine.submit)
        track = self.tracer.wrap("runtime.track_s", engine.track)
        untrack = self.tracer.wrap("runtime.track_s", engine.untrack)

        def enqueue(target_id: str, datum: Any) -> str:
            key = (target_id, datum.timestamp)
            queue = enqueued.get(key)
            if queue is None:
                queue = enqueued[key] = deque()
            queue.append(clock())
            return submit(target_id, datum)

        def tapped_track(*args: Any, **kwargs: Any) -> Any:
            lane = track(*args, **kwargs)
            self._lane(lane)
            return lane

        def tapped_untrack(target_id: str) -> Any:
            self._live_lanes -= 1
            return untrack(target_id)

        engine.submit = self.harness(enqueue)
        engine.track = self.harness(tapped_track)
        engine.untrack = self.harness(tapped_untrack)
        engine.drain_round = self.tracer.wrap("runtime.drain_s", engine.drain_round)
        for lane in engine.lanes():
            self._lane(lane)

    def _lane(self, lane: Any) -> None:
        self._live_lanes += 1
        self.lanes_peak = max(self.lanes_peak, self._live_lanes)
        queue = lane.queue
        clock = self.tracer.clock
        enqueued = self._enqueued
        waits = self.lane_waits
        drain = self.tracer.wrap("runtime.drain_s", queue.drain)

        def waited_drain(*args: Any, **kwargs: Any) -> Any:
            batch = drain(*args, **kwargs)
            now = clock()
            for datum in batch:
                key = (datum.attributes.get("target"), datum.timestamp)
                pending = enqueued.get(key)
                if pending:
                    waits.append(now - pending.popleft())
            return batch

        queue.drain = self.harness(waited_drain)


def lane_drops(engine: Any) -> int:
    """Datums the engine's live lanes dropped under backpressure."""
    return sum(
        lane.queue.dropped_oldest + lane.queue.dropped_newest for lane in engine.lanes()
    )


def default_prefix(component: Any) -> Optional[str]:
    """Metric prefix of a component: none for sources, ``sink`` for sinks."""
    from repro.core.component import ApplicationSink, SourceComponent

    if isinstance(component, SourceComponent):
        return None
    if isinstance(component, ApplicationSink):
        return "sink"
    return f"processing.{component.name}"


@dataclass
class Verdict:
    """One episode's output check."""

    attempted: int
    delivered: int
    outputs: int
    failures: List[str] = field(default_factory=list)
    #: Inputs the failures concern (0 when the episode is correct).
    failed: int = 0


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed as context."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Floors:
    """The fastest set-up and the fastest time between each pair of
    consecutive timeline events, over the episodes added.

    Every episode replays the same input through a fresh system, and the
    program is deterministic, so every set-up does the same work and
    every episode has the same timeline: the same ingest, delivery and
    tick events in the same order, with the same outputs paired to the
    same inputs (``add`` refuses a timeline that differs).  The work
    between events *i* and *i + 1* is therefore the same in every
    episode.  Other tenants of the host only ever add time, so the
    fastest repeat of each such gap is the steadiest estimate of its
    cost, and the floored timeline -- the running sum of the gap floors
    -- gives every latency and the wall time of the whole episode from
    the same estimates.  Flooring each gap rather than each latency
    matters when latencies span many ticks: one slow stretch of every
    repeat of a long latency no longer decides it.  Only minima are
    kept, so memory does not grow with the number of episodes.
    """

    episodes: int = 0
    #: Fastest set-up seconds.
    setup: float = math.inf
    #: Sink outputs per episode.
    outputs: int = 0
    #: Fastest seconds between consecutive events, in order.
    gaps: List[float] = field(default_factory=list)
    #: (ingest event, delivery event) of each matched output.
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    #: Events that are tick marks.
    marks: List[int] = field(default_factory=list)

    def add(self, setup: float, outputs: int, probe: LatencyProbe) -> None:
        gaps = probe.gaps()
        if self.episodes:
            if probe.pairs != self.pairs or probe.marks != self.marks:
                raise ValueError(
                    "the episode's timeline differs from the first timed"
                    " episode's: the floors need a deterministic program"
                )
            gaps = list(map(min, self.gaps, gaps))
        else:
            self.pairs = list(probe.pairs)
            self.marks = list(probe.marks)
        self.setup = min(self.setup, setup)
        self.outputs = outputs
        self.gaps = gaps
        self.episodes += 1

    def _times(self) -> List[float]:
        return [0.0, *accumulate(self.gaps)]

    def latencies(self) -> List[float]:
        """Floored ingest -> sink seconds of each output, in delivery order."""
        times = self._times()
        return [times[j] - times[i] for i, j in self.pairs]

    def wall(self) -> float:
        """Floored seconds from the first tick mark to the last."""
        times = self._times()
        return times[self.marks[-1]] - times[self.marks[0]]


@dataclass
class Measurement:
    """Everything one run of :func:`measure` observed."""

    episodes: int = 0
    untraced: Floors = field(default_factory=Floors)
    traced: Floors = field(default_factory=Floors)
    lane_waits: List[float] = field(default_factory=list)
    attempted: int = 0
    delivered: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-layer sums over traced episodes (divide by traced.episodes).
    layers: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


def measure(workload: Any, seconds: float, trace: bool) -> Measurement:
    """Run episodes of ``workload`` until ``seconds`` have passed.

    Every episode takes fresh load from the workload's generator
    (untimed), sets up a fresh system (timed as set-up), runs the
    workload's fixed input through it (recording its timeline) and checks
    the outputs.  With ``trace`` the episodes alternate untraced and
    traced, ending on a traced one, so the overhead ratio compares equal
    numbers of each.

    Timings are kept from ``workload.floor_episodes`` episodes only
    (half of them of each kind with ``trace``), and the run goes on past
    ``seconds`` until it has that many: the floors are minima, so they
    must be taken over the same number of repeats whatever the speed of
    the code under test.  The timed episodes of a kind are spread over
    ``seconds`` -- the *i*-th is the first to start after ``i * seconds /
    wanted`` -- so they sample the same span of host time whatever that
    speed, too; the host's speed drifts in phases of seconds to minutes.
    The episodes in between are still checked.
    """
    workload.reference()
    result = Measurement()
    wanted = workload.floor_episodes // 2 if trace else workload.floor_episodes
    slot = seconds / wanted
    start = time.perf_counter()
    traced = False
    while True:
        # The previous episode's garbage is collected here, untimed, not
        # by a collection that happens to fall inside the next episode.
        gc.collect()
        load = workload.load()
        began = time.perf_counter()
        system = workload.setup(load)
        setup = time.perf_counter() - began
        result.episodes += 1
        floors = result.traced if traced else result.untraced
        record = (
            floors.episodes < wanted
            and time.perf_counter() - start >= floors.episodes * slot
        )
        probe = LatencyProbe()
        taps = Taps(Tracer()) if traced else None
        if taps is not None:
            workload.instrument(system, taps)
        workload.attach(system, probe, taps)
        probe.tick()
        workload.run(system, probe)
        verdict = workload.check(system, probe)
        result.attempted += verdict.attempted
        result.delivered += verdict.delivered
        result.failed += verdict.failed
        result.failures.extend(verdict.failures)
        if record:
            try:
                floors.add(setup, verdict.outputs, probe)
            except ValueError as error:
                result.failures.append(str(error))
            if taps is not None:
                result.lane_waits.extend(taps.lane_waits)
                _add_layers(result.layers, workload, system, taps, probe.wall())
        done = (
            time.perf_counter() - start >= seconds
            and result.untraced.episodes >= wanted
            and (not trace or result.traced.episodes >= wanted)
        )
        if trace:
            if traced and done:
                break
            traced = not traced
        elif done:
            break
    return result


def _add_layers(
    sums: Dict[str, float], workload: Any, system: Any, taps: Taps, wall: float
) -> None:
    edges = taps.tracer.edges
    selves = self_times(edges)
    program = {name: t for name, t in selves.items() if name != HARNESS}
    for name, value in program.items():
        sums[name] += value
    for name, value in taps.counts.items():
        sums[name] += value
    calls = call_counts(edges)
    sums["model.resolve_calls"] += calls.get("model.resolve_s", 0)
    sums["runtime.lanes_peak"] += taps.lanes_peak
    sums["trace.wall_s"] += wall
    sums["trace.unattributed_s"] += wall - sum(program.values())
    for name, value in workload.layer_counts(system, taps).items():
        sums[name] += value
