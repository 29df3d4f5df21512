"""``city_closed_loop``: E17's adaptive city scenario, scaled up.

The E17 configuration -- seed 11, 160 ticks, churn, the stadium burst,
the geofence rule, lane capacity 8, scheduler quantum 3 and the stock
controller set -- with 100 devices instead of 80, on one
``PositioningEngine``.  The generator
sits inside the loop because the controllers actuate it (the sampling
controller changes its GPS threshold), so its time is reported as
``scenario.generator_s``; building a generator (spawning its devices) is
load generation and stays out of ``setup_s``.

Closed loop: each tick the runner applies churn, submits the tick's
emissions, drains one scheduler round and lets the controllers act; the
next tick starts after that.  Latency rule: the engine stamps each datum
with its target, so a sink output matches the oldest unmatched ingest of
the same target and simulated timestamp.

Lane drops and datums discarded when churn untracks a lane are the
scenario's load shedding, not failed operations: they lower
``delivered_share``.  Reference: every figure (submitted, drained,
dropped, discarded, pending, alerts, decisions, sink outputs) equals an
untimed reference episode of the same seed, ``submitted == drained +
dropped + discarded + pending``, and every drained datum reaches the
application sink.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

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
from repro.scenario.geofence import GeofenceComponent

from .harness import LatencyProbe, Taps, Verdict, default_prefix

#: E17's scenario seed.  Every run replays this one scenario, whatever
#: its ``--seed``: the drop share, alerts and controller decisions are
#: deterministic figures that must be identical on every run, and the
#: closed-loop backlog -- hence latency -- differs widely between
#: scenario seeds.
SCENARIO_SEED = 11
DEVICES = 100
TICKS = 160
#: Episodes the timing floors are taken over (see ``harness.measure``):
#: about three quarters of what a 30 s run holds, so a slower commit
#: reaches it too.
FLOOR_EPISODES = 56
CAPACITY = 8
QUANTUM = 3
MAX_CAPACITY = 256
RULES = (GeofenceRule("downtown", 1000.0, 1000.0, 400.0, trigger="both"),)

FIGURES = (
    "submitted",
    "drained",
    "dropped",
    "discarded",
    "pending",
    "alerts",
    "decisions",
    "outputs",
)


def config(seed: int, devices: int) -> CityConfig:
    return CityConfig(
        seed=seed,
        devices=devices,
        churn_rate=0.01,
        bursts=(BurstEvent("stadium", 40, 60, 1000.0, 1000.0, 800.0, factor=10),),
    )


def _prefix(component: Any) -> Any:
    if isinstance(component, GeofenceComponent):
        return "scenario.geofence"
    return default_prefix(component)


class System:
    def __init__(self, generator: CityGenerator) -> None:
        self.engine = PositioningEngine(
            build_city_graph(RULES), scheduler=RoundRobinScheduler(quantum=QUANTUM)
        )
        self.control = ControlLoop(default_controllers(max_capacity=MAX_CAPACITY))
        self.generator = generator
        self.runner = ScenarioRunner(
            generator, self.engine, control=self.control, capacity=CAPACITY
        )
        self.discarded = 0
        self.outputs = 0
        self.result: Dict[str, Any] = {}


class CityLoop:
    """The ``city_closed_loop`` workload (see the module docstring)."""

    name = "city_closed_loop"
    floor_episodes = FLOOR_EPISODES

    def __init__(self, _seed: int, devices: int = DEVICES, ticks: int = TICKS) -> None:
        self.config = config(SCENARIO_SEED, devices)
        self.ticks = ticks
        self.digest = ""
        self.expected: Dict[str, int] = {}

    def reference(self) -> None:
        """One untimed episode: the figures to reproduce and the digest of
        the closed-loop input stream."""
        system = self.setup(self.load())
        sha = hashlib.sha256()
        advance = system.generator.advance

        def recorded(*args: Any) -> Any:
            batch = advance(*args)
            events = [(t, d.kind, d.payload, d.timestamp) for t, d in batch.events]
            sha.update(repr((batch.tick, batch.joined, batch.left, events)).encode())
            return batch

        system.generator.advance = recorded
        self.attach(system, LatencyProbe(), None)
        self.run(system, LatencyProbe())
        self.expected = self._figures(system)
        self.digest = sha.hexdigest()

    def load(self) -> CityGenerator:
        return CityGenerator(self.config)

    def setup(self, generator: CityGenerator) -> System:
        return System(generator)

    def instrument(self, system: System, taps: Taps) -> None:
        taps.span(system.generator, "advance", "scenario.generator_s")
        taps.span(system.runner, "view", "scenario.view_s")
        taps.span(system.runner, "run_tick", "scenario.runner_s")
        taps.span(system.control, "step", "control.step_s")
        taps.graph(system.engine.graph, _prefix)
        taps.engine(system.engine)
        taps.count_results(system.engine, "lanes", "scenario.lane_stats_calls")

    def attach(self, system: System, probe: LatencyProbe, taps: Any) -> None:
        engine = system.engine
        submit = engine.submit
        untrack = engine.untrack
        ingest = probe.ingest
        deliver = probe.deliver

        def ingested(target_id: str, datum: Any) -> str:
            ingest((target_id, datum.timestamp))
            return submit(target_id, datum)

        def untracked(target_id: str) -> Any:
            lane = untrack(target_id)
            system.discarded += lane.queue.depth
            return lane

        def on_output(datum: Any) -> None:
            system.outputs += 1
            deliver((datum.attributes.get("target"), datum.timestamp))

        hook = taps.harness if taps is not None else (lambda fn: fn)
        engine.submit = hook(ingested)
        engine.untrack = hook(untracked)
        engine.graph.component("city-app").add_listener(hook(on_output))

    def run(self, system: System, probe: LatencyProbe) -> None:
        runner = system.runner
        for _ in range(self.ticks):
            runner.run_tick()
            probe.tick()
        # No more ticks: drain the tail and collect the result, as
        # ``runner.run(ticks)`` does after its last tick.
        system.result = runner.run(0)
        probe.tick()

    def _figures(self, system: System) -> Dict[str, int]:
        result = system.result
        figures = {key: result.get(key, 0) for key in FIGURES}
        figures["discarded"] = system.discarded
        figures["outputs"] = system.outputs
        return figures

    def check(self, system: System, probe: LatencyProbe) -> Verdict:
        figures = self._figures(system)
        failures: List[str] = []
        failed = 0
        for key, want in self.expected.items():
            if figures[key] != want:
                failed += abs(figures[key] - want)
                failures.append(f"{key}: {figures[key]} != reference {want}")
        balance = (
            figures["drained"]
            + figures["dropped"]
            + figures["discarded"]
            + figures["pending"]
        )
        if figures["submitted"] != balance:
            failed += abs(figures["submitted"] - balance)
            failures.append(
                f"submitted {figures['submitted']} != drained + dropped +"
                f" discarded + pending = {balance}"
            )
        if figures["outputs"] != figures["drained"]:
            failed += abs(figures["outputs"] - figures["drained"])
            failures.append(
                f"{figures['drained']} datums drained but {figures['outputs']}"
                " reached the application sink"
            )
        if probe.unmatched:
            failed += probe.unmatched
            failures.append(f"{probe.unmatched} sink outputs matched no ingest")
        return Verdict(
            attempted=figures["submitted"],
            delivered=figures["outputs"],
            outputs=figures["outputs"],
            failures=failures,
            failed=failed,
        )

    def layer_counts(self, system: System, taps: Taps) -> Dict[str, float]:
        return {
            "control.decisions": system.control.decisions_total,
            "runtime.rounds": system.engine.rounds,
            "runtime.dropped": system.result["dropped"],
        }
