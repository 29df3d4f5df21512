"""The subsystem seam: one install/uninstall path for seven subsystems.

Every ``PerPos.enable_X`` / ``disable_X`` pair routes through
``_install`` / ``_uninstall``.  Installed subsystems are published as
``perpos.<Type>`` services that always name the live object, and a
subsystem that another installed one feeds or journals through cannot
be replaced or removed from under it.
"""

import pytest

from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.core.middleware import PerPos
from repro.durability import SqliteStateStore
from repro.runtime import PositioningEngine
from repro.scenario import (
    CityConfig,
    CityGenerator,
    ControlLoop,
    ScenarioRunner,
    build_city_graph,
    default_controllers,
)


def shard_recipe():
    """src -> sink, the graph every shard builds."""
    graph = ProcessingGraph()
    graph.add(SourceComponent("src", ("x",)))
    graph.add(ApplicationSink("sink", ("x",)))
    graph.connect("src", "sink")
    return graph


def build_middleware():
    middleware = PerPos()
    middleware.graph.add(SourceComponent("src", ("x",)))
    middleware.graph.add(ApplicationSink("sink", ("x",)))
    middleware.graph.connect("src", "sink")
    return middleware


def scenario_runner():
    return ScenarioRunner(
        CityGenerator(CityConfig(seed=3, devices=4)),
        PositioningEngine(build_city_graph()),
        control=ControlLoop(default_controllers()),
    )


def fix(device="phone-1", t=0.0):
    return {
        "source_format": "phone_tracker_v1",
        "device_id": device,
        "timestamp": t,
        "lat": 56.17,
        "lon": 10.19,
        "speed_mps": 1.0,
        "accuracy_m": 5.0,
        "battery_pct": 0.8,
    }


#: Subsystem key -> (its service name, how to enable it on a middleware).
SUBSYSTEMS = {
    "observability": (
        "perpos.ObservabilityHub",
        lambda middleware: middleware.enable_observability(),
    ),
    "supervision": (
        "perpos.Supervisor",
        lambda middleware: middleware.enable_supervision(),
    ),
    "runtime": (
        "perpos.PositioningEngine",
        lambda middleware: middleware.enable_runtime(),
    ),
    "sharding": (
        "perpos.ShardedEngine",
        lambda middleware: middleware.enable_sharding(shard_recipe, 2),
    ),
    "gateway": (
        "perpos.IngestionGateway",
        lambda middleware: middleware.enable_gateway("src"),
    ),
    "durability": (
        "perpos.DurabilityManager",
        lambda middleware: middleware.enable_durability(),
    ),
    "scenario": (
        "perpos.ScenarioRunner",
        lambda middleware: middleware.enable_scenario(scenario_runner()),
    ),
}


@pytest.mark.parametrize("key", sorted(SUBSYSTEMS))
def test_registry_tracks_the_live_subsystem(key):
    # A stale registration would hand registry consumers a replaced,
    # stopped or closed object.
    service, enable = SUBSYSTEMS[key]
    middleware = build_middleware()
    if key in ("gateway", "durability"):
        middleware.enable_runtime()
    registry = middleware.framework.registry
    first = enable(middleware)
    assert registry.find_service(service) is first
    second = enable(middleware)
    assert second is not first
    assert registry.find_service(service) is second
    assert getattr(middleware, f"disable_{key}")() is second
    assert registry.find_service(service) is None


def test_scenario_publishes_its_control_loop():
    middleware = PerPos()
    runner = middleware.enable_scenario(scenario_runner())
    registry = middleware.framework.registry
    assert registry.find_service("perpos.ControlLoop") is runner.control
    middleware.disable_scenario()
    assert registry.find_service("perpos.ControlLoop") is None
    assert middleware.psl.controllers() == {}


def test_runtime_is_not_replaced_under_its_gateway():
    middleware = build_middleware()
    engine = middleware.enable_runtime()
    gateway = middleware.enable_gateway("src")
    with pytest.raises(ValueError, match=r"disable_gateway\(\)"):
        middleware.enable_runtime()
    with pytest.raises(ValueError, match=r"disable_gateway\(\)"):
        middleware.disable_runtime()
    assert middleware.runtime is engine
    assert gateway.engine is engine
    registry = middleware.framework.registry
    assert registry.find_service("perpos.PositioningEngine") is engine
    middleware.disable_gateway()
    assert middleware.enable_runtime() is not engine


def test_runtime_is_not_replaced_under_its_journal():
    middleware = build_middleware()
    engine = middleware.enable_runtime()
    manager = middleware.enable_durability()
    with pytest.raises(ValueError, match=r"disable_durability\(\)"):
        middleware.enable_runtime()
    assert middleware.runtime is engine
    assert engine.journal is manager.journal
    engine.track("t1", "src")
    assert manager.store.describe()["entries"] == 1
    middleware.disable_durability()
    assert middleware.enable_runtime() is not engine


def test_sharding_is_not_closed_under_its_gateway():
    middleware = build_middleware()
    sharding = middleware.enable_sharding(shard_recipe, 2)
    gateway = middleware.enable_gateway("src")
    assert gateway.engine is sharding
    with pytest.raises(ValueError, match=r"disable_gateway\(\)"):
        middleware.disable_sharding()
    assert middleware.sharding is sharding
    gateway.submit(fix())
    gateway.forward()
    assert gateway.accepted == 1
    assert sharding.pending_total() == 1
    middleware.disable_gateway()
    assert middleware.disable_sharding() is sharding


def test_runtime_is_not_replaced_under_its_scenario():
    middleware = build_middleware()
    engine = middleware.enable_runtime()
    runner = ScenarioRunner(CityGenerator(CityConfig(seed=3, devices=4)), engine)
    middleware.enable_scenario(runner)
    with pytest.raises(ValueError, match=r"disable_scenario\(\)"):
        middleware.enable_runtime()
    assert middleware.runtime is engine
    middleware.disable_scenario()
    assert middleware.disable_runtime() is engine


def test_disable_durability_leaves_the_callers_store_open(tmp_path):
    middleware = build_middleware()
    engine = middleware.enable_runtime()
    store = SqliteStateStore(str(tmp_path / "state.db"))
    middleware.enable_durability(store)
    engine.track("t1", "src")
    middleware.disable_durability()
    assert store.describe()["entries"] == 1
    # Re-enabling on the same store (new snapshot cadence) journals on.
    middleware.enable_durability(store, snapshot_every=100)
    engine.track("t2", "src")
    engine.submit("t2", Datum("x", 1, 0.0))
    assert store.describe()["entries"] == 3
    store.close()
