"""The indexed WiFi kNN equals the pairwise ``signal_distance`` scan.

``FingerprintPositioningComponent`` scores a scan against a dense
radio-map index built at construction.  The reference here is the
definition: ``signal_distance`` against every survey point, sorted by
distance (stable, so ties keep radio-map order), the first ``k`` kept.
Neighbours and their order must match; estimate and spread must agree.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridPosition
from repro.model.demo import demo_building
from repro.processing.wifi_positioning import (
    FingerprintPositioningComponent,
    signal_distance,
)
from repro.sensors.wifi import WifiObservation, WifiScan

GRID = demo_building().grid
KNOWN = [f"ap:{i}" for i in range(6)]
UNKNOWN = ["zz:0", "zz:1"]
# A few exact values make distance ties common, so tie order is tested.
RSSI = st.one_of(
    st.sampled_from([-95.0, -80.0, -70.0, -60.5, -50.0]),
    st.floats(min_value=-100.0, max_value=-20.0, allow_nan=False),
)
POSITION = st.builds(
    GridPosition,
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=0.0, max_value=15.0),
    st.integers(min_value=0, max_value=1),
)


def reference(engine, scan):
    """kNN by definition: a sorted pairwise ``signal_distance`` scan."""
    observed = scan.as_dict()
    scored = sorted(
        (
            (signal_distance(observed, vector), pos)
            for pos, vector in engine.radio_map
        ),
        key=lambda pair: pair[0],
    )
    nearest = scored[: engine.k]
    weights = [1.0 / (distance + 1e-3) for distance, _pos in nearest]
    total = sum(weights)
    x = sum(w * pos.x_m for w, (_d, pos) in zip(weights, nearest)) / total
    y = sum(w * pos.y_m for w, (_d, pos) in zip(weights, nearest)) / total
    estimate = GridPosition(x, y, nearest[0][1].floor)
    spread = max(estimate.distance_to(pos) for _d, pos in nearest)
    return nearest, estimate, max(spread, 1.0)


def assert_equivalent(engine, scan):
    nearest, estimate, spread = reference(engine, scan)
    assert engine._nearest(scan) == nearest
    got, got_spread = engine.estimate(scan)
    assert got.floor == estimate.floor
    assert abs(got.x_m - estimate.x_m) <= 1e-9
    assert abs(got.y_m - estimate.y_m) <= 1e-9
    assert abs(got_spread - spread) <= 1e-9


def vectors(aps):
    return st.dictionaries(st.sampled_from(aps), RSSI, max_size=len(aps))


def scans(aps):
    """Scans with repeated BSSIDs allowed (the last reading wins)."""
    observation = st.builds(WifiObservation, st.sampled_from(aps), RSSI)
    return st.builds(
        WifiScan, st.just(0.0), st.lists(observation, max_size=10).map(tuple)
    )


@st.composite
def engines(draw, aps=KNOWN):
    survey = draw(
        st.lists(st.tuples(POSITION, vectors(aps)), min_size=1, max_size=25)
    )
    if not any(vector for _pos, vector in survey):
        survey.append((draw(POSITION), {aps[0]: draw(RSSI)}))
    k = draw(st.integers(min_value=1, max_value=len(survey) + 3))
    return FingerprintPositioningComponent(survey, GRID, k=k)


@settings(max_examples=300, deadline=None)
@given(engine=engines(), scan=scans(KNOWN + UNKNOWN))
def test_indexed_knn_equals_sorted_signal_distance(engine, scan):
    assert_equivalent(engine, scan)


@settings(max_examples=100, deadline=None)
@given(engine=engines(aps=KNOWN[:1]), scan=scans(KNOWN[:1] + UNKNOWN))
def test_single_ap_map(engine, scan):
    assert_equivalent(engine, scan)


def test_duplicate_bssids_and_unknown_aps():
    survey = [
        (GridPosition(1.0, 1.0), {"ap:0": -60.0, "ap:1": -70.0}),
        (GridPosition(5.0, 1.0), {"ap:1": -50.0}),
        (GridPosition(9.0, 1.0), {"ap:0": -60.0, "ap:1": -70.0}),
    ]
    engine = FingerprintPositioningComponent(survey, GRID, k=2)
    scan = WifiScan(
        0.0,
        (
            WifiObservation("ap:0", -40.0),
            WifiObservation("zz:0", -55.0),
            WifiObservation("ap:0", -60.0),
            WifiObservation("ap:1", -70.0),
        ),
    )
    assert_equivalent(engine, scan)
    # The two equal survey points tie at distance 0; map order wins.
    assert [pos.x_m for _d, pos in engine._nearest(scan)] == [1.0, 9.0]


def test_k_larger_than_map_and_empty_scan():
    survey = [
        (GridPosition(1.0, 2.0), {"ap:0": -60.0}),
        (GridPosition(3.0, 4.0), {"ap:1": -65.0, "ap:2": -95.0}),
        (GridPosition(9.0, 9.0), {}),  # hears nothing: not a survey point
    ]
    engine = FingerprintPositioningComponent(survey, GRID, k=5)
    assert engine.map_size() == 2
    empty = WifiScan(0.0, ())
    assert_equivalent(engine, empty)
    assert len(engine._nearest(empty)) == 2
    assert_equivalent(engine, WifiScan(0.0, (WifiObservation("ap:2", -95.0),)))


SEEDED_WALK = textwrap.dedent(
    """
    import random
    from repro.geo.grid import GridPosition
    from repro.model.demo import (
        demo_building, demo_radio_environment, demo_survey_positions,
    )
    from repro.processing.wifi_positioning import (
        FingerprintPositioningComponent,
    )
    from repro.sensors.wifi import WifiScan, build_radio_map

    building = demo_building()
    environment = demo_radio_environment(building)
    radio_map = build_radio_map(environment, demo_survey_positions(2.0))
    engine = FingerprintPositioningComponent(radio_map, building.grid, k=3)
    rng = random.Random(1)
    x, y = 20.0, 7.5
    for step in range(150):
        x = min(max(x + rng.uniform(-1.5, 1.5), 0.0), 40.0)
        y = min(max(y + rng.uniform(-1.0, 1.0), 0.0), 15.0)
        scan = WifiScan(
            float(step),
            tuple(environment.observe(GridPosition(x, y), rng)),
        )
        print(repr(engine.estimate(scan)))
    """
)


def test_estimates_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", SEEDED_WALK],
            env=env,
            capture_output=True,
            check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0].count(b"\n") == 150
    assert outputs[0] == outputs[1]
