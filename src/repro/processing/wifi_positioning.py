"""The WiFi fingerprint positioning engine.

Substitution for the paper's campus "indoor WiFi positioning system"
(Fig. 1): classic two-phase fingerprinting.  The offline phase is a radio
map -- RSSI vectors at known grid positions, built by
:func:`repro.sensors.wifi.build_radio_map` -- and the online phase is
weighted k-nearest-neighbours in signal space, producing positions in
both the building grid and WGS84.

The radio map is indexed once, at construction: every survey vector is
stored as a dense tuple over the map's access points in sorted order,
filled with the noise floor, next to a bitmask of the APs it hears.  A
scan is then scored against all survey points with C-level ``map``
calls instead of a dict walk per point, and the scores are bit-for-bit
those of :func:`signal_distance` (DESIGN.md §15 gives the argument).
"""

from __future__ import annotations

import heapq
import math
import sys
from itertools import repeat
from operator import mul, or_, truediv
from typing import List, Mapping, Sequence, Tuple

from repro.core.component import InputPort, OutputPort, ProcessingComponent
from repro.core.data import Datum, Kind
from repro.geo.grid import GridPosition, LocalGrid
from repro.sensors.wifi import WifiScan

#: RSSI assumed for an AP a vector does not hear (the noise floor).
MISSING_DBM = -95.0


def signal_distance(
    a: Mapping[str, float], b: Mapping[str, float], missing_dbm: float = MISSING_DBM
) -> float:
    """Euclidean distance between RSSI vectors over the union of APs.

    APs heard in one vector but not the other count as received at the
    noise floor, which penalises disagreeing coverage sets.  The squared
    sum runs over the APs in sorted order, so the result does not depend
    on the hash seed.
    """
    keys = sorted(set(a) | set(b))
    if not keys:
        return float("inf")
    norm = math.dist(
        [a.get(key, missing_dbm) for key in keys],
        [b.get(key, missing_dbm) for key in keys],
    )
    return math.sqrt(norm * norm / len(keys))


if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:  # pragma: no cover

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


class FingerprintPositioningComponent(ProcessingComponent):
    """Weighted-kNN fingerprint matcher over a survey radio map."""

    def __init__(
        self,
        radio_map: Sequence[Tuple[GridPosition, Mapping[str, float]]],
        grid: LocalGrid,
        k: int = 3,
        name: str = "wifi-positioning",
        min_observations: int = 1,
    ) -> None:
        if not radio_map:
            raise ValueError("radio map must not be empty")
        if k <= 0:
            raise ValueError("k must be positive")
        super().__init__(
            name,
            inputs=(InputPort("in", (Kind.WIFI_SCAN,)),),
            output=OutputPort((Kind.POSITION_WGS84, Kind.POSITION_GRID)),
        )
        self.radio_map = [
            (pos, dict(vector)) for pos, vector in radio_map if vector
        ]
        self.grid = grid
        self.k = k
        self.min_observations = min_observations
        # The dense index: one row per survey point over the sorted AP
        # universe, and the bitmask of the APs the row hears.
        self._aps = sorted(
            {ap for _pos, vector in self.radio_map for ap in vector}
        )
        self._bit = {ap: 1 << i for i, ap in enumerate(self._aps)}
        self._positions = [pos for pos, _vector in self.radio_map]
        self._rows = [self._dense(vector) for _pos, vector in self.radio_map]
        self._masks = [self._mask(vector) for _pos, vector in self.radio_map]

    def _dense(self, vector: Mapping[str, float]) -> Tuple[float, ...]:
        return tuple(vector.get(ap, MISSING_DBM) for ap in self._aps)

    def _mask(self, vector: Mapping[str, float]) -> int:
        bit = self._bit
        return sum(bit[ap] for ap in vector)

    def process(self, port_name: str, datum: Datum) -> None:
        scan = datum.payload
        if not isinstance(scan, WifiScan):
            return
        if len(scan.observations) < self.min_observations:
            return  # out of coverage: a seam, surfaced as silence
        estimate, spread = self.estimate(scan)
        self.produce(
            Datum(
                kind=Kind.POSITION_GRID,
                payload=estimate,
                timestamp=datum.timestamp,
                producer=self.name,
            )
        )
        wgs84 = self.grid.to_wgs84(estimate)
        wgs84 = type(wgs84)(
            wgs84.latitude_deg,
            wgs84.longitude_deg,
            wgs84.altitude_m,
            accuracy_m=spread,
            timestamp=datum.timestamp,
        )
        self.produce(
            Datum(
                kind=Kind.POSITION_WGS84,
                payload=wgs84,
                timestamp=datum.timestamp,
                producer=self.name,
            )
        )

    def estimate(self, scan: WifiScan) -> Tuple[GridPosition, float]:
        """Weighted-kNN estimate and a spread-based accuracy value."""
        nearest = self._nearest(scan)
        weights = [1.0 / (distance + 1e-3) for distance, _pos in nearest]
        total = sum(weights)
        x = sum(w * pos.x_m for w, (_d, pos) in zip(weights, nearest)) / total
        y = sum(w * pos.y_m for w, (_d, pos) in zip(weights, nearest)) / total
        floor = nearest[0][1].floor
        estimate = GridPosition(x, y, floor)
        spread = max(
            estimate.distance_to(pos) for _d, pos in nearest
        )
        return estimate, max(spread, 1.0)

    def _nearest(self, scan: WifiScan) -> List[Tuple[float, GridPosition]]:
        """The ``k`` closest survey points as ``(distance, position)``.

        Ordered by :func:`signal_distance`, ties in radio-map order:
        ``heapq.nsmallest`` is documented equal to ``sorted(...)[:k]``.
        """
        scores = self._scores(scan.as_dict())
        positions = self._positions
        return [
            (scores[i], positions[i])
            for i in heapq.nsmallest(
                self.k, range(len(scores)), key=scores.__getitem__
            )
        ]

    def _scores(self, observed: Mapping[str, float]) -> List[float]:
        """:func:`signal_distance` from ``observed`` to every survey point."""
        if not observed.keys() <= self._bit.keys():
            # APs no survey point hears: the dense rows lack their
            # columns, so score pairwise (rare: a map covers its APs).
            return [
                signal_distance(observed, vector)
                for _pos, vector in self.radio_map
            ]
        dense = self._dense(observed)
        norms = list(map(math.dist, self._rows, repeat(dense)))
        unions = map(
            _popcount, map(or_, self._masks, repeat(self._mask(observed)))
        )
        totals = map(mul, norms, norms)
        return list(map(math.sqrt, map(truediv, totals, unions)))

    def map_size(self) -> int:
        """Number of usable survey points (inspection)."""
        return len(self.radio_map)
