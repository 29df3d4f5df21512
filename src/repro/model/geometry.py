"""Plane geometry for the building model.

Pure functions over ``(x, y)`` tuples: containment, intersection,
centroids.  Kept dependency-free so both the building model and the
particle filter's wall tests can use them in inner loops.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Point = Tuple[float, float]

#: Tolerance of :func:`point_in_polygon`'s edge test.
ON_SEGMENT_EPS = 1e-9


def point_in_polygon(x: float, y: float, polygon: Sequence[Point]) -> bool:
    """Ray-casting containment test; points on edges count as inside.

    ``polygon`` is an ordered sequence of vertices (closing edge implied).
    """
    if len(polygon) < 3:
        return False
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if _on_segment(x, y, x1, y1, x2, y2):
            return True
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def _on_segment(
    px: float, py: float, x1: float, y1: float, x2: float, y2: float,
    eps: float = ON_SEGMENT_EPS,
) -> bool:
    cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
    if abs(cross) > eps * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
        return False
    dot = (px - x1) * (x2 - x1) + (py - y1) * (y2 - y1)
    length_sq = (x2 - x1) ** 2 + (y2 - y1) ** 2
    return -eps <= dot <= length_sq + eps


def _orientation(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Sign of the cross product (b-a) x (c-a): 1 ccw, -1 cw, 0 collinear."""
    value = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if value > 1e-12:
        return 1
    if value < -1e-12:
        return -1
    return 0


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments ``p1p2`` and ``q1q2`` intersect."""
    o1 = _orientation(*p1, *p2, *q1)
    o2 = _orientation(*p1, *p2, *q2)
    o3 = _orientation(*q1, *q2, *p1)
    o4 = _orientation(*q1, *q2, *p2)
    if o1 != o2 and o3 != o4:
        return True
    # Collinear overlap cases.
    if o1 == 0 and _on_segment(q1[0], q1[1], p1[0], p1[1], p2[0], p2[1]):
        return True
    if o2 == 0 and _on_segment(q2[0], q2[1], p1[0], p1[1], p2[0], p2[1]):
        return True
    if o3 == 0 and _on_segment(p1[0], p1[1], q1[0], q1[1], q2[0], q2[1]):
        return True
    if o4 == 0 and _on_segment(p2[0], p2[1], q1[0], q1[1], q2[0], q2[1]):
        return True
    return False


def polygon_area(polygon: Sequence[Point]) -> float:
    """Signed shoelace area (positive for counter-clockwise winding)."""
    if len(polygon) < 3:
        return 0.0
    total = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def polygon_centroid(polygon: Sequence[Point]) -> Point:
    """Area-weighted centroid; falls back to vertex mean for slivers."""
    area = polygon_area(polygon)
    if abs(area) < 1e-12:
        xs = [p[0] for p in polygon]
        ys = [p[1] for p in polygon]
        return sum(xs) / len(xs), sum(ys) / len(ys)
    cx = cy = 0.0
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        factor = x1 * y2 - x2 * y1
        cx += (x1 + x2) * factor
        cy += (y1 + y2) * factor
    return cx / (6.0 * area), cy / (6.0 * area)


def bounding_box(polygon: Sequence[Point]) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of the vertex set."""
    xs = [p[0] for p in polygon]
    ys = [p[1] for p in polygon]
    return min(xs), min(ys), max(xs), max(ys)
