"""The box-indexed ``Floor.room_at`` equals a linear containment scan.

``Floor`` stores a padded bounding box per room at construction and runs
the polygon test only inside it.  The reference is the definition: the
first room, in floor order, whose ``contains`` accepts the position.
The cases that could tell them apart sit on and next to the edges,
where ``point_in_polygon``'s tolerant edge test reaches past the
vertices' bounding box.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridPosition
from repro.model.building import Floor, Room
from repro.model.demo import demo_two_floor_building

OFFSETS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6)
L_SHAPE = ((0.0, 0.0), (6.0, 0.0), (6.0, 2.0), (2.0, 2.0), (2.0, 6.0), (0.0, 6.0))


def linear(floor, position):
    return next((room for room in floor.rooms if room.contains(position)), None)


def floor_of(polygons, level=0):
    rooms = [
        Room(f"R{i}", f"Room {i}", level, tuple(polygon))
        for i, polygon in enumerate(polygons)
    ]
    return Floor(level, rooms, [])


COORD = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 2.5, 10.0]),
    st.floats(min_value=-20.0, max_value=60.0, allow_nan=False),
)
VERTEX = st.tuples(COORD, COORD)


@st.composite
def rectangles(draw):
    x, y = draw(COORD), draw(COORD)
    w = draw(st.sampled_from([1e-6, 1e-3, 0.5, 3.0, 10.0]))
    h = draw(st.floats(min_value=1e-6, max_value=20.0))
    return ((x, y), (x + w, y), (x + w, y + h), (x, y + h))


@st.composite
def shifted_l(draw):
    dx, dy = draw(COORD), draw(COORD)
    return tuple((x + dx, y + dy) for x, y in L_SHAPE)


POLYGON = st.one_of(
    rectangles(),
    shifted_l(),
    # Arbitrary vertex lists: self-intersecting, repeated vertices
    # (zero-length edges) and 2-vertex "rooms" included.
    st.lists(VERTEX, min_size=2, max_size=7).map(tuple),
)


@st.composite
def probes(draw, polygons):
    """A vertex, an edge point or a free point, nudged by an offset."""
    polygon = draw(st.sampled_from(polygons))
    n = len(polygon)
    i = draw(st.integers(min_value=0, max_value=n - 1))
    (x1, y1), (x2, y2) = polygon[i], polygon[(i + 1) % n]
    t = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    x, y = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
    if draw(st.booleans()):
        x, y = draw(COORD), draw(COORD)
    offset = draw(st.sampled_from(OFFSETS))
    angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0))
    return GridPosition(
        x + offset * math.cos(angle * math.pi),
        y + offset * math.sin(angle * math.pi),
    )


@st.composite
def floors_and_probes(draw):
    polygons = draw(st.lists(POLYGON, min_size=1, max_size=6))
    points = draw(st.lists(probes(polygons), min_size=1, max_size=20))
    return floor_of(polygons), points


@settings(max_examples=400, deadline=None)
@given(case=floors_and_probes())
def test_indexed_room_at_equals_linear_scan(case):
    floor, points = case
    for position in points:
        assert floor.room_at(position) is linear(floor, position)


def test_l_shaped_room_notch_and_edges():
    floor = floor_of([L_SHAPE])
    room = floor.rooms[0]
    cases = {
        (1.0, 5.0): room,  # upright arm
        (5.0, 1.0): room,  # foot
        (4.0, 4.0): None,  # the notch, inside the bounding box
        (2.0, 4.0): room,  # inner edge
        (4.0, 2.0): room,  # inner edge
        (2.0, 2.0): room,  # reflex vertex
        (6.0, 6.0): None,  # box corner, outside the room
        (6.0 + 1e-12, 1.0): room,  # within the edge tolerance
        (6.0 + 1e-6, 1.0): None,
    }
    for (x, y), want in cases.items():
        position = GridPosition(x, y)
        assert floor.room_at(position) is want
        assert linear(floor, position) is want


def test_first_overlapping_room_wins_and_two_vertex_room_is_empty():
    segment = ((0.0, 0.0), (10.0, 10.0))
    big = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
    small = ((2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0))
    floor = floor_of([segment, big, small])
    on_segment = GridPosition(5.0, 5.0)
    assert floor.room_at(on_segment).room_id == "R1"
    assert floor.room_at(GridPosition(3.0, 3.0)).room_id == "R1"
    assert floor_of([small, big]).room_at(GridPosition(3.0, 3.0)).room_id == "R0"
    assert floor_of([segment]).room_at(on_segment) is None


def test_zero_length_edge_keeps_the_linear_answer():
    # A repeated vertex makes a zero-length edge, whose tolerant edge
    # test accepts every point: the index must not box that room.
    floor = floor_of([((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0))])
    far = GridPosition(500.0, -300.0)
    assert linear(floor, far) is floor.rooms[0]
    assert floor.room_at(far) is floor.rooms[0]


def test_other_floor_is_never_matched():
    floor = floor_of([L_SHAPE], level=0)
    assert floor.room_at(GridPosition(1.0, 1.0, floor=1)) is None


@pytest.fixture(scope="module")
def two_floors():
    return demo_two_floor_building()


def test_multifloor_building_grid(two_floors):
    """Every point of a grid over both floors, with boundaries and the
    points just outside them, resolves as the linear scan does."""
    for level in (0, 1):
        floor = two_floors.floor(level)
        min_x, min_y, max_x, max_y = two_floors.footprint(level)
        xs = sorted(
            {v for room in floor.rooms for v, _y in room.polygon}
            | {min_x + 0.25 * i for i in range(int((max_x - min_x) * 4) + 5)}
        )
        ys = sorted(
            {v for room in floor.rooms for _x, v in room.polygon}
            | {min_y + 0.25 * i for i in range(int((max_y - min_y) * 4) + 5)}
        )
        for x in xs:
            for y in ys:
                for dx, dy in ((0.0, 0.0), (1e-10, 0.0), (0.0, -1e-7)):
                    position = GridPosition(x + dx, y + dy, floor=level)
                    room = two_floors.room_at(position)
                    assert room is linear(floor, position)
