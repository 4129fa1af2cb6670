"""Tests for the columnar geometry layout and its content hash."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import MultiPolygon, Polygon
from repro.geometry.column import KIND_MULTIPOLYGON, KIND_POLYGON, GeometryColumn
from repro.store import SpatialDataset, content_hash, open_dataset

#: Web-mercator metres reach ~2e7; signed zeros must survive verbatim.
coordinates = st.sampled_from([-0.0, 0.0]) | st.floats(
    -2.1e7, 2.1e7, allow_nan=False, allow_infinity=False
)


@st.composite
def polygons(draw):
    def ring():
        return draw(st.lists(st.tuples(coordinates, coordinates),
                             min_size=3, max_size=8, unique=True))

    polygon = Polygon(ring(), [ring() for _ in range(draw(st.integers(0, 2)))])
    # Only rings the constructor leaves as they are round-trip verbatim:
    # a (near-)degenerate ring is re-oriented on every construction.
    assume(polygon.shell.is_ccw and not any(h.is_ccw for h in polygon.holes))
    return polygon


geometries = polygons() | st.lists(polygons(), min_size=1, max_size=3).map(MultiPolygon)


def exact(geometry):
    """Type plus every coordinate's bit pattern (so ``-0.0 != 0.0``)."""
    parts = geometry.parts if isinstance(geometry, MultiPolygon) else (geometry,)
    return type(geometry).__name__, [
        [[(x.hex(), y.hex()) for x, y in ring.coords] for ring in part.rings()]
        for part in parts
    ]


class TestRoundTrip:
    @given(st.lists(geometries, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_geometries_round_trip_bit_exact(self, items):
        column = GeometryColumn.from_geometries(items)
        back = column.geometries()
        assert [exact(g) for g in back] == [exact(g) for g in items]
        # Plain Python float tuples, as the WKT reader produced them.
        vertices = [xy for g in back for ring in g.rings() for xy in ring.coords]
        assert {type(xy) for xy in vertices} == {tuple}
        assert {type(v) for xy in vertices for v in xy} == {float}

    @given(st.lists(geometries, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_bounds_match_bbox(self, items):
        bounds = GeometryColumn.from_geometries(items).bounds().tolist()
        assert bounds == [[g.bbox.xmin, g.bbox.ymin, g.bbox.xmax, g.bbox.ymax]
                          for g in items]

    def test_layout(self):
        donut = Polygon([(0, 0), (9, 0), (9, 9), (0, 9)], [[(3, 3), (6, 3), (6, 6), (3, 6)]])
        column = GeometryColumn.from_geometries(
            [Polygon.box(0, 0, 1, 1), MultiPolygon([donut, Polygon.box(20, 20, 21, 21)])]
        )
        assert column.kinds.tolist() == [KIND_POLYGON, KIND_MULTIPOLYGON]
        assert column.geom_offsets.tolist() == [0, 1, 3]
        assert column.part_offsets.tolist() == [0, 1, 3, 4]
        assert column.ring_offsets.tolist() == [0, 4, 8, 12, 16]
        assert column.coords.shape == (16, 2) and column.coords.dtype == np.float64
        assert len(column) == 2

    def test_rejects_non_polygons(self):
        with pytest.raises(TypeError, match="LineString"):
            from repro.geometry import LineString

            GeometryColumn.from_geometries([LineString([(0, 0), (1, 1)])])

    def test_rejects_malformed_offsets(self):
        column = GeometryColumn.from_geometries([Polygon.box(0, 0, 1, 1)])
        with pytest.raises(ValueError, match="ring offsets"):
            GeometryColumn(column.coords, [0, 5], [0, 1], [0, 1], [KIND_POLYGON])
        with pytest.raises(ValueError, match="exactly one part"):
            GeometryColumn(column.coords[:3].repeat(2, axis=0), [0, 3, 6], [0, 1, 2],
                           [0, 2], [KIND_POLYGON])


class TestContentHash:
    def test_canonical_bytes(self):
        """The digest is SHA-256 over a tag, the four counts, then the
        arrays' little-endian bytes — pinned, because every index's
        manifest records it."""
        column = GeometryColumn.from_geometries([Polygon.box(0, 0, 1, 1)])
        expected = hashlib.sha256(
            b"repro.GeometryColumn/1\n"
            + struct.pack("<4q", 1, 1, 1, 4)
            + bytes([KIND_POLYGON])
            + struct.pack("<2q", 0, 1)
            + struct.pack("<2q", 0, 1)
            + struct.pack("<2q", 0, 4)
            + struct.pack("<8d", 0, 0, 1, 0, 1, 1, 0, 1)
        ).hexdigest()
        assert column.content_hash() == expected
        assert content_hash([Polygon.box(0, 0, 1, 1)]) == expected

    def test_polygon_and_single_part_multipolygon_differ(self):
        square = Polygon.box(0, 0, 1, 1)
        assert content_hash([square]) != content_hash([MultiPolygon([square])])

    def test_signed_zero_is_distinct(self):
        a = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        b = Polygon([(-0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
        assert a == b  # float equality cannot tell them apart ...
        assert content_hash([a]) != content_hash([b])  # ... the bytes can

    def test_computed_once_per_column(self, monkeypatch):
        column = GeometryColumn.from_geometries([Polygon.box(0, 0, 1, 1)])
        digest = column.content_hash()
        monkeypatch.setattr(hashlib, "sha256", None)
        assert column.content_hash() == digest

    @given(st.lists(geometries, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_memory_hash_equals_persisted_hash(self, tmp_path_factory, items):
        index = tmp_path_factory.mktemp("idx")
        dataset = SpatialDataset.from_polygons(items)
        saved = dataset.save(index)
        opened = open_dataset(index)
        assert opened.content_hash == saved.content_hash == dataset.content_hash
        assert opened.content_hash == content_hash(items)
        assert [exact(g) for g in opened.geometries] == [exact(g) for g in items]
