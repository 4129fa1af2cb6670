"""Monte-Carlo consistency checks for mixed-dimension relate.

Independent oracle: dense point sampling along lines and around areas
must agree with the matrix cells that sampling can witness (a sampled
witness can prove a cell True; absence of witnesses cannot prove False,
so assertions run in the sound direction only).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Location, Polygon
from repro.geometry.linestring import LineString
from repro.topology.mixed import relate_mixed


def sample_line_points(line: LineString, per_edge: int = 9):
    """Interior samples along the line (excludes vertices)."""
    points = []
    for a, b in line.edges():
        for k in range(1, per_edge + 1):
            t = k / (per_edge + 1)
            points.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return points


@st.composite
def lines(draw):
    n = draw(st.integers(2, 6))
    coords = []
    x = draw(st.integers(0, 30))
    y = draw(st.integers(0, 30))
    coords.append((float(x), float(y)))
    for _ in range(n - 1):
        x += draw(st.integers(-8, 8))
        y += draw(st.integers(-8, 8))
        coords.append((float(x), float(y)))
    try:
        line = LineString(coords)
    except ValueError:
        return LineString([(0.0, 0.0), (1.0, 1.0)])
    return line


@st.composite
def areas(draw):
    x = draw(st.integers(0, 25))
    y = draw(st.integers(0, 25))
    w = draw(st.integers(2, 15))
    h = draw(st.integers(2, 15))
    return Polygon.box(x, y, x + w, y + h)


class TestLineAreaSamplingOracle:
    @given(lines(), areas())
    @settings(max_examples=150, deadline=None)
    def test_sampled_witnesses_agree(self, line, area):
        matrix = relate_mixed(line, area)
        interior_seen = exterior_seen = boundary_seen = False
        for p in sample_line_points(line):
            where = area.locate(p)
            interior_seen |= where is Location.INTERIOR
            exterior_seen |= where is Location.EXTERIOR
            boundary_seen |= where is Location.BOUNDARY
        # Sound direction: a sampled witness forces the cell to be True.
        if interior_seen:
            assert matrix.II, (line.coords, "sampled interior point but II=F")
        if exterior_seen:
            assert matrix.IE
        if boundary_seen:
            assert matrix.IB or matrix.BB  # sample may coincide with a vertex path

    @given(lines(), areas())
    @settings(max_examples=100, deadline=None)
    def test_endpoint_cells(self, line, area):
        matrix = relate_mixed(line, area)
        for endpoint in line.endpoints:
            where = area.locate(endpoint)
            if where is Location.INTERIOR:
                assert matrix.BI
            elif where is Location.BOUNDARY:
                assert matrix.BB
            else:
                assert matrix.BE

    @given(lines(), areas())
    @settings(max_examples=100, deadline=None)
    def test_transpose(self, line, area):
        assert relate_mixed(line, area).transposed() == relate_mixed(area, line)

    @given(lines())
    @settings(max_examples=60, deadline=None)
    def test_line_self_relation(self, line):
        m = relate_mixed(line, line)
        assert m.II
        assert not m.IE and not m.EI
        if line.endpoints:
            assert m.BB


def _distance_to_line(p, line: LineString) -> float:
    best = math.inf
    px, py = p
    for (ax, ay), (bx, by) in line.edges():
        dx, dy = bx - ax, by - ay
        norm = dx * dx + dy * dy
        if norm == 0.0:
            t = 0.0
        else:
            t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / norm))
        qx, qy = ax + t * dx, ay + t * dy
        best = min(best, math.hypot(px - qx, py - qy))
    return best


class TestLineLineSamplingOracle:
    @given(lines(), lines())
    @example(
        # a doubles back onto its own end point (23 11): that sample is
        # boundary under the mod-2 rule, so it witnesses BB, not II/IB.
        LineString([(24.0, 13.0), (22.0, 9.0), (23.0, 11.0)]),
        LineString([(23.0, 11.0), (30.0, 11.0)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_cover_witnesses(self, a, b):
        matrix = relate_mixed(a, b)
        # A sample that equals one of a's end points is a boundary
        # point, even where it also lies inside one of a's edges.
        samples = [
            p for p in sample_line_points(a, per_edge=5) if p not in a.endpoints
        ]
        # Any sampled point of a's interior lying exactly on b forces
        # II or IB.
        for p in samples:
            if b.covers_point(p):
                assert matrix.II or matrix.IB
                break
        # A sampled point *clearly off* b (beyond float fuzz) forces IE;
        # exact-covers misses of float-computed samples do not count.
        for p in samples:
            if _distance_to_line(p, b) > 1e-7:
                assert matrix.IE
                break
