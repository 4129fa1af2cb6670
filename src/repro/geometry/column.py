"""Columnar geometry: a whole polygon collection as flat numpy arrays.

A :class:`GeometryColumn` stores a sequence of
:class:`~repro.geometry.polygon.Polygon` and
:class:`~repro.geometry.multipolygon.MultiPolygon` objects in a
GeoArrow-style layout::

    coords         float64 (N, 2)  every ring's vertices, open (no
                                   repeated closing vertex), in order
    ring_offsets   int64   (R + 1) ring r spans coords[ro[r]:ro[r + 1]]
    part_offsets   int64   (P + 1) polygon p spans rings[po[p]:po[p + 1]];
                                   its first ring is the shell
    geom_offsets   int64   (G + 1) geometry g spans parts[go[g]:go[g + 1]]
    kinds          uint8   (G,)    KIND_POLYGON or KIND_MULTIPOLYGON

The kind byte keeps a ``Polygon`` and a single-part ``MultiPolygon``
apart: they have the same vertices but not the same type.

The column is what a dataset index persists (see
:mod:`repro.store.dataset`): it loads without any text parsing, and its
identity is the SHA-256 of its :meth:`~GeometryColumn.canonical_chunks`
— a count header, then each array's little-endian bytes. The digest is
computed once and cached on the column. Geometries are materialised
through the ordinary ``Ring``/``Polygon`` constructors from
``coords[a:b].tolist()`` ring slices, so they hold exactly the Python
floats the column was built from.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.multipolygon import MultiPolygon
from repro.geometry.polygon import Polygon

KIND_POLYGON = 0
KIND_MULTIPOLYGON = 1

#: Identifies the canonical byte layout; part of every content hash.
_HASH_TAG = b"repro.GeometryColumn/1\n"


class GeometryColumn:
    """Polygons and multipolygons as coordinate and offset arrays."""

    __slots__ = (
        "coords",
        "ring_offsets",
        "part_offsets",
        "geom_offsets",
        "kinds",
        "_digest",
    )

    def __init__(
        self,
        coords: np.ndarray,
        ring_offsets: np.ndarray,
        part_offsets: np.ndarray,
        geom_offsets: np.ndarray,
        kinds: np.ndarray,
    ) -> None:
        self.coords = np.ascontiguousarray(coords, dtype="<f8").reshape(-1, 2)
        self.ring_offsets = np.ascontiguousarray(ring_offsets, dtype="<i8")
        self.part_offsets = np.ascontiguousarray(part_offsets, dtype="<i8")
        self.geom_offsets = np.ascontiguousarray(geom_offsets, dtype="<i8")
        self.kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        self._digest: str | None = None
        self._validate()

    def _validate(self) -> None:
        """Reject arrays that do not describe a well-formed collection."""
        levels = (
            ("ring", self.ring_offsets, len(self.coords), 3),
            ("part", self.part_offsets, len(self.ring_offsets) - 1, 1),
            ("geometry", self.geom_offsets, len(self.part_offsets) - 1, 1),
        )
        for what, offsets, total, least in levels:
            if offsets.ndim != 1 or len(offsets) < 1:
                raise ValueError(f"{what} offsets must be a non-empty 1-d array")
            if offsets[0] != 0 or offsets[-1] != total:
                raise ValueError(f"{what} offsets must run from 0 to {total}")
            if len(offsets) > 1 and np.diff(offsets).min() < least:
                raise ValueError(f"every {what} needs at least {least} element(s)")
        if self.kinds.shape != (len(self.geom_offsets) - 1,):
            raise ValueError("kinds must hold one byte per geometry")
        if np.any(self.kinds > KIND_MULTIPOLYGON):
            raise ValueError("unknown geometry kind")
        single = np.diff(self.geom_offsets) == 1
        if not np.all(single[self.kinds == KIND_POLYGON]):
            raise ValueError("a Polygon entry must have exactly one part")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_geometries(cls, geometries: Sequence) -> "GeometryColumn":
        """The column of a sequence of polygons and multipolygons."""
        coords: list = []
        ring_offsets = [0]
        part_offsets = [0]
        geom_offsets = [0]
        kinds = []
        for geometry in geometries:
            if isinstance(geometry, Polygon):
                parts = (geometry,)
                kinds.append(KIND_POLYGON)
            elif isinstance(geometry, MultiPolygon):
                parts = geometry.parts
                kinds.append(KIND_MULTIPOLYGON)
            else:
                raise TypeError(
                    f"a geometry column holds polygons, not {type(geometry).__name__}"
                )
            for part in parts:
                for ring in part.rings():
                    coords.extend(ring.coords)
                    ring_offsets.append(len(coords))
                part_offsets.append(len(ring_offsets) - 1)
            geom_offsets.append(len(part_offsets) - 1)
        return cls(
            np.array(coords, dtype="<f8").reshape(-1, 2),
            np.array(ring_offsets, dtype="<i8"),
            np.array(part_offsets, dtype="<i8"),
            np.array(geom_offsets, dtype="<i8"),
            np.array(kinds, dtype=np.uint8),
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def geometries(self) -> list:
        """Every geometry as a ``Polygon`` or ``MultiPolygon``."""
        coords = self.coords
        ro = self.ring_offsets.tolist()
        po = self.part_offsets.tolist()
        go = self.geom_offsets.tolist()

        # One ring's slice at a time: converting the whole array at once
        # would briefly hold ~130 bytes of Python lists per vertex.
        def polygon(p: int) -> Polygon:
            first, last = po[p], po[p + 1]
            return Polygon(
                coords[ro[first] : ro[first + 1]].tolist(),
                [coords[ro[r] : ro[r + 1]].tolist() for r in range(first + 1, last)],
            )

        out = []
        for g, kind in enumerate(self.kinds.tolist()):
            parts = range(go[g], go[g + 1])
            if kind == KIND_POLYGON:
                out.append(polygon(parts[0]))
            else:
                out.append(MultiPolygon([polygon(p) for p in parts]))
        return out

    def bounds(self) -> np.ndarray:
        """``(G, 4)`` array of ``xmin, ymin, xmax, ymax`` per geometry.

        Like ``Polygon.bbox``, a geometry's bounds cover its shells only.
        """
        starts = self.ring_offsets[:-1]
        ring_min = np.minimum.reduceat(self.coords, starts, axis=0)
        ring_max = np.maximum.reduceat(self.coords, starts, axis=0)
        shells = self.part_offsets[:-1]
        parts = self.geom_offsets[:-1]
        lo = np.minimum.reduceat(ring_min[shells], parts, axis=0)
        hi = np.maximum.reduceat(ring_max[shells], parts, axis=0)
        return np.hstack([lo, hi])

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The column's arrays by name, in canonical order."""
        return {
            "kinds": self.kinds,
            "geom_offsets": self.geom_offsets,
            "part_offsets": self.part_offsets,
            "ring_offsets": self.ring_offsets,
            "coords": self.coords,
        }

    def canonical_chunks(self) -> Iterator[bytes | memoryview]:
        """The canonical byte form: a tag, the four counts, then every
        array's little-endian bytes in :meth:`arrays` order."""
        counts = (len(self), len(self.part_offsets) - 1,
                  len(self.ring_offsets) - 1, len(self.coords))
        yield _HASH_TAG + struct.pack("<4q", *counts)
        for array in self.arrays().values():
            yield memoryview(array).cast("B")

    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical bytes (computed once)."""
        if self._digest is None:
            h = hashlib.sha256()
            for chunk in self.canonical_chunks():
                h.update(chunk)
            self._digest = h.hexdigest()
        return self._digest


__all__ = ["GeometryColumn", "KIND_MULTIPOLYGON", "KIND_POLYGON"]
