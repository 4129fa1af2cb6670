"""Persistent spatial datasets: build once, query many times.

The paper's preprocessing is "conducted once per object", yet until
PR 4 the repo rebuilt APRIL approximations on every join construction
unless the caller hand-managed ``.npz`` paths. A :class:`SpatialDataset`
turns preprocessing into a build-once artifact: it bundles the
geometries, their MBRs, a packed STR R-tree, and APRIL P/C interval
payloads, and can persist the whole bundle into a versioned on-disk
index directory::

    index_dir/
      manifest.json      format version, counts, extent, content hash,
                         source fingerprint, payload catalog
      geometries.npz     the geometry column (repro.geometry.column):
                         float64 coordinates, int64 ring/part/geometry
                         offsets, one kind byte per geometry, CRC-32
      april/
        g<order>_<ds>.npz  one payload per (grid order, dataspace),
                           written via raster.storage

Every file is written atomically (temporary file, fsync, rename). A
warm open reads the column's arrays, checks their CRC-32 and the
manifest's content hash, and builds the polygons from coordinate
slices — no text is parsed.

A dataset may hold payloads for *several* grids: a join between two
datasets runs on the padded union of their extents, so the first
(cold) join against a new partner rasterises on the union grid and
persists that payload into the index — every later join against the
same partner loads it and performs zero rasterisation.

Identity is content-addressed: ``content_hash`` is the SHA-256 of the
geometry column's canonical little-endian bytes (the same for a
polygon list and for its saved copy), and ``source_sha256``
fingerprints the raw source file so a mutated source invalidates the
index (the engine then rebuilds it).

Indexes of format versions 1 and 2 kept a ``geometries.wkt`` dump (one
WKT per line, 17 significant digits) hashed as text. They still open:
the dump is checked against its WKT hash and the index is then upgraded
in place to version 3. A directory that cannot be written opens
without the upgrade.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import logging
import struct
import time
import zipfile
import zlib
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.geometry.box import Box
from repro.geometry.column import GeometryColumn
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import dumps_wkt, loads_wkt_geometry
from repro.join.rtree import RTree
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.raster.storage import (
    DEFAULT_PAYLOAD_CODEC,
    PAYLOAD_CODECS,
    StoreError,
    load_approximations,
    save_approximations,
)
from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.quarantine import QuarantineReport

log = logging.getLogger("repro.resilience")

#: Version 3 stores the geometry column (``geometries.npz``) and hashes
#: its bytes; version 2 added the ``payload_codec`` field. Versions 1
#: and 2 still open and are upgraded in place; version-1 manifests
#: default to ``raw``, the payloads such indexes contain.
MANIFEST_VERSION = 3
_READABLE_MANIFEST_VERSIONS = (1, 2, 3)
MANIFEST_NAME = "manifest.json"
GEOMETRY_NAME = "geometries.npz"
#: The WKT dump of format versions 1 and 2.
LEGACY_GEOMETRY_NAME = "geometries.wkt"
APRIL_DIR = "april"
#: Layout version of ``geometries.npz`` itself.
_COLUMN_FILE_VERSION = 1
#: repr-exact float64 round trip of the legacy WKT dump.
_WKT_PRECISION = 17


# ----------------------------------------------------------------------
# hashing and keys
# ----------------------------------------------------------------------
def content_hash(geometries: Sequence | GeometryColumn) -> str:
    """SHA-256 of the canonical column bytes of ``geometries``.

    Accepts a :class:`~repro.geometry.column.GeometryColumn` (its cached
    digest) or a sequence of polygons, which hashes through the same
    column builder — so a dataset and its saved copy hash equal.
    """
    with trace("content_hash", count=len(geometries)):
        if not isinstance(geometries, GeometryColumn):
            geometries = GeometryColumn.from_geometries(geometries)
        return geometries.content_hash()


def _wkt_content_hash(geometries: Sequence) -> str:
    """SHA-256 of the legacy WKT dump (format versions 1 and 2)."""
    h = hashlib.sha256()
    for g in geometries:
        h.update(dumps_wkt(g, precision=_WKT_PRECISION).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's raw bytes (source staleness fingerprint)."""
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def grid_key(grid: RasterGrid) -> str:
    """Filename-safe identity of a grid: order + dataspace digest."""
    ds = grid.dataspace
    digest = hashlib.sha256(
        struct.pack("<4d", ds.xmin, ds.ymin, ds.xmax, ds.ymax)
    ).hexdigest()[:12]
    return f"g{grid.order}_{digest}"


def _observe_cache(cache: str, outcome: str) -> None:
    if metrics_enabled():
        get_registry().inc("repro_store_cache_total", cache=cache, outcome=outcome)


def _observe_build(what: str, seconds: float) -> None:
    if metrics_enabled():
        get_registry().observe("repro_store_build_seconds", seconds, what=what)


def _observe_rebuild(artifact: str) -> None:
    if metrics_enabled():
        get_registry().inc("repro_resilience_rebuild_total", artifact=artifact)


# ----------------------------------------------------------------------
# source loading
# ----------------------------------------------------------------------
def load_geometry_file(
    path: str | Path,
    strict: bool = True,
    quarantine: QuarantineReport | None = None,
) -> list[Polygon]:
    """Load the polygonal geometries of a ``.wkt`` or ``.geojson`` file.

    ``strict=True`` (the default) aborts on the first malformed row;
    with ``strict=False`` malformed rows are skipped into ``quarantine``
    (see :mod:`repro.resilience.quarantine`) and the healthy remainder
    is returned.
    """
    from repro.datasets.geojson import load_geojson
    from repro.datasets.io import load_wkt_file
    from repro.geometry.multipolygon import MultiPolygon

    p = Path(path)
    if quarantine is not None and not quarantine.source:
        quarantine.source = str(p)
    if p.suffix.lower() in (".geojson", ".json"):
        geometries = [
            f.geometry for f in load_geojson(p, strict=strict, report=quarantine)
        ]
    else:
        geometries = load_wkt_file(p, strict=strict, report=quarantine)
    areal = [g for g in geometries if isinstance(g, (Polygon, MultiPolygon))]
    if not areal:
        raise ValueError(f"{path}: no polygonal geometries found")
    return areal


def _column_crc32(column: GeometryColumn) -> int:
    crc = 0
    for chunk in column.canonical_chunks():
        crc = zlib.crc32(chunk, crc)
    return crc


def _write_geometry_column(path: Path, column: GeometryColumn) -> None:
    """Persist ``column`` as ``geometries.npz``, CRC-checked, atomically."""
    buffer = io.BytesIO()
    np.savez(
        buffer,
        version=np.int64(_COLUMN_FILE_VERSION),
        crc32=np.uint32(_column_crc32(column)),
        **column.arrays(),
    )
    atomic_write_bytes(path, buffer.getvalue())


def _read_geometry_column(path: Path) -> GeometryColumn:
    """Load ``geometries.npz``; :class:`StoreError` if torn or corrupt."""
    if not path.exists():
        raise StoreError(f"{path.parent}: index has no {path.name}")
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != _COLUMN_FILE_VERSION:
                raise StoreError(
                    f"{path}: unsupported geometry column version {version} "
                    f"(this build reads version {_COLUMN_FILE_VERSION})"
                )
            stored_crc = int(data["crc32"])
            column = GeometryColumn(
                data["coords"],
                data["ring_offsets"],
                data["part_offsets"],
                data["geom_offsets"],
                data["kinds"],
            )
    except StoreError:
        raise
    except KeyError as exc:
        raise StoreError(f"{path}: corrupt geometry column: missing {exc}") from exc
    except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
        raise StoreError(f"{path}: corrupt geometry column: {exc}") from exc
    if _column_crc32(column) != stored_crc:
        raise StoreError(f"{path}: corrupt geometry column: checksum mismatch")
    return column


def _read_geometry_dump(path: Path) -> list:
    """Read a legacy ``geometries.wkt`` dump (one WKT per line)."""
    if not path.exists():
        raise StoreError(f"{path.parent}: index has no {path.name}")
    geometries = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                geometries.append(loads_wkt_geometry(line))
    return geometries


# ----------------------------------------------------------------------
# the dataset
# ----------------------------------------------------------------------
class SpatialDataset:
    """A polygon collection plus everything a join needs precomputed.

    ``geometries`` is a sequence of polygons or a
    :class:`~repro.geometry.column.GeometryColumn` (whose polygons are
    built at once). In-memory datasets (``path is None``) cache their
    derived bundles (column, boxes, extent, R-tree, content hash) for
    the process lifetime; persistent datasets additionally load/store
    APRIL payloads in their index directory.
    """

    def __init__(
        self,
        geometries: Sequence[Polygon] | GeometryColumn,
        *,
        name: str = "dataset",
        path: str | Path | None = None,
        source: str | Path | None = None,
        source_sha256: str | None = None,
        payload_codec: str = DEFAULT_PAYLOAD_CODEC,
    ) -> None:
        if isinstance(geometries, GeometryColumn):
            self.column = geometries
            geometries = geometries.geometries()
        geometries = list(geometries)
        if not geometries:
            raise ValueError("a dataset must contain at least one geometry")
        if payload_codec not in PAYLOAD_CODECS:
            raise ValueError(
                f"unknown payload codec {payload_codec!r}; "
                f"available: {list(PAYLOAD_CODECS)}"
            )
        self.geometries = geometries
        self.name = name
        self.path = Path(path) if path is not None else None
        self.source = Path(source) if source is not None else None
        self.source_sha256 = source_sha256
        self.payload_codec = payload_codec

    def __len__(self) -> int:
        return len(self.geometries)

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "memory"
        return f"SpatialDataset({self.name!r}, {len(self)} geometries, {where})"

    # ------------------------------------------------------------------
    # identity and derived bundles
    # ------------------------------------------------------------------
    @cached_property
    def column(self) -> GeometryColumn:
        return GeometryColumn.from_geometries(self.geometries)

    @cached_property
    def content_hash(self) -> str:
        return content_hash(self.column)

    @cached_property
    def boxes(self) -> list[Box]:
        return [Box(*row) for row in self.column.bounds().tolist()]

    @cached_property
    def extent(self) -> Box:
        return Box.union_all(self.boxes)

    @cached_property
    def rtree(self) -> RTree:
        """Packed STR R-tree over the MBRs (selection access path)."""
        return RTree(self.boxes)

    def grid(self, order: int) -> RasterGrid:
        """The dataset's own grid: its padded extent at ``order``."""
        return RasterGrid(pad_dataspace(self.extent), order=order)

    # ------------------------------------------------------------------
    # approximations
    # ------------------------------------------------------------------
    def approximation_path(self, grid: RasterGrid) -> Path | None:
        if self.path is None:
            return None
        return self.path / APRIL_DIR / (grid_key(grid) + ".npz")

    def approximations(
        self,
        grid: RasterGrid,
        workers: int | None = 1,
        on_error: str = "rebuild",
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> list:
        """APRIL lists for every geometry on ``grid`` — loaded from the
        index when a valid payload exists, built (and, for persistent
        datasets, written back) otherwise.

        A payload that exists but cannot be used — torn by a crashed
        writer, built on a different grid, or counting a different
        number of geometries — is rebuilt from the geometries by
        default (counted in ``repro_resilience_rebuild_total``);
        ``on_error="raise"`` surfaces the :class:`StoreError` instead.
        A build runs under the caller's ``partition_timeout`` and
        ``max_retries`` (see :func:`repro.parallel.build_april_parallel`).
        """
        if on_error not in ("raise", "rebuild"):
            raise ValueError(f"on_error must be 'raise' or 'rebuild', got {on_error!r}")
        payload = self.approximation_path(grid)
        if payload is not None and payload.exists():
            aprils = load_approximations(payload, expected_grid=grid, on_error=on_error)
            if aprils is not None and len(aprils) == len(self.geometries):
                _observe_cache("april_payload", "hit")
                return aprils
            if aprils is not None and on_error == "raise":
                raise StoreError(
                    f"{payload}: payload counts {len(aprils)} geometries, "
                    f"dataset has {len(self.geometries)}"
                )
            # Unusable payload (torn archive, foreign grid, stale count):
            # rebuild from the geometries and overwrite it below.
            _observe_rebuild("april_payload")
        if payload is not None:
            _observe_cache("april_payload", "miss")
        aprils = self._build_approximations(
            grid, workers, partition_timeout, max_retries
        )
        if payload is not None:
            payload.parent.mkdir(parents=True, exist_ok=True)
            if self.payload_codec != "raw":
                # Encode once, persist the encoded payload, and serve
                # the same lazy form a warm load would — so cold and
                # warm joins run the identical decode-aware path. The
                # fresh decoded objects seed the payload's cache; no
                # decode work is thrown away.
                from repro.raster.compression import CompressedAprilPayload

                compressed = CompressedAprilPayload.from_approximations(aprils)
                for k, approx in enumerate(aprils):
                    compressed._insert(k, approx)
                save_approximations(payload, compressed, codec=self.payload_codec)
                self._register_payload(grid, payload)
                return compressed.approximations()
            save_approximations(payload, aprils, codec=self.payload_codec)
            self._register_payload(grid, payload)
        return aprils

    def payload_stats(self, grid: RasterGrid) -> dict | None:
        """Size accounting of the persisted payload for ``grid``.

        Returns ``None`` for in-memory datasets or before a payload
        exists; otherwise the on-disk bytes, the plain
        two-words-per-interval bytes the payload decodes to, and their
        ratio — the honest compression number ``build-index`` reports
        (the satellite fix: against *actual on-disk bytes*, not the
        codec-stream length).
        """
        from repro.raster.storage import payload_codec as read_codec

        payload = self.approximation_path(grid)
        if payload is None or not payload.exists():
            return None
        aprils = load_approximations(payload, expected_grid=grid, on_error="rebuild")
        if aprils is None:
            return None
        stored = payload.stat().st_size
        plain = sum(a.nbytes for a in aprils)
        return {
            "file": str(payload),
            "codec": read_codec(payload),
            "count": len(aprils),
            "stored_bytes": stored,
            "plain_bytes": plain,
            "bytes_per_object": stored / max(1, len(aprils)),
            "compression_ratio": plain / stored if stored else 1.0,
        }

    def _build_approximations(
        self,
        grid: RasterGrid,
        workers: int | None,
        partition_timeout: float | None,
        max_retries: int | None,
    ) -> list:
        from repro.parallel import build_april_parallel

        t0 = time.perf_counter()
        with trace("store_build_april", count=len(self), grid_order=grid.order):
            aprils = build_april_parallel(
                self.geometries,
                grid,
                workers=workers,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
        _observe_build("april", time.perf_counter() - t0)
        return aprils

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _manifest(self) -> dict:
        ext = self.extent
        return {
            "format_version": MANIFEST_VERSION,
            "name": self.name,
            "count": len(self),
            "content_hash": self.content_hash,
            "source": str(self.source) if self.source else None,
            "source_sha256": self.source_sha256,
            "extent": [ext.xmin, ext.ymin, ext.xmax, ext.ymax],
            "payload_codec": self.payload_codec,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "approximations": [],
        }

    def _write_manifest(self, manifest: dict) -> None:
        assert self.path is not None
        atomic_write_text(
            self.path / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n"
        )

    def _register_payload(self, grid: RasterGrid, payload: Path) -> None:
        """Record a freshly written payload in the manifest catalog."""
        assert self.path is not None
        manifest_path = self.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        ds = grid.dataspace
        entry = {
            "file": str(payload.relative_to(self.path)),
            "grid_order": grid.order,
            "dataspace": [ds.xmin, ds.ymin, ds.xmax, ds.ymax],
            "count": len(self),
            "codec": self.payload_codec,
        }
        entries = [
            e for e in manifest.get("approximations", []) if e["file"] != entry["file"]
        ]
        entries.append(entry)
        manifest["approximations"] = sorted(entries, key=lambda e: e["file"])
        self._write_manifest(manifest)

    def save(self, index_dir: str | Path) -> "SpatialDataset":
        """Persist the geometry column + manifest into ``index_dir``;
        returns the persistent dataset bound to that directory (sharing
        this one's geometries and derived bundles)."""
        index_dir = Path(index_dir)
        index_dir.mkdir(parents=True, exist_ok=True)
        _write_geometry_column(index_dir / GEOMETRY_NAME, self.column)
        persistent = copy.copy(self)
        persistent.path = index_dir
        persistent._write_manifest(persistent._manifest())
        (index_dir / LEGACY_GEOMETRY_NAME).unlink(missing_ok=True)
        return persistent

    @classmethod
    def open(
        cls,
        index_dir: str | Path,
        source: str | Path | None = None,
        on_error: str = "raise",
    ) -> "SpatialDataset":
        """Load a dataset from its index directory.

        Raises :class:`StoreError` when the manifest is missing or has
        an unknown format version, when ``geometries.npz`` is torn or
        fails its CRC-32, when the stored geometries do not match the
        recorded content hash, or when ``source`` is given and its bytes
        no longer match the recorded fingerprint (the index is stale;
        rebuild it). A version-1 or -2 index is verified against its WKT
        dump's hash and then upgraded in place to the current layout
        (skipped, with a warning, when the directory cannot be written).

        With ``on_error="rebuild"`` an unusable index is repaired in
        place instead: rebuilt from ``source`` when one is given and
        readable, else re-manifested from a readable geometry file
        (``geometries.npz``, or a legacy ``geometries.wkt``); only when
        neither recovery works does the original :class:`StoreError`
        propagate. Every repair is counted in
        ``repro_resilience_rebuild_total{artifact="dataset_index"}``.
        """
        if on_error not in ("raise", "rebuild"):
            raise ValueError(f"on_error must be 'raise' or 'rebuild', got {on_error!r}")
        with trace("dataset_open", index=str(index_dir)):
            try:
                return cls._open_strict(index_dir, source)
            except StoreError as exc:
                if on_error == "raise":
                    raise
                log.warning("unusable dataset index, rebuilding: %s", exc)
                return cls._rebuild_index(Path(index_dir), source, exc)

    @classmethod
    def _open_strict(
        cls, index_dir: str | Path, source: str | Path | None
    ) -> "SpatialDataset":
        index_dir = Path(index_dir)
        manifest_path = index_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"{index_dir}: not a dataset index (no {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreError(f"{manifest_path}: corrupt manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version not in _READABLE_MANIFEST_VERSIONS:
            raise StoreError(
                f"{index_dir}: unsupported index format version {version!r} "
                f"(this build reads versions {list(_READABLE_MANIFEST_VERSIONS)})"
            )
        if source is not None:
            fingerprint = file_sha256(source)
            if fingerprint != manifest.get("source_sha256"):
                raise StoreError(
                    f"{index_dir}: stale index — {source} has changed since the "
                    "index was built (content-hash mismatch); rebuild the index"
                )
        legacy = version < MANIFEST_VERSION
        if legacy:
            stored = _read_geometry_dump(index_dir / LEGACY_GEOMETRY_NAME)
        else:
            stored = _read_geometry_column(index_dir / GEOMETRY_NAME)
        if len(stored) != manifest.get("count"):
            raise StoreError(
                f"{index_dir}: corrupt index — {len(stored)} geometries stored, "
                f"manifest records {manifest.get('count')}"
            )
        stored_hash = _wkt_content_hash(stored) if legacy else content_hash(stored)
        if stored_hash != manifest.get("content_hash"):
            raise StoreError(
                f"{index_dir}: corrupt index — stored geometries do not match "
                "the manifest's content hash"
            )
        dataset = cls(
            stored,
            name=manifest.get("name", index_dir.name),
            path=index_dir,
            source=manifest.get("source"),
            source_sha256=manifest.get("source_sha256"),
            # Version-1 manifests predate the codec field; their indexes
            # hold raw payloads, and new payloads written into them stay
            # raw, also after the upgrade below.
            payload_codec=manifest.get("payload_codec", "raw"),
        )
        if legacy:
            dataset._upgrade(manifest)
        return dataset

    def _upgrade(self, manifest: dict) -> None:
        """Rewrite a version-1/2 index in the current layout, in place.

        The column is written first, then the manifest, and only then is
        the WKT dump removed, so a crash between steps leaves an index
        that still opens. A directory that cannot be written stays as it
        is; the dataset then simply lives in memory in the new form.
        """
        assert self.path is not None
        upgraded = {
            **manifest,
            "format_version": MANIFEST_VERSION,
            "content_hash": self.content_hash,
            "payload_codec": self.payload_codec,
        }
        try:
            _write_geometry_column(self.path / GEOMETRY_NAME, self.column)
            self._write_manifest(upgraded)
            (self.path / LEGACY_GEOMETRY_NAME).unlink(missing_ok=True)
        except OSError as exc:
            log.warning(
                "%s: cannot upgrade index from format version %s to %s: %s",
                self.path, manifest.get("format_version"), MANIFEST_VERSION, exc,
            )

    @classmethod
    def _rebuild_index(
        cls, index_dir: Path, source: str | Path | None, cause: StoreError
    ) -> "SpatialDataset":
        """Repair an unusable index in place (``on_error="rebuild"``).

        Prefers the source file — it is the ground truth and covers every
        corruption, including a lost geometry file; falls back to
        re-manifesting a readable ``geometries.npz`` (or the legacy
        ``geometries.wkt``). Re-raises ``cause`` when neither exists
        intact.
        """
        if source is not None and Path(source).exists():
            src = Path(source)
            dataset = cls(
                load_geometry_file(src),
                name=src.stem,
                source=src,
                source_sha256=file_sha256(src),
            )
            persistent = dataset.save(index_dir)
            _observe_rebuild("dataset_index")
            return persistent
        for name, read in (
            (GEOMETRY_NAME, _read_geometry_column),
            (LEGACY_GEOMETRY_NAME, _read_geometry_dump),
        ):
            path = index_dir / name
            if not path.exists():
                continue
            try:
                dataset = cls(read(path), name=index_dir.name)
            except (StoreError, ValueError):
                raise cause
            persistent = dataset.save(index_dir)
            _observe_rebuild("dataset_index")
            return persistent
        raise cause

    @classmethod
    def from_polygons(
        cls, polygons: Sequence[Polygon], name: str = "memory"
    ) -> "SpatialDataset":
        """An in-memory (non-persistent) dataset over ``polygons``."""
        return cls(polygons, name=name)


# ----------------------------------------------------------------------
# module-level helpers (the CLI's build-index entry points)
# ----------------------------------------------------------------------
def build_dataset(
    source: str | Path,
    index_dir: str | Path,
    *,
    grid_order: int | None = None,
    workers: int | None = 1,
    name: str | None = None,
    strict: bool = True,
    quarantine: QuarantineReport | None = None,
    payload_codec: str = DEFAULT_PAYLOAD_CODEC,
) -> SpatialDataset:
    """Build a persistent index for a ``.wkt``/``.geojson`` source file.

    With ``grid_order`` set, the APRIL payload for the dataset's *own*
    padded-extent grid is precomputed too (warm self-joins / selection);
    payloads for join-partner union grids are added lazily by the first
    cold join against each partner. ``payload_codec`` selects the
    on-disk payload layout: ``"varint"`` (default, compressed) or
    ``"raw"`` (the version-1 flat arrays older builds read).
    """
    source = Path(source)
    t0 = time.perf_counter()
    geometries = load_geometry_file(source, strict=strict, quarantine=quarantine)
    dataset = SpatialDataset(
        geometries,
        name=name or source.stem,
        source=source,
        source_sha256=file_sha256(source),
        payload_codec=payload_codec,
    )
    persistent = dataset.save(index_dir)
    if grid_order is not None:
        persistent.approximations(persistent.grid(grid_order), workers=workers)
    _observe_build("dataset", time.perf_counter() - t0)
    return persistent


def open_dataset(
    index_dir: str | Path,
    source: str | Path | None = None,
    on_error: str = "raise",
) -> SpatialDataset:
    """Open a persisted dataset index (see :meth:`SpatialDataset.open`)."""
    return SpatialDataset.open(index_dir, source=source, on_error=on_error)


__all__ = [
    "APRIL_DIR",
    "GEOMETRY_NAME",
    "LEGACY_GEOMETRY_NAME",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SpatialDataset",
    "build_dataset",
    "content_hash",
    "file_sha256",
    "grid_key",
    "load_geometry_file",
    "open_dataset",
]
