"""Tests for the persistent dataset store (manifest, payloads, staleness)."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.raster.grid import RasterGrid
from repro.store import (
    MANIFEST_VERSION,
    SpatialDataset,
    StoreError,
    build_dataset,
    content_hash,
    open_dataset,
)


@pytest.fixture(scope="module")
def polygons():
    rng = np.random.default_rng(99)
    region = Box(0, 0, 200, 200)
    return generate_tessellation(rng, region, 3, 3, edge_points=6) + list(
        generate_blobs(rng, 10, region, (4, 20), (8, 30))
    )


@pytest.fixture()
def source_file(tmp_path, polygons):
    path = tmp_path / "data.wkt"
    save_wkt_file(path, polygons)
    return path


class TestManifestRoundTrip:
    def test_build_then_open(self, source_file, tmp_path, polygons):
        index = tmp_path / "idx"
        built = build_dataset(source_file, index, grid_order=None)
        opened = open_dataset(index)
        assert len(opened) == len(polygons)
        assert opened.content_hash == built.content_hash
        assert opened.extent == built.extent
        manifest = json.loads((index / "manifest.json").read_text())
        assert manifest["format_version"] == MANIFEST_VERSION
        assert manifest["count"] == len(polygons)
        # The hash covers the *file's* geometries (save_wkt_file may
        # round coordinates), and survives the index round trip.
        assert manifest["content_hash"] == content_hash(built.geometries)
        assert manifest["content_hash"] == content_hash(opened.geometries)
        assert manifest["source_sha256"]

    def test_precomputed_payload_registered(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=9)
        manifest = json.loads((index / "manifest.json").read_text())
        (entry,) = manifest["approximations"]
        assert entry["grid_order"] == 9
        assert (index / entry["file"]).exists()

    def test_open_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError, match="manifest"):
            open_dataset(tmp_path / "empty")

    def test_open_unknown_format_version(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        manifest_path = index / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version"):
            open_dataset(index)

    def test_index_holds_column_not_wkt(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        assert (index / "geometries.npz").exists()
        assert not (index / "geometries.wkt").exists()

    def test_tampered_geometries_detected(self, source_file, tmp_path):
        """A coordinate changed behind a consistent CRC fails the hash."""
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        _tamper_coordinate(index / "geometries.npz", fix_crc=True)
        with pytest.raises(StoreError, match="content hash"):
            open_dataset(index)

    def test_tampered_coordinate_fails_checksum(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        _tamper_coordinate(index / "geometries.npz", fix_crc=False)
        with pytest.raises(StoreError, match="checksum"):
            open_dataset(index)

    def test_truncated_column_raises(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        column = index / "geometries.npz"
        column.write_bytes(column.read_bytes()[: column.stat().st_size // 2])
        with pytest.raises(StoreError, match="corrupt geometry column"):
            open_dataset(index)

    def test_rebuild_recovers_tampered_column_from_source(
        self, source_file, tmp_path, polygons
    ):
        index = tmp_path / "idx"
        built = build_dataset(source_file, index, grid_order=None)
        _tamper_coordinate(index / "geometries.npz", fix_crc=True)
        repaired = open_dataset(index, source=source_file, on_error="rebuild")
        assert repaired.content_hash == built.content_hash
        assert open_dataset(index).content_hash == built.content_hash


def _tamper_coordinate(path, fix_crc: bool) -> None:
    """Shift one stored coordinate; optionally re-seal the CRC-32 so
    only the manifest's content hash can notice."""
    import zlib

    from repro.geometry.column import GeometryColumn

    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    members["coords"] = members["coords"].copy()
    members["coords"][0, 0] += 1.0
    if fix_crc:
        column = GeometryColumn(*(members[k] for k in (
            "coords", "ring_offsets", "part_offsets", "geom_offsets", "kinds")))
        crc = 0
        for chunk in column.canonical_chunks():
            crc = zlib.crc32(chunk, crc)
        members["crc32"] = np.uint32(crc)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestSourceStaleness:
    def test_mutated_source_rejected(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        with source_file.open("a") as fh:
            fh.write("POLYGON ((500 500, 510 500, 510 510, 500 510, 500 500))\n")
        with pytest.raises(StoreError, match="stale"):
            open_dataset(index, source=source_file)

    def test_unchanged_source_accepted(self, source_file, tmp_path):
        index = tmp_path / "idx"
        build_dataset(source_file, index, grid_order=None)
        assert len(open_dataset(index, source=source_file)) > 0


class TestApproximations:
    def test_payload_written_then_loaded(self, polygons, tmp_path):
        dataset = SpatialDataset.from_polygons(polygons).save(tmp_path / "idx")
        grid = dataset.grid(8)
        first = dataset.approximations(grid)
        assert dataset.approximation_path(grid).exists()
        # A fresh handle (new process analogue) loads, not rebuilds.
        reloaded = open_dataset(tmp_path / "idx")
        second = reloaded.approximations(grid)
        assert len(second) == len(first)
        for a, b in zip(first, second):
            assert a.p == b.p and a.c == b.c

    def test_memory_dataset_has_no_payload(self, polygons):
        dataset = SpatialDataset.from_polygons(polygons)
        assert dataset.approximation_path(dataset.grid(8)) is None
        assert len(dataset.approximations(dataset.grid(8))) == len(polygons)

    def test_foreign_grid_payload_rebuilt(self, polygons, tmp_path):
        dataset = SpatialDataset.from_polygons(polygons).save(tmp_path / "idx")
        grid = dataset.grid(8)
        dataset.approximations(grid)
        # A payload for a different grid lives under a different key:
        # both coexist, neither is misread for the other.
        other = RasterGrid(Box(-10, -10, 500, 500), order=8)
        dataset.approximations(other)
        assert dataset.approximation_path(grid) != dataset.approximation_path(other)
        back = dataset.approximations(other)
        assert back[0].grid.compatible_with(other)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            SpatialDataset([])

    def test_content_hash_stable_across_save(self, polygons, tmp_path):
        dataset = SpatialDataset.from_polygons(polygons)
        persisted = dataset.save(tmp_path / "idx")
        assert open_dataset(tmp_path / "idx").content_hash == dataset.content_hash
        assert persisted.content_hash == dataset.content_hash

    def test_content_hash_distinguishes(self, polygons):
        a = content_hash(polygons)
        b = content_hash(polygons[:-1])
        c = content_hash(polygons[:-1] + [Polygon.box(0, 0, 1, 1)])
        assert len({a, b, c}) == 3


FIXTURE_V2 = Path(__file__).parent / "fixtures" / "index_v2"


class TestLegacyUpgrade:
    """Indexes written in format version 2 (a ``geometries.wkt`` dump
    hashed as text) open, verify and upgrade in place."""

    @pytest.fixture()
    def v2(self, tmp_path):
        work = tmp_path / "v2"
        shutil.copytree(FIXTURE_V2, work)
        return work

    @staticmethod
    def _payloads(index):
        return {p.name: p.read_bytes() for p in (index / "april").glob("*.npz")}

    def test_fixture_is_version_2(self, v2):
        for name in ("r_idx", "s_idx"):
            assert json.loads((v2 / name / "manifest.json").read_text())["format_version"] == 2
            assert (v2 / name / "geometries.wkt").exists()
            assert not (v2 / name / "geometries.npz").exists()

    def test_opens_upgrades_and_joins_identically(self, v2, capsys):
        payloads = {name: self._payloads(v2 / name) for name in ("r_idx", "s_idx")}
        expected = (v2 / "join.out").read_text()
        argv = ["join", str(v2 / "r_idx"), str(v2 / "s_idx"), "--index", "--grid-order", "8"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        for name in ("r_idx", "s_idx"):
            index = v2 / name
            manifest = json.loads((index / "manifest.json").read_text())
            assert manifest["format_version"] == MANIFEST_VERSION == 3
            assert manifest["payload_codec"] == "varint"
            assert (index / "geometries.npz").exists()
            assert not (index / "geometries.wkt").exists()
            assert open_dataset(index).content_hash == manifest["content_hash"]
            # The payloads were loaded as they were, not rebuilt.
            assert self._payloads(index) == payloads[name]
        # The upgraded index opens from the column and joins the same.
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("method", ["ST2", "OP2", "APRIL", "P+C"])
    def test_index_and_file_joins_print_identical_rows(self, v2, method, capsys):
        expected = (v2 / "join.out").read_text()
        common = ["--grid-order", "8", "--method", method]
        assert main(["join", str(v2 / "r.geojson"), str(v2 / "s.wkt"), *common]) == 0
        assert capsys.readouterr().out == expected
        assert main(["join", str(v2 / "r_idx"), str(v2 / "s_idx"), "--index", *common]) == 0
        assert capsys.readouterr().out == expected

    def test_multipolygons_keep_their_type(self, v2):
        kinds = [type(g).__name__ for g in open_dataset(v2 / "r_idx").geometries]
        assert kinds.count("MultiPolygon") == 2
        assert [len(g) for g in open_dataset(v2 / "r_idx").geometries[-2:]] == [2, 1]

    def test_read_only_directory_opens_without_upgrade(self, v2, monkeypatch):
        import repro.store.dataset as dataset_module

        def refuse(path, data):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(dataset_module, "atomic_write_bytes", refuse)
        before = {p.name: p.read_bytes() for p in (v2 / "r_idx").iterdir() if p.is_file()}
        dataset = open_dataset(v2 / "r_idx")
        assert len(dataset) == 12
        after = {p.name: p.read_bytes() for p in (v2 / "r_idx").iterdir() if p.is_file()}
        assert after == before  # still a complete version-2 index

    def test_tampered_wkt_dump_detected(self, v2):
        dump = v2 / "r_idx" / "geometries.wkt"
        lines = dump.read_text().splitlines()
        lines[0] = "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"
        dump.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="content hash"):
            open_dataset(v2 / "r_idx")
        assert not (v2 / "r_idx" / "geometries.npz").exists()
