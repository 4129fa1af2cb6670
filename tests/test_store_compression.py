"""Backward compatibility and repair for compressed payload storage.

PR 7 makes the delta+varint blob the store's default payload layout
(format version 2) while every pre-existing index keeps its version-1
raw arrays on disk. These tests pin the compatibility contract:

- a ``payload_codec=raw`` index written by the new code is the exact
  version-1 layout, opens in a *fresh process*, and warm-joins with
  byte-identical stdout and ``repro_april_built_total == 0``;
- v1 manifests (no ``payload_codec`` field) open as ``raw`` so an old
  build reading the same directory later still understands every
  payload the new build writes into it;
- a corrupted compressed blob is detected (checksum/decompress error)
  and repaired by the PR 5 ``on_error="rebuild"`` path;
- the engine's payload LRU and the payload's bounded decoded cache
  keep warm joins cheap without unbounded memory.
"""

import hashlib
import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_scenario
from repro.datasets.io import save_wkt_file
from repro.geometry import dumps_wkt
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.raster.compression import CompressedAprilPayload
from repro.raster.storage import StoreError, load_approximations, payload_codec
from repro.store import Engine, build_dataset, open_dataset

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def wkt_files(tmp_path_factory):
    data = load_scenario("OLE-OPE", scale=0.3, grid_order=10)
    base = tmp_path_factory.mktemp("store_compress")
    r_file, s_file = base / "r.wkt", base / "s.wkt"
    save_wkt_file(r_file, [o.polygon for o in data.r_objects])
    save_wkt_file(s_file, [o.polygon for o in data.s_objects])
    return r_file, s_file


@pytest.fixture
def metrics():
    set_metrics(True)
    reset_metrics()
    yield
    set_metrics(False)
    reset_metrics()


def counter(name_with_labels):
    return get_registry().counter_values().get(name_with_labels, 0)


def _build_pair(base, r_file, s_file, codec):
    build_dataset(r_file, base / "r_idx", grid_order=None, payload_codec=codec)
    build_dataset(s_file, base / "s_idx", grid_order=None, payload_codec=codec)
    # The cold join persists the shared-grid payloads into both dirs.
    Engine().join(base / "r_idx", base / "s_idx", grid_order=10)
    return base / "r_idx", base / "s_idx"


def _fresh_process_join(r_idx, s_idx, metrics_out=None):
    cmd = [
        sys.executable, "-m", "repro", "join",
        str(r_idx), str(s_idx), "--index", "--grid-order", "10",
    ]
    if metrics_out is not None:
        cmd += ["--metrics-out", str(metrics_out)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": REPO_SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestRawBackwardCompat:
    def test_raw_payload_is_version1_layout(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        r_idx, _ = _build_pair(tmp_path, r_file, s_file, "raw")
        payloads = sorted((r_idx / "april").glob("*.npz"))
        assert payloads
        for f in payloads:
            assert payload_codec(f) == "raw"
            with np.load(f) as data:
                assert int(data["version"]) == 1
                # the exact pre-PR-7 member set — nothing extra
                assert set(data.files) == {
                    "version", "grid_order", "dataspace",
                    "p_offsets", "p_starts", "p_ends",
                    "c_offsets", "c_starts", "c_ends",
                }

    def test_fresh_process_warm_join_identical_and_warm(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        raw_r, raw_s = _build_pair(tmp_path / "raw", r_file, s_file, "raw")
        var_r, var_s = _build_pair(tmp_path / "var", r_file, s_file, "varint")

        raw_metrics = tmp_path / "raw_metrics.json"
        var_metrics = tmp_path / "var_metrics.json"
        raw_out = _fresh_process_join(raw_r, raw_s, raw_metrics)
        var_out = _fresh_process_join(var_r, var_s, var_metrics)
        assert raw_out == var_out
        assert raw_out.strip()

        for path, codec in ((raw_metrics, "raw"), (var_metrics, "varint")):
            counters = {
                (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                for c in json.loads(path.read_text())["counters"]
            }
            built = sum(v for (n, _), v in counters.items()
                        if n == "repro_april_built_total")
            assert built == 0, f"{codec} warm join rebuilt approximations"
            stored = sum(v for (n, labels), v in counters.items()
                         if n == "repro_payload_stored_bytes_total"
                         and ("codec", codec) in labels)
            assert stored > 0, f"{codec} stored-bytes counter missing"

    def test_v1_manifest_defaults_to_raw(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        build_dataset(r_file, tmp_path / "idx", grid_order=10)
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 3
        assert manifest["payload_codec"] == "varint"

        # Rewrite as a pre-PR-7 index: version-1 manifest with no codec
        # field and no payload catalog entries, geometry as the WKT dump
        # (17 significant digits) and the content hash over that text.
        geometries = open_dataset(tmp_path / "idx").geometries
        dump = "".join(dumps_wkt(g, precision=17) + "\n" for g in geometries)
        (tmp_path / "idx" / "geometries.wkt").write_text(dump)
        (tmp_path / "idx" / "geometries.npz").unlink()
        manifest["format_version"] = 1
        manifest["content_hash"] = hashlib.sha256(dump.encode()).hexdigest()
        del manifest["payload_codec"]
        manifest["approximations"] = []
        manifest_path.write_text(json.dumps(manifest))
        for f in (tmp_path / "idx" / "april").glob("*.npz"):
            f.unlink()

        dataset = open_dataset(tmp_path / "idx")
        assert dataset.payload_codec == "raw"
        # Opening upgraded the index to version 3 and kept it raw.
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == 3
        assert manifest["payload_codec"] == "raw"
        assert not (tmp_path / "idx" / "geometries.wkt").exists()
        assert open_dataset(tmp_path / "idx").payload_codec == "raw"
        grid = dataset.grid(10)
        dataset.approximations(grid)
        payloads = list((tmp_path / "idx" / "april").glob("*.npz"))
        assert payloads
        # New payloads written into a former v1 index stay in the v1
        # payload layout.
        assert all(payload_codec(f) == "raw" for f in payloads)


class TestCorruptionRepair:
    def _corrupt_blob(self, path: Path) -> None:
        """Flip bytes inside the compressed stream, keeping the stored
        CRC — the payload's own checksum must catch it."""
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        blob = bytearray(lzma.decompress(members["blob"].tobytes()))
        blob[len(blob) // 2] ^= 0xFF
        members["blob"] = np.frombuffer(
            lzma.compress(bytes(blob), preset=6), dtype=np.uint8
        )
        buffer_path = path.with_suffix(".tmp")
        with open(buffer_path, "wb") as fh:
            np.savez(fh, **members)
        buffer_path.replace(path)

    def test_corrupt_blob_raises_checksum_error(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        payload_file = next((tmp_path / "idx" / "april").glob("*.npz"))
        self._corrupt_blob(payload_file)
        with pytest.raises(StoreError, match="checksum"):
            load_approximations(payload_file)

    def test_corrupt_blob_rebuilt_with_counter(self, tmp_path, wkt_files, metrics):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        grid = dataset.grid(10)
        before = dataset.approximations(grid)
        payload_file = next((tmp_path / "idx" / "april").glob("*.npz"))
        self._corrupt_blob(payload_file)

        fresh = open_dataset(tmp_path / "idx")
        repaired = fresh.approximations(grid)  # detects + rebuilds
        assert len(repaired) == len(before)
        for a, b in zip(repaired, before):
            assert a.p == b.p
            assert a.c == b.c
        assert counter('repro_resilience_rebuild_total{artifact="april_payload"}') >= 1
        # The rewritten payload is valid varint again.
        assert payload_codec(payload_file) == "varint"
        assert load_approximations(payload_file) is not None


class TestEngineCaches:
    def test_payload_lru_survives_object_set_rebuild(self, tmp_path, wkt_files, metrics):
        r_file, s_file = wkt_files
        r_idx, s_idx = _build_pair(tmp_path, r_file, s_file, "varint")
        engine = Engine()
        first = engine.join(r_idx, s_idx, grid_order=10)
        hits_before = counter(
            'repro_store_cache_total{cache="payload",outcome="hit"}'
        )
        # Evicting the object sets is the case the payload LRU exists
        # for: the rebuilt objects reattach the cached (already decoded)
        # approximation lists instead of re-reading the blobs.
        engine._objects.clear()
        second = engine.join(r_idx, s_idx, grid_order=10)
        hits_after = counter(
            'repro_store_cache_total{cache="payload",outcome="hit"}'
        )
        assert hits_after > hits_before
        rows = lambda run: [
            (l.r_index, l.s_index, l.relation, l.filtered) for l in run.results
        ]
        assert rows(first) == rows(second)

    def test_decoded_cache_bound_is_enforced(self, tmp_path, wkt_files):
        r_file, _ = wkt_files
        dataset = build_dataset(r_file, tmp_path / "idx", grid_order=10)
        aprils = dataset.approximations(dataset.grid(10))
        payload = aprils[0].payload
        # Re-load with a bound smaller than the full plain form.
        bound = payload.plain_nbytes // 4
        small = CompressedAprilPayload.from_blob(
            payload.grid, payload.blob, payload.offsets, max_decoded_bytes=bound
        )
        small.decode_block(range(len(small)))
        assert small._decoded_nbytes <= bound or len(small._decoded) == 1
        assert len(small._decoded) < len(small)

    def test_engine_override_reaches_payload(self, tmp_path, wkt_files):
        r_file, s_file = wkt_files
        r_idx, s_idx = _build_pair(tmp_path, r_file, s_file, "varint")
        engine = Engine(max_decoded_payload_bytes=4096)
        engine.join(r_idx, s_idx, grid_order=10)
        cached = [v for v in engine._payloads._data.values()]
        assert cached
        for aprils in cached:
            assert aprils[0].payload.max_decoded_bytes == 4096
