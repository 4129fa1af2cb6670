"""Tests for the warm-cache join engine (modes, LRU bounds, warm path)."""

import numpy as np
import pytest

from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box, Polygon
from repro.join.run import JoinRun
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.store import Engine, build_dataset
from repro.store.engine import _LRU
from repro.topology import TopologicalRelation as T


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(21)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 30, region, (3, 25), (8, 50))
    return districts, blobs


def _rows(run: JoinRun):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


class TestModes:
    def test_all_modes_agree(self, inputs, tmp_path):
        districts, blobs = inputs
        engine = Engine()
        serial = engine.join(districts, blobs, grid_order=9, mode="serial")
        batch = engine.join(districts, blobs, grid_order=9, mode="batch")
        parallel = engine.join(
            districts, blobs, grid_order=9, mode="parallel", workers=2
        )
        disk = engine.join(
            districts, blobs, grid_order=9, mode="disk",
            tiles_per_dim=3, workdir=tmp_path / "disk",
        )
        assert _rows(serial) == _rows(batch) == _rows(parallel)
        # Disk joins verify pairs tile-locally, so filter stages can
        # differ; links and relations must not.
        assert [(l.r_index, l.s_index, l.relation) for l in disk.results] == [
            (l.r_index, l.s_index, l.relation) for l in serial.results
        ]
        # "batch" is an alias of serial: it runs, and reports, as serial.
        assert serial.mode == "serial" and batch.mode == "serial"
        assert parallel.mode == "parallel" and disk.mode == "disk"
        assert {type(r) for r in (serial, batch, parallel, disk)} == {JoinRun}

    def test_envelope_unpacks(self, inputs):
        districts, blobs = inputs
        run = Engine().join(districts, blobs, grid_order=9)
        results, stats = run
        assert results == run.results
        assert stats is run.stats
        assert len(run) == len(run.results)
        assert run.to_dict()["links"] == len(run.results)

    def test_relate_mode(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        run = engine.join(districts, blobs, grid_order=9, predicate=T.CONTAINS)
        assert run.kind == "relate"
        matches, stats = run
        assert matches == run.matches
        find = engine.join(districts, blobs, grid_order=9)
        expected = [
            (l.r_index, l.s_index) for l in find.results if l.relation is T.CONTAINS
        ]
        assert matches == expected

    def test_auto_mode_follows_workers(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        assert engine.join(districts, blobs, grid_order=9).mode == "serial"
        assert (
            engine.join(districts, blobs, grid_order=9, workers=2).mode == "parallel"
        )

    def test_batch_with_st2_returns_serial_st2_rows(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        batch = engine.join(districts, blobs, grid_order=9, mode="batch", method="ST2")
        serial = engine.join(districts, blobs, grid_order=9, mode="serial", method="ST2")
        assert batch.mode == "serial" and batch.method == "ST2"
        assert batch.results and _rows(batch) == _rows(serial)

    def test_unknown_mode_rejected(self, inputs):
        districts, blobs = inputs
        with pytest.raises(ValueError, match="mode"):
            Engine().join(districts, blobs, grid_order=9, mode="turbo")

    def test_disk_rejects_predicate(self, inputs):
        districts, blobs = inputs
        with pytest.raises(ValueError, match="disk"):
            Engine().join(
                districts, blobs, grid_order=9, mode="disk", predicate=T.CONTAINS
            )


class TestLRU:
    def test_eviction_bounds(self):
        lru = _LRU(2, "test")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert len(lru) == 2
        assert lru.get("a") is None  # evicted, oldest first
        assert lru.get("b") == 2 and lru.get("c") == 3

    def test_access_refreshes_recency(self):
        lru = _LRU(2, "test")
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        lru.put("c", 3)  # evicts b, not the freshly used a
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_engine_object_cache_bounded(self, inputs):
        districts, _ = inputs
        engine = Engine(max_object_sets=2)
        for order in (7, 8, 9):
            d = engine.dataset(districts)
            engine.objects(d, d.grid(order))
        assert len(engine._objects) == 2


class TestContentInvalidation:
    def test_mutated_file_is_cache_miss(self, inputs, tmp_path):
        districts, _ = inputs
        path = tmp_path / "data.wkt"
        save_wkt_file(path, districts)
        engine = Engine()
        first = engine.dataset(path)
        assert engine.dataset(path) is first  # unchanged bytes: cache hit
        with path.open("a") as fh:
            fh.write("POLYGON ((900 900, 910 900, 910 910, 900 910, 900 900))\n")
        rebuilt = engine.dataset(path)
        assert rebuilt is not first
        assert len(rebuilt) == len(first) + 1
        assert rebuilt.content_hash != first.content_hash


class TestWarmPath:
    def _export(self, tmp_path, inputs):
        districts, blobs = inputs
        r_file = tmp_path / "r.wkt"
        s_file = tmp_path / "s.wkt"
        save_wkt_file(r_file, districts)
        save_wkt_file(s_file, blobs)
        build_dataset(r_file, tmp_path / "r_idx", grid_order=None)
        build_dataset(s_file, tmp_path / "s_idx", grid_order=None)
        return tmp_path / "r_idx", tmp_path / "s_idx"

    def _built_count(self):
        return sum(
            c["value"]
            for c in get_registry().to_dict()["counters"]
            if c["name"] == "repro_april_built_total"
        )

    def test_warm_join_skips_rasterisation(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        set_metrics(True)
        try:
            reset_metrics()
            cold = Engine().join(r_idx, s_idx, grid_order=9)
            assert self._built_count() > 0  # cold run rasterised

            reset_metrics()
            # Fresh engine = fresh process analogue: everything must
            # come from the persisted payloads.
            warm = Engine().join(r_idx, s_idx, grid_order=9)
            assert self._built_count() == 0
        finally:
            set_metrics(False)
        assert _rows(warm) == _rows(cold)

    def test_warm_results_identical_across_modes(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        cold = Engine().join(r_idx, s_idx, grid_order=9)
        engine = Engine()
        for mode, kwargs in (
            ("serial", {}),
            ("batch", {}),
            ("parallel", {"workers": 2}),
        ):
            warm = engine.join(r_idx, s_idx, grid_order=9, mode=mode, **kwargs)
            assert _rows(warm) == _rows(cold), mode

    def test_explain_uses_cached_objects(self, inputs, tmp_path):
        r_idx, s_idx = self._export(tmp_path, inputs)
        engine = Engine()
        run = engine.join(r_idx, s_idx, grid_order=9)
        i, j = run.results[0].r_index, run.results[0].s_index
        set_metrics(True)
        try:
            reset_metrics()
            text = engine.explain(r_idx, s_idx, i, j, grid_order=9).render()
            assert self._built_count() == 0  # served from the warm cache
        finally:
            set_metrics(False)
        assert text


class TestPayloadRebuildDeadline:
    def test_join_deadline_reaches_the_payload_build(self, inputs, tmp_path, monkeypatch):
        """A cold join's approximation build runs under the join's own
        ``partition_timeout``/``max_retries``, not the executor default."""
        import repro.parallel as parallel

        calls = []
        real = parallel.build_april_parallel

        def spy(polygons, grid, **kwargs):
            calls.append(kwargs)
            return real(polygons, grid, **kwargs)

        monkeypatch.setattr(parallel, "build_april_parallel", spy)
        for name, polygons in zip(("r", "s"), inputs):
            save_wkt_file(tmp_path / f"{name}.wkt", polygons)
            build_dataset(tmp_path / f"{name}.wkt", tmp_path / name, grid_order=None)
        Engine().join(tmp_path / "r", tmp_path / "s", grid_order=9, mode="serial",
                      partition_timeout=1.5, max_retries=2)
        assert len(calls) == 2  # one build per dataset
        for kwargs in calls:
            assert kwargs["partition_timeout"] == 1.5
            assert kwargs["max_retries"] == 2
