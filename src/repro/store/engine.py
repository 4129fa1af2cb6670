"""The warm-cache join engine: one front door for every execution mode.

Before PR 4 each way of running a join had its own entry point and its
own return shape — ``TopologyJoin`` for in-memory serial/parallel runs
and ``DiskPartitionedJoin`` for out-of-core PBSM. The :class:`Engine`
subsumes them: :meth:`Engine.join` accepts datasets in any form (index
directories, ``.wkt``/``.geojson`` files, polygon lists, or
:class:`~repro.store.dataset.SpatialDataset` objects), picks the
execution mode from one argument, and always returns the same
:class:`~repro.join.run.JoinRun` envelope. Serial and parallel runs
share one find-relation loop and one relate_p loop
(:mod:`repro.join.pipeline`); ``"batch"`` is accepted as an alias of
``"serial"`` (the frozen v1 wire schema lists it) and is mapped to it on
entry, so a batch request reports ``run.mode == "serial"``.

The engine memoises the expensive intermediates in bounded LRU caches:

- **datasets** — parsed geometry collections, keyed by resolved path +
  a content fingerprint, so a mutated source file is a cache *miss*
  (never a stale hit);
- **object sets** — ``SpatialObject`` lists per (dataset content hash,
  grid), where APRIL approximations live; backed by the dataset's
  persistent payloads, so a warm join — even in a brand-new process —
  performs zero rasterisation;
- **candidate pairs** — the plane-sweep MBR join per dataset pair.

Cache traffic is observable through the metrics registry
(``repro_store_cache_total{cache,outcome}``,
``repro_store_build_seconds{what}``), and the warm-path proof counter
``repro_april_built_total`` stays at zero for a fully warm run.

Since PR 6 the engine also owns the ``mode="auto"`` decision: a
calibrated cost model (:mod:`repro.optimizer.cost`) prices each
execution mode from the input cardinalities, a selectivity-histogram
estimate of the candidate pairs, the core count and the cache state,
and the cheapest mode runs — with the old workers-based rule as the
calibration-free fallback. Decisions are recorded in
``JoinRun.meta["cost_model"]`` and ``repro_cost_model_*``
counters/spans.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import time
from collections import OrderedDict
from pathlib import Path
from typing import Sequence

from repro.geometry.box import Box
from repro.join.mbr_join import plane_sweep_mbr_join
from repro.join.objects import SpatialObject
from repro.join.pipeline import PIPELINES
from repro.join.run import JoinResult, JoinRun
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.resources import resources_enabled, run_resources
from repro.obs.trace import add_span, trace
from repro.optimizer.cost import (
    CalibrationProfile,
    CostModel,
    Decision,
    JoinFeatures,
    fallback_decision,
    load_cost_model,
)
from repro.raster.compression import LazyAprilApproximation
from repro.raster.grid import RasterGrid, pad_dataspace
from repro.store.dataset import (
    MANIFEST_NAME,
    SpatialDataset,
    _observe_cache,
    file_sha256,
)
from repro.topology.de9im import TopologicalRelation

#: Execution modes :meth:`Engine.join` understands; ``"batch"`` is an
#: alias of ``"serial"``.
MODES = ("auto", "serial", "batch", "parallel", "disk")


class _LRU:
    """A bounded insertion/access-ordered cache with obs counters."""

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        """The cached value or None; records a hit/miss counter either way."""
        try:
            value = self._data[key]
        except KeyError:
            _observe_cache(self.name, "miss")
            return None
        self._data.move_to_end(key)
        _observe_cache(self.name, "hit")
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            _observe_cache(self.name, "evict")

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


def _resolve_mode(mode: str) -> str:
    """Validate ``mode`` and fold the ``"batch"`` alias into ``"serial"``."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; available: {list(MODES)}")
    return "serial" if mode == "batch" else mode


def _grid_identity(grid: RasterGrid) -> tuple:
    ds = grid.dataspace
    return (grid.order, ds.xmin, ds.ymin, ds.xmax, ds.ymax)


class Engine:
    """Resolves datasets, memoises their derived state, runs joins.

    Parameters bound the LRU caches; an engine with the defaults keeps
    a handful of datasets fully warm. One engine instance is not
    thread-safe; share it across sequential queries only.

    ``calibration`` wires up the cost model behind ``mode="auto"``:

    - ``None`` (default) — no model; auto falls back to the historical
      workers-based rule, bit-identically. Library construction stays
      deterministic regardless of what profiles exist on the machine.
    - ``"auto"`` — discover the machine's persisted profile (written by
      ``python -m repro calibrate``; see
      :func:`repro.optimizer.cost.default_profile_path`). Absent or
      stale profiles silently fall back. This is what
      :func:`default_engine` (and therefore the CLI) uses.
    - a path, :class:`CalibrationProfile` or :class:`CostModel` — use
      exactly that calibration (paths must load; errors propagate).
    """

    def __init__(
        self,
        *,
        max_datasets: int = 8,
        max_object_sets: int = 16,
        max_pair_sets: int = 32,
        max_payload_sets: int = 16,
        max_decoded_payload_bytes: int | None = None,
        calibration: str | Path | CalibrationProfile | CostModel | None = None,
    ) -> None:
        self._datasets = _LRU(max_datasets, "dataset")
        self._objects = _LRU(max_object_sets, "objects")
        self._pairs = _LRU(max_pair_sets, "pairs")
        self._histograms = _LRU(max_pair_sets, "histogram")
        self._payloads = _LRU(max_payload_sets, "payload")
        self.max_decoded_payload_bytes = max_decoded_payload_bytes
        self.cost_model = self._resolve_calibration(calibration)
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the engine's warm state deterministically.

        Drains every LRU (datasets, object sets, pair sets, histograms,
        decoded payloads) so their memory — decoded APRIL blobs in
        particular — is reclaimable now rather than at interpreter
        teardown, and marks the engine closed: further :meth:`join` /
        :meth:`execute` / :meth:`dataset` calls raise
        :class:`RuntimeError`. Idempotent, so shutdown paths (service
        drain, context-manager exit, the default engine's atexit hook)
        can all call it without coordinating.
        """
        if self._closed:
            return
        self.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed; create a new Engine")

    def __enter__(self) -> "Engine":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @staticmethod
    def _resolve_calibration(calibration) -> CostModel | None:
        if calibration is None:
            return None
        if isinstance(calibration, CostModel):
            return calibration
        if isinstance(calibration, CalibrationProfile):
            return CostModel(calibration)
        if calibration == "auto":
            return load_cost_model()
        return load_cost_model(calibration)

    # ------------------------------------------------------------------
    # dataset resolution
    # ------------------------------------------------------------------
    def dataset(
        self,
        source,
        *,
        on_error: str = "raise",
        strict: bool = True,
        quarantine=None,
    ) -> SpatialDataset:
        """Resolve ``source`` into a (possibly cached) dataset.

        Accepts a :class:`SpatialDataset` (returned as-is), a path to an
        index directory (must hold a ``manifest.json``), a path to a
        ``.wkt``/``.geojson`` file, or a sequence of polygons. Cache
        keys embed a content fingerprint — the manifest bytes for an
        index, the file bytes for a source file, the geometry content
        hash for in-memory inputs — so mutating the source invalidates
        the entry instead of serving stale geometry.

        ``on_error="rebuild"`` repairs an unusable index directory in
        place (see :meth:`SpatialDataset.open`); ``strict=False`` loads
        geometry files leniently, skipping malformed rows into
        ``quarantine`` (the lenient flag is part of the cache key, and a
        cache hit leaves ``quarantine`` untouched — rows are only
        quarantined when the file is actually parsed).
        """
        self._check_open()
        if isinstance(source, SpatialDataset):
            return source
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.is_dir():
                manifest = path / MANIFEST_NAME
                fingerprint = file_sha256(manifest) if manifest.exists() else "absent"
                key = ("index", str(path.resolve()), fingerprint)
                cached = self._datasets.get(key)
                if cached is None:
                    cached = SpatialDataset.open(path, on_error=on_error)
                    self._datasets.put(key, cached)
                return cached
            key = ("file", str(path.resolve()), file_sha256(path), strict)
            cached = self._datasets.get(key)
            if cached is None:
                from repro.store.dataset import load_geometry_file

                cached = SpatialDataset(
                    load_geometry_file(path, strict=strict, quarantine=quarantine),
                    name=path.stem,
                    source=path,
                    source_sha256=key[2],
                )
                self._datasets.put(key, cached)
            return cached
        dataset = SpatialDataset.from_polygons(list(source))
        key = ("mem", dataset.content_hash)
        cached = self._datasets.get(key)
        if cached is None:
            cached = dataset
            self._datasets.put(key, cached)
        return cached

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    def join_grid(
        self, r: SpatialDataset, s: SpatialDataset, grid_order: int
    ) -> RasterGrid:
        """The shared grid a join between ``r`` and ``s`` runs on: the
        padded union of both extents (identical to the historical
        ``TopologyJoin.grid``)."""
        return RasterGrid(
            pad_dataspace(Box.union_all([r.extent, s.extent])), order=grid_order
        )

    def objects(
        self,
        dataset: SpatialDataset,
        grid: RasterGrid,
        *,
        with_april: bool = True,
        workers: int | None = 1,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> list[SpatialObject]:
        """The dataset's ``SpatialObject`` list for ``grid``.

        Object lists are cached per (content hash, grid); APRIL
        approximations are attached lazily (``with_april``) and come
        from :meth:`SpatialDataset.approximations`, i.e. from the
        persistent payload when one exists — the warm path that skips
        rasterisation entirely. A build that does run is bounded by
        ``partition_timeout``/``max_retries``, like the join's fan-out.
        """
        key = (dataset.content_hash, _grid_identity(grid))
        objects = self._objects.get(key)
        if objects is None:
            objects = [
                SpatialObject(oid=oid, polygon=polygon, box=box)
                for oid, (polygon, box) in enumerate(
                    zip(dataset.geometries, dataset.boxes)
                )
            ]
            self._objects.put(key, objects)
        if with_april and objects and objects[0].april is None:
            aprils = self._approximations(
                dataset, grid, workers, partition_timeout, max_retries
            )
            for obj, approx in zip(objects, aprils):
                obj.april = approx
        return objects

    def _approximations(
        self,
        dataset: SpatialDataset,
        grid: RasterGrid,
        workers,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ):
        """The dataset's approximation list for ``grid``, LRU-cached.

        Compressed payloads carry their own bounded decoded-object
        cache, so keeping the *list* alive across object-set rebuilds
        is what lets repeated warm joins amortise decode work instead
        of re-reading and re-decoding the blob every time. The entry is
        keyed like the object set (content hash + grid identity); a
        mutated dataset therefore misses and reloads.
        """
        key = (dataset.content_hash, _grid_identity(grid))
        aprils = self._payloads.get(key)
        if aprils is None:
            aprils = dataset.approximations(
                grid,
                workers=workers,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
            if (
                self.max_decoded_payload_bytes is not None
                and aprils
                and isinstance(aprils[0], LazyAprilApproximation)
            ):
                aprils[0].payload.max_decoded_bytes = self.max_decoded_payload_bytes
            self._payloads.put(key, aprils)
        return aprils

    def pairs(self, r: SpatialDataset, s: SpatialDataset) -> list[tuple[int, int]]:
        """The MBR filter step for the dataset pair, cached and sorted."""
        key = (r.content_hash, s.content_hash)
        pairs = self._pairs.get(key)
        if pairs is None:
            with trace("mbr_filter_step") as span:
                pairs = plane_sweep_mbr_join(r.boxes, s.boxes)
                pairs.sort()
                if span is not None:
                    span.attrs["pairs"] = len(pairs)
            self._pairs.put(key, pairs)
        return pairs

    def warm(self, r, s, *, grid_order: int = 11, workers: int | None = 1) -> dict:
        """Pre-load everything a join between ``r`` and ``s`` touches.

        Resolves both datasets, attaches their APRIL approximations for
        the shared grid, and runs the MBR filter — filling the same
        LRUs :meth:`join` would, without executing the join. The
        serving layer calls this before forking its worker pool so
        every worker inherits warm caches copy-on-write instead of
        warming ``N`` times; returns a small summary for logs.
        """
        self._check_open()
        rd = self.dataset(r)
        sd = self.dataset(s)
        grid = self.join_grid(rd, sd, grid_order)
        self.objects(rd, grid, workers=workers)
        self.objects(sd, grid, workers=workers)
        pairs = self.pairs(rd, sd)
        return {
            "r": rd.name,
            "s": sd.name,
            "grid_order": grid_order,
            "r_count": len(rd),
            "s_count": len(sd),
            "pairs": len(pairs),
        }

    def clear(self) -> None:
        """Drop every cached dataset, object set, pair set, histogram."""
        self._datasets.clear()
        self._objects.clear()
        self._pairs.clear()
        self._histograms.clear()
        self._payloads.clear()

    # ------------------------------------------------------------------
    # cost-model support
    # ------------------------------------------------------------------
    def _histogram(self, dataset: SpatialDataset, extent: Box):
        """The dataset's selectivity histogram on ``extent``, cached."""
        from repro.optimizer.selectivity import SpatialHistogram

        key = (dataset.content_hash, extent.xmin, extent.ymin, extent.xmax, extent.ymax)
        hist = self._histograms.get(key)
        if hist is None:
            hist = SpatialHistogram.build(dataset.boxes, extent=extent)
            self._histograms.put(key, hist)
        return hist

    def estimate_pairs(self, r: SpatialDataset, s: SpatialDataset) -> float:
        """Estimated candidate-pair cardinality of the MBR join, from
        the selectivity histograms — without touching the data. When
        the exact pair set is already cached (a warm repeat of the same
        join), its length is returned instead."""
        from repro.optimizer.selectivity import estimate_join_candidates

        cached = self._pairs._data.get((r.content_hash, s.content_hash))
        if cached is not None:
            return float(len(cached))
        extent = pad_dataspace(Box.union_all([r.extent, s.extent]))
        return estimate_join_candidates(
            self._histogram(r, extent), self._histogram(s, extent)
        )

    def _april_warm(self, dataset: SpatialDataset, grid: RasterGrid) -> bool:
        """Whether approximations for ``grid`` are already available —
        attached to a cached object set or persisted in the index —
        i.e. whether a join on this grid skips rasterisation."""
        objects = self._objects._data.get((dataset.content_hash, _grid_identity(grid)))
        if objects and objects[0].april is not None:
            return True
        payload = dataset.approximation_path(grid)
        return payload is not None and payload.exists()

    def _decide_auto(
        self,
        features: JoinFeatures,
        candidates: Sequence[str],
    ) -> Decision:
        """Resolve ``mode="auto"`` into a concrete mode.

        With a cost model, the cheapest predicted candidate wins; the
        decision (and the full prediction table) is recorded as a span
        and in ``repro_cost_model_*`` counters. Without one, the
        historical workers-based rule applies — on *resolved* workers,
        so ``workers=None`` on a 1-CPU machine lands on serial.
        """
        t0 = time.perf_counter()
        if self.cost_model is not None:
            decision = self.cost_model.decide(features, candidates)
        else:
            decision = fallback_decision(features.workers)
        self._decide_seconds = time.perf_counter() - t0
        if metrics_enabled():
            registry = get_registry()
            registry.inc(
                "repro_cost_model_decisions_total",
                mode=decision.mode,
                source=decision.source,
            )
            for mode, seconds in decision.predicted.items():
                registry.observe(
                    "repro_cost_model_predicted_seconds", seconds, mode=mode
                )
        return decision

    def _attach_resources(self, run: JoinRun) -> None:
        """Stamp the resource summary onto the run envelope when the
        accounting is enabled; a no-op (one flag check) otherwise."""
        if resources_enabled():
            summary = run_resources(
                get_registry() if metrics_enabled() else None
            )
            if summary is not None:
                run.meta["resources"] = summary

    def _observe_auto(self, decision: Decision, run: JoinRun) -> None:
        """Fold an auto-decided run's wall time back into the model and
        attach the decision to the run envelope."""
        run.meta["cost_model"] = decision.to_meta()
        # Emitted after the run so the join's own span tree stays the
        # first exported root (the shape trace consumers pin on).
        features = decision.features
        add_span(
            "cost_model_decision",
            getattr(self, "_decide_seconds", 0.0),
            decision=decision.mode,
            source=decision.source,
            pairs=round(features.pairs, 1) if features is not None else None,
            workers=features.workers if features is not None else None,
        )
        if (
            self.cost_model is not None
            and decision.source == "calibration"
            and decision.features is not None
        ):
            self.cost_model.observe_run(run.mode, decision.features, run.wall_seconds)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def join(
        self,
        r,
        s,
        *,
        method: str = "P+C",
        grid_order: int = 11,
        mode: str = "auto",
        predicate: TopologicalRelation | None = None,
        workers: int | None = 1,
        include_disjoint: bool = False,
        chunk_size: int | None = None,
        partition: str = "chunks",
        tiles_per_dim: int | None = None,
        workdir: str | Path | None = None,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
        on_index_error: str = "raise",
        strict: bool = True,
    ) -> JoinRun:
        """Join ``r`` with ``s`` and return one :class:`JoinRun`,
        whatever the execution mode.

        ``mode="auto"`` consults the engine's cost model (see the class
        docstring's ``calibration`` parameter): input cardinalities, a
        selectivity-histogram estimate of the candidate-pair count, the
        machine's core count and the cache state (warm payloads vs cold
        rasterisation) price out serial vs parallel (vs disk, above the
        profile's pair threshold), and the cheapest predicted mode runs.
        The decision, its source and the full prediction table land in
        ``run.meta["cost_model"]`` and in ``repro_cost_model_*``
        counters/spans. Engines without calibration fall back to the
        historical rule — parallel iff the *resolved* worker count
        exceeds one (``workers=None`` resolves through
        ``default_workers()`` first, so a 1-CPU machine runs serial).

        ``"batch"`` is an alias of ``"serial"``; ``"disk"`` runs the
        out-of-core PBSM join (``workdir`` holds the partition files; a
        temporary directory when omitted). ``predicate`` switches from
        find-relation to a relate_p join.

        Fault-tolerance knobs: ``partition_timeout``/``max_retries``
        bound the supervised parallel fan-out (see
        :mod:`repro.resilience.supervisor`); ``on_index_error="rebuild"``
        repairs unusable index directories instead of raising;
        ``strict=False`` quarantines malformed source-file rows instead
        of aborting (the skipped rows land in
        ``run.meta["quarantine"]``).
        """
        self._check_open()
        if method not in PIPELINES:
            raise KeyError(f"unknown method {method!r}; available: {list(PIPELINES)}")
        mode = _resolve_mode(mode)
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from repro.resilience.quarantine import QuarantineReport

        r_quarantine = QuarantineReport()
        s_quarantine = QuarantineReport()
        rd = self.dataset(
            r, on_error=on_index_error, strict=strict, quarantine=r_quarantine
        )
        sd = self.dataset(
            s, on_error=on_index_error, strict=strict, quarantine=s_quarantine
        )
        decision: Decision | None = None
        if mode == "auto":
            from repro.parallel.executor import resolve_workers

            effective = resolve_workers(workers)
            needs_april = predicate is not None or PIPELINES[method].uses_april
            grid = self.join_grid(rd, sd, grid_order)
            features = JoinFeatures(
                r_count=len(rd),
                s_count=len(sd),
                pairs=self.estimate_pairs(rd, sd),
                workers=effective,
                cpu_count=os.cpu_count() or 1,
                warm=self._april_warm(rd, grid) and self._april_warm(sd, grid),
                needs_april=needs_april,
            )
            # Auto arbitrates serial vs parallel (serial first, so
            # calibration ties keep the historical pick); disk joins the
            # race only above the profile's pair threshold.
            candidates = ["serial", "parallel"]
            if predicate is None:
                candidates.append("disk")
            decision = self._decide_auto(features, candidates)
            mode = decision.mode
            workers = effective
        if mode == "disk":
            if predicate is not None:
                raise ValueError("disk mode does not support relate_p predicates")
            run = self._disk_join(
                rd,
                sd,
                method=method,
                grid_order=grid_order,
                tiles_per_dim=tiles_per_dim or 4,
                include_disjoint=include_disjoint,
                workdir=workdir,
            )
            if decision is not None:
                self._observe_auto(decision, run)
            self._attach_resources(run)
            return run
        with trace("topology_join", method=method, mode=mode):
            grid = self.join_grid(rd, sd, grid_order)
            needs_april = predicate is not None or PIPELINES[method].uses_april
            r_objects, s_objects = (
                self.objects(
                    dataset,
                    grid,
                    with_april=needs_april,
                    workers=workers,
                    partition_timeout=partition_timeout,
                    max_retries=max_retries,
                )
                for dataset in (rd, sd)
            )
            pairs = self.pairs(rd, sd)
            run = self.execute(
                method,
                r_objects,
                s_objects,
                pairs,
                mode=mode,
                predicate=predicate,
                workers=workers,
                include_disjoint=include_disjoint,
                chunk_size=chunk_size,
                partition=partition,
                tiles_per_dim=tiles_per_dim,
                partition_timeout=partition_timeout,
                max_retries=max_retries,
            )
        if decision is not None:
            self._observe_auto(decision, run)
        run.meta.update(
            r=rd.name, s=sd.name, r_count=len(rd), s_count=len(sd), grid_order=grid_order
        )
        quarantined = [q.to_dict() for q in (r_quarantine, s_quarantine) if q]
        if quarantined:
            run.meta["quarantine"] = quarantined
        return run

    def execute(
        self,
        method: str,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
        *,
        mode: str = "auto",
        predicate: TopologicalRelation | None = None,
        workers: int | None = 1,
        include_disjoint: bool = False,
        chunk_size: int | None = None,
        partition: str = "chunks",
        tiles_per_dim: int | None = None,
        partition_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> JoinRun:
        """Run one verification pass over prepared objects and pairs.

        The lower-level sibling of :meth:`join` for callers that manage
        their own objects (``TopologyJoin`` delegates here). Implements
        the in-memory modes only: ``"disk"`` (which re-partitions whole
        datasets on disk) and unknown modes raise :class:`ValueError`
        instead of silently running something else. ``mode="auto"``
        decides exactly like :meth:`join` — cost model when the engine
        has one (with the *exact* pair count as the cardinality
        feature), resolved-workers rule otherwise.
        """
        from repro.parallel import run_find_relation_parallel, run_relate_parallel
        from repro.parallel.executor import resolve_workers

        self._check_open()
        mode = _resolve_mode(mode)
        if mode == "disk":
            raise ValueError(
                "execute() runs in-memory modes only; disk joins re-partition "
                "whole datasets on disk — use Engine.join(..., mode='disk')"
            )
        decision: Decision | None = None
        if mode == "auto":
            effective = resolve_workers(workers)
            features = JoinFeatures(
                r_count=len(r_objects),
                s_count=len(s_objects),
                pairs=float(len(pairs)),
                workers=effective,
                cpu_count=os.cpu_count() or 1,
                warm=True,  # objects arrive prepared; nothing left to rasterise
                needs_april=predicate is not None or PIPELINES[method].uses_april,
            )
            decision = self._decide_auto(features, ["serial", "parallel"])
            mode = decision.mode
            workers = effective
        opts = dict(
            workers=1 if mode == "serial" else workers,
            chunk_size=chunk_size,
            partition=partition,
            tiles_per_dim=tiles_per_dim,
            partition_timeout=partition_timeout,
            max_retries=max_retries,
        )
        if predicate is None:
            found = run_find_relation_parallel(
                method, r_objects, s_objects, pairs, **opts
            )
            run = JoinRun(
                results=[
                    JoinResult(i, j, relation, filtered)
                    for i, j, relation, filtered in found.results
                    if include_disjoint or relation is not TopologicalRelation.DISJOINT
                ],
                stats=found.stats,
                method=method,
                mode=mode,
                wall_seconds=found.wall_seconds,
                workers=found.workers,
                partitions=found.partitions,
            )
        else:
            related = run_relate_parallel(predicate, r_objects, s_objects, pairs, **opts)
            run = JoinRun(
                results=[JoinResult(i, j, predicate, None) for i, j in related.matches],
                stats=related.stats,
                method=related.stats.method,
                mode=mode,
                kind="relate",
                predicate=predicate,
                wall_seconds=related.wall_seconds,
                workers=related.workers,
                partitions=related.partitions,
            )
        if decision is not None:
            self._observe_auto(decision, run)
        self._attach_resources(run)
        return run

    def _disk_join(
        self,
        rd: SpatialDataset,
        sd: SpatialDataset,
        *,
        method: str,
        grid_order: int,
        tiles_per_dim: int,
        include_disjoint: bool,
        workdir: str | Path | None,
    ) -> JoinRun:
        from repro.join.diskjoin import DiskPartitionedJoin

        # The unpadded union extent: DiskPartitionedJoin pads it itself,
        # so tiles share exactly the grid join_grid() would produce.
        extent = Box.union_all([rd.extent, sd.extent])

        def _run(directory: str | Path) -> JoinRun:
            disk = DiskPartitionedJoin(
                directory,
                tiles_per_dim=tiles_per_dim,
                grid_order=grid_order,
                method=method,
            )
            disk.partition("r", rd.geometries, extent)
            disk.partition("s", sd.geometries, extent)
            return disk.run(include_disjoint=include_disjoint)

        if workdir is not None:
            run = _run(workdir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-diskjoin-") as tmp:
                run = _run(tmp)
            run.meta["workdir"] = None  # partitions were temporary
        run.meta.update(r=rd.name, s=sd.name, r_count=len(rd), s_count=len(sd))
        return run

    def explain(self, r, s, i: int, j: int, *, grid_order: int = 11):
        """The P+C filter narration for one pair of the two datasets
        (see :func:`repro.join.explain.explain_pair`). Uses the cached
        object sets, so explaining pairs of an indexed dataset does not
        re-rasterise."""
        from repro.join.explain import explain_pair

        rd = self.dataset(r)
        sd = self.dataset(s)
        if not (0 <= i < len(rd)):
            raise IndexError(f"r index {i} out of range for {len(rd)} geometries")
        if not (0 <= j < len(sd)):
            raise IndexError(f"s index {j} out of range for {len(sd)} geometries")
        grid = self.join_grid(rd, sd, grid_order)
        r_objects = self.objects(rd, grid)
        s_objects = self.objects(sd, grid)
        return explain_pair(r_objects[i], s_objects[j])


# ----------------------------------------------------------------------
# the process-default engine
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine the CLI and convenience APIs share.

    Unlike a bare ``Engine()``, the default engine discovers the
    machine's persisted calibration profile (``python -m repro
    calibrate``), so CLI ``--mode auto`` joins are cost-model-driven
    wherever a profile exists — and fall back to the workers rule
    where none does.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine(calibration="auto")
        atexit.register(_close_default_engine)
    return _DEFAULT_ENGINE


def _close_default_engine() -> None:
    """The default engine's atexit hook: deterministic teardown of the
    warm caches at interpreter exit (idempotent; a replaced or reset
    default is simply absent)."""
    if _DEFAULT_ENGINE is not None:
        _DEFAULT_ENGINE.close()


def set_default_engine(engine: Engine | None) -> Engine | None:
    """Replace the process-default engine; returns the previous one.
    Pass ``None`` to reset (a fresh engine is created on next use)."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous


__all__ = ["Engine", "MODES", "default_engine", "set_default_engine"]
