"""Span recording around the program's public layer entry points.

Runs inside a program process (the traced CLI launcher,
:mod:`perfbench.cli_child`). :func:`install` swaps each public layer entry point
for a wrapper that records a span — name, start, end, parent,
operation id — into a :class:`Recorder`. Nothing in the
program changes; the wrappers sit where its modules look the functions
up. Spans stay in memory until :meth:`Recorder.dump`.

Only the recording process's main thread records: forked workers
inherit the wrappers but run them as plain pass-throughs, so their
time shows up as the parent's wait inside the enclosing span.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from pathlib import Path
from time import perf_counter


class Recorder:
    """In-memory spans and per-operation counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict = {}
        self.runs: list[dict] = []
        self.op = 0
        self.enabled = True
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    def _recording(self) -> bool:
        return (self.enabled and os.getpid() == self._pid
                and threading.get_ident() == self._tid)

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "op": self.op, "start": start, "end": end})
        return span_id

    def count(self, name: str, value: float) -> None:
        per_op = self.counts.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped to record a ``name`` span per call."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec._recording():
                return fn(*args, **kwargs)
            span = rec.add(name, perf_counter(), 0.0,
                           rec._stack[-1] if rec._stack else None)
            rec._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._stack.pop()
                rec.spans[span]["end"] = perf_counter()
            if on_result is not None:
                on_result(rec, args, kwargs, result)
            return result

        return wrapper

    def observed(self, fn, on_result):
        """``fn`` wrapped to report its result, without a span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if rec._recording():
                on_result(rec, args, kwargs, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "runs": self.runs}

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")


# ----------------------------------------------------------------------
# result hooks
# ----------------------------------------------------------------------
def _payload_bytes(rec, args, kwargs, result) -> None:
    dataset = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    path = dataset.approximation_path(grid)
    if path is not None and path.exists():
        rec.count("raster.payload_bytes", path.stat().st_size)


def _join_run(rec, args, kwargs, run) -> None:
    stats = run.stats
    rec.runs.append({
        "op": rec.op,
        "pairs": stats.pairs,
        "resolved": stats.resolved_mbr + stats.resolved_if,
        "refined": stats.refined,
        "filter_seconds": stats.filter_seconds,
        "refine_seconds": stats.refine_seconds,
        "partitions": run.partitions,
        "mode": run.mode,
        "decision": (run.meta.get("cost_model") or {}).get("decision", run.mode),
    })


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _patch_function(rec, name, owners, attr, on_result=None) -> None:
    original = getattr(owners[0], attr)
    wrapped = rec.timed(name, original, on_result)
    for owner in owners:
        if getattr(owner, attr, None) is original:
            setattr(owner, attr, wrapped)


def _patch_method(rec, name, cls, attr, on_result=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(rec.timed(name, raw.__func__, on_result)))
    else:
        setattr(cls, attr, rec.timed(name, raw, on_result))


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the traced workloads cross."""
    import repro
    import repro.datasets.io as dataset_io
    import repro.join as join_pkg
    import repro.join.mbr_join as mbr_join
    import repro.join.pipeline as pipeline
    import repro.parallel as parallel
    import repro.parallel.executor as executor
    import repro.parallel.preprocess as preprocess
    import repro.raster.storage as storage
    import repro.store as store
    import repro.store.dataset as dataset
    import repro.store.engine as engine

    _patch_method(rec, "store.open", dataset.SpatialDataset, "open")
    _patch_function(rec, "store.content_hash", [dataset, store, engine], "content_hash")
    _patch_function(rec, "store.build", [dataset, store, repro], "build_dataset")
    _patch_function(rec, "geometry.wkt_parse", [dataset_io], "load_wkt_file")
    _patch_function(rec, "geometry.wkt_parse", [dataset], "loads_wkt_geometry")
    _patch_function(rec, "raster.rasterise", [parallel, preprocess], "build_april_parallel")
    _patch_method(rec, "raster.payload_load", dataset.SpatialDataset, "approximations",
                  _payload_bytes)
    _patch_function(rec, "raster.payload_write", [dataset, storage], "save_approximations")
    _patch_function(rec, "join.mbr", [engine, mbr_join, join_pkg], "plane_sweep_mbr_join")
    for attr in ("run_find_relation_parallel", "run_relate_parallel"):
        _patch_function(rec, "parallel.executor", [parallel, executor], attr)
    for cls in vars(pipeline).values():
        if isinstance(cls, type) and issubclass(cls, pipeline.Pipeline):
            if "filter_pairs" in cls.__dict__:
                _patch_method(rec, "filters.filter", cls, "filter_pairs")
            if "refine_pair" in cls.__dict__:
                _patch_method(rec, "topology.refine", cls, "refine_pair")
    engine.Engine.join = rec.observed(engine.Engine.join, _join_run)
