"""Partitioned parallel execution of the join pipelines.

The verification stage is embarrassingly parallel: every candidate pair
is processed independently through the method's filter and (when
undetermined) refinement. This module partitions the candidate stream —
either into contiguous chunks or into spatially coherent PBSM-style
tiles (reusing the :func:`~repro.join.mbr_join.partition_pairs_by_tile`
machinery) — runs each partition through the one find-relation or
relate_p loop of :mod:`repro.join.pipeline` in supervised fork workers,
and merges the per-partition outcomes deterministically in ``(i, j)``
order, so a parallel run is bit-for-bit comparable to a serial one
regardless of worker count or scheduling.

Worker state travels by fork inheritance (the parent installs the
partition runner in a module global right before the workers fork), so
nothing large is pickled per task; only the compact per-pair outcome
tuples come back through each worker's pipe. With one worker, a
trivially small stream, or no ``fork`` start method, the same loop
runs in-process as a single partition.

Timing semantics: the merged :class:`~repro.join.stats.JoinRunStats`
carries *summed worker CPU time* in ``filter_seconds`` /
``refine_seconds`` (comparable across methods and worker counts), while
``wall_seconds`` on the run object measures end-to-end elapsed time
including worker startup — the number speedup claims should be made from.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Sequence

from repro.resilience.failpoints import maybe_fail_worker
from repro.resilience.supervisor import SupervisionReport, supervised_map

from repro.join.mbr_join import partition_pairs_by_tile
from repro.join.objects import SpatialObject, reset_access_tracking
from repro.join.pipeline import (
    PIPELINES,
    PairOutcome,
    Pipeline,
    find_relation_outcomes,
    relate_outcomes,
)
from repro.join.stats import JoinRunStats
from repro.obs.metrics import get_registry, metrics_enabled, reset_metrics
from repro.obs.profile import (
    begin_worker_capture as profile_begin_worker_capture,
    export_profile,
    merge_profiles,
    profiling_enabled,
)
from repro.obs.resources import (
    begin_worker_capture as resources_begin_worker_capture,
    export_resources,
    merge_resources,
    resources_enabled,
)
from repro.obs.trace import (
    attach_spans,
    export_spans,
    reset_tracing,
    trace,
    tracing_enabled,
)
from repro.parallel.chunking import chunk_pairs
from repro.topology.de9im import TopologicalRelation

#: Parent-side state installed immediately before the pool forks;
#: workers read it via copy-on-write inheritance, never via pickling.
_STATE: dict = {}


def default_workers() -> int:
    """Default degree of parallelism: up to four cores."""
    return min(4, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """The effective worker count a request resolves to.

    ``None`` means "pick for me" and resolves through
    :func:`default_workers` — which caps at the machine's core count,
    so a 1-CPU box resolves to 1. Mode selection must call this
    *before* deciding serial vs parallel; deciding on the raw ``None``
    used to classify a 1-CPU machine as "parallel" and then run a
    pointless 1-worker pool.
    """
    return default_workers() if workers is None else workers


def fork_available() -> bool:
    """Whether the copy-on-write ``fork`` start method exists here."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class ParallelFindRun:
    """Merged outcome of a parallel find-relation run."""

    #: Per-pair outcomes, sorted by ``(i, j)`` — deterministic across
    #: worker counts, chunk sizes and partitioning strategies.
    results: list[PairOutcome]
    stats: JoinRunStats
    #: End-to-end elapsed seconds, including pool startup.
    wall_seconds: float
    workers: int
    partitions: int
    #: What the supervisor had to do (retries, timeouts, fallbacks);
    #: ``None`` for in-process runs that never forked a pool.
    supervision: SupervisionReport | None = None


@dataclass
class ParallelRelateRun:
    """Merged outcome of a parallel relate_p run."""

    #: Pairs satisfying the predicate, sorted by ``(i, j)``.
    matches: list[tuple[int, int]]
    stats: JoinRunStats
    wall_seconds: float
    workers: int
    partitions: int
    supervision: SupervisionReport | None = None


# ----------------------------------------------------------------------
# per-partition processing (used by workers and by the serial fallback)
# ----------------------------------------------------------------------
def _find_touched(outcomes: Sequence[PairOutcome]) -> tuple[set[int], set[int]]:
    """Object ids whose exact geometry was read, derived from outcomes.

    Refinement (and only refinement) calls ``access_geometry`` on both
    objects of a pair, so the touched sets follow from the ``filtered``
    flags — no need to scan the full object lists, which in a forked
    worker would dirty every copy-on-write page just to read the flags.
    """
    touched_r = {i for i, _, _, filtered in outcomes if not filtered}
    touched_s = {j for _, j, _, filtered in outcomes if not filtered}
    return touched_r, touched_s


def _find_runner(pipeline: Pipeline, r_objects, s_objects):
    """A partition runner over the shared find-relation loop."""

    def run(part: Sequence[tuple[int, int]], label: str):
        outcomes, stats = find_relation_outcomes(
            pipeline, r_objects, s_objects, part, label=label
        )
        return (outcomes, stats, *_find_touched(outcomes))

    return run


def _worker_obs_begin() -> None:
    """Swap in fresh obs collectors in a forked worker.

    The enabled flags travel by fork inheritance; only the collected
    data must be reset so the worker exports nothing but its own. The
    profiler additionally re-arms its interval timer — itimers do not
    survive ``fork``, unlike every other piece of obs state.
    """
    if tracing_enabled():
        reset_tracing()
    if metrics_enabled():
        reset_metrics()
    if profiling_enabled():
        profile_begin_worker_capture()
    if resources_enabled():
        resources_begin_worker_capture()


def _worker_obs_export() -> dict | None:
    """The worker's spans/metrics/profile/resources, or ``None`` when off."""
    payload: dict = {}
    if tracing_enabled():
        payload["spans"] = export_spans()
    if metrics_enabled():
        payload["metrics"] = get_registry()
    if profiling_enabled():
        payload["profile"] = export_profile()
    if resources_enabled():
        payload["resources"] = export_resources()
    return payload or None


def _merge_worker_obs(payloads: Sequence[dict | None]) -> None:
    """Fold worker obs payloads into the parent, in partition order.

    ``supervised_map`` returns results in task order, so the grafted span
    forest and the merged registry are deterministic for any worker
    count — the same guarantee the ``(i, j)``-sorted result merge
    gives. Profile sample counters add commutatively and resource
    peaks merge with ``max``, so those are order-independent outright.
    """
    for payload in payloads:
        if not payload:
            continue
        if "spans" in payload:
            attach_spans(payload["spans"])
        if "metrics" in payload:
            get_registry().merge(payload["metrics"])
        if payload.get("profile"):
            merge_profiles([payload["profile"]])
        if payload.get("resources"):
            merge_resources([payload["resources"]])


def _run_partition(part_index: int, fallback: bool):
    """One partition through the installed runner, under its span."""
    part = _STATE["parts"][part_index]
    label = f"{_STATE['label']} part={part_index}"
    attrs = {"part": part_index, "pairs": len(part)}
    if fallback:
        label += " (fallback)"
        attrs["fallback"] = True
    with trace("partition", **attrs):
        return _STATE["run"](part, label)


def _worker(task: tuple[int, int]):
    part_index, attempt = task
    maybe_fail_worker(part_index, attempt)
    _worker_obs_begin()
    return (*_run_partition(part_index, fallback=False), _worker_obs_export())


def _fallback(part_index: int):
    """In-parent re-execution of one poisoned partition.

    Runs the same pure computation as :func:`_worker` but without the
    failpoint boundary and without swapping obs collectors: metrics
    and spans record straight into the parent's registry/tracer, so the
    merged totals still equal a serial run's.
    """
    return (*_run_partition(part_index, fallback=True), None)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
def _partition(
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: list[tuple[int, int]],
    workers: int,
    chunk_size: int | None,
    partition: str,
    tiles_per_dim: int | None,
) -> list[list[tuple[int, int]]]:
    if partition == "chunks":
        return chunk_pairs(pairs, workers, chunk_size)
    if partition == "tiles":
        return partition_pairs_by_tile(
            [o.box for o in r_objects],
            [o.box for o in s_objects],
            pairs,
            tiles_per_dim,
        )
    raise ValueError(f"unknown partition strategy {partition!r}; use 'chunks' or 'tiles'")


def _run_partitioned(
    run,
    *,
    method: str,
    label: str,
    stage: str,
    span_attrs: dict,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: list[tuple[int, int]],
    workers: int | None,
    chunk_size: int | None,
    partition: str,
    tiles_per_dim: int | None,
    partition_timeout: float | None,
    max_retries: int | None,
) -> tuple:
    """Partition ``pairs``, run each partition through ``run`` and merge.

    ``run(part, label)`` returns ``(rows, stats, touched_r, touched_s)``
    for one partition; the merge comes back in the field order of
    :class:`ParallelFindRun` / :class:`ParallelRelateRun`. Without a
    pool (``workers <= 1``, a trivially small stream, no ``fork``) the
    whole stream is one in-process partition. Otherwise a supervised
    fork pool runs the partitions with ``run`` installed in ``_STATE``
    for inheritance: each attempt has a ``partition_timeout`` deadline,
    failures retry at most ``max_retries`` times, and a partition that
    exhausts its retries re-executes in this process. ``_STATE`` stays
    populated until every path — normal, retry, timeout, fallback — has
    finished, and is cleared on all of them. Rows come back sorted by ``(i, j)``.
    """
    if workers is None:
        workers = default_workers()
    start = time.perf_counter()
    reset_access_tracking(r_objects)
    reset_access_tracking(s_objects)

    if workers <= 1 or len(pairs) < 2 or not fork_available():
        with trace(f"parallel_{stage}", **span_attrs, workers=1, partitions=1):
            rows, stats, touched_r, touched_s = run(pairs, f"{label} serial")
        workers, partitions, supervision = 1, 1, None
    else:
        parts = _partition(
            r_objects, s_objects, pairs, workers, chunk_size, partition, tiles_per_dim
        )
        partitions = len(parts)
        _STATE.update(run=run, label=label, parts=parts)
        try:
            with trace(
                f"parallel_{stage}", **span_attrs, workers=workers, partitions=partitions
            ):
                part_results, supervision = supervised_map(
                    _worker,
                    partitions,
                    workers=workers,
                    serial_runner=_fallback,
                    stage=stage,
                    partition_timeout=partition_timeout,
                    max_retries=max_retries,
                )
                _merge_worker_obs([obs for *_, obs in part_results])
        finally:
            _STATE.clear()
        if metrics_enabled():
            registry = get_registry()
            for part in parts:
                # Pairs per partition: the skew signal of the fan-out.
                registry.observe("repro_partition_pairs", len(part), method=method)
        rows = []
        touched_r: set[int] = set()
        touched_s: set[int] = set()
        stats = JoinRunStats(method=method).merge(*(r[1] for r in part_results))
        for part_rows, _, part_r, part_s, _ in part_results:
            rows.extend(part_rows)
            touched_r.update(part_r)
            touched_s.update(part_s)
    rows.sort(key=lambda t: (t[0], t[1]))
    # Workers share one object universe, so the summed access counters
    # from merge() overcount; overwrite them with deduplicated values.
    stats.r_objects_total = len(r_objects)
    stats.s_objects_total = len(s_objects)
    stats.r_objects_accessed = len(touched_r)
    stats.s_objects_accessed = len(touched_s)
    return rows, stats, time.perf_counter() - start, workers, partitions, supervision


def run_find_relation_parallel(
    pipeline: Pipeline | str,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    workers: int | None = None,
    chunk_size: int | None = None,
    partition: str = "chunks",
    tiles_per_dim: int | None = None,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
) -> ParallelFindRun:
    """Find-relation over ``pairs``, fanned out across ``workers``.

    Relation counts, per-pair outcomes and geometry-access accounting
    are identical to the serial :func:`~repro.join.pipeline.run_find_relation`
    for every worker count; results come back sorted by ``(i, j)``.
    Falls back to in-process execution when ``workers <= 1``, when the
    stream is trivially small, or when ``fork`` is unavailable.

    Partitions run supervised: each attempt has a ``partition_timeout``
    deadline, failed/hung/crashed partitions are retried at most
    ``max_retries`` times, and poisoned partitions re-execute serially
    in-parent — the merged result is identical to a serial run for any
    failure schedule (see :mod:`repro.resilience.supervisor`).
    """
    name = pipeline if isinstance(pipeline, str) else pipeline.name
    if name not in PIPELINES:
        raise KeyError(f"unknown pipeline {name!r}; available: {list(PIPELINES)}")
    return ParallelFindRun(*_run_partitioned(
        _find_runner(PIPELINES[name], r_objects, s_objects),
        method=name,
        label=name,
        stage="find",
        span_attrs={"method": name},
        r_objects=r_objects,
        s_objects=s_objects,
        pairs=list(pairs),
        workers=workers,
        chunk_size=chunk_size,
        partition=partition,
        tiles_per_dim=tiles_per_dim,
        partition_timeout=partition_timeout,
        max_retries=max_retries,
    ))


def run_relate_parallel(
    predicate: TopologicalRelation,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    workers: int | None = None,
    chunk_size: int | None = None,
    partition: str = "chunks",
    tiles_per_dim: int | None = None,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
) -> ParallelRelateRun:
    """relate_p over ``pairs``, fanned out across ``workers``.

    Matching pairs and counters are identical to the serial
    :func:`~repro.join.pipeline.run_relate`; matches come back sorted
    by ``(i, j)``. Same fallback and supervision rules as
    :func:`run_find_relation_parallel`.
    """
    return ParallelRelateRun(*_run_partitioned(
        functools.partial(relate_outcomes, predicate, r_objects, s_objects),
        method=f"relate[{predicate.value}]",
        label="relate",
        stage="relate",
        span_attrs={"predicate": predicate.value},
        r_objects=r_objects,
        s_objects=s_objects,
        pairs=list(pairs),
        workers=workers,
        chunk_size=chunk_size,
        partition=partition,
        tiles_per_dim=tiles_per_dim,
        partition_timeout=partition_timeout,
        max_retries=max_retries,
    ))


__all__ = [
    "PairOutcome",
    "ParallelFindRun",
    "ParallelRelateRun",
    "default_workers",
    "fork_available",
    "resolve_workers",
    "run_find_relation_parallel",
    "run_relate_parallel",
]
