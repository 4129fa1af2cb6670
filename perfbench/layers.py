"""Per-layer metrics of a traced run, from per-operation span records.

Every traced operation becomes one record: its wall time, the self
time of each span name, the counts its spans or the program's own
counters reported, and the join's statistics. The per-layer metrics are
medians over records; :data:`PER_LAYER` fixes their names and units.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Sequence

from perfbench.stats import layer_self_times, unattributed

#: Per-layer metric -> (unit, span name whose self time it reports).
SPAN_METRICS = {
    "import.ms": "import",
    "store.open_ms": "store.open",
    "store.content_hash_ms": "store.content_hash",
    "store.build_ms": "store.build",
    "geometry.wkt_parse_ms": "geometry.wkt_parse",
    "raster.rasterise_ms": "raster.rasterise",
    "raster.payload_load_ms": "raster.payload_load",
    "raster.payload_write_ms": "raster.payload_write",
    "join.mbr_ms": "join.mbr",
    "parallel.executor_ms": "parallel.executor",
    "serve.queue_ms": "serve.queue",
    "serve.dispatch_ms": "serve.dispatch",
    "serve.transport_ms": "serve.transport",
}

#: Span metrics of the cold path. A workload that passes set-up records
#: (``cli-warm``, whose set-up builds, rasterises and persists) reports
#: these from its set-ups; every other metric comes from its operations.
SETUP_METRICS = ("store.build_ms", "raster.rasterise_ms", "raster.payload_write_ms",
                 "parallel.executor_ms")

#: Every per-layer metric, with its unit.
PER_LAYER = {
    **{name: "ms" for name in SPAN_METRICS},
    "store.cache_hit_ratio": "ratio",
    "raster.payload_bytes": "bytes",
    "join.candidate_pairs": "count",
    "filters.filter_ms": "ms",
    "filters.resolved_ratio": "ratio",
    "topology.refine_ms": "ms",
    "topology.refined_pairs": "count",
    "topology.refine_us_per_pair": "us",
    "optimizer.parallel_share": "ratio",
    "parallel.partitions": "count",
    "resilience.fallbacks": "count",
    "serve.engine_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.generator_late_ms": "ms",
    "unattributed_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


def counter_total(counters: Iterable[Mapping], name: str, **labels) -> float:
    """Sum of a counter family's samples whose labels include ``labels``."""
    return sum(
        c["value"] for c in counters
        if c["name"] == name
        and all(c["labels"].get(k) == v for k, v in labels.items())
    )


def program_counts(counters: Sequence[Mapping]) -> dict:
    """The counts a traced run reads from the program's own metrics."""
    hits = counter_total(counters, "repro_store_cache_total", outcome="hit")
    misses = counter_total(counters, "repro_store_cache_total", outcome="miss")
    return {
        "cache_hits": hits,
        "cache_lookups": hits + misses,
        "fallbacks": counter_total(counters, "repro_resilience_fallback_total")
        + counter_total(counters, "repro_resilience_retry_total"),
        "april_built": counter_total(counters, "repro_april_built_total"),
    }


def op_record(wall: float, spans: Sequence[Mapping], run: Mapping,
              counts: Mapping | None = None) -> dict:
    """One traced operation: ``wall`` seconds, its spans, the join
    statistics ``run`` (pairs, resolved, refined, filter_seconds,
    refine_seconds, partitions, decision) and extra ``counts``."""
    own = layer_self_times(spans)
    return {
        "wall": wall,
        "self": own,
        "unattributed": unattributed(wall, own),
        "run": dict(run),
        "counts": dict(counts or {}),
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(records: Sequence[Mapping], *, cache_hits: float,
                      cache_lookups: float, fallbacks: float,
                      trace_overhead: float, serve: Mapping | None = None,
                      setup_records: Sequence[Mapping] | None = None) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: {"value", "unit"}}``.

    Times are medians per operation, or per set-up for
    :data:`SETUP_METRICS` when ``setup_records`` are given. Filter and
    refinement times come from their spans when the operation ran them
    in the traced process, else from the join's own statistics
    (parallel workers). Metrics of a layer the workload does not cross
    read 0.
    """
    def ms(metric: str) -> float:
        source = records
        if setup_records is not None and metric in SETUP_METRICS:
            source = setup_records
        return 1000.0 * _median([r["self"].get(SPAN_METRICS[metric], 0.0) for r in source])

    def run_ms(span: str, stat: str) -> float:
        return 1000.0 * _median([
            r["self"][span] if span in r["self"] else r["run"].get(stat, 0.0)
            for r in records
        ])

    values = {metric: ms(metric) for metric in SPAN_METRICS}
    refine_ms = run_ms("topology.refine", "refine_seconds")
    refined = _median([r["run"].get("refined", 0) for r in records])
    serve = serve or {}
    values.update({
        "store.cache_hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "raster.payload_bytes": _median([r["counts"].get("raster.payload_bytes", 0)
                                         for r in records]),
        "join.candidate_pairs": _median([r["run"].get("pairs", 0) for r in records]),
        "filters.filter_ms": run_ms("filters.filter", "filter_seconds"),
        "filters.resolved_ratio": _median([
            r["run"]["resolved"] / r["run"]["pairs"] if r["run"].get("pairs") else 0.0
            for r in records
        ]),
        "topology.refine_ms": refine_ms,
        "topology.refined_pairs": refined,
        "topology.refine_us_per_pair": 1000.0 * refine_ms / refined if refined else 0.0,
        "optimizer.parallel_share": sum(
            r["run"].get("decision") == "parallel" for r in records
        ) / max(1, len(records)),
        "parallel.partitions": _median([r["run"].get("partitions") or 0 for r in records]),
        "resilience.fallbacks": fallbacks,
        "serve.engine_ms": serve.get("engine_ms", 0.0),
        "serve.response_bytes": serve.get("response_bytes", 0.0),
        "serve.generator_late_ms": serve.get("generator_late_ms", 0.0),
        "unattributed_ms": 1000.0 * _median([r["unattributed"] for r in records]),
        "trace_overhead_ratio": trace_overhead,
    })
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
