"""The benchmark's own arithmetic and input rules.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.cli_warm import _merged  # noqa: E402
from perfbench.common import Outcome  # noqa: E402
from perfbench.layers import PER_LAYER, op_record, per_layer_metrics  # noqa: E402
from perfbench.serve_mixed import parse_prometheus, request_spans  # noqa: E402
from perfbench.stats import (  # noqa: E402
    layer_self_times,
    percentile,
    poisson_schedule,
    request_mix,
    self_times,
    tail,
    tail_percentile,
    unattributed,
)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [(200, 95), (40, 75), (100, 90), (36, 72),
                                         (20, 50), (11, 50), (1, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    if q > 50:
        assert n - math.ceil(q / 100 * n) >= 10
        assert n - math.ceil((q + 1) / 100 * n) < 10


def test_tail_reports_value_percentile_and_count():
    values = list(range(1, 201))
    assert tail(values) == (190, 95, 200)
    assert tail(list(range(1, 41))) == (30, 75, 40)


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 1) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_metrics_average_per_draw_medians():
    out = Outcome(attempted=6, failed=1)
    out.latency_metrics([1.0, 1.2, 1.1, 2.0, 2.2, 2.1], [0, 0, 0, 1, 1, 1], [3.0, 1.0, 2.0])
    metrics = {name: m["value"] for name, m in out.metrics.items()}
    assert metrics["op_p50_ms"] == pytest.approx((1100 + 2100) / 2)
    assert metrics["op_tail_ms"] == metrics["op_p50_ms"]  # no tail above the median yet
    assert metrics["setup_s"] == 2.0
    assert metrics["ok_ratio"] == pytest.approx(5 / 6)
    many = Outcome(attempted=40)
    many.latency_metrics([i / 1000 for i in range(1, 41)], [0] * 40, [1.0])
    assert many.metrics["op_tail_ms"]["value"] == pytest.approx(30.0)  # p75 of 40


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, "store.open", 0.0, 10.0),
        _span(1, 0, "geometry.wkt_parse", 1.0, 4.0),
        _span(2, 0, "geometry.wkt_parse", 3.0, 6.0),  # overlaps its sibling
        _span(3, 0, "store.content_hash", 8.0, 12.0),  # clipped at parent end
        _span(4, 1, "inner", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    layers = layer_self_times(spans)
    assert layers["geometry.wkt_parse"] == pytest.approx(5.0)


def test_layer_self_times_and_unattributed_add_up_to_wall():
    spans = [
        _span(0, None, "import", 0.0, 0.4),
        _span(1, None, "store.open", 0.5, 1.5),
        _span(2, 1, "geometry.wkt_parse", 0.6, 1.3),
        _span(3, None, "topology.refine", 1.6, 1.7),
    ]
    wall = 2.0
    layers = layer_self_times(spans)
    rest = unattributed(wall, layers)
    assert rest == pytest.approx(2.0 - 0.4 - 1.0 - 0.1)
    assert sum(layers.values()) + rest == pytest.approx(wall)
    record = op_record(wall, spans, {"pairs": 4, "resolved": 1, "refined": 3})
    assert record["unattributed"] == pytest.approx(rest)


def test_per_layer_metrics_cover_every_name_and_fall_back_to_run_stats():
    run = {"pairs": 10, "resolved": 4, "refined": 6, "filter_seconds": 0.02,
           "refine_seconds": 0.06, "partitions": 8, "decision": "parallel"}
    records = [op_record(1.0, [_span(0, None, "join.mbr", 0.0, 0.1)], run)]
    metrics = per_layer_metrics(records, cache_hits=3, cache_lookups=4, fallbacks=0,
                                trace_overhead=1.01)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["join.mbr_ms"]["value"] == pytest.approx(100.0)
    assert metrics["filters.filter_ms"]["value"] == pytest.approx(20.0)
    assert metrics["topology.refine_us_per_pair"]["value"] == pytest.approx(10000.0)
    assert metrics["filters.resolved_ratio"]["value"] == pytest.approx(0.4)
    assert metrics["store.cache_hit_ratio"]["value"] == pytest.approx(0.75)
    assert metrics["unattributed_ms"]["value"] == pytest.approx(900.0)


def test_cold_path_metrics_come_from_set_up_records():
    run = {"pairs": 2, "resolved": 1, "refined": 1}
    op = op_record(1.0, [_span(0, None, "store.open", 0.0, 0.2)], run)
    setup = op_record(3.0, [_span(0, None, "store.build", 0.0, 0.5),
                            _span(1, None, "raster.rasterise", 1.0, 1.4)], run)
    metrics = per_layer_metrics([op], cache_hits=0, cache_lookups=0, fallbacks=0,
                                trace_overhead=1.0, setup_records=[setup])
    assert metrics["store.build_ms"]["value"] == pytest.approx(500.0)
    assert metrics["raster.rasterise_ms"]["value"] == pytest.approx(400.0)
    assert metrics["store.open_ms"]["value"] == pytest.approx(200.0)
    assert metrics["unattributed_ms"]["value"] == pytest.approx(800.0)


def test_merged_dumps_keep_each_process_tree(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps({"spans": [_span(0, None, "import", 0.0, 0.3),
                                           _span(1, None, "store.build", 0.3, 0.9)],
                                 "counts": {}, "runs": []}))
    second.write_text(json.dumps({"spans": [_span(0, None, "store.open", 1.0, 1.5),
                                            _span(1, 0, "geometry.wkt_parse", 1.1, 1.4)],
                                  "counts": {"0": {"raster.payload_bytes": 7}},
                                  "runs": [{"pairs": 2}]}))
    dump = _merged([first, second])
    assert [(s["id"], s["parent"]) for s in dump["spans"]] == [(0, None), (1, None),
                                                               (2, None), (3, 2)]
    assert dump["counts"] == {"raster.payload_bytes": 7}
    assert dump["runs"] == [{"pairs": 2}]
    layers = layer_self_times(dump["spans"])
    assert layers["store.open"] == pytest.approx(0.2)


def test_request_span_tree_accounts_for_client_latency():
    sample = {"sent": 10.0, "done": 10.25}
    doc = {"service": {"queued_seconds": 0.01, "seconds": 0.2}, "wall_seconds": 0.15,
           "mode": "serial", "stats": {"filter_seconds": 0.02, "refine_seconds": 0.1}}
    layers = layer_self_times(request_spans(sample, doc))
    assert layers["serve.transport"] == pytest.approx(0.25 - 0.01 - 0.2)
    assert layers["serve.queue"] == pytest.approx(0.01)
    assert layers["serve.dispatch"] == pytest.approx(0.2 - 0.15)
    assert layers["serve.engine"] == pytest.approx(0.15 - 0.12)
    assert sum(layers.values()) == pytest.approx(0.25)


def test_open_loop_request_is_timed_from_its_due_time():
    sample = {"due": 9.9, "sent": 10.0, "done": 10.25}
    doc = {"service": {"queued_seconds": 0.01, "seconds": 0.2}, "wall_seconds": 0.15,
           "mode": "parallel", "stats": {"filter_seconds": 0.02, "refine_seconds": 0.1}}
    spans = request_spans(sample, doc)
    layers = layer_self_times(spans)
    assert layers["serve.backlog"] == pytest.approx(0.1)
    assert layers["serve.transport"] == pytest.approx(0.25 - 0.01 - 0.2)
    assert sum(layers.values()) == pytest.approx(0.35)
    record = op_record(sample["done"] - sample["due"], spans, {})
    assert record["unattributed"] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# schedules and inputs
# ----------------------------------------------------------------------
def test_poisson_schedule_is_fixed_per_seed():
    a = poisson_schedule(3, 6.0, 500)
    assert a == poisson_schedule(3, 6.0, 500)
    assert a != poisson_schedule(4, 6.0, 500)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 500 / a[-1] == pytest.approx(6.0, rel=0.15)


def test_request_mix_is_fixed_per_seed_with_exact_shares():
    weights = {"a": 0.4, "b": 0.4, "c": 0.2}
    mix = request_mix(7, 200, weights)
    assert mix == request_mix(7, 200, weights)
    assert mix != request_mix(8, 200, weights)
    assert (mix.count("a"), mix.count("b"), mix.count("c")) == (80, 80, 40)
    assert len(request_mix(1, 7, weights)) == 7


def test_parse_prometheus_reads_labelled_samples():
    text = ('# TYPE repro_store_cache_total counter\n'
            'repro_store_cache_total{cache="dataset",outcome="hit"} 3\n'
            'repro_april_built_total 2\n')
    samples = parse_prometheus(text)
    assert samples == [
        {"name": "repro_store_cache_total",
         "labels": {"cache": "dataset", "outcome": "hit"}, "value": 3.0},
        {"name": "repro_april_built_total", "labels": {}, "value": 2.0},
    ]


def test_seed_zero_is_the_catalog_and_seeds_differ(tmp_path):
    from perfbench import inputs
    from repro.datasets import catalog
    from repro.datasets.io import load_wkt_file

    zero = inputs.write(0, tmp_path / "s0")
    assert len(zero) == inputs.DRAWS
    inputs.check_catalog(zero[0], tmp_path / "check")
    assert catalog._SEEDS["OLE"] == 202  # generation restored the catalog
    assert zero[1]["OLE"].read_bytes() != zero[0]["OLE"].read_bytes()
    one = inputs.write(1, tmp_path / "s1")
    assert one[0]["OLE"].read_bytes() not in {d["OLE"].read_bytes() for d in zero}
    again = inputs.write(1, tmp_path / "s1b")
    assert [d["OBE"].read_bytes() for d in again] == [d["OBE"].read_bytes() for d in one]
    # The oracle's reader sees exactly the geometry the program parses.
    for ours, theirs in zip(inputs.read_polygons(one[0]["OPE"]),
                            load_wkt_file(one[0]["OPE"])):
        assert list(ours.shell.coords) == list(theirs.shell.coords)
        assert len(ours.holes) == len(theirs.holes)
