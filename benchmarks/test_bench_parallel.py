"""Serial-vs-parallel executor benchmark.

Measures the end-to-end wall clock of the serial find-relation runner
against the partitioned parallel executor on a ≥5k-pair scenario, and
the serial vs fanned-out APRIL preprocessing, asserting identical
results in both cases. Every run appends an entry to the
``BENCH_parallel.json`` trajectory at the repo root, so speedup is
tracked across commits and machines (the recorded ``cpu_count`` makes
single-core containers — where true parallel speedup is physically
impossible and only the overhead shows — interpretable).
"""

import os
import time
from pathlib import Path

import pytest

from repro.datasets import load_scenario
from repro.join.pipeline import run_find_relation
from repro.parallel import build_april_parallel, run_find_relation_parallel
from repro.raster import build_april

SCENARIO = "OBE-OPE"
SCALE = 5.0
GRID_ORDER = 10
WORKERS = 4
ROUNDS = 2

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"


def record(entry: dict) -> None:
    from conftest import record_entry

    record_entry(BENCH_PATH, entry)


@pytest.fixture(scope="module")
def scenario():
    data = load_scenario(SCENARIO, scale=SCALE, grid_order=GRID_ORDER)
    assert len(data.pairs) >= 5000, "benchmark needs a >=5k-pair stream"
    return data


def test_parallel_find_relation_speedup(scenario):
    serial_seconds = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        serial = run_find_relation(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - t0)

    parallel_seconds = float("inf")
    for _ in range(ROUNDS):
        run = run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=WORKERS,
        )
        parallel_seconds = min(parallel_seconds, run.wall_seconds)

    # Acceptance: identical relation counts for every worker count.
    assert run.stats.relation_counts == serial.relation_counts
    assert run.stats.pairs == serial.pairs == len(scenario.pairs)
    assert run.stats.r_objects_accessed == serial.r_objects_accessed
    assert run.stats.s_objects_accessed == serial.s_objects_accessed

    speedup = serial_seconds / parallel_seconds
    record(
        {
            "kind": "find_relation",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "pairs": len(scenario.pairs),
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "speedup": round(speedup, 3),
            "relation_counts_identical": True,
        }
    )
    # True parallel speedup needs real cores; on fewer the entry above
    # still tracks the (bounded) overhead of the partitioned path.
    if (os.cpu_count() or 1) >= 4:
        assert speedup > 1.5
    elif (os.cpu_count() or 1) >= 2:
        assert speedup > 1.0
    else:
        assert parallel_seconds < 3.0 * serial_seconds


def test_parallel_preprocessing_speedup(scenario):
    polygons = [o.polygon for o in scenario.s_objects]

    t0 = time.perf_counter()
    serial = [build_april(p, scenario.grid) for p in polygons]
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = build_april_parallel(polygons, scenario.grid, workers=WORKERS)
    parallel_seconds = time.perf_counter() - t0

    assert len(parallel) == len(serial)
    assert all(a.p == b.p and a.c == b.c for a, b in zip(serial, parallel))

    record(
        {
            "kind": "preprocess",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scenario": SCENARIO,
            "scale": SCALE,
            "grid_order": GRID_ORDER,
            "polygons": len(polygons),
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "speedup": round(serial_seconds / parallel_seconds, 3),
        }
    )
