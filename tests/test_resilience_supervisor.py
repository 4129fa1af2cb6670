"""Chaos tests: the supervised pool under crash/hang/error schedules.

Every test asserts the contract that matters — results identical to a
clean serial run, whatever the failure schedule — plus the supervision
accounting and the ``_STATE`` lifecycle regression (the fork-inherited
state globals must be empty after every exit path: normal, retry,
timeout, and serial fallback).
"""

import multiprocessing
import time

import pytest

from repro.datasets import load_scenario
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.parallel import executor, preprocess
from repro.parallel.executor import run_find_relation_parallel, run_relate_parallel
from repro.parallel.preprocess import build_april_parallel
from repro.raster.april import build_april
from repro.resilience import failpoints
from repro.resilience.supervisor import SupervisionReport, supervised_map
from repro.topology import TopologicalRelation as T

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised pool needs the fork start method",
)


@pytest.fixture(autouse=True)
def clean_failpoints():
    failpoints.disarm_all()
    yield
    failpoints.disarm_all()


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("OLE-OPE", scale=0.3, grid_order=10)


@pytest.fixture(scope="module")
def serial_run(scenario):
    return run_find_relation_parallel(
        "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=1
    )


def _chaos_find(scenario, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("chunk_size", max(1, len(scenario.pairs) // 8))
    return run_find_relation_parallel(
        "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, **kwargs
    )


# ----------------------------------------------------------------------
# supervised_map building blocks (plain picklable workers)
# ----------------------------------------------------------------------
def _double(task):
    index, attempt = task
    return index * 2


def _double_serial(index):
    return index * 2


def _fail_on_first_attempt(task):
    index, attempt = task
    if attempt == 1:
        raise ValueError(f"task {index} attempt {attempt}")
    return index * 2


def _always_fail(task):
    raise ValueError("poisoned")


def _unpicklable(task):
    return lambda: task


class TestSupervisedMap:
    def test_argument_validation(self):
        with pytest.raises(ValueError, match="partition_timeout"):
            supervised_map(
                _double, 1, workers=2, serial_runner=_double_serial,
                stage="t", partition_timeout=0.0,
            )
        with pytest.raises(ValueError, match="max_retries"):
            supervised_map(
                _double, 1, workers=2, serial_runner=_double_serial,
                stage="t", max_retries=-1,
            )

    def test_empty_task_list(self):
        results, report = supervised_map(
            _double, 0, workers=2, serial_runner=_double_serial, stage="t"
        )
        assert results == []
        assert report.tasks == 0 and report.clean

    @fork_only
    def test_clean_run(self):
        results, report = supervised_map(
            _double, 6, workers=2, serial_runner=_double_serial, stage="t"
        )
        assert results == [0, 2, 4, 6, 8, 10]
        assert report.clean
        assert report.to_dict()["fallback_tasks"] == []

    @fork_only
    def test_worker_errors_are_retried(self):
        results, report = supervised_map(
            _fail_on_first_attempt, 4, workers=2,
            serial_runner=_double_serial, stage="t", backoff=0.001,
        )
        assert results == [0, 2, 4, 6]
        assert report.worker_errors == 4
        assert report.retries == 4
        assert report.fallbacks == 0

    @fork_only
    def test_poisoned_tasks_fall_back_serially(self):
        results, report = supervised_map(
            _always_fail, 3, workers=2,
            serial_runner=_double_serial, stage="t",
            max_retries=1, backoff=0.001,
        )
        assert results == [0, 2, 4]
        assert report.fallbacks == 3
        assert sorted(report.fallback_tasks) == [0, 1, 2]
        # attempts = max_retries + 1 per task
        assert report.retries == 3

    @fork_only
    def test_unpicklable_result_is_a_worker_error(self):
        results, report = supervised_map(
            _unpicklable, 2, workers=2,
            serial_runner=_double_serial, stage="t",
            max_retries=1, backoff=0.001,
        )
        assert results == [0, 2]
        assert report.worker_errors == 4
        assert report.worker_deaths == 0
        assert report.fallbacks == 2


# ----------------------------------------------------------------------
# executor chaos schedules
# ----------------------------------------------------------------------
@fork_only
class TestFindRelationChaos:
    def test_crash_on_first_attempt(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "times:1"}):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=2)
        assert run.results == serial_run.results
        assert run.stats.relation_counts == serial_run.stats.relation_counts
        assert run.supervision.worker_deaths == run.partitions
        assert run.supervision.retries == run.partitions
        assert run.supervision.fallbacks == 0
        assert executor._STATE == {}

    def test_hang_past_deadline(self, scenario, serial_run):
        failpoints.arm("worker.hang", "times:1", hang_seconds=30.0)
        start = time.monotonic()
        run = _chaos_find(scenario, partition_timeout=0.5, max_retries=2)
        wall = time.monotonic() - start
        assert run.results == serial_run.results
        assert run.supervision.timeouts == run.partitions
        # Bounded: nowhere near the 30s hang, even with retries queued.
        assert wall < 15.0
        assert executor._STATE == {}

    def test_hung_workers_do_not_starve_retries(self, scenario, serial_run):
        # Every partition crashes on attempt 1 and hangs on attempt 2.
        # Each hung attempt is killed at its own deadline, which runs
        # from when it started, so attempt 3 always gets a free worker
        # and nothing falls back to serial.
        failpoints.arm("worker.crash", "nth:1")
        failpoints.arm("worker.hang", "nth:2", hang_seconds=30.0)
        run = _chaos_find(scenario, partition_timeout=1.0, max_retries=3)
        assert run.results == serial_run.results
        assert run.supervision.fallbacks == 0
        assert run.supervision.timeouts == run.partitions
        assert run.supervision.worker_deaths == run.partitions
        assert executor._STATE == {}

    def test_always_crash_exhausts_to_serial_fallback(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "always"}):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=1)
        assert run.results == serial_run.results
        assert run.supervision.fallbacks == run.partitions
        assert executor._STATE == {}

    def test_crash_probabilistically(self, scenario, serial_run):
        with failpoints.inject({"worker.crash": "prob:0.5"}, seed=11):
            run = _chaos_find(scenario, partition_timeout=30.0, max_retries=3)
        assert run.results == serial_run.results
        assert executor._STATE == {}

    def test_metrics_counters_emitted(self, scenario, serial_run):
        set_metrics(True)
        reset_metrics()
        try:
            with failpoints.inject({"worker.crash": "times:1"}):
                run = _chaos_find(scenario, partition_timeout=30.0, max_retries=2)
            counters = get_registry().counter_values()
            deaths = counters.get(
                'repro_resilience_worker_deaths_total{stage="find"}', 0
            )
            retries = counters.get(
                'repro_resilience_retry_total{kind="death",stage="find"}', 0
            )
            assert deaths == run.partitions
            assert retries == run.partitions
            # Obs exactly-once: the merged relation counters must equal
            # the serial ones despite every partition running twice.
            assert run.stats.relation_counts == serial_run.stats.relation_counts
        finally:
            set_metrics(False)
            reset_metrics()


@fork_only
class TestRelateChaos:
    def test_crash_matches_serial(self, scenario):
        serial = run_relate_parallel(
            T.INTERSECTS, scenario.r_objects, scenario.s_objects, scenario.pairs,
            workers=1,
        )
        with failpoints.inject({"worker.crash": "times:1"}):
            run = run_relate_parallel(
                T.INTERSECTS, scenario.r_objects, scenario.s_objects, scenario.pairs,
                workers=2, chunk_size=max(1, len(scenario.pairs) // 6),
                partition_timeout=30.0, max_retries=2,
            )
        assert run.matches == serial.matches
        assert run.supervision.worker_deaths == run.partitions
        assert executor._STATE == {}


@fork_only
class TestPreprocessChaos:
    def test_crash_matches_serial_build(self, scenario):
        polygons = [obj.polygon for obj in scenario.r_objects]
        grid = scenario.grid
        expected = [build_april(p, grid) for p in polygons]
        with failpoints.inject({"worker.crash": "times:1"}):
            built = build_april_parallel(
                polygons, grid, workers=2, partition_timeout=30.0, max_retries=2
            )
        assert len(built) == len(expected)
        for a, b in zip(built, expected):
            assert (a.p.starts == b.p.starts).all()
            assert (a.p.ends == b.p.ends).all()
            assert (a.c.starts == b.c.starts).all()
        assert preprocess._STATE == {}

    def test_poisoned_preprocess_falls_back(self, scenario):
        polygons = [obj.polygon for obj in scenario.r_objects]
        grid = scenario.grid
        expected = [build_april(p, grid) for p in polygons]
        with failpoints.inject({"worker.crash": "always"}):
            built = build_april_parallel(
                polygons, grid, workers=2, partition_timeout=30.0, max_retries=0
            )
        assert len(built) == len(expected)
        assert (built[0].p.starts == expected[0].p.starts).all()
        assert preprocess._STATE == {}


class TestStateLifecycle:
    def test_serial_paths_leave_state_empty(self, scenario):
        run_find_relation_parallel(
            "P+C", scenario.r_objects, scenario.s_objects, scenario.pairs, workers=1
        )
        assert executor._STATE == {}
        build_april_parallel(
            [obj.polygon for obj in scenario.r_objects[:4]], scenario.grid, workers=1
        )
        assert preprocess._STATE == {}

    @fork_only
    def test_parallel_paths_leave_state_empty(self, scenario):
        _chaos_find(scenario)
        assert executor._STATE == {}
        build_april_parallel(
            [obj.polygon for obj in scenario.r_objects], scenario.grid, workers=2
        )
        assert preprocess._STATE == {}

    def test_supervision_report_shape(self):
        report = SupervisionReport(tasks=3)
        d = report.to_dict()
        assert set(d) == {
            "tasks", "retries", "timeouts", "worker_deaths",
            "worker_errors", "fallbacks", "fallback_tasks",
        }
        assert report.clean
