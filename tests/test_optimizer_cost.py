"""Tests for the calibrated cost model behind ``mode="auto"``.

Covers profile persistence and staleness guards, the decision rule on
1-core and multi-core profiles, the bit-identical fallback when no
calibration exists, the engine's decision recording, and the
``workers=None`` resolution fix.
"""

import json
import math

import numpy as np
import pytest

from repro.datasets.synthetic import generate_blobs, generate_tessellation
from repro.geometry import Box
from repro.join.run import JoinRun
from repro.obs.metrics import get_registry, reset_metrics, set_metrics
from repro.optimizer import (
    CalibrationError,
    CalibrationProfile,
    CostModel,
    JoinFeatures,
    ModeCost,
    load_cost_model,
)
from repro.optimizer.cost import PROFILE_ENV, PROFILE_VERSION, fallback_decision
from repro.store import Engine


def make_profile(
    *,
    serial_pp=2e-6,
    parallel_pp=4e-6,
    parallel_startup=0.04,
    cpu=None,
    measured_workers=2,
):
    """A synthetic profile; defaults model a 1-core box where the
    parallel path costs more per pair than serial (the bench-seeded
    shape)."""
    machine = CalibrationProfile.machine_fingerprint()
    if cpu is not None:
        machine["cpu_count"] = cpu
    return CalibrationProfile(
        modes={
            "serial": ModeCost(startup=0.0, per_pair=serial_pp),
            "parallel": ModeCost(startup=parallel_startup, per_pair=parallel_pp),
        },
        machine=machine,
        measured_workers=measured_workers,
    )


def features(pairs, *, workers=4, cpu=1, warm=True):
    return JoinFeatures(
        r_count=100, s_count=100, pairs=float(pairs),
        workers=workers, cpu_count=cpu, warm=warm,
    )


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(33)
    region = Box(0, 0, 300, 300)
    districts = generate_tessellation(rng, region, 3, 3, edge_points=8)
    blobs = generate_blobs(rng, 25, region, (3, 25), (8, 50))
    return districts, blobs


def _rows(run: JoinRun):
    return [(l.r_index, l.s_index, l.relation, l.filtered) for l in run.results]


class TestProfilePersistence:
    def test_round_trip(self, tmp_path):
        profile = make_profile()
        path = profile.save(tmp_path / "cal.json")
        loaded = CalibrationProfile.load(path)
        assert loaded.modes.keys() == profile.modes.keys()
        assert loaded.modes["parallel"].startup == pytest.approx(0.04)
        assert loaded.measured_workers == 2
        assert math.isinf(loaded.disk_min_pairs)

    def test_foreign_version_rejected(self, tmp_path):
        payload = make_profile().to_dict()
        payload["profile_version"] = PROFILE_VERSION + 1
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="version"):
            CalibrationProfile.load(path)

    def test_stale_cpu_count_rejected(self, tmp_path):
        import os

        stale = make_profile(cpu=(os.cpu_count() or 1) + 7)
        path = stale.save(tmp_path / "cal.json")
        with pytest.raises(CalibrationError, match="cpu_count"):
            CalibrationProfile.load(path)
        assert CalibrationProfile.load(path, allow_stale=True).modes

    def test_corrupt_profile_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationError, match="corrupt"):
            CalibrationProfile.load(path)

    def test_version_1_profile_with_batch_row_loads(self, tmp_path, inputs):
        # Version-1 profiles written while batch was a mode of its own
        # carry a "batch" row — here the cheapest row by far. Batch now
        # runs as serial, so the row is dropped on load and neither the
        # prediction table nor any auto decision may name it.
        payload = make_profile().to_dict()
        assert payload["profile_version"] == PROFILE_VERSION == 1
        payload["modes"]["batch"] = {"startup": 0.0, "per_pair": 1e-12}
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(payload))
        loaded = CalibrationProfile.load(path)
        assert set(loaded.modes) == {"serial", "parallel"}
        allowed = {"serial", "parallel", "disk"}
        model = CostModel(loaded)
        for pairs in (100, 10_000, 1_000_000):
            f = features(pairs, workers=4, cpu=1)
            assert set(model.predictions(f)) <= allowed
            decision = model.decide(f, ["serial", "batch", "parallel", "disk"])
            assert decision.mode in allowed
        districts, blobs = inputs
        engine = Engine(calibration=path)
        for method in ("P+C", "APRIL"):
            run = engine.join(districts, blobs, grid_order=9, method=method, workers=4)
            meta = run.meta["cost_model"]
            assert meta["source"] == "calibration"
            assert meta["decision"] in allowed and run.mode in allowed
            assert set(meta["predicted_seconds"]) <= allowed

    def test_must_cover_serial_and_parallel(self):
        payload = make_profile().to_dict()
        del payload["modes"]["parallel"]
        with pytest.raises(CalibrationError, match="serial and parallel"):
            CalibrationProfile.from_dict(payload)


class TestDiscovery:
    def test_env_path_discovered(self, tmp_path, monkeypatch):
        path = make_profile().save(tmp_path / "cal.json")
        monkeypatch.setenv(PROFILE_ENV, str(path))
        model = load_cost_model()
        assert model is not None
        assert model.profile.modes["serial"].per_pair == pytest.approx(2e-6)

    def test_empty_env_disables_discovery(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "")
        assert load_cost_model() is None

    def test_missing_default_is_quiet(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, str(tmp_path / "absent.json"))
        assert load_cost_model() is None

    def test_explicit_path_errors_propagate(self, tmp_path):
        with pytest.raises(OSError):
            load_cost_model(tmp_path / "absent.json")


class TestDecision:
    def test_one_core_profile_picks_serial(self):
        # On this repo's recorded hardware parallel costs *more* per
        # pair (BENCH_parallel.json: 0.755x speedup) — auto must pick
        # serial regardless of the requested worker count.
        model = CostModel(make_profile(cpu=1))
        for pairs in (10, 10_000, 1_000_000):
            decision = model.decide(features(pairs, workers=4, cpu=1))
            assert decision.mode == "serial"
            assert decision.source == "calibration"

    def test_multi_core_profile_picks_parallel_when_big(self):
        model = CostModel(
            make_profile(cpu=8, measured_workers=4, parallel_pp=2e-6)
        )
        big = model.decide(features(1_000_000, workers=8, cpu=8))
        assert big.mode == "parallel"
        # Startup dominates tiny joins: serial despite 8 cores.
        small = model.decide(features(50, workers=8, cpu=8))
        assert small.mode == "serial"

    def test_parallel_cost_rescales_with_workers(self):
        model = CostModel(
            make_profile(cpu=8, measured_workers=4, parallel_pp=2e-6)
        )
        # 8 effective workers halve the per-pair cost measured at 4;
        # 2 effective workers double it.
        t8 = model.predict("parallel", features(1_000_000, workers=8, cpu=8))
        t2 = model.predict("parallel", features(1_000_000, workers=2, cpu=8))
        assert t2 > t8

    def test_cold_cache_adds_raster_cost(self):
        profile = make_profile(cpu=1)
        profile.raster_per_object = 1e-3
        model = CostModel(profile)
        warm = model.predict("serial", features(1000, cpu=1, warm=True))
        cold = model.predict("serial", features(1000, cpu=1, warm=False))
        assert cold == pytest.approx(warm + 200 * 1e-3)

    def test_decision_meta_is_auditable(self):
        model = CostModel(make_profile(cpu=1))
        meta = model.decide(features(500, cpu=1)).to_meta()
        assert meta["requested"] == "auto"
        assert meta["decision"] == "serial"
        assert meta["source"] == "calibration"
        assert set(meta["predicted_seconds"]) == {"serial", "parallel"}
        assert meta["features"]["pairs"] == 500.0

    def test_fallback_rule(self):
        assert fallback_decision(1).mode == "serial"
        assert fallback_decision(2).mode == "parallel"
        assert fallback_decision(1).source == "fallback"


class TestSeedFromBench:
    def test_seeds_from_recorded_trajectory(self, tmp_path):
        import os

        cpu = os.cpu_count() or 1
        bench = [
            {"kind": "preprocess", "cpu_count": cpu, "polygons": 100,
             "serial_seconds": 0.5, "parallel_seconds": 0.6},
            {"kind": "find_relation", "cpu_count": cpu, "pairs": 7148,
             "serial_seconds": 0.78, "parallel_seconds": 1.03, "workers": 4},
        ]
        (tmp_path / "BENCH_parallel.json").write_text(json.dumps(bench))
        profile = CalibrationProfile.seed_from_bench(tmp_path)
        assert profile.source == "bench"
        assert profile.modes["serial"].per_pair == pytest.approx(0.78 / 7148)
        assert profile.modes["parallel"].per_pair == pytest.approx(1.03 / 7148)
        assert profile.raster_per_object == pytest.approx(0.5 / 100)
        # A 0.755x "speedup" trajectory must route auto to serial.
        decision = CostModel(profile).decide(features(7148, workers=4, cpu=1))
        assert decision.mode == "serial"
        assert set(profile.modes) == {"serial", "parallel"}

    def test_recorded_batch_timing_seeds_no_batch_row(self, tmp_path):
        # Trajectories recorded while batch was a runner of its own carry
        # ``batch_seconds``; batch now runs as serial, so the field is
        # ignored and auto can only pick a mode that exists.
        import os

        cpu = os.cpu_count() or 1
        bench = [
            {"kind": "find_relation", "cpu_count": cpu, "pairs": 7148,
             "serial_seconds": 0.78, "batch_seconds": 0.26,
             "parallel_seconds": 1.03, "workers": 4},
        ]
        (tmp_path / "BENCH_parallel.json").write_text(json.dumps(bench))
        profile = CalibrationProfile.seed_from_bench(tmp_path)
        assert set(profile.modes) == {"serial", "parallel"}
        assert {s["mode"] for s in profile.samples} == {"serial", "parallel"}
        decision = CostModel(profile).decide(
            features(7148, workers=4, cpu=1), ["serial", "batch", "parallel"]
        )
        assert decision.mode == "serial"

    def test_empty_trajectory_raises(self, tmp_path):
        with pytest.raises(CalibrationError, match="no usable"):
            CalibrationProfile.seed_from_bench(tmp_path)


class TestEngineAuto:
    def test_fallback_auto_matches_explicit_modes(self, inputs):
        # Without calibration, auto must reproduce the historical rule
        # bit-identically: serial rows for one worker, parallel for two.
        districts, blobs = inputs
        engine = Engine()
        assert engine.cost_model is None
        auto1 = engine.join(districts, blobs, grid_order=9)
        serial = engine.join(districts, blobs, grid_order=9, mode="serial")
        assert auto1.mode == "serial" and _rows(auto1) == _rows(serial)
        auto2 = engine.join(districts, blobs, grid_order=9, workers=2)
        parallel = engine.join(
            districts, blobs, grid_order=9, mode="parallel", workers=2
        )
        assert auto2.mode == "parallel" and _rows(auto2) == _rows(parallel)
        assert auto1.meta["cost_model"]["source"] == "fallback"

    def test_calibrated_engine_overrides_workers(self, inputs):
        # The 1-core profile says parallel is a loss: auto picks serial
        # even though the caller asked for a 4-worker pool.
        districts, blobs = inputs
        engine = Engine(calibration=make_profile(cpu=1))
        run = engine.join(districts, blobs, grid_order=9, workers=4)
        assert run.mode == "serial"
        meta = run.meta["cost_model"]
        assert meta["source"] == "calibration"
        assert meta["decision"] == "serial"
        assert meta["predicted_seconds"]["serial"] <= (
            meta["predicted_seconds"]["parallel"]
        )
        explicit = engine.join(
            districts, blobs, grid_order=9, mode="serial"
        )
        assert _rows(run) == _rows(explicit)

    def test_workers_none_resolves_before_mode_choice(self, inputs, monkeypatch):
        # workers=None historically fell into `None > 1` territory; it
        # must resolve through default_workers() first.
        import repro.parallel.executor as executor

        districts, blobs = inputs
        monkeypatch.setattr(executor, "default_workers", lambda: 1)
        run = Engine().join(districts, blobs, grid_order=9, workers=None)
        assert run.mode == "serial"
        monkeypatch.setattr(executor, "default_workers", lambda: 3)
        run = Engine().join(districts, blobs, grid_order=9, workers=None)
        assert run.mode == "parallel"
        assert run.workers == 3

    def test_decision_counter_and_span_recorded(self, inputs):
        districts, blobs = inputs
        set_metrics(True)
        reset_metrics()
        try:
            engine = Engine(calibration=make_profile(cpu=1))
            engine.join(districts, blobs, grid_order=9, workers=2)
            counters = get_registry().counters
            decisions = {
                key: v for key, v in counters.items()
                if key[0] == "repro_cost_model_decisions_total"
            }
            assert decisions
            labels = dict(next(iter(decisions))[1])
            assert labels == {"mode": "serial", "source": "calibration"}
            predicted = [
                key for key in get_registry().histograms
                if key[0] == "repro_cost_model_predicted_seconds"
            ]
            assert predicted
        finally:
            set_metrics(False)
            reset_metrics()

    def test_execute_rejects_disk_and_unknown_modes(self, inputs):
        districts, blobs = inputs
        engine = Engine()
        rd, sd = engine.dataset(districts), engine.dataset(blobs)
        grid = engine.join_grid(rd, sd, 9)
        r_objects = engine.objects(rd, grid)
        s_objects = engine.objects(sd, grid)
        pairs = engine.pairs(rd, sd)
        with pytest.raises(ValueError, match="disk"):
            engine.execute("P+C", r_objects, s_objects, pairs, mode="disk")
        with pytest.raises(ValueError, match="turbo"):
            engine.execute("P+C", r_objects, s_objects, pairs, mode="turbo")

    def test_execute_auto_uses_exact_pairs(self, inputs):
        districts, blobs = inputs
        engine = Engine(calibration=make_profile(cpu=1))
        rd, sd = engine.dataset(districts), engine.dataset(blobs)
        grid = engine.join_grid(rd, sd, 9)
        r_objects = engine.objects(rd, grid)
        s_objects = engine.objects(sd, grid)
        pairs = engine.pairs(rd, sd)
        run = engine.execute(
            "P+C", r_objects, s_objects, pairs, mode="auto", workers=4
        )
        assert run.mode == "serial"
        assert run.meta["cost_model"]["features"]["pairs"] == float(len(pairs))

    def test_library_engine_never_discovers_profiles(self, tmp_path, monkeypatch):
        # Bare Engine() must stay deterministic even when a profile
        # exists at the discovery path; only calibration="auto" opts in.
        path = make_profile().save(tmp_path / "cal.json")
        monkeypatch.setenv(PROFILE_ENV, str(path))
        assert Engine().cost_model is None
        assert Engine(calibration="auto").cost_model is not None
