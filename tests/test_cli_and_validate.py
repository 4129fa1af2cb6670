"""Tests for the top-level CLI and the validity-report module."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.datasets.io import save_wkt_file
from repro.datasets.synthetic import generate_blobs
from repro.geometry import Box, LineString, MultiPolygon, Polygon
from repro.topology.validate import is_valid_geometry, validity_report


@pytest.fixture()
def wkt_files(tmp_path):
    rng = np.random.default_rng(13)
    region = Box(0, 0, 200, 200)
    r = generate_blobs(rng, 15, region, (5, 30), (8, 30))
    s = generate_blobs(rng, 15, region, (5, 30), (8, 30))
    r_path = tmp_path / "r.wkt"
    s_path = tmp_path / "s.wkt"
    save_wkt_file(r_path, r)
    save_wkt_file(s_path, s)
    return str(r_path), str(s_path)


class TestCli:
    def test_relate(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["relate", r, s]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 15
        for line in lines:
            _, code, name = line.split("\t")
            assert len(code) == 9

    def test_join(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9"]) == 0
        err = capsys.readouterr().err
        assert "candidates" in err

    def test_join_predicate(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--predicate", "intersects"]) == 0
        err = capsys.readouterr().err
        assert "intersects" in err

    def test_select(self, wkt_files, capsys):
        r, _ = wkt_files
        query = "POLYGON ((0 0, 200 0, 200 200, 0 200, 0 0))"
        assert main(["select", r, "--query", query, "--predicate", "inside",
                     "--grid-order", "9"]) == 0
        err = capsys.readouterr().err
        assert "inside" in err

    def test_approximate(self, wkt_files, tmp_path, capsys):
        r, _ = wkt_files
        out = tmp_path / "approx.npz"
        assert main(["approximate", r, "--out", str(out), "--grid-order", "9"]) == 0
        assert out.exists()
        from repro.raster.storage import load_approximations

        assert len(load_approximations(out)) == 15

    def test_stats(self, wkt_files, capsys):
        r, _ = wkt_files
        assert main(["stats", r]) == 0
        out = capsys.readouterr().out
        assert "geometries:     15" in out

    def test_bad_predicate(self, wkt_files):
        r, s = wkt_files
        with pytest.raises(SystemExit):
            main(["join", r, s, "--predicate", "nearby"])

    def test_predicate_aliases(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--predicate", "covered_by"]) == 0

    def test_datasets_cli_list(self, capsys):
        from repro.datasets.__main__ import main as datasets_main

        assert datasets_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "TL" in out and "scenarios" in out

    def test_datasets_cli_export_and_stats(self, tmp_path, capsys):
        from repro.datasets.__main__ import main as datasets_main

        out = tmp_path / "tl.wkt"
        assert datasets_main(["export", "--dataset", "TL", "--scale", "0.1",
                              "--out", str(out)]) == 0
        assert out.exists()
        assert datasets_main(["stats", "--dataset", "TL", "--scale", "0.1"]) == 0
        text = capsys.readouterr().out
        assert "polygons:" in text


class TestCliObservability:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        # The CLI flags flip module-wide switches; keep them from
        # leaking into other tests running in this process.
        from repro import obs

        obs.disable_all()
        obs.set_progress(False)
        yield
        obs.disable_all()
        obs.set_progress(False)

    def test_join_with_all_obs_flags(self, wkt_files, tmp_path, capsys):
        import json

        from repro.obs.metrics import parse_prometheus
        from repro.obs.report import read_jsonl

        r, s = wkt_files
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        log_path = tmp_path / "runs.jsonl"
        assert main([
            "join", r, s, "--grid-order", "9",
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--explain-sample", "2",
            "--run-log", str(log_path),
        ]) == 0
        out, err = capsys.readouterr()

        spans = json.loads(trace_path.read_text())
        # The join is one root span (or a child of one); dataset
        # resolution may precede it with its own roots, such as the
        # content hash the engine keys its caches by.
        names = {root["name"] for root in spans} | {
            c["name"] for root in spans for c in root.get("children", [])
        }
        assert "topology_join" in names
        assert "content_hash" in names

        metrics = json.loads(metrics_path.read_text())
        assert any(
            c["name"] == "repro_verdicts_total" for c in metrics["counters"]
        )
        prom = (tmp_path / "metrics.json.prom").read_text()
        assert parse_prometheus(prom)  # strict round trip

        (record,) = read_jsonl(log_path)
        assert record["kind"] == "join_run"
        assert record["stats"]["pairs"] > 0
        assert record["spans"] and record["metrics"]
        assert "# explain pair" in err or not record.get("explain_samples")

    def test_calibrate_then_auto_join(self, wkt_files, tmp_path, capsys, monkeypatch):
        import json

        from repro.obs.report import read_jsonl
        from repro.optimizer.cost import PROFILE_ENV

        r, s = wkt_files
        profile_path = tmp_path / "calibration.json"
        monkeypatch.setenv(PROFILE_ENV, str(profile_path))
        assert main(["calibrate", "--repeats", "1", "--scale", "0.4"]) == 0
        out, err = capsys.readouterr()
        assert profile_path.exists()
        assert "wrote calibration profile" in out
        assert "auto-mode preview" in err

        # Batch is an alias of serial, so the profile carries no row for
        # it, and the preview scores the full warm-find candidate set.
        profile = json.loads(profile_path.read_text())
        assert "batch" not in profile["modes"]
        assert {"serial", "parallel"} <= set(profile["modes"])
        previewed = {
            line.rsplit("-> ", 1)[1].strip()
            for line in err.splitlines()
            if "pairs ->" in line
        }
        assert previewed <= {"serial", "parallel", "disk"}
        assert previewed

        log_path = tmp_path / "runs.jsonl"
        assert main([
            "join", r, s, "--grid-order", "9", "--workers", "4",
            "--run-log", str(log_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "# auto mode ->" in err
        (record,) = read_jsonl(log_path)
        decision = record["meta"]["cost_model"]
        assert decision["source"] == "calibration"
        assert decision["decision"] == record["meta"]["run"]["mode"]
        assert "predicted_seconds" in decision

    def test_join_explicit_calibration_flag(self, wkt_files, tmp_path, capsys, monkeypatch):
        from repro.optimizer.cost import PROFILE_ENV
        from tests.test_optimizer_cost import make_profile

        r, s = wkt_files
        monkeypatch.setenv(PROFILE_ENV, "")  # no ambient discovery
        path = make_profile(cpu=None).save(tmp_path / "cal.json")
        assert main([
            "join", r, s, "--grid-order", "9", "--workers", "4",
            "--calibration", str(path),
        ]) == 0
        err = capsys.readouterr().err
        assert "# auto mode -> serial (calibration)" in err

    def test_join_bad_calibration_path_aborts(self, wkt_files, tmp_path):
        r, s = wkt_files
        with pytest.raises(SystemExit, match="absent"):
            main(["join", r, s, "--calibration", str(tmp_path / "absent.json")])

    def test_join_trace_to_stderr(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9", "--trace", "-"]) == 0
        err = capsys.readouterr().err
        assert "topology_join" in err and "ms" in err

    def test_join_results_unchanged_by_obs(self, wkt_files, tmp_path, capsys):
        r, s = wkt_files
        assert main(["join", r, s, "--grid-order", "9"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "join", r, s, "--grid-order", "9",
            "--trace", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.json"),
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_predicate_join_run_log(self, wkt_files, tmp_path, capsys):
        from repro.obs.report import read_jsonl

        r, s = wkt_files
        log_path = tmp_path / "runs.jsonl"
        assert main([
            "join", r, s, "--grid-order", "9", "--predicate", "intersects",
            "--run-log", str(log_path),
        ]) == 0
        (record,) = read_jsonl(log_path)
        assert record["meta"]["predicate"] == "intersects"
        assert "matches" in record["meta"]

    def test_explain_subcommand(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["explain", r, s, "--index", "0", "3",
                     "--grid-order", "9"]) == 0
        out = capsys.readouterr().out
        assert "pair (r=0, s=3)" in out
        assert "MBR" in out or "mbr" in out

    def test_explain_default_index(self, wkt_files, capsys):
        r, s = wkt_files
        assert main(["explain", r, s]) == 0
        assert "pair (r=0, s=0)" in capsys.readouterr().out

    def test_explain_index_out_of_range(self, wkt_files):
        r, s = wkt_files
        with pytest.raises(SystemExit, match="out of range"):
            main(["explain", r, s, "--index", "99", "0"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["explain", r, s, "--index", "0", "-1"])

    def test_experiments_run_log(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main
        from repro.obs.report import read_jsonl

        log_path = tmp_path / "exp.jsonl"
        assert experiments_main([
            "table2", "--scale", "0.1", "--run-log", str(log_path)
        ]) == 0
        (record,) = read_jsonl(log_path)
        assert record["kind"] == "experiment"
        assert record["method"] == "table2"
        assert record["meta"]["result"]["rows"]


class TestValidityReport:
    def test_valid_polygon_empty_report(self):
        assert validity_report(Polygon.box(0, 0, 10, 10)) == []
        assert is_valid_geometry(Polygon.box(0, 0, 10, 10))

    def test_bowtie_reported(self):
        bowtie = Polygon([(0, 0), (4, 4), (4, 0), (0, 4)])
        issues = validity_report(bowtie)
        assert any(i.code == "ring-self-intersection" for i in issues)
        assert not is_valid_geometry(bowtie)

    def test_overlapping_edges_reported(self):
        spike = Polygon([(0, 0), (8, 0), (4, 0), (4, 5)])
        issues = validity_report(spike)
        assert any(i.code in ("ring-overlap", "ring-self-intersection") for i in issues)

    def test_hole_outside_shell(self):
        bad = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            [[(20, 20), (22, 20), (22, 22), (20, 22)]],
        )
        issues = validity_report(bad)
        assert any(i.code == "hole-outside-shell" for i in issues)

    def test_overlapping_holes(self):
        bad = Polygon(
            [(0, 0), (20, 0), (20, 20), (0, 20)],
            [
                [(2, 2), (10, 2), (10, 10), (2, 10)],
                [(5, 5), (15, 5), (15, 15), (5, 15)],
            ],
        )
        issues = validity_report(bad)
        assert any(i.code == "holes-overlap" for i in issues)

    def test_multipolygon_overlapping_parts(self):
        bad = MultiPolygon([Polygon.box(0, 0, 10, 10), Polygon.box(5, 5, 15, 15)])
        issues = validity_report(bad)
        assert any(i.code == "parts-overlap" for i in issues)

    def test_multipolygon_valid(self):
        good = MultiPolygon([Polygon.box(0, 0, 5, 5), Polygon.box(10, 10, 15, 15)])
        assert validity_report(good) == []

    def test_linestring(self):
        assert validity_report(LineString([(0, 0), (5, 5)])) == []
        crossing = LineString([(0, 0), (4, 4), (4, 0), (0, 4)])
        issues = validity_report(crossing)
        assert issues and issues[0].code == "line-self-intersection"

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            validity_report("nope")

    def test_issue_str(self):
        bowtie = Polygon([(0, 0), (4, 4), (4, 0), (0, 4)])
        text = str(validity_report(bowtie)[0])
        assert "ring-self-intersection" in text


class TestImportCost:
    def test_cli_import_leaves_serve_unloaded(self):
        """``repro.serve`` (HTTP stack, load generator) loads on first
        use, not in every CLI process; its names stay importable."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, repro.__main__\n"
            "assert 'repro.serve' not in sys.modules, sorted(sys.modules)\n"
            "from repro import API_VERSION, JoinService, start_server\n"
            "assert 'repro.serve' in sys.modules and API_VERSION == 1\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
