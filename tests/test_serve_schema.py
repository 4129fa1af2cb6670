"""The frozen v1 wire schema: round trips, strictness, compatibility.

What PR 9 froze: ``JoinRun.to_wire()/from_wire()`` as the single
serialization contract of the HTTP service, the run log, and the CLI.
These tests pin the three properties the contract promises — byte-level
round-trip identity for every execution mode, a hard NaN/Infinity ban,
and forward compatibility (unknown fields ignored) — plus the exact v1
bytes via ``tests/golden/joinrun_wire_v1.json``. If the golden test
fails, the schema changed: bump ``WIRE_VERSION`` or make the change
additive.
"""

import math
from collections import Counter
from pathlib import Path

import pytest

from repro import Polygon
from repro.join.run import WIRE_VERSION, JoinResult, JoinRun
from repro.join.stats import JoinRunStats
from repro.serve.schema import (
    API_VERSION,
    BuildIndexRequest,
    JoinRequest,
    WireError,
    dumps_wire,
    loads_wire,
    validate_wire_run,
)
from repro.store.engine import Engine
from repro.topology import TopologicalRelation

GOLDEN = Path(__file__).parent / "golden" / "joinrun_wire_v1.json"


def overlapping_inputs():
    r = [Polygon.box(i, 0, i + 1.5, 1.5) for i in range(6)]
    s = [Polygon.box(i + 0.5, 0.5, i + 2.0, 2.0) for i in range(6)]
    return r, s


def golden_run() -> JoinRun:
    """A fully deterministic run: every envelope field exercised, no
    measured values — the golden file pins its exact bytes."""
    stats = JoinRunStats(method="P+C")
    stats.pairs = 3
    stats.resolved_mbr = 1
    stats.resolved_if = 1
    stats.refined = 1
    stats.relation_counts = Counter(
        {
            TopologicalRelation.CONTAINS: 1,
            TopologicalRelation.INTERSECTS: 2,
        }
    )
    stats.filter_seconds = 0.25
    stats.refine_seconds = 0.75
    stats.r_objects_accessed = 1
    stats.s_objects_accessed = 1
    stats.r_objects_total = 3
    stats.s_objects_total = 3
    return JoinRun(
        results=[
            JoinResult(0, 1, TopologicalRelation.CONTAINS, True),
            JoinResult(2, 3, TopologicalRelation.INTERSECTS, False),
            JoinResult(4, 5, TopologicalRelation.INTERSECTS, None),
        ],
        stats=stats,
        method="P+C",
        mode="serial",
        kind="find",
        predicate=None,
        wall_seconds=1.5,
        workers=1,
        partitions=1,
        meta={"grid_order": 11, "r": "r_golden", "s": "s_golden"},
    )


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["serial", "batch", "parallel", "disk"])
    def test_bit_identical_across_modes(self, mode):
        r, s = overlapping_inputs()
        run = Engine().join(
            r, s, mode=mode, grid_order=8, workers=2 if mode == "parallel" else 1
        )
        # "batch" is a v1 alias of serial and reports as such.
        assert run.mode == ("serial" if mode == "batch" else mode)
        assert len(run.results) > 0
        wire = dumps_wire(run.to_wire())
        rebuilt = JoinRun.from_wire(loads_wire(wire))
        assert dumps_wire(rebuilt.to_wire()) == wire
        assert rebuilt.matches == run.matches
        assert rebuilt.stats.relation_counts == run.stats.relation_counts

    def test_relate_run_round_trips(self):
        r, s = overlapping_inputs()
        run = Engine().join(
            r, s, mode="serial", grid_order=8,
            predicate=TopologicalRelation.INTERSECTS,
        )
        assert run.kind == "relate"
        wire = dumps_wire(run.to_wire())
        rebuilt = JoinRun.from_wire(loads_wire(wire))
        assert dumps_wire(rebuilt.to_wire()) == wire
        assert rebuilt.predicate is TopologicalRelation.INTERSECTS
        assert all(link.filtered is None for link in rebuilt.results)

    def test_validate_wire_run_maps_errors(self):
        with pytest.raises(WireError, match="api_version"):
            validate_wire_run({"api_version": 99, "results": []})

    def test_summary_dict_matches_envelope(self):
        run = golden_run()
        d = run.to_dict()
        assert d["api_version"] == WIRE_VERSION
        assert d["links"] == len(run.results)
        assert "results" not in d
        assert d["stats"] == run.stats.to_dict()


class TestStrictness:
    def test_dumps_rejects_nan(self):
        with pytest.raises(WireError, match="wire-safe"):
            dumps_wire({"wall_seconds": float("nan")})

    def test_dumps_rejects_infinity(self):
        with pytest.raises(WireError, match="wire-safe"):
            dumps_wire({"throughput": math.inf})

    def test_loads_rejects_nonfinite_tokens(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(WireError, match="non-finite"):
                loads_wire('{"x": %s}' % token)

    def test_loads_rejects_malformed_json(self):
        with pytest.raises(WireError, match="malformed"):
            loads_wire("{nope")

    def test_loads_rejects_non_utf8(self):
        with pytest.raises(WireError, match="UTF-8"):
            loads_wire(b"\xff\xfe{}")


class TestForwardCompatibility:
    def test_unknown_top_level_fields_ignored(self):
        wire = golden_run().to_wire()
        wire["a_future_field"] = {"anything": True}
        rebuilt = JoinRun.from_wire(wire)
        assert rebuilt.matches == golden_run().matches

    def test_trailing_row_elements_ignored(self):
        wire = golden_run().to_wire()
        wire["results"] = [row + ["future-annotation"] for row in wire["results"]]
        rebuilt = JoinRun.from_wire(wire)
        assert rebuilt.matches == golden_run().matches

    def test_short_rows_rejected(self):
        wire = golden_run().to_wire()
        wire["results"] = [[0, 1, "contains"]]
        with pytest.raises(ValueError, match="malformed result row"):
            JoinRun.from_wire(wire)

    def test_foreign_api_version_rejected(self):
        wire = golden_run().to_wire()
        wire["api_version"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="api_version"):
            JoinRun.from_wire(wire)
        del wire["api_version"]
        with pytest.raises(ValueError, match="api_version"):
            JoinRun.from_wire(wire)


class TestGoldenPin:
    def test_v1_bytes_are_frozen(self):
        # An intentional schema change regenerates the golden file AND
        # bumps WIRE_VERSION; anything else failing here is a silent
        # wire break caught.
        expected = GOLDEN.read_text(encoding="utf-8").strip()
        assert dumps_wire(golden_run().to_wire()) == expected

    def test_golden_file_round_trips(self):
        document = loads_wire(GOLDEN.read_text(encoding="utf-8"))
        assert document["api_version"] == API_VERSION == WIRE_VERSION
        rebuilt = JoinRun.from_wire(document)
        assert dumps_wire(rebuilt.to_wire()) == GOLDEN.read_text(
            encoding="utf-8"
        ).strip()


class TestRequestSchemas:
    def test_join_request_defaults_and_unknown_fields(self):
        request = JoinRequest.from_dict(
            {"r": "a_idx", "s": "b_idx", "newfangled": 1}
        )
        assert request.method == "P+C"
        assert request.mode == "auto"
        assert request.grid_order == 11
        assert request.workers is None

    def test_join_request_requires_inputs(self):
        with pytest.raises(WireError, match="missing required field 's'"):
            JoinRequest.from_dict({"r": "a_idx"})

    def test_join_request_vocabulary(self):
        with pytest.raises(WireError, match="unknown method"):
            JoinRequest.from_dict({"r": "a", "s": "b", "method": "SQL"})
        with pytest.raises(WireError, match="unknown mode"):
            JoinRequest.from_dict({"r": "a", "s": "b", "mode": "warp"})
        with pytest.raises(WireError, match="unknown predicate"):
            JoinRequest.from_dict({"r": "a", "s": "b", "predicate": "near"})
        with pytest.raises(WireError, match="grid_order"):
            JoinRequest.from_dict({"r": "a", "s": "b", "grid_order": 40})

    def test_predicate_requirement(self):
        with pytest.raises(WireError, match="requires a 'predicate'"):
            JoinRequest.from_dict({"r": "a", "s": "b"}, require_predicate=True)
        request = JoinRequest.from_dict(
            {"r": "a", "s": "b", "predicate": "covered_by"},
            require_predicate=True,
        )
        assert request.predicate == "covered_by"

    def test_build_index_request(self):
        request = BuildIndexRequest.from_dict(
            {"data": "a.wkt", "index": "a_idx", "payload_codec": "raw"}
        )
        assert request.payload_codec == "raw"
        with pytest.raises(WireError, match="payload_codec"):
            BuildIndexRequest.from_dict(
                {"data": "a.wkt", "index": "a_idx", "payload_codec": "zip"}
            )

    def test_type_violations(self):
        with pytest.raises(WireError, match="must be an integer"):
            JoinRequest.from_dict({"r": "a", "s": "b", "grid_order": "11"})
        with pytest.raises(WireError, match="must be a boolean"):
            JoinRequest.from_dict({"r": "a", "s": "b", "include_disjoint": 1})
        with pytest.raises(WireError, match="JSON object"):
            JoinRequest.from_dict(["r", "s"])
