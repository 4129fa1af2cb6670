"""Command-line interface for the library.

Operates on WKT (one geometry per line) or GeoJSON files — or on
persistent dataset indexes built with ``build-index``::

    python -m repro relate a.wkt b.wkt                # one pair per line pair
    python -m repro join r.wkt s.wkt --method P+C     # full topology join
    python -m repro join r.wkt s.wkt --predicate inside
    python -m repro join r.wkt s.wkt --mode disk      # out-of-core PBSM
    python -m repro build-index r.wkt --index r_idx   # persist the dataset
    python -m repro join r_idx s_idx --index          # warm: no rasterising
    python -m repro calibrate                         # fit the --mode auto cost model
    python -m repro explain r.wkt s.wkt --index 3 7   # why did P+C decide that?
    python -m repro select data.geojson --query "POLYGON((...))" --predicate intersects
    python -m repro approximate data.wkt --grid-order 12 --out approx.npz
    python -m repro stats data.wkt
    python -m repro serve --root indexes/       # long-lived HTTP join service

``join`` and ``explain`` auto-detect index directories (any directory
holding a ``manifest.json``); ``join --index`` makes that a requirement.
The first (cold) join between two indexes persists the shared-grid
APRIL payloads into both, so every later join over the pair loads them
and skips rasterisation entirely.

Observability (``join`` subcommand)::

    python -m repro join r.wkt s.wkt --trace trace.json --metrics-out m.json \
        --explain-sample 3 --run-log runs.jsonl --progress --profile prof.txt

``--profile`` turns on the sampling profiler and resource accounting for
the run: collapsed flamegraph stacks land in PATH, the per-phase
self-time table on stderr, and both payloads in the ``--run-log``
report. ``report`` renders run logs and bench trajectories into one
static HTML dashboard::

    python -m repro report runs.jsonl --out report.html --bench-root .

The experiment harness has its own entry point
(``python -m repro.experiments``), as does the dataset catalog
(``python -m repro.datasets``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import TopologySelection
from repro.datasets.geojson import load_geojson
from repro.datasets.io import load_wkt_file
from repro.geometry import Polygon, loads_wkt_geometry
from repro.geometry.multipolygon import MultiPolygon
from repro.join.run import JoinRun
from repro.store import MODES, Engine, StoreError, default_engine
from repro.topology import TopologicalRelation, most_specific_relation, relate


def _worker_count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {value!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _load_geometries(path: str) -> list:
    """Load polygons/multipolygons from a .wkt or .geojson file."""
    p = Path(path)
    if p.suffix.lower() in (".geojson", ".json"):
        geometries = [f.geometry for f in load_geojson(p)]
    else:
        geometries = load_wkt_file(p)
    areal = [g for g in geometries if isinstance(g, (Polygon, MultiPolygon))]
    if not areal:
        raise SystemExit(f"{path}: no polygonal geometries found")
    return areal


def _predicate(name: str) -> TopologicalRelation:
    for relation in TopologicalRelation:
        if relation.value.replace(" ", "") == name.replace(" ", "").replace("_", "").lower():
            return relation
    raise SystemExit(
        f"unknown predicate {name!r}; choose from "
        f"{[r.value for r in TopologicalRelation]}"
    )


def cmd_relate(args: argparse.Namespace) -> int:
    a_list = _load_geometries(args.a)
    b_list = _load_geometries(args.b)
    n = min(len(a_list), len(b_list))
    for k in range(n):
        matrix = relate(a_list[k], b_list[k])
        relation = most_specific_relation(matrix)
        print(f"{k}\t{matrix.code}\t{relation.value}")
    return 0


def _setup_obs(args: argparse.Namespace) -> None:
    """Enable the observability features the join flags ask for."""
    from repro import obs

    if args.trace:
        obs.set_tracing(True)
        obs.reset_tracing()
    if args.metrics_out:
        obs.set_metrics(True)
        obs.reset_metrics()
    if args.progress:
        obs.set_progress(True)
    if args.profile:
        obs.set_profiling(True)
        obs.reset_profile()
        obs.set_resources(True)
        obs.reset_resources()
        if not args.trace:
            # The phase table's rows come from the span tree; profile
            # without an explicit --trace still needs spans collected.
            obs.set_tracing(True)
            obs.reset_tracing()


def _emit_obs(
    args: argparse.Namespace,
    run: JoinRun,
    r_objects,
    s_objects,
    extra_meta: dict,
) -> None:
    """Write trace/metrics/run-log artifacts after a join run."""
    from repro import obs

    stats = run.stats
    explain_samples = []
    if args.explain_sample and r_objects is not None:
        refined = [
            (link.r_index, link.s_index)
            for link in run.results
            if link.filtered is False
        ]
        explain_samples = obs.sample_explanations(
            r_objects, s_objects, refined, args.explain_sample
        )
        for sample in explain_samples:
            print(
                f"# explain pair ({sample['r_index']}, {sample['s_index']}):",
                file=sys.stderr,
            )
            for line in sample["rendered"].splitlines():
                print(f"#   {line}", file=sys.stderr)

    if args.trace:
        spans = obs.export_spans()
        if args.trace == "-":
            for span in obs.get_spans():
                print(span.render(), file=sys.stderr)
        else:
            import json as _json

            Path(args.trace).write_text(
                _json.dumps(spans, indent=2) + "\n", encoding="utf-8"
            )
            print(f"# wrote span trace to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        json_path, prom_path = obs.write_metrics_files(
            args.metrics_out, obs.get_registry()
        )
        print(f"# wrote metrics to {json_path} and {prom_path}", file=sys.stderr)
    profile_payload = None
    if args.profile:
        payload = obs.export_profile()
        if payload is not None:
            spans = obs.get_spans() if args.trace else None
            rows = obs.phase_table(spans=spans, payload=payload)
            profile_payload = {**payload, "phase_table": rows}
            Path(args.profile).write_text(
                obs.collapsed_stacks(payload) + "\n", encoding="utf-8"
            )
            print(
                f"# wrote {payload['samples']} collapsed profile samples "
                f"to {args.profile}",
                file=sys.stderr,
            )
            for line in obs.format_phase_table(rows).splitlines():
                print(f"# {line}", file=sys.stderr)
        # Stop sampling: a live ITIMER_PROF outliving its handler would
        # kill the interpreter on the way out.
        obs.set_profiling(False)
    if args.run_log:
        report = obs.RunReport(
            kind="join_run",
            method=args.method,
            stats=stats.to_dict(),
            spans=obs.export_spans() if args.trace else [],
            metrics=obs.get_registry().to_dict() if args.metrics_out else None,
            profile=profile_payload,
            resources=run.meta.get("resources"),
            explain_samples=explain_samples,
            meta={
                "r_file": args.r,
                "s_file": args.s,
                "grid_order": args.grid_order,
                "workers": args.workers,
                # The canonical envelope summary (api_version-stamped,
                # derived from JoinRun.to_wire) instead of hand-picked
                # duplicates of its fields — the run log speaks the
                # same v1 contract as the serve API.
                "run": run.to_dict(),
                **extra_meta,
            },
        )
        obs.append_jsonl(args.run_log, report.to_dict())
        print(f"# appended run report to {args.run_log}", file=sys.stderr)


def _resolve_dataset(
    engine,
    path: str,
    require_index: bool,
    on_error: str = "raise",
    strict: bool = True,
):
    """Resolve a CLI input into a dataset: index directory or data file."""
    from repro.resilience import QuarantineReport

    p = Path(path)
    if p.is_dir() and not (p / "manifest.json").exists() and on_error != "rebuild":
        raise SystemExit(f"{path}: directory is not a dataset index (no manifest.json)")
    if require_index and not p.is_dir():
        raise SystemExit(f"{path}: --index requires a dataset index directory "
                         f"(build one with: python -m repro build-index {path} --index DIR)")
    quarantine = QuarantineReport()
    try:
        dataset = engine.dataset(
            p, on_error=on_error, strict=strict, quarantine=quarantine
        )
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from exc
    if quarantine:
        for line in quarantine.render().splitlines():
            print(f"# {line}", file=sys.stderr)
    return dataset


def cmd_join(args: argparse.Namespace) -> int:
    _setup_obs(args)
    if args.calibration:
        try:
            engine = Engine(calibration=args.calibration)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"{args.calibration}: {exc}") from exc
    else:
        engine = default_engine()
    rd = _resolve_dataset(
        engine, args.r, args.index,
        on_error=args.on_index_error, strict=not args.quarantine,
    )
    sd = _resolve_dataset(
        engine, args.s, args.index,
        on_error=args.on_index_error, strict=not args.quarantine,
    )
    predicate = _predicate(args.predicate) if args.predicate else None
    try:
        run = engine.join(
            rd,
            sd,
            method=args.method,
            grid_order=args.grid_order,
            mode=args.mode,
            predicate=predicate,
            workers=args.workers,
            include_disjoint=args.include_disjoint,
            partition_timeout=args.partition_timeout,
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    decision_meta = run.meta.get("cost_model")
    if decision_meta is not None and args.mode == "auto":
        print(
            f"# auto mode -> {decision_meta['decision']} "
            f"({decision_meta['source']})",
            file=sys.stderr,
        )
    if predicate is not None:
        matches = run.matches
        for i, j in matches:
            print(f"{i}\t{predicate.value}\t{j}")
        print(f"# {len(matches)} pairs satisfy {predicate.value}", file=sys.stderr)
        args.explain_sample = 0  # explain narrates find-relation runs only
        extra = {"predicate": predicate.value, "matches": len(matches)}
        if decision_meta is not None:
            extra["cost_model"] = decision_meta
        _emit_obs(args, run, None, None, extra)
    else:
        for link in run.results:
            print(f"{link.r_index}\t{link.relation.value}\t{link.s_index}")
        stats = run.stats
        print(
            f"# {len(run.results)} links from {stats.pairs} candidates; "
            f"{stats.undetermined_pct:.1f}% refined, {stats.throughput:,.0f} pairs/s",
            file=sys.stderr,
        )
        r_objects = s_objects = None
        if args.explain_sample:
            # Explain narrates the APRIL-based filters: fetch the cached
            # object sets with approximations attached.
            grid = engine.join_grid(rd, sd, args.grid_order)
            r_objects = engine.objects(rd, grid)
            s_objects = engine.objects(sd, grid)
        extra = {"links": len(run.results)}
        if decision_meta is not None:
            extra["cost_model"] = decision_meta
        _emit_obs(args, run, r_objects, s_objects, extra)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.serve import AdmissionController, BreakerBoard, JoinService, WorkerPool
    from repro.serve import serve as run_service

    # The daemon is an observability surface: /metrics and the
    # per-request dashboards need the registry and span collector live.
    obs.set_metrics(True)
    obs.set_tracing(True)
    if args.calibration:
        try:
            engine = Engine(calibration=args.calibration)
        except (ValueError, OSError) as exc:
            raise SystemExit(f"{args.calibration}: {exc}") from exc
    else:
        engine = Engine(calibration="auto")
    # With a pool, inflight defaults to the worker count so admitted
    # requests map one-to-one onto workers; single-flight keeps 1.
    max_inflight = args.max_inflight
    if max_inflight is None:
        max_inflight = args.pool_workers if args.pool_workers > 0 else 1
    admission = AdmissionController(
        max_inflight=max_inflight,
        max_queue=args.max_queue,
        default_deadline=args.deadline,
    )
    pool = breakers = None
    if args.pool_workers > 0:
        pool = WorkerPool(args.pool_workers, engine=engine).start()
        if args.breaker_threshold > 0:
            breakers = BreakerBoard(
                threshold=args.breaker_threshold,
                cooldown=args.breaker_cooldown,
            )
    service = JoinService(
        engine,
        admission=admission,
        root=args.root,
        run_history=args.run_history,
        pool=pool,
        breakers=breakers,
        degrade=args.degrade,
    )

    def _ready(host: str, port: int) -> None:
        pool_note = (
            f", pool_workers={args.pool_workers}, degrade={args.degrade}"
            if pool is not None
            else ""
        )
        print(f"# repro serve listening on http://{host}:{port} "
              f"(api v1; max_inflight={max_inflight}, "
              f"max_queue={args.max_queue}, deadline={args.deadline:g}s"
              f"{pool_note})",
              file=sys.stderr)

    return run_service(
        service, args.host, args.port, quiet=args.quiet, ready=_ready
    )


def cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs

    runs: list[dict] = []
    if args.run_log:
        path = Path(args.run_log)
        if not path.exists():
            raise SystemExit(f"{args.run_log}: no such run log")
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(_json.loads(line))
            except ValueError as exc:
                raise SystemExit(f"{args.run_log}: malformed JSONL line: {exc}") from exc
        if args.latest > 0:
            runs = runs[-args.latest:]
    trends = None
    trajectories = obs.load_trajectories(args.bench_root)
    if trajectories:
        trends = [t.to_dict() for t in obs.compute_trends(trajectories)]
    out = obs.write_dashboard(args.out, runs, trends=trends)
    print(f"wrote dashboard to {out} ({out.stat().st_size:,} bytes)")
    if trends is not None:
        regressions = [t for t in trends if t.get("flagged")]
        report = {"checked": len(trends), "regressions": regressions}
        for line in obs.format_regressions(report).splitlines():
            print(f"# {line}", file=sys.stderr)
        if regressions and args.fail_on_regression:
            return 1
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    import os

    from repro.optimizer import CostModel, JoinFeatures, default_profile_path
    from repro.optimizer.calibrate import measure_profile

    profile = measure_profile(
        workers=args.workers,
        repeats=args.repeats,
        scale=args.scale,
        include_disk=args.include_disk,
    )
    out = Path(args.out) if args.out else default_profile_path()
    profile.save(out)
    # The process-default engine may predate this profile; drop it so
    # the next join discovers the fresh calibration.
    from repro.store import set_default_engine

    set_default_engine(None)
    cpu = os.cpu_count() or 1
    print(f"wrote calibration profile to {out}")
    print(f"# machine: {cpu} cpu(s); parallel measured with "
          f"{profile.measured_workers} workers", file=sys.stderr)
    for mode in sorted(profile.modes):
        mc = profile.modes[mode]
        print(f"# {mode:>8}: {mc.startup * 1e3:8.2f} ms startup "
              f"+ {mc.per_pair * 1e6:8.2f} us/pair", file=sys.stderr)
    model = CostModel(profile)
    print("# auto-mode preview (warm index, workers = cpu count):", file=sys.stderr)
    # The same candidate set Engine.join offers a warm P+C find.
    candidates = ("serial", "parallel", "disk")
    for pairs in (100, 10_000, 1_000_000):
        features = JoinFeatures(
            r_count=max(1, pairs // 10),
            s_count=max(1, pairs // 10),
            pairs=float(pairs),
            workers=cpu,
            cpu_count=cpu,
        )
        decision = model.decide(features, candidates)
        print(f"#   {pairs:>9,} pairs -> {decision.mode}", file=sys.stderr)
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    from repro.resilience import QuarantineReport
    from repro.store import build_dataset

    quarantine = QuarantineReport()
    try:
        dataset = build_dataset(
            args.data,
            args.index,
            grid_order=None if args.no_approximate else args.grid_order,
            workers=args.workers,
            strict=not args.quarantine,
            quarantine=quarantine,
            payload_codec=args.payload_codec,
        )
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"{args.data}: {exc}") from exc
    if quarantine:
        for line in quarantine.render().splitlines():
            print(f"# {line}", file=sys.stderr)
    print(f"indexed {len(dataset)} geometries into {args.index}")
    if args.no_approximate:
        print("# approximations deferred: the first join against each "
              "partner dataset builds and persists them", file=sys.stderr)
    else:
        print(f"# APRIL payload precomputed for the dataset's own grid "
              f"(order {args.grid_order})", file=sys.stderr)
        stats = dataset.payload_stats(dataset.grid(args.grid_order))
        if stats is not None:
            print(
                f"# payload codec {stats['codec']}: "
                f"{stats['stored_bytes'] / 1024:.1f} KiB on disk, "
                f"{stats['bytes_per_object']:.1f} B/object, "
                f"{stats['compression_ratio']:.2f}x vs plain intervals",
                file=sys.stderr,
            )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    engine = default_engine()
    rd = _resolve_dataset(engine, args.r, False)
    sd = _resolve_dataset(engine, args.s, False)
    i, j = args.index
    if not (0 <= i < len(rd)):
        raise SystemExit(f"--index r out of range: {i} (input has {len(rd)} geometries)")
    if not (0 <= j < len(sd)):
        raise SystemExit(f"--index s out of range: {j} (input has {len(sd)} geometries)")
    print(f"pair (r={i}, s={j})")
    print(engine.explain(rd, sd, i, j, grid_order=args.grid_order).render())
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    data = _load_geometries(args.data)
    query = loads_wkt_geometry(args.query)
    if not isinstance(query, (Polygon, MultiPolygon)):
        raise SystemExit("--query must be a POLYGON or MULTIPOLYGON WKT")
    index = TopologySelection(data, grid_order=args.grid_order)
    predicate = _predicate(args.predicate)
    hits = index.select(query, predicate)
    for i in hits:
        print(i)
    stats = index.last_query_stats
    print(
        f"# {len(hits)} objects {predicate.value} the query "
        f"(candidates {stats.get('candidates', 0)}, refined {stats.get('refined', 0)})",
        file=sys.stderr,
    )
    return 0


def cmd_approximate(args: argparse.Namespace) -> int:
    from repro.geometry.box import Box
    from repro.parallel import build_april_parallel
    from repro.raster.grid import RasterGrid, pad_dataspace
    from repro.raster.storage import save_approximations

    data = _load_geometries(args.data)
    extent = pad_dataspace(Box.union_all([g.bbox for g in data]))
    grid = RasterGrid(extent, order=args.grid_order)
    approximations = build_april_parallel(data, grid, workers=args.workers)
    save_approximations(args.out, approximations, codec=args.payload_codec)
    total = sum(a.nbytes for a in approximations)
    print(
        f"wrote {len(approximations)} approximations "
        f"({total / 1024:.1f} KiB of intervals) to {args.out}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    data = _load_geometries(args.data)
    vertices = [g.num_vertices for g in data]
    areas = [g.area for g in data]
    print(f"geometries:     {len(data)}")
    print(f"vertices:       total {sum(vertices)}, "
          f"min {min(vertices)}, max {max(vertices)}, "
          f"mean {sum(vertices) / len(vertices):.1f}")
    print(f"area:           total {sum(areas):.3f}, max {max(areas):.3f}")
    multis = sum(1 for g in data if not g.is_connected)
    print(f"multipolygons:  {multis}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relate", help="DE-9IM matrix per aligned geometry pair")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser(
        "join", help="topology join between two files or dataset indexes"
    )
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument("--method", default="P+C", choices=["ST2", "OP2", "APRIL", "P+C"])
    p.add_argument("--predicate", default=None, help="relate_p join instead of find-relation")
    p.add_argument("--grid-order", type=int, default=11)
    p.add_argument("--include-disjoint", action="store_true")
    p.add_argument(
        "--mode", default="auto", choices=list(MODES),
        help="execution mode: serial, batch (alias of serial), parallel, "
             "disk (out-of-core PBSM), or auto (cost-model pick when a "
             "calibration profile exists — see the calibrate subcommand; "
             "otherwise serial/parallel by --workers)",
    )
    p.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="cost-model calibration profile for --mode auto (default: "
             "auto-discover from $REPRO_CALIBRATION, then "
             "~/.cache/repro/calibration.json)",
    )
    p.add_argument(
        "--index", action="store_true",
        help="require both inputs to be dataset index directories built "
             "with build-index (directories are auto-detected regardless)",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for preprocessing + verification (default 1)",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable span tracing; write the span tree as JSON to PATH "
             "('-' renders an ASCII tree to stderr instead)",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable metrics; write the registry as JSON to PATH and "
             "Prometheus text exposition to PATH.prom",
    )
    p.add_argument(
        "--explain-sample", type=int, default=0, metavar="N",
        help="deep-trace the first N undetermined pairs to stderr and "
             "into the run log (find-relation runs only)",
    )
    p.add_argument(
        "--run-log", default=None, metavar="PATH",
        help="append a structured JSONL run report to PATH",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="per-worker heartbeat lines on stderr during the run",
    )
    p.add_argument(
        "--profile", default=None, metavar="PATH",
        help="enable the sampling profiler + resource accounting; write "
             "collapsed flamegraph stacks to PATH and the per-phase "
             "self-time table to stderr (sampling interval via "
             "$REPRO_PROFILE_INTERVAL, default 5ms)",
    )
    p.add_argument(
        "--partition-timeout", type=float, default=None, metavar="SECONDS",
        help="per-partition deadline for parallel runs; a partition that "
             "exceeds it is retried, then re-executed serially (default 300)",
    )
    p.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per failed/hung/crashed partition before the serial "
             "fallback (default 2)",
    )
    p.add_argument(
        "--on-index-error", default="raise", choices=["raise", "rebuild"],
        help="what to do with an unusable dataset index: abort (default) "
             "or rebuild it in place from its source/geometry dump",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="skip malformed input rows (reported on stderr) instead of "
             "aborting the load",
    )
    p.set_defaults(func=cmd_join)

    p = sub.add_parser(
        "serve",
        help="long-running join service over the warm engine (v1 HTTP API)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (default 8642; 0 picks a free port)")
    p.add_argument(
        "--root", default=None, metavar="DIR",
        help="confine request dataset paths to DIR (default: any path "
             "the process can read — bind only to localhost then)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="joins executing concurrently (default: --pool-workers when "
             "a pool is enabled, else 1 — the in-process engine is "
             "single-worker)",
    )
    p.add_argument(
        "--pool-workers", type=int, default=0, metavar="N",
        help="fork N supervised engine worker processes after warm-up "
             "(crash/hang isolation + true join concurrency; default 0 "
             "keeps the single-flight in-process engine)",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive worker failures per dataset before its circuit "
             "breaker opens (pool mode only; default 3, 0 disables)",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SECONDS",
        help="seconds an open breaker waits before admitting its "
             "half-open probe (default 5)",
    )
    p.add_argument(
        "--degrade", choices=("serial", "shed"), default="serial",
        help="policy when no live pool worker exists: run the join "
             "in-process behind the engine lock (serial, default) or "
             "answer 503 until a respawn lands (shed)",
    )
    p.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="requests waiting beyond the inflight cap before 429 "
             "load-shedding kicks in (default 8; 0 sheds immediately)",
    )
    p.add_argument(
        "--deadline", type=float, default=300.0, metavar="SECONDS",
        help="per-request deadline: queue wait counts against it and the "
             "remainder bounds parallel partitions (default 300)",
    )
    p.add_argument(
        "--run-history", type=int, default=64, metavar="N",
        help="recent requests kept for GET /v1/runs/<id> dashboards "
             "(default 64)",
    )
    p.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="cost-model calibration profile for auto-mode requests "
             "(default: auto-discover like the join subcommand)",
    )
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-request access log lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "report",
        help="render run logs + bench trajectories into a static HTML dashboard",
    )
    p.add_argument(
        "run_log", nargs="?", default=None,
        help="JSONL run log written by join --run-log (optional)",
    )
    p.add_argument(
        "--out", default="report.html", metavar="PATH",
        help="dashboard destination (default report.html)",
    )
    p.add_argument(
        "--bench-root", default=".", metavar="DIR",
        help="directory holding BENCH_*.json trajectories (default .)",
    )
    p.add_argument(
        "--latest", type=int, default=5, metavar="N",
        help="render only the newest N run reports (default 5; 0 = all)",
    )
    p.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when the bench-trend gate flags a regression",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "calibrate",
        help="measure this machine and persist the auto-mode cost model",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="profile destination (default: $REPRO_CALIBRATION, then "
             "~/.cache/repro/calibration.json)",
    )
    p.add_argument(
        "--workers", type=_worker_count, default=None,
        help="parallel pool size to measure (default: min(4, cpus), "
             "never less than 2 so the pool overhead is real)",
    )
    p.add_argument(
        "--repeats", type=int, default=2, metavar="N",
        help="timing repeats per measurement; the minimum is kept (default 2)",
    )
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor for the two calibration workloads (default 1.0)",
    )
    p.add_argument(
        "--include-disk", action="store_true",
        help="also measure the out-of-core PBSM mode (slower)",
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "build-index",
        help="build a persistent dataset index for fast repeated joins",
    )
    p.add_argument("data", help="source .wkt or .geojson file")
    p.add_argument("--index", required=True, metavar="DIR",
                   help="index directory to create (manifest + geometries + payloads)")
    p.add_argument("--grid-order", type=int, default=11,
                   help="precompute the APRIL payload for the dataset's own "
                        "grid at this order (default 11)")
    p.add_argument("--no-approximate", action="store_true",
                   help="skip payload precomputation; the first join builds "
                        "and persists payloads lazily")
    p.add_argument("--payload-codec", choices=("varint", "raw"), default="varint",
                   help="on-disk APRIL payload layout: 'varint' (compressed "
                        "delta+varint blob, the default) or 'raw' (version-1 "
                        "flat arrays readable by older builds)")
    p.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for rasterisation (default 1)",
    )
    p.add_argument(
        "--quarantine", action="store_true",
        help="skip malformed input rows (reported on stderr) instead of "
             "aborting the load",
    )
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser(
        "explain", help="trace one pair's journey through the P+C filters"
    )
    p.add_argument("r")
    p.add_argument("s")
    p.add_argument(
        "--index", nargs=2, type=int, default=(0, 0), metavar=("I", "J"),
        help="pair selector: geometry I of the first file vs J of the second "
             "(default: 0 0)",
    )
    p.add_argument("--grid-order", type=int, default=11)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("select", help="topological selection over one file")
    p.add_argument("data")
    p.add_argument("--query", required=True, help="query polygon as WKT")
    p.add_argument("--predicate", default="intersects")
    p.add_argument("--grid-order", type=int, default=11)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("approximate", help="precompute APRIL approximations to .npz")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-order", type=int, default=11)
    p.add_argument("--payload-codec", choices=("varint", "raw"), default="varint",
                   help="payload layout to write (default varint)")
    p.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for rasterisation (default 1)",
    )
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("data")
    p.set_defaults(func=cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
