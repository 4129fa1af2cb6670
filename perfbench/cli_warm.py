"""``cli-warm``: a fresh ``python -m repro join --index`` process per
operation over warm OLE-OPE indexes, closed loop, one process.

Set-up, timed each time, is the cold CLI build of one input draw: both
indexes with ``build-index --no-approximate``, then the first join with
``--workers 2``, which rasterises on both workers and persists the
payloads. Every draw is set up once before the first operation.
Operations then rotate over the draws' index pairs for ``--seconds`` of
operation time, and every operation's stdout is compared with the ST2
oracle. The untraced run also sets a draw up afresh after every
:data:`SETUP_EVERY` operations, into a new directory that later
operations on that draw use, so ``setup_s`` is the median of set-ups
spread over the whole run rather than of a few taken at its start.
Each operation and set-up is timed between two host probes
(:mod:`perfbench.probe`) and divided by their host factor, so its time
reads as on the reference host; the run's median factor goes to the
details line.

The traced run launches its set-ups, and every other block of
operations, through :mod:`perfbench.cli_child`, which records layer
spans. The set-ups give the cold path's layers
(:data:`perfbench.layers.SETUP_METRICS`: build, rasterise, payload
write, parallel executor); the operations give the rest.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from time import perf_counter

from perfbench.common import (
    GRID_ORDER,
    PROCESS_TIMEOUT,
    Outcome,
    cli_rows,
    oracle,
    prepare_inputs,
    run_timed,
    tree_bytes,
)
from perfbench.layers import op_record, per_layer_metrics, program_counts
from perfbench.probe import host_factor, probe

#: Operations between two set-ups interleaved with them (untraced run).
SETUP_EVERY = 6

#: Worker processes of the set-up's first, rasterising join.
SETUP_WORKERS = 2


def _join_argv(r_idx, s_idx) -> list:
    return ["join", str(r_idx), str(s_idx), "--index", "--grid-order", str(GRID_ORDER)]


def _merged(dump_paths: list) -> dict:
    """Span dumps of several processes as one, span ids made unique."""
    spans, counts, runs = [], {}, []
    for path in dump_paths:
        dump = json.loads(path.read_text())
        base = len(spans)
        spans += [{**s, "id": s["id"] + base,
                   "parent": None if s["parent"] is None else s["parent"] + base}
                  for s in dump["spans"]]
        for name, value in dump["counts"].get("0", {}).items():
            counts[name] = counts.get(name, 0) + value
        runs += dump["runs"]
    return {"spans": spans, "counts": counts, "runs": runs}


def _setup(work, paths, env, expected, out: Outcome, trace: bool = False) -> tuple:
    """Build both indexes and run the first join in ``work``; returns
    ``(seconds, record)``, the record of its layer spans when traced."""
    steps = [
        ["build-index", str(paths["OLE"]), "--index", str(work / "r_idx"), "--no-approximate"],
        ["build-index", str(paths["OPE"]), "--index", str(work / "s_idx"), "--no-approximate"],
        [*_join_argv("r_idx", "s_idx"), "--workers", str(SETUP_WORKERS)],
    ]
    dumps = []
    start = perf_counter()
    for args in steps:
        argv = [sys.executable, "-m", "repro", *args]
        if trace:
            dumps.append(work / f"setup-spans{len(dumps)}.json")
            argv = [sys.executable, "-m", "perfbench.cli_child", str(dumps[-1]), *args]
        _s, _e, code, stdout, err, _rss = run_timed(argv, env, work)
        if code != 0:
            raise RuntimeError(f"set-up {args[0]} exited {code}: {err[-400:]}")
    seconds = perf_counter() - start
    if cli_rows(stdout) != expected:
        out.attempted += 1
        out.fail("first (rasterising) join rows differ from the ST2 oracle", mismatch=True)
    if not trace:
        return seconds, None
    dump = _merged(dumps)
    return seconds, op_record(seconds, dump["spans"], dump["runs"][0], dump["counts"])


def run(checkout, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    work = checkout.workdir(f"cli-warm-{seed}")
    draws = prepare_inputs(seed, work)
    env = checkout.env()
    expected = [rows[0] for rows in oracle([[(d["OLE"], d["OPE"], None)] for d in draws], env)]

    setup_s, setup_records = [], []

    def set_up(k: int):
        idx = work / f"setup{len(setup_s)}"
        idx.mkdir()
        before = probe()
        took, record = _setup(idx, draws[k], env, expected[k], out, trace)
        setup_s.append(took / host_factor(before, probe()))
        if record is not None:
            setup_records.append(record)
        return idx

    index_dirs = [set_up(k) for k in range(len(draws))]
    index_bytes = sum(tree_bytes(idx / "r_idx") + tree_bytes(idx / "s_idx")
                      for idx in index_dirs)
    source_bytes = sum(d["OLE"].stat().st_size + d["OPE"].stat().st_size for d in draws)

    plain_argv = [sys.executable, "-m", "repro", *_join_argv("r_idx", "s_idx")]
    walls, op_draws, plain_walls, traced_walls, rss_kb, records = [], [], [], [], [], []
    counters, factors = [], []
    ok = 0
    setting_up = 0.0
    began = perf_counter()
    while perf_counter() - began - setting_up < seconds:
        if not trace and walls and len(walls) % SETUP_EVERY == 0:
            fresh = len(setup_s) % len(draws)
            t = perf_counter()
            shutil.rmtree(index_dirs[fresh])
            index_dirs[fresh] = set_up(fresh)
            setting_up += perf_counter() - t
        k = len(walls) % len(draws)
        idx = index_dirs[k]
        traced = trace and (len(walls) // len(draws)) % 2 == 1
        argv = plain_argv
        if traced:
            spans_path, metrics_path = idx / "spans.json", idx / "metrics.json"
            argv = [sys.executable, "-m", "perfbench.cli_child", str(spans_path),
                    *_join_argv("r_idx", "s_idx"), "--metrics-out", str(metrics_path)]
        before = probe()
        start, end, code, stdout, err, maxrss = run_timed(argv, env, idx)
        factors.append(host_factor(before, probe()))
        out.attempted += 1
        wall = (end - start) / factors[-1]
        if code != 0:
            out.fail(f"join exited {code}: {err[-300:]}")
            wall = PROCESS_TIMEOUT
        elif cli_rows(stdout) != expected[k]:
            out.fail("join rows differ from the ST2 oracle", mismatch=True)
            wall = PROCESS_TIMEOUT
        else:
            ok += 1
        walls.append(wall)
        op_draws.append(k)
        rss_kb.append(maxrss)
        (traced_walls if traced else plain_walls).append(wall)
        if traced and code == 0:
            dump = json.loads(spans_path.read_text())
            counters += json.loads(metrics_path.read_text())["counters"]
            records.append(op_record(
                end - start, dump["spans"], dump["runs"][0],
                dict(dump["counts"].get("0", {}))))

    details = {"workload": "cli-warm", "seed": seed,
               "host_factor": statistics.median(factors),
               "op_host_factor": [round(f, 4) for f in factors]}
    if trace:
        prog = program_counts(counters)
        out.metrics = per_layer_metrics(
            records,
            cache_hits=prog["cache_hits"], cache_lookups=prog["cache_lookups"],
            fallbacks=prog["fallbacks"],
            trace_overhead=statistics.median(traced_walls) / statistics.median(plain_walls),
            setup_records=setup_records,
        )
        if prog["april_built"]:
            out.problem("a warm CLI join rasterised (repro_april_built_total > 0)")
        details["records"] = records
        details["setup_records"] = setup_records
    else:
        out.latency_metrics(walls, op_draws, setup_s)
        out.metric("throughput_rps", ok / sum(walls), "1/s")
        out.metric("peak_rss_mb", max(rss_kb) / 1024.0, "MB")
        out.metric("index_bytes_ratio", index_bytes / source_bytes, "ratio")
    out.details.update(details)
    return out

