"""Shared plumbing: checkout layout, program environment, inputs,
the ST2 oracle, process accounting and result assembly."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.stats import tail

#: Grid order every workload joins at (the ROADMAP's anchor).
GRID_ORDER = 10

#: Every program process may take at most this long before the run
#: is abandoned, so a wedged program cannot hold a run open for long.
PROCESS_TIMEOUT = 120.0


@dataclass
class Checkout:
    """The repository checkout the benchmark runs from."""

    root: Path

    @property
    def src(self) -> Path:
        return self.root / "src"

    def valid(self) -> bool:
        return (self.src / "repro" / "__main__.py").is_file()

    def env(self) -> dict:
        """Environment of every program process: the checkout's sources
        and no machine calibration profile, so ``mode=auto`` decides the
        same way on every box."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(self.src), str(self.root)])
        env["REPRO_CALIBRATION"] = ""
        return env

    @property
    def scratch(self) -> Path:
        return self.root / ".perfbench_run"

    def workdir(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def outdir(self) -> Path:
        path = self.root / ".perfbench_out"
        path.mkdir(exist_ok=True)
        return path


def prepare_inputs(seed: int, work: Path) -> list:
    """Write the seed's draws (checking seed 0 against the catalog)."""
    draws = inputs.write(seed, work / "inputs")
    if seed == 0:
        inputs.check_catalog(draws[0], work / "seed0-check")
    return draws


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def rows_of(results) -> list:
    """Canonical, order-free rows of wire-style ``[r, s, relation, ...]``."""
    return sorted((int(r[0]), int(r[1]), str(r[2])) for r in results)


def cli_rows(stdout: str) -> list:
    """Rows of ``repro join`` stdout (``r<TAB>relation<TAB>s`` lines)."""
    rows = []
    for line in stdout.splitlines():
        if line and not line.startswith("#"):
            r, relation, s = line.split("\t")
            rows.append((int(r), int(s), relation))
    return sorted(rows)


def oracle(jobs_per_draw: list, env: dict) -> list:
    """Reference rows from the retained ST2 pipeline, run serially.

    ``jobs_per_draw`` holds one list of ``(r_path, s_path, predicate or
    None)`` jobs per draw. Each draw runs in its own
    :mod:`perfbench.oracle` process, all at once and before any timing
    starts; the rows come back in the same shape.
    """
    procs = [
        subprocess.Popen([sys.executable, "-m", "perfbench.oracle"],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        for _ in jobs_per_draw
    ]
    for proc, jobs in zip(procs, jobs_per_draw):
        proc.stdin.write(json.dumps([[str(r), str(s), p] for r, s, p in jobs]))
        proc.stdin.close()
    outputs = []
    for proc in procs:
        outputs.append(proc.stdout.read())
        proc.stdout.close()
        if proc.wait(timeout=PROCESS_TIMEOUT) != 0:
            raise RuntimeError("the ST2 oracle failed")
    return [[[tuple(row) for row in job] for job in json.loads(text)] for text in outputs]


# ----------------------------------------------------------------------
# processes and files
# ----------------------------------------------------------------------
def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_timed(argv: list, env: dict, cwd: Path) -> tuple:
    """Run ``argv`` to completion; returns ``(start, end, code, stdout,
    stderr, maxrss_kb)`` on the ``perf_counter`` clock, with the peak
    resident set of that one child from its own rusage."""
    import threading
    from time import perf_counter

    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    killer.start()
    stderr: list = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    try:
        stdout = proc.stdout.read()
        reader.join()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return start, end, proc.returncode, stdout, stderr[0], usage.ru_maxrss


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process (``VmHWM``), 0 when gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid: int) -> list:
    """Direct children of a live process."""
    pids = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def fail(self, why: str, mismatch: bool = False) -> None:
        self.failed += 1
        self.mismatches += int(mismatch)
        if len(self.problems) < 20:
            self.problems.append(why)

    def problem(self, why: str) -> None:
        """A check that invalidates the run without failing an operation."""
        self.problems.append(why)
        self.details.setdefault("invalid", []).append(why)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and not self.details.get("invalid")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def latency_metrics(self, walls_s: list, draws: list, setup_s: list) -> None:
        """The end-to-end metrics every workload shares.

        ``draws[i]`` is the input draw of operation ``i``. The median is
        taken per draw and averaged over draws, so a run's median does
        not jump between draws as the few middle operations shift; a
        tail too small to lie above the median reports that median.
        """
        walls_ms = [w * 1000.0 for w in walls_s]
        groups: dict = {}
        for draw, wall in zip(draws, walls_ms):
            groups.setdefault(draw, []).append(wall)
        p50 = statistics.mean(statistics.median(g) for g in groups.values())
        value, q, n = tail(walls_ms)
        self.metric("op_p50_ms", p50, "ms")
        self.metric("op_tail_ms", value if q > 50 else p50, "ms")
        self.metric("setup_s", statistics.median(setup_s), "s")
        ok = self.attempted - self.failed
        self.metric("ok_ratio", ok / max(1, self.attempted), "ratio")
        self.details.update(
            op_samples=n, op_tail_percentile=q, setup_samples=[round(s, 4) for s in setup_s],
            op_ms=[[d, round(w, 2)] for d, w in zip(draws, walls_ms)],
        )

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": self.metrics,
        })


def emit(outcome: Outcome, checkout: Checkout, tag: str, extra: dict) -> int:
    """Write the run's details file, print details then the result line."""
    details = {"cpu_count": os.cpu_count(), "problems": outcome.problems,
               **outcome.details}
    (checkout.outdir() / f"{tag}.json").write_text(
        json.dumps({**details, **extra, "metrics": outcome.metrics}), encoding="utf-8"
    )
    bulky = ("records", "setup_records", "op_ms", "op_host_factor")
    print(json.dumps({k: v for k, v in details.items() if k not in bulky}))
    print(outcome.result_line())
    sys.stdout.flush()
    return 0 if outcome.correct else 1
