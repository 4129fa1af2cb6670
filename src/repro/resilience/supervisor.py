"""Supervised fan-out over fork workers that each own a private pipe.

A bare ``Pool.map`` has three failure modes that all end the same way —
a join that never returns: a worker OOM-killed mid-task leaves its
result unresolved forever, a worker stuck in a pathological refinement
hangs the barrier, and a task whose result cannot travel the pipe
poisons the whole map call. :func:`supervised_map` replaces the barrier
with per-task supervision over :class:`ForkWorker` processes:

- a task is sent only to an **idle** worker, so its **deadline**
  (``partition_timeout`` seconds per attempt) runs from the moment it
  starts, never while it waits behind another task;
- a worker **death** shows at once as EOF on its pipe or as its process
  sentinel becoming ready, and fails exactly the task it was running;
- an attempt past its deadline is **SIGKILLed at once** and its slot
  respawned. Nothing else shares the worker's pipe, so the kill can
  never leave another process's state half-written;
- failed tasks are **retried** with exponential backoff, at most
  ``max_retries`` times;
- tasks that exhaust their retries fall back to **in-parent serial
  re-execution** — slower but isolated from every worker pathology —
  so the merged result is complete for *any* failure schedule.

Tasks must be idempotent and side-effect free (the executor's partition
workers are pure functions of fork-inherited state). At most one
attempt of a task is ever live, and only its reply is accepted, so the
first result per task wins and per-worker metric payloads are merged
exactly once.

Everything is observable: retries, timeouts, worker deaths and serial
fallbacks surface as ``repro_resilience_*`` counters (when metrics are
on) and are summarised in the returned :class:`SupervisionReport`.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable

from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import trace
from repro.resilience import failpoints

log = logging.getLogger("repro.resilience")

#: Default per-attempt deadline. Generous — it is a hang backstop, not
#: a performance target — but finite, so no schedule blocks forever.
DEFAULT_PARTITION_TIMEOUT = 300.0
DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF = 0.05

#: Seconds a freshly forked worker has to send its ready ack.
READY_TIMEOUT = 30.0

_READY = ("ready",)

#: Every fork-worker pipe end open in this process: the parent ends of
#: the workers it forked and, inside a worker, its end to its own
#: parent. A new worker closes all the copies it inherits, so each pipe
#: has exactly two holders and EOF on it means the other holder is gone.
_PIPE_ENDS: set = set()


def _fork_main(main: Callable, conn, args: tuple) -> None:
    for end in _PIPE_ENDS:
        end.close()
    _PIPE_ENDS.clear()
    _PIPE_ENDS.add(conn)
    # Interrupts are the parent's to handle; it kills its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(_READY)
    main(conn, *args)


class ForkWorker:
    """One forked worker process that owns a private duplex pipe.

    The child closes every inherited fork-worker pipe end but its own,
    acks ready, then runs ``main(conn, *args)``. The constructor returns
    once the ack has arrived. Because no other process holds the pipe,
    :meth:`kill` is always safe, and the worker's death shows in the
    parent as EOF on :attr:`conn` and as ``proc.sentinel`` becoming ready.
    """

    __slots__ = ("proc", "conn")

    def __init__(self, main: Callable, *args, name: str) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe(duplex=True)
        _PIPE_ENDS.add(self.conn)
        self.proc = ctx.Process(target=_fork_main, args=(main, child_end, args), name=name)
        try:
            self.proc.start()
        except BaseException:
            self.conn.close()
            _PIPE_ENDS.discard(self.conn)
            raise
        finally:
            child_end.close()
        try:
            ready = self.conn.poll(READY_TIMEOUT) and self.conn.recv() == _READY
        except (EOFError, OSError):
            ready = False
        if not ready:
            self.kill()
            raise RuntimeError(f"{name} never became ready")

    def kill(self) -> None:
        """SIGKILL the worker, reap it and close the pipe. Idempotent."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()
        _PIPE_ENDS.discard(self.conn)


@dataclass
class SupervisionReport:
    """What the supervisor had to do to complete one fan-out."""

    tasks: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    worker_errors: int = 0
    fallbacks: int = 0
    #: Task indexes that ended in the serial fallback.
    fallback_tasks: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.retries == 0 and self.fallbacks == 0

    def to_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "worker_errors": self.worker_errors,
            "fallbacks": self.fallbacks,
            "fallback_tasks": list(self.fallback_tasks),
        }


def _observe(name: str, value: int = 1, **labels) -> None:
    if metrics_enabled():
        get_registry().inc(name, value, **labels)


def _task_main(conn, worker: Callable) -> None:
    """A supervised worker's loop: run each ``(index, attempt)`` it is
    sent and reply ``("ok", result)`` or ``("error", message)``."""
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return  # the parent is gone
        try:
            reply = ("ok", worker(task))
        except Exception as exc:
            reply = ("error", repr(exc))
        try:
            conn.send(reply)
        except OSError:
            return
        except Exception as exc:  # the result does not pickle
            conn.send(("error", f"unpicklable result: {exc!r}"))


def _reply(worker: ForkWorker):
    """The worker's reply, or ``None`` when it died."""
    try:
        return worker.conn.recv() if worker.conn.poll() else None
    except (EOFError, OSError):
        return None


def supervised_map(
    worker: Callable,
    task_count: int,
    *,
    workers: int,
    serial_runner: Callable[[int], object],
    stage: str,
    partition_timeout: float | None = None,
    max_retries: int | None = None,
    backoff: float = DEFAULT_BACKOFF,
) -> tuple[list, SupervisionReport]:
    """Run ``worker((index, attempt))`` for every task index, supervised.

    Returns ``(results, report)`` with ``results`` index-aligned —
    exactly what ``pool.map(worker, range(task_count))`` would return on
    a healthy pool, whatever the workers did. The caller is responsible
    for installing any fork-inherited state *before* calling and
    clearing it *after* (the serial fallback reads the same state, so
    it must stay installed for the duration).
    """
    if partition_timeout is None:
        partition_timeout = DEFAULT_PARTITION_TIMEOUT
    if max_retries is None:
        max_retries = DEFAULT_MAX_RETRIES
    if partition_timeout <= 0:
        raise ValueError(f"partition_timeout must be positive, got {partition_timeout}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    report = SupervisionReport(tasks=task_count)
    results: list = [None] * task_count
    if task_count == 0:
        return results, report

    # Arm env-specified failpoints in the parent *before* the fork so
    # workers inherit both the sites and the parent's arming pid.
    failpoints._ensure_env_loaded()

    clock = time.monotonic
    size = max(1, min(workers, task_count))
    #: (index, attempt) ready to send to the next idle worker.
    queue: deque = deque((k, 1) for k in range(task_count))
    #: index -> (next attempt, not-before time): backoff queue.
    waiting: dict[int, tuple[int, float]] = {}
    #: worker -> (index, attempt, deadline) it is running.
    running: dict[ForkWorker, tuple[int, int, float]] = {}
    idle: list[ForkWorker] = []
    fallback: list[int] = []

    def spawn() -> ForkWorker:
        return ForkWorker(_task_main, worker, name=f"{stage}-worker")

    def fail(index: int, attempt: int, kind: str) -> None:
        if attempt > max_retries:
            report.fallbacks += 1
            report.fallback_tasks.append(index)
            fallback.append(index)
            _observe("repro_resilience_fallback_total", stage=stage)
            log.warning(
                "%s task %d failed attempt %d (%s); falling back to serial",
                stage, index, attempt, kind,
            )
        else:
            report.retries += 1
            delay = backoff * (2 ** (attempt - 1))
            waiting[index] = (attempt + 1, clock() + delay)
            _observe("repro_resilience_retry_total", stage=stage, kind=kind)
            log.warning(
                "%s task %d attempt %d failed (%s); retrying in %.3fs",
                stage, index, attempt, kind, delay,
            )

    try:
        idle.extend(spawn() for _ in range(size))
        while queue or waiting or running:
            now = clock()
            for index, (attempt, not_before) in list(waiting.items()):
                if now >= not_before:
                    del waiting[index]
                    queue.append((index, attempt))
            while queue and (idle or len(running) < size):
                w = idle.pop() if idle else spawn()
                index, attempt = queue.popleft()
                # A worker that died idle cannot take the task; its
                # sentinel then fails the attempt like any other death.
                with contextlib.suppress(OSError):
                    w.conn.send((index, attempt))
                running[w] = (index, attempt, clock() + partition_timeout)
            wakeups = [d for _, _, d in running.values()]
            wakeups += [not_before for _, not_before in waiting.values()]
            ready = wait(
                [obj for w in running for obj in (w.conn, w.proc.sentinel)],
                max(0.0, min(wakeups) - clock()),
            )
            now = clock()
            for w, (index, attempt, deadline) in list(running.items()):
                if w.conn in ready or w.proc.sentinel in ready:
                    del running[w]
                    reply = _reply(w)
                    if reply is None:
                        w.kill()
                        report.worker_deaths += 1
                        _observe("repro_resilience_worker_deaths_total", stage=stage)
                        fail(index, attempt, "death")
                        continue
                    idle.append(w)
                    if reply[0] == "ok":
                        results[index] = reply[1]
                    else:
                        report.worker_errors += 1
                        fail(index, attempt, "error")
                elif now >= deadline:
                    del running[w]
                    w.kill()
                    report.timeouts += 1
                    fail(index, attempt, "timeout")
    finally:
        for w in idle + list(running):
            w.kill()

    for index in fallback:
        with trace("serial_fallback", stage=stage, task=index):
            results[index] = serial_runner(index)
    return results, report


__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_PARTITION_TIMEOUT",
    "READY_TIMEOUT",
    "ForkWorker",
    "SupervisionReport",
    "supervised_map",
]
