"""repro.resilience — fault-tolerant execution for every layer.

The production north star is a system that survives the failures a
production system actually sees: OOM-killed fork workers, processes
crashing mid-persist, and dirty real-world input. This package is the
shared substrate the executor, preprocessing, store and dataset-loading
layers build their fault tolerance on:

- :mod:`repro.resilience.failpoints` — deterministic, seeded fault
  injection at named sites (``worker.crash``, ``worker.hang``,
  ``store.torn_write``, ``io.bad_row``), armed via API or the
  ``REPRO_FAILPOINTS`` environment variable, so every chaos schedule
  replays bit-identically.
- :mod:`repro.resilience.supervisor` — :class:`ForkWorker`, the one
  fork-worker primitive (a forked process that owns a private duplex
  pipe, shared with the daemon's worker pool), and
  :func:`supervised_map`, the ``pool.map`` replacement built on it with
  per-task deadlines, dead-worker detection, bounded retries with
  backoff, and an in-parent serial fallback; completes with correct
  results for any failure schedule.
- :mod:`repro.resilience.atomic` — tmp + fsync + ``os.replace`` writes
  so store artifacts are never torn.
- :mod:`repro.resilience.quarantine` — typed reports for malformed
  input rows skipped by lenient dataset loads.

Every recovery action is surfaced through :mod:`repro.obs` as
``repro_resilience_*`` counters; see ``docs/robustness.md`` for the
failpoint catalogue and the degradation matrix.
"""

from repro.resilience.atomic import atomic_write_bytes, atomic_write_text, atomic_writer
from repro.resilience.failpoints import (
    KNOWN_SITES,
    FailpointError,
    arm,
    armed,
    disarm,
    disarm_all,
    inject,
    load_env_spec,
    maybe_fail_worker,
    should_fire,
)
from repro.resilience.quarantine import QuarantinedRow, QuarantineReport
from repro.resilience.supervisor import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_PARTITION_TIMEOUT,
    SupervisionReport,
    supervised_map,
)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_PARTITION_TIMEOUT",
    "FailpointError",
    "KNOWN_SITES",
    "QuarantineReport",
    "QuarantinedRow",
    "SupervisionReport",
    "arm",
    "armed",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_writer",
    "disarm",
    "disarm_all",
    "inject",
    "load_env_spec",
    "maybe_fail_worker",
    "should_fire",
    "supervised_map",
]
