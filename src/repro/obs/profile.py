"""Zero-dependency statistical sampling profiler with span attribution.

Spans (:mod:`repro.obs.trace`) answer *what ran and for how long*; this
module answers *where the time actually went inside each phase* — the
measurement the paper's cost breakdown (IF vs REF time, decode work)
and the PR 6 cost model's EWMA refresh both need, without the 2-10×
slowdown of a deterministic tracer.

Two backends, picked automatically:

``signal``
    ``signal.setitimer(ITIMER_PROF)`` delivers ``SIGPROF`` every
    *interval* seconds of consumed CPU time; the handler walks the
    interrupted frame stack. Near-zero overhead between samples, but
    POSIX-only and main-thread-only.
``setprofile``
    A ``sys.setprofile`` callback that records a sample when at least
    *interval* seconds of wall time passed since the last one. Works
    everywhere, higher overhead (a Python call per function event);
    kept as the portable fallback.

Each sample is attributed twice:

* a **collapsed stack** (``root;...;leaf``) for flamegraphs, and
* a **phase** — the explicit marker set by hot loops via
  :func:`set_phase`, else the innermost open trace span's name
  normalised through :data:`PHASE_ALIASES` (structural spans such as
  ``partition`` or ``topology_join`` all fold into ``orchestration``
  so serial and parallel runs attribute to the same phase set), else
  ``untraced``.

Fork model mirrors ``trace``/``metrics``: the enabled flag rides into
workers by ``fork``; :func:`begin_worker_capture` clears inherited
counters **and re-arms the interval timer** (itimers do not survive
``fork``), :func:`export_profile` returns a picklable payload, and the
parent merges payloads in partition order via :func:`merge_profiles`.
Sample *counts* are inherently non-deterministic; everything derived
for comparison (:func:`phase_table` phase set and ordering, exported
key order) is deterministic by construction.

Only the standard library is used and nothing here imports from
``repro`` outside ``repro.obs``.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time
from typing import Any

from . import trace as _trace

__all__ = [
    "PHASE_ALIASES",
    "begin_worker_capture",
    "clear_phase",
    "collapsed_stacks",
    "export_profile",
    "format_phase_table",
    "merge_profiles",
    "normalize_phase",
    "phase_table",
    "profiling_enabled",
    "reset_profile",
    "sample_interval",
    "set_phase",
    "set_profiling",
]

#: Default seconds between samples; override with ``REPRO_PROFILE_INTERVAL``.
DEFAULT_INTERVAL = 0.005

#: Frames deeper than this are truncated (runaway recursion guard).
_MAX_DEPTH = 64

#: Structural span names that carry no leaf work of their own. Samples
#: landing in them (and their self-time in :func:`phase_table`) fold
#: into a single ``orchestration`` phase so serial trees
#: (``topology_join > run_find_relation``) and parallel trees
#: (``… > parallel_find > partition > …``) attribute to an identical
#: phase set — the determinism the parallel-merge acceptance test pins.
PHASE_ALIASES: dict[str, str] = {
    "topology_join": "orchestration",
    "run_find_relation": "orchestration",
    "run_relate": "orchestration",
    "parallel_find": "orchestration",
    "parallel_relate": "orchestration",
    "partition": "orchestration",
    "tile": "orchestration",
    "disk_join": "orchestration",
    "serial_fallback": "orchestration",
    "cost_model_decision": "orchestration",
}

_ENABLED = False
_BACKEND = ""
_INTERVAL = DEFAULT_INTERVAL
_STACKS: dict[str, int] = {}
_PHASES: dict[str, int] = {}
_SAMPLES = 0
_DROPPED = 0
# Explicit phase marker for hot loops that run outside (or across)
# span boundaries; set/cleared once per loop, not per pair.
_CURRENT_PHASE: str | None = None
# setprofile backend bookkeeping.
_NEXT_SAMPLE = 0.0


def normalize_phase(name: str) -> str:
    """Map a span name to its phase (structural → ``orchestration``)."""
    return PHASE_ALIASES.get(name, name)


def set_phase(name: str | None) -> None:
    """Set the explicit phase marker for subsequent samples.

    Hot loops call this once around the loop (two calls total); the
    marker takes precedence over span-stack attribution because the
    per-pair work happens *between* spans (the aggregate ``refine``
    span is attached after the fact with a pre-measured duration).
    """
    global _CURRENT_PHASE
    _CURRENT_PHASE = name


def clear_phase() -> None:
    """Clear the explicit phase marker (back to span attribution)."""
    global _CURRENT_PHASE
    _CURRENT_PHASE = None


def _active_phase() -> str:
    if _CURRENT_PHASE is not None:
        return _CURRENT_PHASE
    stack = _trace._COLLECTOR.stack
    if stack:
        return normalize_phase(stack[-1].name)
    return "untraced"


def _record(frame: Any) -> None:
    """Fold one sample (interrupted frame + active phase) into counters."""
    global _SAMPLES, _DROPPED
    parts: list[str] = []
    depth = 0
    f = frame
    while f is not None and depth < _MAX_DEPTH:
        code = f.f_code
        parts.append(
            f"{code.co_name} ({os.path.basename(code.co_filename)}:"
            f"{code.co_firstlineno})"
        )
        f = f.f_back
        depth += 1
    if f is not None:
        _DROPPED += 1
    parts.reverse()
    key = ";".join(parts)
    _STACKS[key] = _STACKS.get(key, 0) + 1
    phase = _active_phase()
    _PHASES[phase] = _PHASES.get(phase, 0) + 1
    _SAMPLES += 1


# ----------------------------------------------------------------------
# signal backend
# ----------------------------------------------------------------------
def _sigprof_handler(signum: int, frame: Any) -> None:
    _record(frame)


def _signal_available() -> bool:
    return hasattr(signal, "setitimer") and hasattr(signal, "SIGPROF")


_ATEXIT_ARMED = False


def _arm_signal(interval: float) -> None:
    # A still-running ITIMER_PROF kills the process with SIGPROF once
    # interpreter shutdown tears the Python handler down, so the timer
    # must always be stopped before exit.
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        atexit.register(_disarm_signal)
        _ATEXIT_ARMED = True
    signal.signal(signal.SIGPROF, _sigprof_handler)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)


def _disarm_signal() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
    signal.signal(signal.SIGPROF, signal.SIG_DFL)


# ----------------------------------------------------------------------
# setprofile backend
# ----------------------------------------------------------------------
def _profile_callback(frame: Any, event: str, arg: Any) -> None:
    global _NEXT_SAMPLE
    now = time.perf_counter()
    if now >= _NEXT_SAMPLE:
        _NEXT_SAMPLE = now + _INTERVAL
        _record(frame)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def set_profiling(
    enabled: bool,
    interval: float | None = None,
    backend: str | None = None,
) -> None:
    """Turn sampling on or off (module-wide).

    ``interval`` defaults to ``REPRO_PROFILE_INTERVAL`` (seconds) or
    :data:`DEFAULT_INTERVAL`; ``backend`` forces ``"signal"`` or
    ``"setprofile"`` instead of auto-detection.
    """
    global _ENABLED, _BACKEND, _INTERVAL, _NEXT_SAMPLE
    if enabled and _ENABLED:
        set_profiling(False)
    if not enabled:
        if _ENABLED:
            if _BACKEND == "signal":
                _disarm_signal()
            else:
                sys.setprofile(None)
        _ENABLED = False
        return
    if interval is None:
        try:
            interval = float(os.environ.get("REPRO_PROFILE_INTERVAL", ""))
        except ValueError:
            interval = DEFAULT_INTERVAL
        if not interval or interval <= 0:
            interval = DEFAULT_INTERVAL
    _INTERVAL = float(interval)
    if backend is None:
        backend = "signal" if _signal_available() else "setprofile"
    if backend not in ("signal", "setprofile"):
        raise ValueError(f"unknown profiler backend: {backend!r}")
    if backend == "signal" and not _signal_available():
        backend = "setprofile"
    _BACKEND = backend
    _ENABLED = True
    if backend == "signal":
        _arm_signal(_INTERVAL)
    else:
        _NEXT_SAMPLE = time.perf_counter() + _INTERVAL
        sys.setprofile(_profile_callback)


def profiling_enabled() -> bool:
    return _ENABLED


def sample_interval() -> float:
    """The configured seconds-per-sample (meaningful while enabled)."""
    return _INTERVAL


def reset_profile() -> None:
    """Drop collected samples (the enabled flag/timer are unchanged)."""
    global _STACKS, _PHASES, _SAMPLES, _DROPPED
    _STACKS = {}
    _PHASES = {}
    _SAMPLES = 0
    _DROPPED = 0


def begin_worker_capture() -> None:
    """Start fresh capture in a forked worker.

    Counters inherited by copy-on-write are cleared, and — unlike the
    enabled *flag* — the interval timer does **not** survive ``fork``,
    so the worker re-arms its own before doing any work.
    """
    reset_profile()
    clear_phase()
    if _ENABLED:
        if _BACKEND == "signal":
            _arm_signal(_INTERVAL)
        else:
            global _NEXT_SAMPLE
            _NEXT_SAMPLE = time.perf_counter() + _INTERVAL
            sys.setprofile(_profile_callback)


# ----------------------------------------------------------------------
# export / merge
# ----------------------------------------------------------------------
def export_profile() -> dict[str, Any] | None:
    """Collected samples as a picklable/JSON-safe payload.

    Returns ``None`` when profiling is disabled and nothing was
    sampled. Keys are sorted so equal sample sets export identically
    regardless of arrival order.
    """
    if not _ENABLED and not _SAMPLES:
        return None
    return {
        "backend": _BACKEND,
        "interval": _INTERVAL,
        "samples": _SAMPLES,
        "dropped_frames": _DROPPED,
        "stacks": {k: _STACKS[k] for k in sorted(_STACKS)},
        "phases": {k: _PHASES[k] for k in sorted(_PHASES)},
    }


def merge_profiles(payloads: list[dict[str, Any] | None]) -> None:
    """Fold worker payloads into the live counters, in list order.

    Addition is commutative, so partition-order merging plus sorted
    export keys make the merged payload independent of worker timing.
    """
    global _SAMPLES, _DROPPED
    for payload in payloads:
        if not payload:
            continue
        for key, n in payload.get("stacks", {}).items():
            _STACKS[key] = _STACKS.get(key, 0) + int(n)
        for key, n in payload.get("phases", {}).items():
            _PHASES[key] = _PHASES.get(key, 0) + int(n)
        _SAMPLES += int(payload.get("samples", 0))
        _DROPPED += int(payload.get("dropped_frames", 0))


def collapsed_stacks(payload: dict[str, Any] | None = None) -> str:
    """Samples in collapsed-stack (flamegraph folded) format.

    One ``root;child;leaf count`` line per distinct stack, sorted —
    directly consumable by ``flamegraph.pl``, speedscope, or the
    built-in dashboard.
    """
    stacks = (payload or export_profile() or {}).get("stacks", {})
    return "\n".join(f"{key} {stacks[key]}" for key in sorted(stacks))


# ----------------------------------------------------------------------
# phase table
# ----------------------------------------------------------------------
def phase_table(
    spans: list[_trace.Span] | None = None,
    payload: dict[str, Any] | None = None,
) -> list[dict[str, Any]]:
    """Deterministic per-phase self-time table with sample counts joined.

    The *rows* come from the span tree: each span contributes its
    self-time (duration minus direct children) to its normalised
    phase, and phases sort alphabetically — so serial and
    merged-parallel runs of the same join yield the same phase set in
    the same order. Sample counts (noisy, run-dependent) are joined on
    as evidence, never used to define rows; samples in phases without
    a span (e.g. ``untraced``) are reported in the payload but get no
    row here.
    """
    roots = _trace.get_spans() if spans is None else spans
    if payload is None:
        payload = export_profile()
    samples = (payload or {}).get("phases", {})
    total_samples = sum(samples.values())

    self_seconds: dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            child_sum = sum(c.seconds for c in span.children)
            self_t = span.seconds - child_sum
            if self_t < 0.0:
                self_t = 0.0
            phase = normalize_phase(span.name)
            self_seconds[phase] = self_seconds.get(phase, 0.0) + self_t

    rows: list[dict[str, Any]] = []
    for phase in sorted(self_seconds):
        count = int(samples.get(phase, 0))
        rows.append(
            {
                "phase": phase,
                "self_seconds": self_seconds[phase],
                "samples": count,
                "sample_share": (count / total_samples) if total_samples else 0.0,
            }
        )
    return rows


def format_phase_table(rows: list[dict[str, Any]]) -> str:
    """ASCII rendering of :func:`phase_table` for stderr / logs."""
    if not rows:
        return "(no phases recorded)"
    lines = [f"{'phase':<20} {'self ms':>10} {'samples':>8} {'share':>7}"]
    for row in rows:
        lines.append(
            f"{row['phase']:<20} {row['self_seconds'] * 1e3:>10.3f} "
            f"{row['samples']:>8d} {row['sample_share'] * 100:>6.1f}%"
        )
    return "\n".join(lines)
