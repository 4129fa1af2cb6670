"""Calibrated per-mode cost model: the brain behind ``mode="auto"``.

Until PR 6, ``mode="auto"`` picked the parallel path whenever the
caller asked for more than one worker — uninformed by whether this
machine can actually *deliver* parallel speedup. ``BENCH_parallel.json``
records the consequence: on a 1-core box the parallel path runs at
0.75× serial, yet auto kept choosing it. Kipf et al. ("Adaptive
Geospatial Joins for Modern Hardware", PAPERS.md) make the case that
strategy escalation must be driven by *measured* cost, and Tsitsigkos &
Mamoulis ("Parallel In-Memory Evaluation of Spatial Joins") show
partition-parallel speedup is a function of cardinality and core count
— the signals this module turns into a decision.

The model is a calibrated linear cost per execution mode::

    cost(mode) = startup(mode) + per_pair(mode) * candidate_pairs
               [+ raster_per_object * (|R| + |S|)   when the cache is cold]

with the parallel per-pair cost rescaled by the effective parallelism
``min(workers, cpu_count)`` relative to the parallelism it was measured
at. Three sources feed the parameters, in increasing authority:

1. **Bench trajectory seed** — :meth:`CalibrationProfile.seed_from_bench`
   reads the recorded ``BENCH_parallel.json`` / ``BENCH_store.json``
   trajectories, so a checkout that has never calibrated still knows
   this box's serial/parallel ratio.
2. **Calibration runs** — ``python -m repro calibrate`` (see
   :mod:`repro.optimizer.calibrate`) measures the machine directly and
   persists a versioned profile; :class:`Engine` discovers it.
3. **Live refresh** — every executed join feeds its observed per-pair
   wall time back through :meth:`CostModel.observe_run` (EWMA), and the
   same observations land in the ``repro_cost_model_pair_seconds``
   histogram so a fresh process can warm the model from exported
   metrics via :meth:`CostModel.refresh_from_registry`.

Profiles are versioned (``PROFILE_VERSION``) and fingerprint the
machine they were measured on; loading a profile calibrated for a
different core count raises :class:`CalibrationError` — the engine then
falls back to the historical workers-based rule rather than trusting a
stale model.

Auto-mode *selection* arbitrates serial vs parallel (disk joins the
race above a configurable pair threshold; ``"batch"`` is an alias of
serial and has no row of its own). Ties resolve in candidate order —
serial first. Predicted costs for every calibrated mode are reported in
``JoinRun.meta`` so the decision is auditable even for modes it
declined to pick.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

#: Format version of the persisted calibration profile. Bump on any
#: incompatible schema change; loaders reject foreign versions.
PROFILE_VERSION = 1

#: Environment variable overriding the default profile location. Set it
#: to an empty string to disable profile discovery entirely.
PROFILE_ENV = "REPRO_CALIBRATION"

#: EWMA weight of one live observation against the calibrated value.
_EWMA_ALPHA = 0.2

#: Observations over fewer pairs than this are too startup-dominated to
#: say anything about the per-pair cost; skip the EWMA update.
_MIN_OBSERVED_PAIRS = 64

#: Modes the model can carry parameters for.
MODEL_MODES = ("serial", "parallel", "disk")


class CalibrationError(ValueError):
    """A calibration profile that cannot be trusted on this machine."""


def default_profile_path() -> Path:
    """Where ``repro calibrate`` persists and the engine discovers the
    machine's profile: ``$REPRO_CALIBRATION`` when set (empty disables
    discovery), else ``~/.cache/repro/calibration.json``."""
    override = os.environ.get(PROFILE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "calibration.json"


def discovery_disabled() -> bool:
    """True when ``$REPRO_CALIBRATION`` is set to the empty string."""
    return os.environ.get(PROFILE_ENV) == ""


@dataclass
class ModeCost:
    """Linear cost parameters of one execution mode."""

    #: Fixed cost per run (pool fork, tile orchestration, dispatch).
    startup: float
    #: Verification cost per candidate pair, seconds.
    per_pair: float
    #: Extra per-object cost (disk partitioning I/O); 0 for in-memory.
    per_object: float = 0.0

    def to_dict(self) -> dict:
        return {
            "startup": self.startup,
            "per_pair": self.per_pair,
            "per_object": self.per_object,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModeCost":
        return cls(
            startup=float(d["startup"]),
            per_pair=float(d["per_pair"]),
            per_object=float(d.get("per_object", 0.0)),
        )


@dataclass
class CalibrationProfile:
    """A machine's measured per-mode cost parameters, persistable.

    ``machine`` fingerprints where the numbers were measured
    (``cpu_count`` is load-bearing: parallel costs measured on one core
    count do not transfer to another, so :meth:`load` rejects the
    mismatch). ``measured_workers`` records the worker count the
    parallel mode was measured at; predictions rescale from it.
    """

    modes: dict[str, ModeCost]
    machine: dict = field(default_factory=dict)
    measured_workers: int = 1
    #: Seconds to rasterise one object's APRIL approximation (the cold
    #: path's extra work; warm joins skip it entirely).
    raster_per_object: float = 0.0
    #: Auto considers the out-of-core disk mode only above this many
    #: estimated candidate pairs (``inf`` keeps it opt-in only).
    disk_min_pairs: float = math.inf
    source: str = "calibrate"
    created: str = ""
    #: Raw (mode, pairs, seconds) measurements behind the fit.
    samples: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def machine_fingerprint() -> dict:
        return {
            "cpu_count": os.cpu_count() or 1,
            "platform": sys.platform,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        }

    @classmethod
    def seed_from_bench(cls, root: str | Path) -> "CalibrationProfile":
        """A profile seeded from the recorded ``BENCH_*.json`` trajectory.

        Uses the most recent ``find_relation`` entry of
        ``BENCH_parallel.json`` whose ``cpu_count`` matches this machine
        (any entry when none matches) for the serial/parallel per-pair
        costs, and the matching ``preprocess`` entry for the
        rasterisation cost. Raises :class:`CalibrationError` when the
        trajectory holds no usable entry.
        """
        root = Path(root)
        entries = _read_bench(root / "BENCH_parallel.json")
        cpu = os.cpu_count() or 1
        finds = [e for e in entries if e.get("kind") == "find_relation"]
        preps = [e for e in entries if e.get("kind") == "preprocess"]
        local = [e for e in finds if e.get("cpu_count") == cpu]
        pick = (local or finds)[-1] if finds else None
        if pick is None or not pick.get("pairs"):
            raise CalibrationError(
                f"{root}: no usable find_relation entry in BENCH_parallel.json"
            )
        pairs = float(pick["pairs"])
        serial_pp = float(pick["serial_seconds"]) / pairs
        parallel_pp = float(pick["parallel_seconds"]) / pairs
        raster = 0.0
        local_preps = [e for e in preps if e.get("cpu_count") == cpu] or preps
        if local_preps:
            prep = local_preps[-1]
            if prep.get("polygons"):
                raster = float(prep["serial_seconds"]) / float(prep["polygons"])
        samples = [
            {"mode": "serial", "pairs": pairs, "seconds": pick["serial_seconds"]},
            {"mode": "parallel", "pairs": pairs, "seconds": pick["parallel_seconds"]},
        ]
        return cls(
            modes={
                "serial": ModeCost(startup=0.0, per_pair=serial_pp),
                "parallel": ModeCost(startup=0.0, per_pair=parallel_pp),
            },
            machine=cls.machine_fingerprint(),
            measured_workers=int(pick.get("workers", 1)),
            raster_per_object=raster,
            source="bench",
            created=time.strftime("%Y-%m-%dT%H:%M:%S"),
            samples=samples,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "profile_version": PROFILE_VERSION,
            "created": self.created or time.strftime("%Y-%m-%dT%H:%M:%S"),
            "source": self.source,
            "machine": dict(self.machine),
            "measured_workers": self.measured_workers,
            "raster_per_object": self.raster_per_object,
            "disk_min_pairs": (
                None if math.isinf(self.disk_min_pairs) else self.disk_min_pairs
            ),
            "modes": {name: mc.to_dict() for name, mc in self.modes.items()},
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CalibrationProfile":
        version = d.get("profile_version")
        if version != PROFILE_VERSION:
            raise CalibrationError(
                f"unsupported calibration profile version {version!r} "
                f"(this build reads version {PROFILE_VERSION}); recalibrate"
            )
        modes = {
            name: ModeCost.from_dict(mc)
            for name, mc in dict(d.get("modes", {})).items()
            if name in MODEL_MODES
        }
        if "serial" not in modes or "parallel" not in modes:
            raise CalibrationError(
                "calibration profile must cover at least serial and parallel"
            )
        disk_min = d.get("disk_min_pairs")
        return cls(
            modes=modes,
            machine=dict(d.get("machine", {})),
            measured_workers=int(d.get("measured_workers", 1)),
            raster_per_object=float(d.get("raster_per_object", 0.0)),
            disk_min_pairs=math.inf if disk_min is None else float(disk_min),
            source=str(d.get("source", "calibrate")),
            created=str(d.get("created", "")),
            samples=list(d.get("samples", [])),
        )

    def save(self, path: str | Path) -> Path:
        """Atomically persist the profile as JSON; returns the path."""
        from repro.resilience.atomic import atomic_write_text

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path, *, allow_stale: bool = False) -> "CalibrationProfile":
        """Load and validate a persisted profile.

        Raises :class:`CalibrationError` on a foreign format version or
        — unless ``allow_stale`` — on a ``cpu_count`` fingerprint that
        no longer matches this machine (parallel costs do not transfer
        across core counts).
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CalibrationError(f"{path}: corrupt calibration profile: {exc}") from exc
        profile = cls.from_dict(payload)
        recorded = profile.machine.get("cpu_count")
        current = os.cpu_count() or 1
        if not allow_stale and recorded not in (None, current):
            raise CalibrationError(
                f"{path}: profile was calibrated for cpu_count={recorded}, "
                f"this machine has {current}; run `python -m repro calibrate`"
            )
        return profile


def _read_bench(path: Path) -> list[dict]:
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    return data if isinstance(data, list) else []


# ----------------------------------------------------------------------
# features and decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinFeatures:
    """Everything the model looks at for one join request."""

    r_count: int
    s_count: int
    #: Candidate-pair cardinality: exact at the execute level, a
    #: selectivity-histogram estimate at the join level.
    pairs: float
    #: Resolved effective worker request (never ``None``).
    workers: int
    cpu_count: int
    #: True when APRIL approximations are already available (attached
    #: object cache or persisted payload) — the cold path adds
    #: rasterisation cost on top of verification.
    warm: bool = True
    #: False for pipelines that never touch APRIL (ST2/OP2 without a
    #: predicate): rasterisation cost is irrelevant either way.
    needs_april: bool = True

    def to_dict(self) -> dict:
        return {
            "r_count": self.r_count,
            "s_count": self.s_count,
            "pairs": round(float(self.pairs), 1),
            "workers": self.workers,
            "cpu_count": self.cpu_count,
            "warm": self.warm,
            "needs_april": self.needs_april,
        }


@dataclass(frozen=True)
class Decision:
    """One auto-mode verdict, with its full prediction table."""

    mode: str
    #: ``"calibration"`` when a model decided, ``"fallback"`` for the
    #: historical workers-based rule.
    source: str
    predicted: dict[str, float] = field(default_factory=dict)
    features: JoinFeatures | None = None

    def to_meta(self) -> dict:
        meta = {"requested": "auto", "decision": self.mode, "source": self.source}
        if self.predicted:
            meta["predicted_seconds"] = {
                m: round(t, 6) for m, t in sorted(self.predicted.items())
            }
        if self.features is not None:
            meta["features"] = self.features.to_dict()
        return meta


def fallback_decision(workers: int) -> Decision:
    """The historical uninformed rule: parallel iff ``workers > 1``.

    ``workers`` must already be resolved (``None`` → ``default_workers()``
    happens at the caller), so a 1-CPU machine whose default resolves to
    one worker lands on serial instead of a 1-worker parallel pool.
    """
    return Decision(mode="parallel" if workers > 1 else "serial", source="fallback")


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
class CostModel:
    """Predicts per-mode wall time and picks the cheapest viable mode."""

    def __init__(self, profile: CalibrationProfile) -> None:
        self.profile = profile

    # -- prediction ----------------------------------------------------
    def _effective_parallelism(self, workers: int, cpu_count: int) -> float:
        return float(max(1, min(workers, max(1, cpu_count))))

    def predict(self, mode: str, f: JoinFeatures) -> float:
        """Predicted wall seconds of running ``f`` under ``mode``."""
        mc = self.profile.modes.get(mode)
        if mc is None:
            raise KeyError(f"profile has no calibration for mode {mode!r}")
        pairs = max(0.0, float(f.pairs))
        objects = f.r_count + f.s_count
        per_pair = mc.per_pair
        if mode == "parallel":
            measured_eff = self._effective_parallelism(
                self.profile.measured_workers,
                int(self.profile.machine.get("cpu_count", f.cpu_count)),
            )
            eff = self._effective_parallelism(f.workers, f.cpu_count)
            per_pair = mc.per_pair * measured_eff / eff
        cost = mc.startup + per_pair * pairs + mc.per_object * objects
        if f.needs_april and not f.warm and mode != "disk":
            build = self.profile.raster_per_object * objects
            if mode == "parallel":
                build /= self._effective_parallelism(f.workers, f.cpu_count)
            cost += build
        return cost

    def predictions(self, f: JoinFeatures) -> dict[str, float]:
        """The full prediction table over every calibrated mode."""
        return {mode: self.predict(mode, f) for mode in self.profile.modes}

    # -- decision ------------------------------------------------------
    def decide(
        self, f: JoinFeatures, candidates: Sequence[str] = ("serial", "parallel")
    ) -> Decision:
        """The cheapest predicted mode among ``candidates``.

        Ties break toward the earlier candidate (serial before
        parallel, so a 1-worker request can never land on a parallel
        pool of one). Candidates without calibration data are skipped;
        if none remain, the workers-based fallback decides. The disk
        candidate is additionally gated on the profile's
        ``disk_min_pairs`` threshold — out-of-core execution is an
        escape hatch for joins too large for memory, not a latency play.
        """
        viable = []
        for mode in candidates:
            if mode not in self.profile.modes:
                continue
            if mode == "disk" and f.pairs < self.profile.disk_min_pairs:
                continue
            viable.append(mode)
        if not viable:
            return fallback_decision(f.workers)
        predicted = self.predictions(f)
        best = min(viable, key=lambda m: (predicted[m], viable.index(m)))
        return Decision(
            mode=best, source="calibration", predicted=predicted, features=f
        )

    # -- live refresh --------------------------------------------------
    def observe_run(self, mode: str, f: JoinFeatures, wall_seconds: float) -> None:
        """Fold one executed join back into the model (EWMA) and into
        the live obs histograms.

        The observed per-pair cost (wall time net of the calibrated
        startup, divided by pairs) nudges the mode's ``per_pair``
        toward reality, so a model seeded from a stale trajectory
        converges over a session. Runs with too few pairs are recorded
        in the histograms but skipped by the EWMA — their wall time is
        all startup.
        """
        from repro.obs.metrics import get_registry, metrics_enabled

        mc = self.profile.modes.get(mode)
        pairs = float(f.pairs)
        if metrics_enabled():
            registry = get_registry()
            registry.observe("repro_cost_model_wall_seconds", wall_seconds, mode=mode)
            if pairs > 0:
                registry.observe(
                    "repro_cost_model_pair_seconds", wall_seconds / pairs, mode=mode
                )
        if mc is None or pairs < _MIN_OBSERVED_PAIRS:
            return
        observed = max(0.0, wall_seconds - mc.startup) / pairs
        if mode == "parallel":
            # Normalise back to the parallelism the profile was
            # measured at, the frame per_pair is stored in.
            measured_eff = self._effective_parallelism(
                self.profile.measured_workers,
                int(self.profile.machine.get("cpu_count", f.cpu_count)),
            )
            eff = self._effective_parallelism(f.workers, f.cpu_count)
            observed = observed * eff / measured_eff
        if observed > 0.0:
            mc.per_pair = (1.0 - _EWMA_ALPHA) * mc.per_pair + _EWMA_ALPHA * observed

    def refresh_from_registry(self, registry) -> int:
        """Warm the model from ``repro_cost_model_pair_seconds``
        histograms of an exported metrics registry (e.g. a previous
        process's run). Returns the number of modes refreshed."""
        refreshed = 0
        for (name, labels), histogram in getattr(registry, "histograms", {}).items():
            if name != "repro_cost_model_pair_seconds" or histogram.count == 0:
                continue
            mode = dict(labels).get("mode")
            mc = self.profile.modes.get(mode)
            if mc is None:
                continue
            mean = histogram.sum / histogram.count
            if mean > 0.0:
                mc.per_pair = (1.0 - _EWMA_ALPHA) * mc.per_pair + _EWMA_ALPHA * mean
                refreshed += 1
        return refreshed


def load_cost_model(path: str | Path | None = None) -> CostModel | None:
    """Discover the machine's cost model, or ``None``.

    With an explicit ``path`` the profile *must* load (errors
    propagate). Without one, the default location is tried and every
    failure — absent file, foreign version, stale machine fingerprint,
    disabled discovery — quietly yields ``None`` so callers fall back
    to the uncalibrated rule.
    """
    if path is not None:
        return CostModel(CalibrationProfile.load(path))
    if discovery_disabled():
        return None
    default = default_profile_path()
    if not default.exists():
        return None
    try:
        return CostModel(CalibrationProfile.load(default))
    except (CalibrationError, OSError):
        return None


__all__ = [
    "CalibrationError",
    "CalibrationProfile",
    "CostModel",
    "Decision",
    "JoinFeatures",
    "ModeCost",
    "MODEL_MODES",
    "PROFILE_ENV",
    "PROFILE_VERSION",
    "default_profile_path",
    "fallback_decision",
    "load_cost_model",
]
