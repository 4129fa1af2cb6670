"""The four evaluated find-relation pipelines and the relate_p pipeline.

Methods (paper Sec. 4):

- **ST2** — standard 2-phase: MBR disjointness test, then a full DE-9IM
  computation checked against all relation masks.
- **OP2** — optimized 2-phase: the enhanced MBR filter of Sec. 3.1
  narrows the candidate relations (and resolves the CROSS case), but
  every surviving pair is still refined.
- **APRIL** — optimized MBR filter + the intersection-only intermediate
  filter of [14]: joins ``rC×sC`` (no overlap ⟹ disjoint, final) and
  ``rC×sP`` / ``rP×sC`` (overlap ⟹ definite intersection — which still
  goes to refinement, because a more specific relation may hold; the
  proven interior intersection only removes disjoint/meets masks).
- **P+C** — the paper's contribution (Algorithm 1): the MBR case
  dispatches to a specialised intermediate filter (Fig. 5) that can
  prove the most specific relation outright.

Every pipeline ends in the same refinement primitive — a DE-9IM matrix
matched against its candidate masks in specific-to-general order — so
differences between methods are purely in how often and with how many
candidates that refinement runs.
"""

from __future__ import annotations

import enum
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.filters.intermediate import (
    IFResult,
    batch_c_overlaps,
    intermediate_filter,
    intermediate_filter_batch,
)
from repro.filters.mbr import MBRRelationship, classify_mbr_pair, mbr_candidates_for
from repro.filters.relate_filters import RelateVerdict, relate_filter
from repro.join.objects import SpatialObject, reset_access_tracking
from repro.join.stats import JoinRunStats
from repro.obs.metrics import Histogram, get_registry, metrics_enabled
from repro.obs.profile import clear_phase, profiling_enabled, set_phase
from repro.obs.progress import progress_reporter
from repro.obs.trace import add_span, trace
from repro.topology.de9im import (
    SPECIFIC_TO_GENERAL,
    TopologicalRelation as T,
    most_specific_relation,
    relation_holds,
)
from repro.topology.relate import relate


class Stage(enum.Enum):
    """Which pipeline stage produced the final relation of a pair."""

    MBR = "mbr"
    INTERMEDIATE = "if"
    REFINEMENT = "refinement"


@dataclass(frozen=True, slots=True)
class FindRelationOutcome:
    """Find-relation answer for one pair plus its provenance."""

    relation: T
    stage: Stage


class Pipeline(ABC):
    """A find-relation method: a filter stage plus shared refinement."""

    #: Method name as used in the paper's plots.
    name: str = "?"
    #: Whether the method requires APRIL approximations.
    uses_april: bool = False

    @abstractmethod
    def filter_pair(
        self, r: SpatialObject, s: SpatialObject
    ) -> tuple[IFResult, Stage]:
        """Run the method's filter stage.

        Returns the filter verdict and the stage a *definite* verdict is
        attributed to (``Stage.MBR`` or ``Stage.INTERMEDIATE``).
        """

    def filter_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[IFResult, Stage]]:
        """Run the filter stage over a whole candidate stream.

        Semantically identical to mapping :meth:`filter_pair`; APRIL-based
        pipelines override it to amortise the interval merge-joins with
        the batched kernels (:mod:`repro.raster.kernels`).
        """
        return [self.filter_pair(r_objects[i], s_objects[j]) for i, j in pairs]

    def refine_pair(
        self, r: SpatialObject, s: SpatialObject, candidates: Sequence[T]
    ) -> T:
        """Shared refinement: DE-9IM + selective mask matching."""
        matrix = relate(r.access_geometry(), s.access_geometry())
        return most_specific_relation(matrix, candidates)

    def find_relation(self, r: SpatialObject, s: SpatialObject) -> FindRelationOutcome:
        """Most specific topological relation of one candidate pair."""
        verdict, stage = self.filter_pair(r, s)
        if verdict.definite is not None:
            return FindRelationOutcome(verdict.definite, stage)
        assert verdict.refine_candidates is not None
        # Phase marker for callers that drive pairs through this entry
        # point directly (disk-join tiles): without it their refinement
        # samples fold into the surrounding structural span.
        if profiling_enabled():
            set_phase("refine")
            try:
                relation = self.refine_pair(r, s, verdict.refine_candidates)
            finally:
                clear_phase()
        else:
            relation = self.refine_pair(r, s, verdict.refine_candidates)
        return FindRelationOutcome(relation, Stage.REFINEMENT)


class StandardTwoPhasePipeline(Pipeline):
    """ST2: plain MBR test, then refinement against all masks [25, 31]."""

    name = "ST2"

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        if r.box.disjoint(s.box):
            return IFResult(definite=T.DISJOINT), Stage.MBR
        return IFResult(refine_candidates=tuple(SPECIFIC_TO_GENERAL)), Stage.MBR


class OptimizedTwoPhasePipeline(Pipeline):
    """OP2: the Sec. 3.1 MBR case analysis narrows the mask set."""

    name = "OP2"

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.polygon.is_connected and s.polygon.is_connected
        if case is MBRRelationship.DISJOINT:
            return IFResult(definite=T.DISJOINT), Stage.MBR
        if case is MBRRelationship.CROSS and connected:
            return IFResult(definite=T.INTERSECTS), Stage.MBR
        return IFResult(refine_candidates=mbr_candidates_for(case, connected)), Stage.MBR


class AprilIntersectionPipeline(Pipeline):
    """APRIL [14]: intermediate filter for intersection detection only."""

    name = "APRIL"
    uses_april = True

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.polygon.is_connected and s.polygon.is_connected
        if case is MBRRelationship.DISJOINT:
            return IFResult(definite=T.DISJOINT), Stage.MBR
        if case is MBRRelationship.CROSS and connected:
            return IFResult(definite=T.INTERSECTS), Stage.MBR

        ra = r.require_april()
        sa = s.require_april()
        ra.check_compatible(sa)
        if not ra.c.overlaps(sa.c):
            return IFResult(definite=T.DISJOINT), Stage.INTERMEDIATE

        candidates = mbr_candidates_for(case, connected)
        if ra.c.overlaps(sa.p) or ra.p.overlaps(sa.c):
            # Interiors provably intersect: disjoint and meets masks are
            # dead, but the most specific relation is still unknown.
            candidates = tuple(c for c in candidates if c not in (T.DISJOINT, T.MEETS))
        return IFResult(refine_candidates=candidates), Stage.INTERMEDIATE

    def filter_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[IFResult, Stage]]:
        """Batched form: every surviving pair opens with the ``rC × sC``
        overlap join, so the whole stream is screened in one grouped
        kernel pass before the per-pair tail tests."""
        out: list[tuple[IFResult, Stage] | None] = [None] * len(pairs)
        screened: list[int] = []
        approx: list[tuple] = []
        for k, (i, j) in enumerate(pairs):
            r = r_objects[i]
            s = s_objects[j]
            case = classify_mbr_pair(r.box, s.box)
            connected = r.polygon.is_connected and s.polygon.is_connected
            if case is MBRRelationship.DISJOINT:
                out[k] = (IFResult(definite=T.DISJOINT), Stage.MBR)
                continue
            if case is MBRRelationship.CROSS and connected:
                out[k] = (IFResult(definite=T.INTERSECTS), Stage.MBR)
                continue
            ra = r.require_april()
            sa = s.require_april()
            ra.check_compatible(sa)
            screened.append(k)
            approx.append((ra, sa, case, connected))
        if screened:
            hits = batch_c_overlaps([(ra, sa) for ra, sa, _, _ in approx])
            for hit, k, (ra, sa, case, connected) in zip(hits, screened, approx):
                if not hit:
                    out[k] = (IFResult(definite=T.DISJOINT), Stage.INTERMEDIATE)
                    continue
                candidates = mbr_candidates_for(case, connected)
                if ra.c.overlaps(sa.p) or ra.p.overlaps(sa.c):
                    candidates = tuple(
                        c for c in candidates if c not in (T.DISJOINT, T.MEETS)
                    )
                out[k] = (IFResult(refine_candidates=candidates), Stage.INTERMEDIATE)
        return out  # type: ignore[return-value]


class ProgressiveConservativePipeline(Pipeline):
    """P+C: the paper's Algorithm 1 with the Fig. 5 intermediate filters."""

    name = "P+C"
    uses_april = True

    def filter_pair(self, r: SpatialObject, s: SpatialObject) -> tuple[IFResult, Stage]:
        case = classify_mbr_pair(r.box, s.box)
        connected = r.polygon.is_connected and s.polygon.is_connected
        if case is MBRRelationship.DISJOINT or (
            case is MBRRelationship.CROSS and connected
        ):
            return intermediate_filter(case, None, None), Stage.MBR  # type: ignore[arg-type]
        return (
            intermediate_filter(
                case, r.require_april(), s.require_april(), connected
            ),
            Stage.INTERMEDIATE,
        )

    def filter_pairs(
        self,
        r_objects: Sequence[SpatialObject],
        s_objects: Sequence[SpatialObject],
        pairs: Sequence[tuple[int, int]],
    ) -> list[tuple[IFResult, Stage]]:
        """Batched Algorithm 1: the Fig. 5 dispatch per pair with the
        common ``rC × sC`` disjointness screen amortised over the stream
        (:func:`~repro.filters.intermediate.intermediate_filter_batch`)."""
        items = []
        stages = []
        for i, j in pairs:
            r = r_objects[i]
            s = s_objects[j]
            case = classify_mbr_pair(r.box, s.box)
            connected = r.polygon.is_connected and s.polygon.is_connected
            if case is MBRRelationship.DISJOINT or (
                case is MBRRelationship.CROSS and connected
            ):
                items.append((case, None, None, connected))
                stages.append(Stage.MBR)
            else:
                items.append((case, r.require_april(), s.require_april(), connected))
                stages.append(Stage.INTERMEDIATE)
        return list(zip(intermediate_filter_batch(items), stages))


#: The four evaluated methods, keyed by their paper names.
PIPELINES: dict[str, Pipeline] = {
    p.name: p
    for p in (
        StandardTwoPhasePipeline(),
        OptimizedTwoPhasePipeline(),
        AprilIntersectionPipeline(),
        ProgressiveConservativePipeline(),
    )
}


#: One per-pair result row: ``(r_index, s_index, relation, filtered)``
#: where ``filtered`` is True when no DE-9IM refinement was needed.
PairOutcome = tuple[int, int, T, bool]


def find_relation_outcomes(
    pipeline: Pipeline,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    label: str | None = None,
) -> tuple[list[PairOutcome], JoinRunStats]:
    """The find-relation loop: filter the stream, refine what stays open.

    Every in-memory runner drives its pairs through here — serial
    :func:`run_find_relation`, each parallel partition and the
    in-parent fallback. It opens no root span of its own (callers wrap
    it in ``run_find_relation`` or ``partition``) and leaves the
    object totals and access counters to the caller. Outcomes come
    back in ``pairs`` order.
    """
    stats = JoinRunStats(method=pipeline.name)
    outcomes: list[PairOutcome] = []
    clock = time.perf_counter
    registry = get_registry() if metrics_enabled() else None
    # MBR cases are re-derived (cheap float compares) only when the
    # per-case verdict counters are actually wanted.
    cases = (
        [classify_mbr_pair(r_objects[i].box, s_objects[j].box).value for i, j in pairs]
        if registry is not None
        else None
    )
    reporter = progress_reporter(label or pipeline.name, len(pairs))
    latencies = Histogram() if reporter is not None else None
    # Local bool so the profiler-off path costs one check per refined
    # pair; the markers attribute the per-pair refinement (which runs
    # *between* spans) to the ``refine`` phase.
    profiling = profiling_enabled()

    t0 = clock()
    with trace("filter", pairs=len(pairs)):
        verdicts = pipeline.filter_pairs(r_objects, s_objects, pairs)
    stats.filter_seconds += clock() - t0
    for k, ((i, j), (verdict, stage)) in enumerate(zip(pairs, verdicts)):
        if reporter is not None and (k & 255) == 0:
            reporter.tick(k, detail=f"{stats.refined} refined")
        if verdict.definite is not None:
            stats.record(verdict.definite, stage.value)
            outcomes.append((i, j, verdict.definite, True))
            if registry is not None:
                registry.inc(
                    "repro_verdicts_total",
                    method=pipeline.name,
                    case=cases[k],
                    stage=stage.value,
                    relation=verdict.definite.value,
                )
            continue
        assert verdict.refine_candidates is not None
        if profiling:
            set_phase("refine")
        t1 = clock()
        relation = pipeline.refine_pair(
            r_objects[i], s_objects[j], verdict.refine_candidates
        )
        elapsed = clock() - t1
        if profiling:
            clear_phase()
        stats.refine_seconds += elapsed
        if latencies is not None:
            latencies.observe(elapsed)
        stats.record(relation, "refinement")
        outcomes.append((i, j, relation, False))
        if registry is not None:
            registry.inc(
                "repro_verdicts_total",
                method=pipeline.name,
                case=cases[k],
                stage="refinement",
                relation=relation.value,
            )
            registry.observe(
                "repro_refine_latency_seconds", elapsed, method=pipeline.name
            )
    # Aggregate of the per-pair refinement sections above, attached
    # with its measured duration so span totals reconcile with
    # ``refine_seconds`` instead of re-timing the loop.
    add_span("refine", stats.refine_seconds, pairs=stats.refined)
    _finish_progress(reporter, latencies, stats)
    return outcomes, stats


def _finish_progress(reporter, latencies: Histogram | None, stats: JoinRunStats) -> None:
    """Close a ``--progress`` line with the p50/p95 refine-latency summary."""
    if reporter is None:
        return
    reporter.finish(detail=f"{stats.refined} refined")
    if latencies is not None and latencies.count:
        reporter.summary(
            f"refine latency p50={latencies.quantile(0.50) * 1e3:.3f}ms "
            f"p95={latencies.quantile(0.95) * 1e3:.3f}ms over {latencies.count} refined"
        )


def _count_accessed(
    stats: JoinRunStats,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
) -> JoinRunStats:
    stats.r_objects_total = len(r_objects)
    stats.s_objects_total = len(s_objects)
    stats.r_objects_accessed = sum(1 for o in r_objects if o.geometry_accessed)
    stats.s_objects_accessed = sum(1 for o in s_objects if o.geometry_accessed)
    return stats


def run_find_relation(
    pipeline: Pipeline | str,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Iterable[tuple[int, int]],
) -> JoinRunStats:
    """Process a candidate-pair stream, timing filter and refine stages.

    ``pairs`` holds indices into the two object lists, as produced by an
    MBR intersection join (:mod:`repro.join.mbr_join`), whose own cost
    is excluded — matching the paper's measurement methodology.
    """
    if isinstance(pipeline, str):
        pipeline = PIPELINES[pipeline]
    reset_access_tracking(r_objects)
    reset_access_tracking(s_objects)
    pairs = list(pairs)
    with trace("run_find_relation", method=pipeline.name, pairs=len(pairs)):
        _, stats = find_relation_outcomes(pipeline, r_objects, s_objects, pairs)
    return _count_accessed(stats, r_objects, s_objects)


# ----------------------------------------------------------------------
# relate_p (Sec. 3.3)
# ----------------------------------------------------------------------
def relate_predicate(
    predicate: T, r: SpatialObject, s: SpatialObject
) -> tuple[bool, Stage]:
    """Does ``predicate`` hold for the pair? (Fig. 6 filter + fallback.)"""
    connected = r.polygon.is_connected and s.polygon.is_connected
    verdict = relate_filter(
        predicate, r.box, s.box, r.require_april(), s.require_april(), connected
    )
    if verdict is RelateVerdict.YES:
        return True, Stage.INTERMEDIATE
    if verdict is RelateVerdict.NO:
        return False, Stage.INTERMEDIATE
    if profiling_enabled():
        set_phase("refine")
        try:
            matrix = relate(r.access_geometry(), s.access_geometry())
        finally:
            clear_phase()
    else:
        matrix = relate(r.access_geometry(), s.access_geometry())
    return relation_holds(matrix, predicate), Stage.REFINEMENT


def relate_outcomes(
    predicate: T,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Sequence[tuple[int, int]],
    label: str | None = None,
) -> tuple[list[tuple[int, int]], JoinRunStats, set[int], set[int]]:
    """The relate_p loop: Fig. 6 filter per pair, DE-9IM when it cannot say.

    Shared by :func:`run_relate`, each parallel partition and the
    in-parent fallback; untraced at the root like
    :func:`find_relation_outcomes`. Filter time (and the ``filter``
    profiler phase) covers every pair; refinement time covers only the
    DE-9IM ``relate`` of the pairs the filter left undecided. Returns
    the matching pairs in ``pairs`` order plus the r/s ids whose exact
    geometry refinement read.
    """
    stats = JoinRunStats(method=f"relate[{predicate.value}]")
    matches: list[tuple[int, int]] = []
    touched_r: set[int] = set()
    touched_s: set[int] = set()
    clock = time.perf_counter
    registry = get_registry() if metrics_enabled() else None
    reporter = progress_reporter(label or stats.method, len(pairs))
    latencies = Histogram() if reporter is not None else None
    profiling = profiling_enabled()
    for k, (i, j) in enumerate(pairs):
        if reporter is not None and (k & 255) == 0:
            reporter.tick(k, detail=f"{stats.refined} refined")
        r = r_objects[i]
        s = s_objects[j]
        if profiling:
            set_phase("filter")
        t0 = clock()
        verdict = relate_filter(
            predicate, r.box, s.box, r.require_april(), s.require_april(),
            r.polygon.is_connected and s.polygon.is_connected,
        )
        t1 = clock()
        stats.filter_seconds += t1 - t0
        stats.pairs += 1
        elapsed = None
        if verdict is not RelateVerdict.UNKNOWN:
            if profiling:
                clear_phase()
            stats.resolved_if += 1
            holds = verdict is RelateVerdict.YES
        else:
            if profiling:
                set_phase("refine")
            matrix = relate(r.access_geometry(), s.access_geometry())
            holds = relation_holds(matrix, predicate)
            elapsed = clock() - t1
            if profiling:
                clear_phase()
            stats.refine_seconds += elapsed
            stats.refined += 1
            if latencies is not None:
                latencies.observe(elapsed)
            touched_r.add(i)
            touched_s.add(j)
        if holds:
            stats.relation_counts[predicate] += 1
            matches.append((i, j))
        if registry is not None:
            registry.inc(
                "repro_relate_verdicts_total",
                predicate=predicate.value,
                stage="if" if elapsed is None else "refinement",
                verdict="yes" if holds else "no",
            )
            if elapsed is not None:
                registry.observe(
                    "repro_refine_latency_seconds", elapsed, method=stats.method
                )
    add_span("filter", stats.filter_seconds, pairs=len(pairs))
    add_span("refine", stats.refine_seconds, pairs=stats.refined)
    _finish_progress(reporter, latencies, stats)
    return matches, stats, touched_r, touched_s


def run_relate(
    predicate: T,
    r_objects: Sequence[SpatialObject],
    s_objects: Sequence[SpatialObject],
    pairs: Iterable[tuple[int, int]],
) -> JoinRunStats:
    """Run ``relate_p`` over a candidate-pair stream (Table 5's metric)."""
    reset_access_tracking(r_objects)
    reset_access_tracking(s_objects)
    pairs = list(pairs)
    with trace("run_relate", predicate=predicate.value, pairs=len(pairs)):
        _, stats, _, _ = relate_outcomes(predicate, r_objects, s_objects, pairs)
    return _count_accessed(stats, r_objects, s_objects)


__all__ = [
    "AprilIntersectionPipeline",
    "FindRelationOutcome",
    "OptimizedTwoPhasePipeline",
    "PIPELINES",
    "PairOutcome",
    "Pipeline",
    "ProgressiveConservativePipeline",
    "Stage",
    "StandardTwoPhasePipeline",
    "find_relation_outcomes",
    "relate_outcomes",
    "relate_predicate",
    "run_find_relation",
    "run_relate",
]
