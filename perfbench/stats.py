"""Pure arithmetic of the benchmark: percentiles, spans, schedules.

Nothing here touches processes, files or the program under test, so
``perfbench/tests`` can pin every rule exactly.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile of ``n`` samples with at least
    ``beyond`` samples above its nearest rank, never below 50.

    200 samples give p95 and 40 give p75; a sample too small for any
    tail above the median reports the median (50).
    """
    best = 50
    for q in range(51, 100):
        if n - math.ceil(q / 100.0 * n) >= beyond:
            best = q
    return best


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, int, int]:
    """``(value, percentile, sample_count)`` of the tail rule above."""
    q = tail_percentile(len(values), beyond)
    return percentile(values, q), q, len(values)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping]) -> dict:
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover (children clipped to it).

    A span is a mapping with ``id``, ``parent`` (``None`` for a root),
    ``name``, ``start`` and ``end``.
    """
    children: dict = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in children:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        clipped = [
            (max(start, c["start"]), min(end, c["end"])) for c in children[s["id"]]
        ]
        out[s["id"]] = max(0.0, (end - start) - _covered(clipped))
    return out


def layer_self_times(spans: Sequence[Mapping]) -> dict:
    """Self time summed per span name."""
    own = self_times(spans)
    totals: dict = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def unattributed(wall: float, layer_times: Mapping[str, float]) -> float:
    """Operation wall time not covered by any layer's self time."""
    return wall - sum(layer_times.values())


# ----------------------------------------------------------------------
# open-loop schedule
# ----------------------------------------------------------------------
def poisson_schedule(seed: int, rate: float, count: int) -> list[float]:
    """``count`` due offsets (seconds) of Poisson arrivals at ``rate``.

    The gaps are stratified: they are the exponential distribution's
    ``count`` quantiles at ``(i + 0.5) / count``, in an order the seed
    shuffles. Every seed thus has the same mean rate and the same gap
    distribution and differs only in which gaps bunch together, which
    keeps a short open loop's queueing comparable from seed to seed.
    """
    gaps = [-math.log(1.0 - (i + 0.5) / count) / rate for i in range(count)]
    random.Random(f"perfbench-arrivals-{seed}").shuffle(gaps)
    due, t = [], 0.0
    for gap in gaps:
        t += gap
        due.append(t)
    return due


def request_mix(seed: int, count: int, weights: Mapping[str, float]) -> list[str]:
    """A seeded order of ``count`` request kinds in the exact
    proportions of ``weights`` (largest remainders round up)."""
    total = sum(weights.values())
    exact = {k: count * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    short = count - sum(counts.values())
    for k in sorted(exact, key=lambda k: (counts[k] - exact[k], k))[:short]:
        counts[k] += 1
    kinds = [k for k in weights for _ in range(counts[k])]
    random.Random(f"perfbench-mix-{seed}").shuffle(kinds)
    return kinds
