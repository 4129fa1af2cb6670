"""Host-speed probe: a fixed piece of pure-Python work, timed in the
benchmark's own process just before and just after each measured
interval.

The benchmark runs on a few cores of a shared host whose speed for the
same work drifts by 20-40% within minutes and by up to 2x from one
second to the next (other tenants; no steal time shows, the cores just
run slower). Wall-time medians of one run then differ from the next by
more than any useful bound, whatever the run length. The probe does
the kind of work the program's hot paths do (scan text character by
character, build floats and tuples, sort, hash) while the program is
idle, so its time tracks the host's speed at that moment and nothing
the program does. :func:`host_factor` turns the two probes around an
interval into the factor by which the host ran slower than the
reference host; the end-to-end times divide by it and read as times on
that host.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Probe time on the reference host: about its time on a 2-core shared
#: x86-64 box in that box's slower usual state.
NOMINAL_S = 0.025

#: Passes over :data:`_TEXT` per probe.
_PASSES = 12

_TEXT = ", ".join(f"{(i * 7919) % 10007 * 0.001:.6f} {(i * 104729) % 10009 * 0.001:.6f}"
                  for i in range(1500))


def probe() -> float:
    """Seconds the fixed work takes now (the collector held off, so its
    pauses add no noise of the probe's own)."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(_PASSES):
            numbers, token = [], []
            for ch in _TEXT:
                if ch in "0123456789.-":
                    token.append(ch)
                elif token:
                    numbers.append(float("".join(token)))
                    token = []
            points = sorted(zip(numbers[0::2], numbers[1::2]))
            {p: i for i, p in enumerate(points)}
        return perf_counter() - start
    finally:
        gc.enable()


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference host the host ran over an
    interval, from the probes taken just before and just after it."""
    return (before + after) / (2.0 * NOMINAL_S)
