"""The repository's benchmark: the join paths timed end to end and,
in a separate traced run, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-warm --seed 1 --seconds 30 --trace 0

Workloads (see each module's docstring):

- ``cli-warm`` (:mod:`perfbench.cli_warm`) — fresh-process
  ``repro join --index`` over warm OLE-OPE indexes; its set-up is the
  cold CLI build (both indexes plus the first, rasterising join).
- ``serve-mixed`` (:mod:`perfbench.serve_mixed`) — the pooled daemon
  under an open then a closed loop of mixed requests.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics (:data:`perfbench.layers.PER_LAYER`). End-to-end times
are scaled to a reference host by probes of the host's speed taken just
before and after each measured interval (:mod:`perfbench.probe`); the
run's median host factor is in the details line. Inputs come
from the seed alone (:mod:`perfbench.inputs`), every result row is
checked against the ST2 pipeline, and the last stdout line is the
result object ``{"correct", "attempted", "failed", "metrics"}``. The
line before it holds the run's details (``cpu_count``, sample counts,
tail percentile); the same details, with the traced run's per-operation
records, go to ``.perfbench_out/``. The exit code is 0 for a correct
run, 1 when any row differs from the oracle or a check failed, and 2
when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, the benchmark's own directory leads sys.path; import
# its modules as the ``perfbench`` package instead.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("cli-warm", "serve-mixed")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench.common import Checkout, emit

    checkout = Checkout(ROOT)
    if not checkout.valid():
        print(f"perfbench: no program to measure under {checkout.src}", file=sys.stderr)
        return 2
    if args.workload == "cli-warm":
        from perfbench.cli_warm import run
    else:
        from perfbench.serve_mixed import run
    try:
        outcome = run(checkout, args.seed, args.seconds, bool(args.trace))
    finally:
        # Inputs and indexes are rebuilt from the seed on every run.
        shutil.rmtree(checkout.scratch, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    return emit(outcome, checkout, tag, {"seconds": args.seconds})


if __name__ == "__main__":
    sys.exit(main())
