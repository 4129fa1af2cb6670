"""``python -m repro`` with layer spans recorded from outside the program.

Usage: ``python perfbench/cli_child.py SPANS_JSON ARG...`` runs
``repro.__main__.main(ARG...)`` in this fresh interpreter after timing
``import repro.__main__`` as the ``import`` span and wrapping the layer
entry points (:mod:`perfbench.spans`). The spans are written to
SPANS_JSON when the command ends; the exit code is the command's.
"""

import sys
from time import perf_counter

from perfbench.spans import Recorder, install


def main(argv: list) -> int:
    spans_out, args = argv[0], argv[1:]
    rec = Recorder()
    start = perf_counter()
    import repro.__main__ as cli

    rec.add("import", start, perf_counter())
    install(rec)
    try:
        return cli.main(args)
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
