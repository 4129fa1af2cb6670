"""Reference rows from the retained ST2 pipeline, run serially.

Usage: ``python -m perfbench.oracle`` with a JSON list of
``[r_wkt, s_wkt, predicate_or_null]`` jobs on stdin; prints one sorted
row list per job as JSON. Inputs are read with
:func:`perfbench.inputs.read_polygons`.
"""

import json
import sys
from pathlib import Path


def rows(jobs: list) -> list:
    from perfbench.common import GRID_ORDER, rows_of
    from perfbench.inputs import read_polygons
    from repro.serve.schema import parse_predicate
    from repro.store import Engine, SpatialDataset

    datasets: dict = {}

    def dataset(path: str):
        if path not in datasets:
            datasets[path] = SpatialDataset.from_polygons(read_polygons(path),
                                                          name=Path(path).stem)
        return datasets[path]

    out = []
    with Engine() as engine:
        for r_path, s_path, predicate in jobs:
            run = engine.join(
                dataset(r_path), dataset(s_path), method="ST2", mode="serial",
                grid_order=GRID_ORDER,
                predicate=parse_predicate(predicate) if predicate else None,
            )
            out.append(rows_of(run.to_wire()["results"]))
    return out


if __name__ == "__main__":
    json.dump(rows(json.load(sys.stdin)), sys.stdout)
