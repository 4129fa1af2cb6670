"""Seeded input files: the catalog's OLE/OPE/OBE generators, re-seeded.

The catalog (``repro.datasets.catalog``) fixes one RNG seed per dataset.
Draw ``d`` shifts every one of those seeds by the same multiple of ``d``,
so each draw is a fresh sample from the catalog's own generator
parameters, and draw 0 is the catalog itself, byte for byte.

A workload seed ``n`` owns :data:`DRAWS` draws (``DRAWS*n`` onwards)
and its operations rotate over them. One draw's refinement work varies
by ±15-25% from the next; rotating over several keeps a run's medians a
property of the generator rather than of one sample from it. The
program under test only ever sees the WKT files written here.
"""

from __future__ import annotations

from pathlib import Path

#: The datasets the workloads join (OLE-OPE and OBE-OPE).
NAMES = ("OPE", "OLE", "OBE")

#: Independent catalog draws per workload seed.
DRAWS = 3

#: Per-draw shift of the catalog's dataset seeds.
SEED_STRIDE = 1009


def generate(draw: int) -> dict:
    """Polygons of every dataset in :data:`NAMES` for one draw, at
    catalog scale 1.0."""
    from repro.datasets import catalog

    original = dict(catalog._SEEDS)
    catalog.load_dataset.cache_clear()
    try:
        for name in original:
            catalog._SEEDS[name] = original[name] + SEED_STRIDE * draw
        return {name: catalog.load_dataset(name, 1.0).polygons for name in NAMES}
    finally:
        catalog._SEEDS.clear()
        catalog._SEEDS.update(original)
        catalog.load_dataset.cache_clear()


def write(seed: int, out_dir: Path) -> list:
    """Write ``d<k>/<NAME>.wkt`` for each of the seed's draws; returns
    one name -> path dict per draw."""
    from repro.datasets.io import save_wkt_file

    draws = []
    for k in range(DRAWS):
        paths = {}
        for name, polygons in generate(DRAWS * seed + k).items():
            paths[name] = out_dir / f"d{k}" / f"{name}.wkt"
            paths[name].parent.mkdir(parents=True, exist_ok=True)
            save_wkt_file(paths[name], polygons)
        draws.append(paths)
    return draws


def check_catalog(paths: dict, scratch: Path) -> None:
    """Raise unless draw-0 files equal the catalog's datasets byte for byte."""
    from repro.datasets import load_dataset
    from repro.datasets.io import save_wkt_file

    scratch.mkdir(parents=True, exist_ok=True)
    for name, path in paths.items():
        reference = scratch / f"{name}.catalog.wkt"
        save_wkt_file(reference, load_dataset(name, 1.0).polygons)
        same = reference.read_bytes() == Path(path).read_bytes()
        reference.unlink()
        if not same:
            raise RuntimeError(f"seed 0 {name} differs from repro.datasets.load_dataset")


def read_polygons(path: Path) -> list:
    """The ``POLYGON`` rows of a file written by :func:`write`.

    Coordinates go through ``float`` on the file's own tokens, exactly
    as the program's reader does, so the oracle sees the same geometry
    without paying for the program's character-at-a-time parser.
    """
    from repro.geometry.polygon import Polygon

    polygons = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith("POLYGON (("):
            raise ValueError(f"{path}: unexpected row {line[:40]!r}")
        rings = []
        for body in line[len("POLYGON (("):-2].split("), ("):
            numbers = [float(v) for v in body.replace(",", " ").split()]
            rings.append(list(zip(numbers[0::2], numbers[1::2])))
        polygons.append(Polygon(rings[0], rings[1:]))
    return polygons
