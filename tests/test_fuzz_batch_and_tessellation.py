"""Extra fuzzing: tessellation topology."""

import numpy as np
import pytest

from repro.datasets.synthetic import generate_tessellation
from repro.geometry import Box
from repro.topology import TopologicalRelation as T, most_specific_relation, relate


class TestTessellationTopologyFuzz:
    """Edge-sharing tessellations are a DE-9IM stress test: every
    neighbouring pair must be *meets*, never intersects or disjoint."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_neighbour_pairs_meet(self, seed):
        rng = np.random.default_rng(seed)
        cells = generate_tessellation(rng, Box(0, 0, 120, 120), 4, 3, edge_points=5)
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                if not cells[i].bbox.intersects(cells[j].bbox):
                    continue
                relation = most_specific_relation(relate(cells[i], cells[j]))
                assert relation in (T.MEETS, T.DISJOINT), (i, j, relation)

    def test_tessellation_union_area(self):
        rng = np.random.default_rng(9)
        region = Box(0, 0, 90, 60)
        cells = generate_tessellation(rng, region, 3, 2, edge_points=4)
        assert sum(c.area for c in cells) == pytest.approx(region.area, rel=1e-9)
