"""The four "no value" markers share one singleton base."""

from __future__ import annotations

import pickle

import pytest

from meaninglab.bounds import INAPPLICABLE
from meaninglab.experiments import DISCONNECTED, EMPTY, heatmap
from meaninglab.graph import UNREACHABLE, Graph
from meaninglab.meaning import NO_SUCH_PAIR, MeaningGraph
from meaninglab.sampler import SampleParams
from meaninglab.sentinel import Sentinel


@pytest.mark.parametrize(
    "marker, name",
    [(UNREACHABLE, "UNREACHABLE"), (NO_SUCH_PAIR, "NO_SUCH_PAIR"), (INAPPLICABLE, "INAPPLICABLE"), (EMPTY, "EMPTY")],
)
def test_marker_is_one_instance_everywhere(marker, name):
    assert isinstance(marker, Sentinel)
    assert repr(marker) == name
    assert type(marker)() is marker
    assert pickle.loads(pickle.dumps(marker)) is marker
    assert marker != 0 and marker is not None


def test_markers_are_distinct():
    markers = [UNREACHABLE, NO_SUCH_PAIR, INAPPLICABLE, EMPTY]
    assert len({type(m) for m in markers}) == 4
    assert all(a != b for i, a in enumerate(markers) for b in markers[i + 1 :])


def test_empty_cells_come_back_from_worker_processes():
    # A connected 3-node path has no pair at distance 3 and no
    # disconnected pair; each row is computed in a worker process.
    gm = MeaningGraph(Graph(3, [(0, 1), (1, 2)]))
    params = SampleParams(1.0, 0.0, 0.0, 0.0, 1)
    table = heatmap(gm, [0.0, 0.1], d_max=3, pairs_per_cell=2, params_base=params, seed=1, threads=2)
    for row in range(2):
        assert table.cell(row, 3) is EMPTY
        assert table.cell(row, DISCONNECTED) is EMPTY
