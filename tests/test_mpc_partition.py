"""Vertex placement tests."""

import numpy as np
import pytest

from repro.mpc import VertexPartition


def owners(part):
    return part.machines_of_vertices(np.arange(part.n, dtype=np.int64))


class TestVertexPartition:
    def test_every_vertex_mapped(self):
        part = VertexPartition(100, 7)
        assert set(owners(part).tolist()) <= set(range(7))

    def test_blocks_are_contiguous(self):
        part = VertexPartition(20, 4)
        machines = owners(part)
        assert np.all(np.diff(machines) >= 0)
        for m in range(4):
            block = np.flatnonzero(machines == m)
            assert block.tolist() == list(range(block[0], block[-1] + 1))

    def test_covers_all_vertices(self):
        part = VertexPartition(23, 5)
        loads = np.bincount(owners(part), minlength=5)
        assert loads.sum() == 23
        assert loads.tolist() == [5, 5, 5, 5, 3]

    def test_elementwise_in_any_order(self):
        part = VertexPartition(50, 6)
        order = np.random.default_rng(0).permutation(50)
        assert np.array_equal(part.machines_of_vertices(order),
                              owners(part)[order])

    def test_more_machines_than_vertices(self):
        part = VertexPartition(3, 8)
        assert owners(part).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("n,machines", [(10, 4), (64, 8), (100, 7)])
    def test_last_machine_takes_the_remainder(self, n, machines):
        part = VertexPartition(n, machines)
        loads = np.bincount(owners(part), minlength=machines)
        assert loads.max() == part.block_size
        assert np.all(loads[:-1] == part.block_size)
        assert loads[-1] == n - part.block_size * (machines - 1)

    def test_degenerate_params_rejected(self):
        with pytest.raises(ValueError):
            VertexPartition(0, 3)
        with pytest.raises(ValueError):
            VertexPartition(5, 0)
