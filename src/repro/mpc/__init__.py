"""MPC simulator substrate: machines, rounds, primitives, accounting.

Public surface::

    from repro.mpc import MPCConfig, Cluster
    cluster = Cluster(MPCConfig(n=1024, phi=0.5))

See :mod:`repro.mpc.simulator` for the two-level (real message passing +
round accounting) design.
"""

from repro.mpc.backend import (
    ExecutionBackend,
    SequentialBackend,
    SharedMemoryBackend,
    get_backend,
    resolve_backend,
)
from repro.mpc.config import MPCConfig, polylog, small_test_config
from repro.mpc.machine import Machine, Message
from repro.mpc.metrics import ClusterMetrics, PhaseMetrics
from repro.mpc.partition import VertexPartition
from repro.mpc.primitives import (
    broadcast_value,
    converge_cast,
    distributed_sort,
    distributed_sort_flat,
    gather_to_root,
)
from repro.mpc.simulator import Cluster, tree_depth

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "SharedMemoryBackend",
    "get_backend",
    "resolve_backend",
    "MPCConfig",
    "polylog",
    "small_test_config",
    "Machine",
    "Message",
    "ClusterMetrics",
    "PhaseMetrics",
    "VertexPartition",
    "broadcast_value",
    "converge_cast",
    "distributed_sort",
    "distributed_sort_flat",
    "gather_to_root",
    "Cluster",
    "tree_depth",
]
