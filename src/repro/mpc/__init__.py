"""MPC model substrate: configuration, the round-and-word ledger, and
the execution backends.

Public surface::

    from repro.mpc import MPCConfig, Cluster
    cluster = Cluster(MPCConfig(n=1024, phi=0.5))

The ledger is the model: algorithms charge rounds and per-machine words
through ``Cluster.charge_*`` (see :mod:`repro.mpc.simulator`).  The
message-passing reference those charges are checked against lives with
the tests, in ``tests/mpc_reference.py``.
"""

from repro.mpc.backend import (
    ExecutionBackend,
    SequentialBackend,
    SharedMemoryBackend,
    get_backend,
    resolve_backend,
)
from repro.mpc.config import MPCConfig, polylog, small_test_config
from repro.mpc.metrics import ClusterMetrics, PhaseMetrics
from repro.mpc.partition import VertexPartition
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
    "ClusterMetrics",
    "PhaseMetrics",
    "VertexPartition",
    "Cluster",
    "tree_depth",
]
