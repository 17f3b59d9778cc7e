"""mpc-streaming: streaming graph algorithms in the MPC model.

Reproduction of Czumaj, Mishra, Mukherjee, *Streaming Graph Algorithms
in the Massively Parallel Computation Model* (PODC 2024).  Each module's
docstring states which section it implements and any deviation from
the paper; ``docs/kernels.md`` covers the kernels.

The one-stop serving surface is :class:`repro.session.GraphSession`:
one cluster and execution backend multiplexing every maintained
algorithm over a shared update stream, with auto-batching,
checkpoint/restore, and deterministic teardown.  The standalone
algorithm classes remain in :mod:`repro.core` for single-task use.
"""

from repro._version import __version__
from repro.errors import (
    BatchTooLargeError,
    ConfigurationError,
    InvalidUpdateError,
    QueryError,
    ReproError,
    SketchError,
    SketchFailureError,
)
from repro.session import GraphSession, SessionPhase
from repro.types import Batch, ForestSolution, MatchingSolution, Op, Update, dele, ins

__all__ = [
    "__version__",
    "Batch",
    "ForestSolution",
    "MatchingSolution",
    "Op",
    "Update",
    "dele",
    "ins",
    "GraphSession",
    "SessionPhase",
    "ReproError",
    "ConfigurationError",
    "BatchTooLargeError",
    "InvalidUpdateError",
    "QueryError",
    "SketchError",
    "SketchFailureError",
]
