"""Euler-tour forest substrate (paper, Sections 5-6.2 and 7.1).

:class:`~repro.euler.distributed.DistributedEulerForest` is the
index-based structure with batch join/split used by the MPC algorithms;
:mod:`repro.euler.auxiliary` holds its segment-shift bookkeeping."""

from repro.euler.auxiliary import (
    Component,
    CutInterval,
    nested_interval_decomposition,
    shift_positions,
)
from repro.euler.distributed import BatchReport, DistributedEulerForest

__all__ = [
    "Component",
    "CutInterval",
    "nested_interval_decomposition",
    "shift_positions",
    "BatchReport",
    "DistributedEulerForest",
]
