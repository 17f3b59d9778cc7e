"""The paper's algorithms: batch-dynamic connectivity, MSF,
bipartiteness, and approximate matching in the streaming MPC model."""

from repro.core.api import BatchDynamicAlgorithm, UpdateValidator
from repro.core.bipartiteness import DynamicBipartiteness
from repro.core.components import ComponentIds
from repro.core.connectivity import MPCConnectivity
from repro.core.matching_akly import AKLYMatching
from repro.core.matching_greedy import GreedyMatchingInsertOnly
from repro.core.matching_tester import MatchingSizeEstimator, MatchingTester
from repro.core.maximal_matching import BatchDynamicMaximalMatching
from repro.core.msf_approx import ApproxMSF
from repro.core.msf_exact import ExactMSFInsertOnly

__all__ = [
    "BatchDynamicAlgorithm",
    "UpdateValidator",
    "DynamicBipartiteness",
    "ComponentIds",
    "MPCConnectivity",
    "AKLYMatching",
    "GreedyMatchingInsertOnly",
    "MatchingSizeEstimator",
    "MatchingTester",
    "BatchDynamicMaximalMatching",
    "ApproxMSF",
    "ExactMSFInsertOnly",
]
