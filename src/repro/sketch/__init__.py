"""Linear sketching substrate: hashing, 1-sparse recovery, L0-sampling,
and the AGM graph sketches built from them (paper, Section 3.1).

Bulk ingestion: every layer has an array flavour next to its scalar
one -- ``kernels.mulmod_many`` / ``poly_field_values`` (k-wise hashing
over GF(2^61-1) with 32-bit limb arithmetic, see
:mod:`repro.sketch.hashing`; array kernels are called as
``repro.kernels.<name>`` and are not re-exported here),
``encode_edges`` / ``edge_signs``, ``SamplerRandomness.levels_of_many``
/ ``zpow_many``, ``RecoveryMatrix.apply_many``,
``L0Sampler.update_many``, ``VertexSketch.apply_edges``, and the
group-by-endpoint router ``SketchFamily.apply_edges_bulk``.  The bulk
path is bit-identical to the sequential one (asserted by
``tests/test_bulk_ingestion.py``); its throughput is what the
``conn_insert`` workload of ``bench/run.py`` times.

Bulk queries: the recovery side has one array-in/array-out surface,
*membership groups* of pool rows.  ``SketchFamily.query_iteration_groups``
/ ``cuts_empty_groups`` flatten per-supernode vertex-row lists once into
``(members, glens)`` and ship that pair to the execution backend, which
sums the one column each group reads across its member rows
(``kernels.merge_groups``; the column invariant of
:mod:`repro.sketch.sparse_recovery` makes that column enough for the
zero test too) and answers a whole AGM halving iteration in one pass
over ``query_cells`` / ``kernels.is_zero_cells``;
``RecoveryMatrix.recover_many`` / ``column_is_zero_many`` and
``L0Sampler.sample_columns`` decode many
columns of one sketch (``kernels.decode_prefix`` is the shared decoder)
and ``decode_indices`` inverts the edge coding for whole batches.  The
scalar path (``L0Sampler.update`` / ``sample_column`` / ``is_zero``,
``MergedSketch``, the ``LRUMemo`` hash memos) stays as the size-1
production shortcut and as the oracle: ``tests/test_bulk_query.py`` and
``tests/test_backend.py`` assert the bulk answers are bit-identical to
it; production query cost is tracked by ``bench/``
(``sketch.query_groups_ms``, ``kernels.merge_groups_ms``).
"""

# Exception classes live in :mod:`repro.errors` (the one hierarchy all
# layers share); re-exported here because the sketching layer raises
# them and callers historically imported them from ``repro.sketch``.
from repro.errors import SketchError, SketchFailureError
from repro.sketch.edge_coding import (
    decode_index,
    decode_indices,
    edge_sign,
    edge_signs,
    encode_edge,
    encode_edges,
    num_pairs,
)
from repro.sketch.graph_sketch import MergedSketch, SketchFamily, VertexSketch
from repro.sketch.hashing import (
    MERSENNE_P,
    FourWiseHash,
    KWiseHash,
    LRUMemo,
    PairwiseHash,
    random_field_element,
    trailing_zeros,
)
from repro.sketch.l0_sampler import (
    CACHE_LIMIT,
    L0Sampler,
    SamplerRandomness,
    levels_for_universe,
    query_cells,
)
from repro.sketch.sparse_recovery import RecoveryMatrix, RecoveryPool

__all__ = [
    "SketchError",
    "SketchFailureError",
    "decode_index",
    "decode_indices",
    "edge_sign",
    "edge_signs",
    "encode_edge",
    "encode_edges",
    "num_pairs",
    "MergedSketch",
    "SketchFamily",
    "VertexSketch",
    "MERSENNE_P",
    "FourWiseHash",
    "KWiseHash",
    "LRUMemo",
    "PairwiseHash",
    "random_field_element",
    "trailing_zeros",
    "CACHE_LIMIT",
    "L0Sampler",
    "SamplerRandomness",
    "levels_for_universe",
    "query_cells",
    "RecoveryMatrix",
    "RecoveryPool",
]
