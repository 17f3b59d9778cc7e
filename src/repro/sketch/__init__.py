"""Linear sketching substrate: hashing, 1-sparse recovery, L0-sampling,
and the AGM graph sketches built from them (paper, Section 3.1).

One representation: every L0-sampler is a row of a ``RecoveryPool``
(:mod:`repro.sketch.sparse_recovery`), with no per-sampler object.
``SketchFamily`` keeps one row per vertex (the pool is the graph
sketch); ``KeyedSamplers`` keeps one row per touched key (the matching
sparsifiers' group pairs).

One write path: a batch is hashed with array-level field arithmetic
(``kernels.mulmod_many`` / ``poly_field_values``, see
:mod:`repro.sketch.hashing`; array kernels are called as
``repro.kernels.<name>`` and are not re-exported here), then
``SamplerRandomness.levels_of_many`` / ``zpow_many``, and lands in the
pool with one ``kernels.pool_scatter`` (``SketchFamily.apply_edges_bulk``
through the execution backend, ``KeyedSamplers.update`` directly).

One read path: *membership groups* of pool rows.  A group read sums
the one column it asks for across its member rows
(``kernels.merge_groups``; the column invariant of
:mod:`repro.sketch.sparse_recovery` makes that column enough for the
zero test too) and answers the merged stack in one pass of
``query_cells`` (``kernels.is_zero_cells`` + ``kernels.decode_prefix``).
``SketchFamily.query_iteration_groups`` / ``cuts_empty_groups`` ship
supernodes to the backend in that shape; ``KeyedSamplers.sample`` reads
each key's row as singleton groups over every column.
``decode_indices`` inverts the edge coding for whole batches.

The scalar reference -- a standalone sampler computing levels and
``z^idx`` directly -- lives in ``tests/conftest.py``; the tests check
the pool rows and every group answer against it, and production cost
is tracked by ``bench/`` (``sketch.query_groups_ms``,
``kernels.merge_groups_ms``).
"""

# Exception classes live in :mod:`repro.errors` (the one hierarchy all
# layers share); re-exported here because the sketching layer raises
# them and callers historically imported them from ``repro.sketch``.
from repro.errors import SketchError, SketchFailureError
from repro.sketch.edge_coding import (
    decode_index,
    decode_indices,
    edge_sign,
    encode_edge,
    encode_edges,
    num_pairs,
)
from repro.sketch.graph_sketch import SketchFamily
from repro.sketch.hashing import (
    MERSENNE_P,
    FourWiseHash,
    KWiseHash,
    PairwiseHash,
    random_field_element,
    trailing_zeros,
)
from repro.sketch.l0_sampler import (
    KeyedSamplers,
    SamplerRandomness,
    levels_for_universe,
    query_cells,
)
from repro.sketch.sparse_recovery import RecoveryPool

__all__ = [
    "SketchError",
    "SketchFailureError",
    "decode_index",
    "decode_indices",
    "edge_sign",
    "encode_edge",
    "encode_edges",
    "num_pairs",
    "SketchFamily",
    "MERSENNE_P",
    "FourWiseHash",
    "KWiseHash",
    "PairwiseHash",
    "random_field_element",
    "trailing_zeros",
    "KeyedSamplers",
    "SamplerRandomness",
    "levels_for_universe",
    "query_cells",
    "RecoveryPool",
]
