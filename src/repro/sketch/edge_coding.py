"""Bijective coding between undirected edges and vector coordinates.

The AGM sketches view the graph as a vector indexed by the ``C(n, 2)``
vertex pairs (paper, Section 3.1).  We use the row-major upper-triangular
order: pair ``(i, j)`` with ``i < j`` gets index

    offset(i) + (j - i - 1),   offset(i) = i*n - i*(i+1)/2

so row ``i`` holds the pairs ``(i, i+1) .. (i, n-1)``.  Decoding inverts
the quadratic ``offset`` with an integer square root plus a local
correction loop (exact for all inputs; property-tested round-trip).

:func:`encode_edges` and :func:`decode_indices` are the array flavours
used by the bulk paths -- same coding, whole batches at a time.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.types import Edge


def num_pairs(n: int) -> int:
    """Size of the coordinate space: ``C(n, 2)``."""
    return n * (n - 1) // 2


def row_offset(n: int, i: int) -> int:
    """Index of pair ``(i, i+1)``, the first pair in row ``i``."""
    return i * n - i * (i + 1) // 2


def encode_edge(n: int, u: int, v: int) -> int:
    """Map an undirected edge to its coordinate in ``[0, C(n,2))``."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) has no coordinate")
    i, j = (u, v) if u < v else (v, u)
    if not 0 <= i < j < n:
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return row_offset(n, i) + (j - i - 1)


def encode_edges(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`encode_edge`: coordinate of every edge at once.

    ``us`` and ``vs`` are integer arrays of equal shape; the result is
    the int64 array of upper-triangular coordinates, bit-identical to
    the scalar encoding of each pair.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if us.shape != vs.shape:
        raise ValueError("endpoint arrays must have the same shape")
    if np.any(us == vs):
        raise ValueError("self-loops have no coordinate")
    i = np.minimum(us, vs)
    j = np.maximum(us, vs)
    if us.size and (int(i.min()) < 0 or int(j.max()) >= n):
        raise ValueError(f"edge endpoints out of range for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def decode_index(n: int, idx: int) -> Edge:
    """Inverse of :func:`encode_edge`."""
    total = num_pairs(n)
    if not 0 <= idx < total:
        raise ValueError(f"index {idx} out of range for n={n}")
    # Solve offset(i) <= idx: i is roughly n - 1/2 - sqrt((n-1/2)^2 - 2*idx).
    # Compute a candidate with isqrt and correct by +-1 steps (at most 2).
    disc = (2 * n - 1) * (2 * n - 1) - 8 * idx
    i = (2 * n - 1 - math.isqrt(disc)) // 2
    i = max(0, min(n - 2, i))
    while i > 0 and row_offset(n, i) > idx:
        i -= 1
    while i < n - 2 and row_offset(n, i + 1) <= idx:
        i += 1
    j = i + 1 + (idx - row_offset(n, i))
    return (i, j)


def decode_indices(n: int,
                   idxs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`decode_index`: many coordinates to ``(i, j)``.

    Returns the pair of int64 arrays ``(us, vs)`` with ``us < vs``,
    bit-identical to decoding each coordinate with the scalar inverse.
    The integer square root is taken as a float64 estimate corrected
    to exactness (the discriminant is far below 2^53 for any feasible
    ``n``), then the row candidate is fixed up with the same +-1 walk
    as the scalar code, run as masked array steps.
    """
    idxs = np.asarray(idxs, dtype=np.int64)
    if idxs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    total = num_pairs(n)
    if int(idxs.min()) < 0 or int(idxs.max()) >= total:
        raise ValueError(f"index out of range for n={n}")
    disc = (2 * n - 1) * (2 * n - 1) - 8 * idxs
    s = np.floor(np.sqrt(disc.astype(np.float64))).astype(np.int64)
    s = np.maximum(s - 2, 0)
    while True:                      # exact isqrt: at most a few steps
        low = (s + 1) * (s + 1) <= disc
        if not low.any():
            break
        s[low] += 1
    i = (2 * n - 1 - s) // 2
    i = np.clip(i, 0, n - 2)
    offsets = i * n - i * (i + 1) // 2
    while True:                      # row fix-up, at most +-1 each way
        high = (i > 0) & (offsets > idxs)
        if not high.any():
            break
        i[high] -= 1
        offsets = i * n - i * (i + 1) // 2
    while True:
        nxt = i + 1
        nxt_off = nxt * n - nxt * (nxt + 1) // 2
        low = (i < n - 2) & (nxt_off <= idxs)
        if not low.any():
            break
        i[low] += 1
        offsets = i * n - i * (i + 1) // 2
    j = i + 1 + (idxs - offsets)
    return i, j


def edge_sign(vertex: int, u: int, v: int) -> int:
    """Sign of coordinate ``{u, v}`` in vertex ``vertex``'s vector X_vertex.

    Paper convention (Section 3.1): ``+1`` when ``vertex`` is the larger
    endpoint, ``-1`` when it is the smaller one.  Summing the two
    endpoint vectors therefore cancels the edge -- the property that
    makes component-merged sketches sample only *cut* edges (Lemma 3.3).
    """
    if vertex == max(u, v):
        return 1
    if vertex == min(u, v):
        return -1
    raise ValueError(f"vertex {vertex} is not an endpoint of ({u}, {v})")
