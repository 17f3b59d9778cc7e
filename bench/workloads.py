"""The benchmark's workloads and their seeded stream generators.

A workload is a `GraphSession` configuration plus an update stream made
from ``--seed``; the program under test only ever sees the generated
``Batch`` objects.  Every batch is exactly ``session.batch_size`` updates
(the model's per-phase bound), so one batch is one phase.

The generators are the benchmark's own.  ``repro.streams.ChurnStream``
samples a deletion with ``sorted(self.live - touched)`` per update (4.1 s
to emit 10 k updates at n=4096 against 0.04 s here), which would dominate
``setup_s``; `EdgeStream` keeps the live edges in a list and deletes by
swap-pop in O(1).  The steering rule is ChurnStream's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.types import Batch, Edge, Update, dele, ins

#: Share of churn slots that are deletions while the live count sits
#: between half the target and the target.
DELETE_FRACTION = 0.3
#: `connected(u, v)` calls in one query round.
QUERY_PAIRS = 64
#: Sketch seed of every benchmarked session: configuration, not workload.
SKETCH_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One row of the workload table in ``bench/README.md``."""

    name: str
    why: str
    n: int
    tasks: Tuple[str, ...]
    backend: str
    backend_workers: Optional[int]
    #: Untimed phases before the clock starts: insertions up to
    #: ``prefill_edges`` live edges, in full batches.
    prefill_edges: int
    #: Timed phases; churn deletes ``DELETE_FRACTION`` of the slots,
    #: steered to ``prefill_edges`` live edges.
    timed_phases: int
    churn: bool
    #: Timed phases a sequential twin of a fleet session replays, so the
    #: fleet's forest is compared with the in-process one inside the run.
    reference_phases: int = 0
    checkpoint: bool = False

    def params(self) -> Dict[str, object]:
        out = asdict(self)
        del out["name"], out["why"]
        return out

    def toy(self, n: int = 128, timed_phases: int = 6) -> "Workload":
        """The same shape at smoke-test size."""
        return replace(
            self, n=n, timed_phases=timed_phases,
            prefill_edges=2 * n if self.churn else self.prefill_edges,
            reference_phases=timed_phases if self.reference_phases else 0,
        )


_CHURN_WHY = (
    "tree-edge deletions trigger AGM replacement search (paper 6.3): the "
    "sketch layer is read (merge_groups + L0 recovery) instead of written"
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="conn_insert",
        why="insert-only from the empty graph: sketch writes (pool_scatter) "
            "plus Euler-tour merging; the deletion/recovery path does no "
            "work, so it is the bypass for every query-side optimisation",
        n=16384, tasks=("connectivity",), backend="sequential",
        backend_workers=None,
        # One untimed batch: the first scatter touches every huge page
        # of the 400 MB sketch pool (2-3 s of page faults here), a cost
        # paid once per session that belongs in setup_s.
        prefill_edges=512, timed_phases=128, churn=False,
    ),
    Workload(
        name="conn_churn",
        why="steady-state churn at 2n live edges, 30 % deletions: "
            + _CHURN_WHY,
        n=2048, tasks=("connectivity",), backend="sequential",
        backend_workers=None,
        prefill_edges=4096, timed_phases=100, churn=True,
    ),
    Workload(
        name="conn_churn_fleet",
        why="conn_churn's byte-identical stream through mpc.backend "
            "shard, ring-pack, exchange and 2 workers; conn_churn is its "
            "single-threaded baseline and its bit-identity oracle",
        n=2048, tasks=("connectivity",), backend="shared_memory",
        backend_workers=2,
        prefill_edges=4096, timed_phases=100, churn=True,
        reference_phases=10,
    ),
    Workload(
        name="service_mix",
        why="what GraphSession exists for: validate/route once for "
            "connectivity + bipartiteness + matching, a query round "
            "beside every write, one checkpoint and restore",
        n=512, tasks=("connectivity", "bipartiteness", "matching"),
        backend="sequential", backend_workers=None,
        prefill_edges=1024, timed_phases=100, churn=True,
        checkpoint=True,
    ),
)}


class EdgeStream:
    """Seeded batches of valid updates over a maintained live edge set.

    Within one batch no edge is touched twice (ChurnStream's rule), so
    the insertions-then-deletions order of a phase cannot matter.
    """

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.live: List[Edge] = []
        self._slot: Dict[Edge, int] = {}

    def _fresh_edges(self, count: int, touched: Set[Edge]) -> List[Edge]:
        """``count`` distinct uniform edges, not live and not touched."""
        out: List[Edge] = []
        while len(out) < count:
            need = count - len(out)
            ends = self.rng.integers(0, self.n, size=(need + 16, 2))
            for u, v in ends.tolist():
                if u == v:
                    continue
                edge = (u, v) if u < v else (v, u)
                if edge in self._slot or edge in touched:
                    continue
                touched.add(edge)
                out.append(edge)
                if len(out) == count:
                    break
        return out

    def _add(self, edge: Edge) -> None:
        self._slot[edge] = len(self.live)
        self.live.append(edge)

    def _pop(self, index: int) -> Edge:
        """Remove ``live[index]`` in O(1): the last edge takes its slot."""
        edge = self.live[index]
        last = self.live.pop()
        if last != edge:
            self.live[index] = last
            self._slot[last] = index
        del self._slot[edge]
        return edge

    def insert_batch(self, size: int) -> Batch:
        edges = self._fresh_edges(size, set())
        for edge in edges:
            self._add(edge)
        return Batch(ins(u, v) for u, v in edges)

    def churn_batch(self, size: int, target: int) -> Batch:
        """``size`` updates; each slot deletes a uniform live edge with
        the probability ChurnStream steers toward ``target`` live edges."""
        coins = self.rng.random(size)
        picks = self.rng.random(size)
        ops: List[Optional[Edge]] = []  # the deleted edge, None = insert
        touched: Set[Edge] = set()
        pending = 0  # insertions decided so far, live after this batch
        for coin, pick in zip(coins.tolist(), picks.tolist()):
            count = len(self.live) + pending
            if count > target:
                bias = min(0.95, DELETE_FRACTION + 0.35)
            elif count < 0.5 * target:
                bias = max(0.02, DELETE_FRACTION - 0.25)
            else:
                bias = DELETE_FRACTION
            if self.live and coin < bias:
                edge = self._pop(int(pick * len(self.live)))
                touched.add(edge)
                ops.append(edge)
            else:
                pending += 1
                ops.append(None)
        fresh = iter(self._fresh_edges(pending, touched))
        updates: List[Update] = []
        for deleted in ops:
            if deleted is not None:
                updates.append(dele(*deleted))
            else:
                edge = next(fresh)
                self._add(edge)
                updates.append(ins(*edge))
        return Batch(updates)


def make_stream(workload: Workload, seed: int, batch_size: int
                ) -> Tuple[List[Batch], List[Batch], list]:
    """``(prefill, timed, pairs)`` for one session of ``workload``.

    ``pairs[i]`` holds the ``QUERY_PAIRS`` vertex pairs asked after
    timed phase ``i``.
    """
    stream = EdgeStream(workload.n, seed)
    prefill_phases = -(-workload.prefill_edges // batch_size)
    prefill = [stream.insert_batch(batch_size)
               for _ in range(prefill_phases)]
    if workload.churn:
        timed = [stream.churn_batch(batch_size, workload.prefill_edges)
                 for _ in range(workload.timed_phases)]
    else:
        timed = [stream.insert_batch(batch_size)
                 for _ in range(workload.timed_phases)]
    pairs = stream.rng.integers(
        0, workload.n, size=(workload.timed_phases, QUERY_PAIRS, 2))
    return prefill, timed, pairs.tolist()
