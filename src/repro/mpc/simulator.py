"""The MPC cluster ledger: synchronous rounds over bounded machines.

The model (paper, Section 1.2) is charged in two quantities: rounds, and
words per machine against ``s = n^phi``.  A :class:`Cluster` is exactly
that ledger.  Its ``charge_*`` methods charge each primitive's round
count in closed form from the cluster geometry (machine count and
fanout) and check a single machine's words against ``s``; the graph
algorithms in :mod:`repro.core` keep their distributed state in
partition-aware arrays and reach the model only through these charges.
No machine object or message is materialised.

The real message-passing execution of every primitive (broadcast tree,
converge-cast, gather, one-level sample sort) lives with the tests, in
``tests/mpc_reference.py``: ``tests/test_mpc_primitives.py`` asserts
that each closed-form charge equals the depth measured by running it,
so the ledger and the reference cannot drift apart silently.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import CapacityExceededError
from repro.mpc.backend import ExecutionBackend, open_backend
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import CapacityViolation, ClusterMetrics, PhaseMetrics


def tree_depth(num_nodes: int, fanout: int) -> int:
    """Depth of a complete ``fanout``-ary dissemination tree over nodes.

    This is the number of rounds needed to move one value between a
    single machine and ``num_nodes`` machines when each machine can talk
    to ``fanout`` others per round.  ``tree_depth(1, f) == 0``.  Exact
    integers: ``math.log`` overshoots at powers (``log(125, 5) > 3``).
    """
    if num_nodes <= 1:
        return 0
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    depth, reach = 0, 1
    while reach < num_nodes:
        reach *= fanout
        depth += 1
    return depth


class Cluster:
    """A simulated MPC cluster.

    Parameters
    ----------
    config:
        The model instantiation (machine memory ``s``, machine count,
        strictness, master seed).
    backend:
        Execution backend: ``"sequential"`` (the default, also for
        ``None``), ``"shared_memory"`` or an instance (see
        :func:`~repro.mpc.backend.open_backend`).  The backend decides
        where sketch-pool work *executes*; the round and word
        accounting never reads it.  The cluster owns it:
        :meth:`close` closes it.
    """

    def __init__(self, config: MPCConfig, backend=None):
        self.config = config
        self.num_machines: int = config.machine_count
        self.metrics = ClusterMetrics()
        self.rng = np.random.default_rng(config.seed)
        self.backend: ExecutionBackend = open_backend(backend)

    # ------------------------------------------------------------------
    # Backend / lifecycle
    # ------------------------------------------------------------------
    def reseed(self) -> None:
        """Reset the construction-randomness stream to the config seed.

        A fresh cluster starts its generator at ``config.seed``; a
        :class:`~repro.session.GraphSession` reseeds before constructing
        each member algorithm so every member draws *exactly* the
        randomness its standalone instance (own cluster, same config)
        would -- the parity guarantee the session tests pin down.
        """
        self.rng = np.random.default_rng(self.config.seed)

    def close(self, close_backend: bool = True) -> None:
        """Shut down the execution backend deterministically.

        Joins the worker threads now instead of at GC / interpreter
        exit; ``close_backend=False`` leaves the backend running for
        another holder.  In-process backends make this a no-op.
        """
        if close_backend:
            self.backend.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def local_memory(self) -> int:
        return self.config.local_memory

    def _check_budget(self, machine_id: int, used: int, what: str) -> None:
        """Record (lenient) or raise (strict) if ``used`` words on one
        machine exceed ``s``."""
        capacity = self.local_memory
        if used <= capacity:
            return
        violation = CapacityViolation(
            machine_id=machine_id,
            what=what,
            used=used,
            capacity=capacity,
            round_index=self.metrics.rounds,
        )
        self.metrics.record_violation(violation)
        if self.config.strict_capacity:
            raise CapacityExceededError(machine_id, used, capacity, what)

    # ------------------------------------------------------------------
    # Round accounting (closed-form charges matching the primitives)
    # ------------------------------------------------------------------
    def charge_local(self, category: str = "local") -> int:
        """One round in which machines compute locally and reply in place."""
        self.metrics.charge_rounds(1, category)
        return 1

    def charge_exchange(self, messages: int, words: int,
                        category: str = "exchange") -> int:
        """One point-to-point routing round with the given traffic."""
        self.metrics.charge_rounds(1, category)
        self.metrics.charge_traffic(messages, words)
        return 1

    def charge_broadcast(self, words: int = 1, category: str = "broadcast") -> int:
        """Broadcast a ``words``-sized value from one machine to all.

        Cost: depth of the fanout tree.  Mirrors the reference
        ``broadcast_value`` in ``tests/mpc_reference.py``.
        """
        return self._charge_tree(words, category)

    def charge_converge(self, words: int = 1, category: str = "converge") -> int:
        """Aggregate a ``words``-sized combinable value from all machines.

        Converge-cast up an aggregation tree; cost equals broadcast
        depth.  This is the "merging the sketches of the vertices in
        Z_u ... in O(1/phi) rounds" step (paper, Lemma 5.2 footnote 8).
        """
        return self._charge_tree(words, category)

    def _charge_tree(self, words: int, category: str) -> int:
        """One pass of a ``words``-sized value over the fanout tree, in
        either direction: one message to or from every other machine."""
        fanout = self.config.fanout(words)
        rounds = max(1, tree_depth(self.num_machines, fanout))
        self.metrics.charge_rounds(rounds, category)
        self.metrics.charge_traffic(
            self.num_machines - 1, words * max(0, self.num_machines - 1)
        )
        return rounds

    def charge_gather(self, total_words: int,
                      category: str = "gather") -> int:
        """Collect ``total_words`` of data onto a single machine.

        Valid only when the result fits in local memory; the paper uses
        this to move a batch of updates (or the auxiliary graph H) onto
        one machine.  The data travels up the aggregation tree, so the
        round cost is the tree depth.
        """
        if total_words > self.local_memory:
            self._check_budget(0, total_words, "recv")
        rounds = max(1, tree_depth(self.num_machines, self.config.fanout(1)))
        self.metrics.charge_rounds(rounds, category)
        self.metrics.charge_traffic(self.num_machines, total_words)
        return rounds

    def charge_sort(self, num_items: int, category: str = "sort") -> int:
        """Sort ``num_items`` records spread across machines ([GSZ11]).

        Theoretical charge: sample sort recurses with branching ``s``,
        so the depth is ``ceil(log_s N)`` and the round count
        ``2 * depth + 1`` (sample converge, splitter dissemination,
        routing) -- O(1/phi) for constant ``phi``, independent of the
        machine count.  The reference implementation in
        ``tests/mpc_reference.py`` is a *single-level* sample sort: it
        matches this charge whenever its splitter vector fits the tree
        fanout and is strictly slower otherwise, which the tests check
        in both directions.
        """
        if self.num_machines == 1 or num_items <= 1:
            self.metrics.charge_rounds(1, category)
            return 1
        depth = tree_depth(num_items, max(2, self.local_memory))
        rounds = 2 * depth + 1
        self.metrics.charge_rounds(rounds, category)
        self.metrics.charge_traffic(num_items, num_items)
        return rounds

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _backend_health(self) -> Dict[str, int]:
        """The backend's cumulative health counters.

        With ``REPRO_KERNELS_PROFILE=1`` the parent-side kernel and
        dispatch-section accumulators ride along: they are cumulative
        monotone ints just like the health counters, so
        :meth:`~repro.mpc.metrics.ClusterMetrics.end_phase` diffs them
        into per-phase ``backend_events`` rows with no extra plumbing.
        """
        from repro.kernels import profile

        health = self.backend.health_counters()
        if profile.enabled():
            health.update(profile.counters())
        return health

    def begin_phase(self, label: str) -> None:
        self.metrics.begin_phase(label, health=self._backend_health())

    def end_phase(self, batch_size: int = 0) -> PhaseMetrics:
        return self.metrics.end_phase(batch_size,
                                      health=self._backend_health())

    def __repr__(self) -> str:
        return (
            f"Cluster({self.num_machines} machines x {self.local_memory} words, "
            f"rounds={self.metrics.rounds}, backend={self.backend.name})"
        )
