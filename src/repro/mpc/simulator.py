"""The MPC cluster simulator: synchronous rounds over bounded machines.

Two complementary APIs live here, and the test suite ties them together:

1. **Real message passing** -- :meth:`Cluster.exchange` delivers a list of
   :class:`~repro.mpc.machine.Message` objects in one synchronous round,
   enforcing the model's per-machine send/receive budget of ``s`` words
   (paper, Section 1.2: "the total messages sent or received by each
   machine in each round should not exceed its memory").  The primitives
   in :mod:`repro.mpc.primitives` (broadcast tree, converge-cast,
   distributed sample sort) are built on this and are unit-tested for
   both correctness and round counts.

2. **Round accounting** -- ``charge_*`` methods that charge the *same*
   round counts the real primitives incur, computed from the cluster
   geometry (machine count and fanout).  The graph algorithms in
   :mod:`repro.core` keep their distributed state in partition-aware
   Python structures and charge rounds through this API; tests in
   ``tests/test_mpc_primitives.py`` assert that the closed-form charges
   equal the measured depths of the real executions, so the two APIs
   cannot drift apart silently.

This split is the standard trick for simulating MPC at laptop scale: the
theorems are statements about *counts*, and the counts are what both
paths produce.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import CapacityExceededError
from repro.mpc.backend import ExecutionBackend, resolve_backend
from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine, Message
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
        Execution backend override (name or instance); defaults to the
        config's ``backend`` field, which itself defaults to the
        ``REPRO_BACKEND`` environment variable / sequential.  The
        backend decides where sketch-pool work *executes*; the round
        and word accounting never reads it.
    """

    def __init__(self, config: MPCConfig, backend=None):
        self.config = config
        self.machines: List[Machine] = [
            Machine(i, config.local_memory) for i in range(config.machine_count)
        ]
        self.metrics = ClusterMetrics()
        self.rng = np.random.default_rng(config.seed)
        if backend is None:
            backend = config.backend
        # An instance carries its own worker count; the config's count
        # goes with a name.
        self.backend: ExecutionBackend = resolve_backend(
            backend, None if isinstance(backend, ExecutionBackend)
            else config.backend_workers)

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

    def close(self, close_backend: Optional[bool] = None) -> None:
        """Shut down the execution backend deterministically.

        Joins the worker threads now instead of at GC / interpreter
        exit.  By default only a
        *privately owned* backend is closed: factory-cached backends
        (``backend.cached``) are shared by every cluster in the
        process, so killing one out from under the others is opt-in
        (``close_backend=True``; the factory re-creates one on the next
        request).  In-process backends make this a no-op.
        """
        if close_backend is None:
            close_backend = not self.backend.cached
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
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def local_memory(self) -> int:
        return self.config.local_memory

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    # ------------------------------------------------------------------
    # Real synchronous message passing (used by the primitives)
    # ------------------------------------------------------------------
    def exchange(self, messages: Iterable[Message]) -> Dict[int, List[Message]]:
        """Deliver ``messages`` in one synchronous round.

        Returns the inbox of each destination machine.  Per-machine send
        and receive word totals are checked against ``s``; violations
        either raise (strict mode) or are recorded in the ledger.
        """
        sent_words: Dict[int, int] = {}
        recv_words: Dict[int, int] = {}
        inboxes: Dict[int, List[Message]] = {}
        count = 0
        words = 0
        for msg in messages:
            if not (0 <= msg.src < self.num_machines):
                raise ValueError(f"bad source machine {msg.src}")
            if not (0 <= msg.dst < self.num_machines):
                raise ValueError(f"bad destination machine {msg.dst}")
            sent_words[msg.src] = sent_words.get(msg.src, 0) + msg.words
            recv_words[msg.dst] = recv_words.get(msg.dst, 0) + msg.words
            inboxes.setdefault(msg.dst, []).append(msg)
            count += 1
            words += msg.words

        self.metrics.charge_rounds(1, "exchange")
        self.metrics.charge_traffic(count, words)
        for mid, used in sent_words.items():
            self._check_budget(mid, used, "send")
        for mid, used in recv_words.items():
            # Delivered words are attributed to the receiving machine,
            # so PhaseMetrics shows where the data actually landed.
            self.metrics.charge_machine_words(mid, used)
            self._check_budget(mid, used, "recv")
        return inboxes

    def _check_budget(self, machine_id: int, used: int, what: str) -> None:
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

    def check_store_capacities(self) -> None:
        """Audit machine stores; record/raise for any over-capacity store."""
        for machine in self.machines:
            if machine.over_capacity():
                self._check_budget(machine.machine_id, machine.used_words, "store")

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

        Cost: depth of the fanout tree.  Mirrors
        :func:`repro.mpc.primitives.broadcast_value`.
        """
        fanout = self.config.fanout(words)
        rounds = max(1, tree_depth(self.num_machines, fanout))
        self.metrics.charge_rounds(rounds, category)
        self.metrics.charge_traffic(
            self.num_machines - 1, words * max(0, self.num_machines - 1)
        )
        return rounds

    def charge_converge(self, words: int = 1, category: str = "converge") -> int:
        """Aggregate a ``words``-sized combinable value from all machines.

        Converge-cast up an aggregation tree; cost equals broadcast
        depth.  This is the "merging the sketches of the vertices in
        Z_u ... in O(1/phi) rounds" step (paper, Lemma 5.2 footnote 8).
        """
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
        :mod:`repro.mpc.primitives` is a *single-level* sample sort: it
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
