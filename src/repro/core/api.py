"""Common protocol and helpers for the batch-dynamic MPC algorithms.

Every algorithm in :mod:`repro.core` follows the paper's phase model
(Section 1.2): a *phase* receives one batch of edge updates, runs a
constant number of MPC rounds, and leaves the maintained solution
queryable.  :class:`BatchDynamicAlgorithm` fixes that surface --
``apply_batch`` returning a :class:`~repro.mpc.metrics.PhaseMetrics`
snapshot -- plus shared bookkeeping: batch-size enforcement, insertion/
deletion ordering, and the update-stream validity guard.

The validity guard deserves a note: the model *assumes* the adversary
only deletes existing edges and never inserts duplicates (paper,
Section 1.2).  The tracked edge set that enforces this is a harness
aid, deliberately excluded from the memory ledger -- a production
deployment would simply trust its ingestion layer, and counting it
would spuriously inflate every ~O(n) memory measurement to O(m).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.errors import (
    BatchTooLargeError,
    ConfigurationError,
    InvalidUpdateError,
)
from repro.mpc.config import MPCConfig, check_count
from repro.mpc.metrics import PhaseMetrics
from repro.mpc.simulator import Cluster
from repro.types import Batch, Edge, Update


class UpdateValidator:
    """Tracks the current edge set and rejects invalid updates.

    Enforces the model's stream-validity assumptions; see the module
    docstring for why this is outside the memory accounting.
    """

    def __init__(self, track: bool = True):
        self.track = track
        self._edges: Set[Edge] = set()
        self._weights: Dict[Edge, float] = {}

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Set[Edge]:
        return set(self._edges)

    def weight_of(self, edge: Edge) -> float:
        return self._weights[edge]

    def check_and_apply(self, batch: Iterable[Update]) -> None:
        """Validate a batch (insertions first, then deletions) and
        record the post-batch edge set.

        Validation is **atomic**: the whole batch is checked against
        the current state before anything is applied, so a rejected
        batch leaves the tracked edge set untouched.  This matters for
        shared validators (:class:`~repro.session.GraphSession`): a
        partially applied edge set would let later "valid" updates
        desync the validator from every algorithm's maintained state.
        """
        if not self.track:
            return
        inserts: List[Update] = []
        deletes: List[Update] = []
        for update in batch:
            (inserts if update.is_insert else deletes).append(update)
        added: Set[Edge] = set()
        for update in inserts:
            if update.edge in self._edges or update.edge in added:
                raise InvalidUpdateError(
                    f"insert of existing edge {update.edge}"
                )
            added.add(update.edge)
        removed: Set[Edge] = set()
        for update in deletes:
            present = (update.edge in self._edges
                       or update.edge in added)
            if not present or update.edge in removed:
                raise InvalidUpdateError(
                    f"delete of missing edge {update.edge}"
                )
            removed.add(update.edge)
        # Nothing below can fail: apply insertions then deletions.
        for update in inserts:
            self._edges.add(update.edge)
            self._weights[update.edge] = update.weight
        for update in deletes:
            self._edges.discard(update.edge)
            self._weights.pop(update.edge, None)


def charge_route_updates(cluster: Cluster, batch) -> None:
    """Charge the Section 1.2 batch-routing step for one phase.

    Route all update requests to one dedicated machine first (a batch
    fits in one machine's memory, and moving it there is one
    aggregation tree, O(1/phi) rounds).  The charge is the same on every
    execution backend: where the sketch work later runs is not part of
    the cost model.

    One definition shared by standalone :meth:`BatchDynamicAlgorithm.
    apply_batch` phases and :class:`~repro.session.GraphSession` (which
    charges it once per *session* phase, not once per task).
    """
    if len(batch):
        cluster.charge_gather(len(batch), category="route-updates")


class BatchDynamicAlgorithm:
    """Base class for phase-structured MPC algorithms.

    Subclasses implement :meth:`_process_batch` (already split into
    insertions-then-deletions per the paper's w.l.o.g. reduction) and
    :meth:`_register_memory` (refresh the ledger's view of their
    distributed state).

    Session integration
    -------------------
    Subclasses that can be driven as one task of a shared
    :class:`~repro.session.GraphSession` declare registration metadata:
    a ``task`` key (which also enters the session task registry via
    ``__init_subclass__``) and, where applicable, ``supports_deletions
    = False`` for insertion-only theorems.  :meth:`attach` switches a
    constructed instance into session mode -- shared cluster, shared
    validator, per-task memory namespacing -- after which validation
    and the route-updates charge happen once per *session* phase
    instead of once per algorithm.  :meth:`_members` /
    :meth:`_sketch_families` expose nested instances and sketch
    families so checkpoint restore can point them at another backend.
    """

    #: Human-readable algorithm name for table rows.
    name: str = "batch-dynamic"
    #: Session-task key; ``None`` means not constructible by task name.
    task: Optional[str] = None
    #: Whether the maintained theorem admits deletion updates.
    supports_deletions: bool = True
    #: Task name -> class, filled by ``__init_subclass__``.
    _TASKS: Dict[str, type] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        task = cls.__dict__.get("task")
        if task:
            BatchDynamicAlgorithm._TASKS[task] = cls

    @classmethod
    def task_registry(cls) -> Dict[str, type]:
        """Registered session tasks (name -> algorithm class)."""
        return dict(cls._TASKS)

    @classmethod
    def class_for_task(cls, task: str) -> type:
        try:
            return cls._TASKS[task]
        except KeyError:
            raise ConfigurationError(
                f"unknown task {task!r}; registered tasks: "
                f"{sorted(cls._TASKS)}"
            ) from None

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None, track_edges: bool = True):
        self.config = config
        self.cluster = cluster if cluster is not None else Cluster(config)
        self.batch_limit = (config.batch_bound if batch_limit is None
                            else check_count("batch_limit", batch_limit))
        self.validator = UpdateValidator(track=track_edges)
        self.phases: List[PhaseMetrics] = []
        self._attached = False
        self._memory_ns = ""
        self._registered: Set[str] = set()

    # -- session integration --------------------------------------------
    def attach(self, cluster: Cluster, validator: UpdateValidator) -> None:
        """Register this algorithm against a shared session cluster.

        The instance must have been *constructed on* ``cluster`` (the
        session passes ``cluster=`` through the constructor; attach
        only switches modes, it cannot migrate state between clusters).
        Afterwards:

        * ``validator`` replaces the private one -- the session
          validates each batch once for all tasks, so
          :meth:`apply_batch` skips ``check_and_apply``;
        * the route-updates gather is skipped too (the session charges
          it once per phase on the shared metrics ledger);
        * memory registrations are namespaced ``"<name>/"`` so
          co-resident tasks do not overwrite each other's ledger
          entries.
        """
        if cluster is not self.cluster:
            raise ConfigurationError(
                f"{self.name} was not constructed on the shared cluster; "
                "pass cluster= at construction before attaching"
            )
        if self.phases:
            raise ConfigurationError(
                f"cannot attach {self.name} after it has processed phases"
            )
        for key in self._registered:
            self.cluster.metrics.release_memory(key)
        self._registered.clear()
        self.validator = validator
        self._attached = True
        self._memory_ns = f"{self.name}/"
        self._register_memory()
        self.cluster.metrics.note_memory_peak()

    def _register(self, name: str, words: int) -> None:
        """Register a distributed structure's footprint, namespaced per
        task when attached to a session (see :meth:`attach`)."""
        key = self._memory_ns + name
        self._registered.add(key)
        self.cluster.metrics.register_memory(key, words)

    def _members(self) -> "List[BatchDynamicAlgorithm]":
        """Nested batch-dynamic instances running on their own private
        clusters (e.g. bipartiteness's double cover, approximate MSF's
        weight levels).  Checkpoint restore walks these to point every
        cluster at the chosen backend."""
        return []

    def _sketch_families(self) -> list:
        """The sketch families this instance owns directly (not through
        :meth:`_members`); restore points each at the chosen backend."""
        return []

    # -- subclass hooks -------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        raise NotImplementedError

    def _register_memory(self) -> None:
        raise NotImplementedError

    # -- public API -----------------------------------------------------
    @property
    def n(self) -> int:
        return self.config.n

    @property
    def num_edges(self) -> int:
        """Current number of edges of the maintained graph."""
        return self.validator.num_edges

    def apply_batch(self, updates: Iterable[Update]) -> PhaseMetrics:
        """Process one phase: a batch of at most ``batch_limit`` updates.

        Returns the phase's resource snapshot (rounds, words, memory
        peak) and appends it to :attr:`phases`.
        """
        batch = updates if isinstance(updates, Batch) else Batch(updates)
        if len(batch) > self.batch_limit:
            raise BatchTooLargeError(len(batch), self.batch_limit)
        if not self._attached:
            # In session mode the shared validator has already applied
            # this batch and the session charged the routing step --
            # both happen once per phase, not once per task.
            self.validator.check_and_apply(batch)
        label = f"{self.name}-phase-{len(self.phases)}"
        self.cluster.begin_phase(label)
        if not self._attached:
            charge_route_updates(self.cluster, batch)
        self._process_batch(batch.insertions, batch.deletions)
        self._register_memory()
        self.cluster.metrics.note_memory_peak()
        snapshot = self.cluster.end_phase(batch_size=len(batch))
        self.phases.append(snapshot)
        return snapshot

    def apply_update(self, update: Update) -> PhaseMetrics:
        """Single-update phase (the Section 5 setting)."""
        return self.apply_batch([update])

    # -- reporting helpers ----------------------------------------------
    def rounds_per_phase(self) -> List[int]:
        return [phase.rounds for phase in self.phases]

    def max_rounds(self) -> int:
        return max((phase.rounds for phase in self.phases), default=0)

    def total_memory_words(self) -> int:
        return self.cluster.metrics.total_memory

    def registered_memory_words(self) -> int:
        """Words registered by *this* algorithm's own ledger keys.

        On a private cluster this equals :meth:`total_memory_words`;
        on a shared session cluster the total spans every co-resident
        task, and this is the one task's share.
        """
        breakdown = self.cluster.metrics.memory_breakdown()
        return sum(breakdown.get(key, 0) for key in self._registered)

    def memory_breakdown(self) -> Dict[str, int]:
        return self.cluster.metrics.memory_breakdown()
