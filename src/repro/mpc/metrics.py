"""Round, communication, and memory accounting for the MPC simulator.

The paper's theorems are statements about three counters:

* **rounds** per update phase (the headline: O(1) for constant ``phi``),
* **total memory** in words across all machines (~O(n)),
* **communication** per round (bounded by total memory).

This module owns those counters.  :class:`ClusterMetrics` is attached to a
:class:`~repro.mpc.simulator.Cluster`; every primitive operation charges
rounds/words into it, every distributed data structure registers its
footprint with it, and :meth:`ClusterMetrics.end_phase` snapshots the
deltas into an immutable :class:`PhaseMetrics` that benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PhaseMetrics:
    """Resource usage of one update phase (one batch) or one query.

    ``rounds_by_category`` breaks the round count down by primitive kind
    (``broadcast``, ``converge``, ``sort``, ``exchange``, ``local``),
    which the ablation benchmarks use to attribute cost.
    """

    label: str
    batch_size: int
    rounds: int
    messages: int
    words_sent: int
    peak_total_memory: int
    rounds_by_category: Dict[str, int]
    capacity_violations: int
    #: Words of per-shard work attributed to each machine id during the
    #: phase.  Populated when work is genuinely distributed -- real
    #: message deliveries, and batch routing under a parallel execution
    #: backend -- so the ledger shows where work landed instead of
    #: lumping everything on machine 0.
    words_by_machine: Dict[int, int] = field(default_factory=dict)
    #: Execution events that occurred during the phase, as deltas of
    #: the execution backend's cumulative ``health_counters()`` (and,
    #: with ``REPRO_KERNELS_PROFILE=1``, the kernel profile counters).
    #: Empty in phases where no counter moved.
    backend_events: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flatten into a dict suitable for table rendering."""
        return {
            "phase": self.label,
            "batch": self.batch_size,
            "rounds": self.rounds,
            "messages": self.messages,
            "words_sent": self.words_sent,
            "peak_total_memory": self.peak_total_memory,
            "violations": self.capacity_violations,
            "fleet": " ".join(f"{k}={v}" for k, v
                              in sorted(self.backend_events.items())),
        }


@dataclass
class CapacityViolation:
    """Record of a machine exceeding a per-round or storage budget."""

    machine_id: int
    what: str  # 'store' | 'send' | 'recv'
    used: int
    capacity: int
    round_index: int


class ClusterMetrics:
    """Mutable ledgers for a cluster; one instance per :class:`Cluster`.

    Memory model: distributed structures *register* their total word
    footprint under a name (``register_memory``); the ledger maintains
    the current sum and its high-water mark.  This measures exactly the
    quantity Theorem 1.1 bounds -- the sum of storage over machines --
    without requiring every algorithm to serialise its state into
    machine stores on every step.
    """

    def __init__(self) -> None:
        self.rounds: int = 0
        self.rounds_by_category: Dict[str, int] = {}
        self.messages: int = 0
        self.words_sent: int = 0
        self.words_by_machine: Dict[int, int] = {}
        #: Cumulative execution events fed in by the cluster from its
        #: execution backend at phase boundaries (see ``begin_phase`` /
        #: ``end_phase`` ``health=`` parameters).
        self.backend_events: Dict[str, int] = {}
        self.violations: List[CapacityViolation] = []
        self._memory: Dict[str, int] = {}
        self.peak_total_memory: int = 0
        # Phase bookkeeping: snapshot of counters at begin_phase().
        self._phase_label: Optional[str] = None
        self._phase_start: Dict[str, object] = {}
        self._phase_peak: int = 0

    # ------------------------------------------------------------------
    # Round / communication charging
    # ------------------------------------------------------------------
    def charge_rounds(self, count: int, category: str) -> None:
        if count < 0:
            raise ValueError("round count must be non-negative")
        self.rounds += count
        self.rounds_by_category[category] = (
            self.rounds_by_category.get(category, 0) + count
        )

    def charge_traffic(self, messages: int, words: int) -> None:
        self.messages += messages
        self.words_sent += words

    def charge_machine_words(self, machine_id: int, words: int) -> None:
        """Attribute ``words`` of delivered/processed data to a machine.

        Fed by real message deliveries (:meth:`Cluster.exchange`) and by
        per-shard batch routing when the execution backend runs shards
        in parallel on their owning machines.
        """
        if words < 0:
            raise ValueError("machine words must be non-negative")
        self.words_by_machine[machine_id] = (
            self.words_by_machine.get(machine_id, 0) + words
        )

    def record_violation(self, violation: CapacityViolation) -> None:
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # Memory registration
    # ------------------------------------------------------------------
    def register_memory(self, name: str, words: int) -> None:
        """Set the current footprint of a named distributed structure."""
        if words < 0:
            raise ValueError(f"negative footprint for {name!r}")
        self._memory[name] = words
        self._update_peak()

    def release_memory(self, name: str) -> None:
        self._memory.pop(name, None)

    @property
    def total_memory(self) -> int:
        """Current total words across all registered structures."""
        return sum(self._memory.values())

    def memory_breakdown(self) -> Dict[str, int]:
        return dict(self._memory)

    def _update_peak(self) -> None:
        total = self.total_memory
        if total > self.peak_total_memory:
            self.peak_total_memory = total

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def begin_phase(self, label: str,
                    health: Optional[Dict[str, int]] = None) -> None:
        """Open a phase.  ``health`` is the execution backend's
        cumulative ``health_counters()`` at phase start; ``end_phase``
        diffs against it to attribute execution events to the phase."""
        if self._phase_label is not None:
            raise RuntimeError(
                f"phase {self._phase_label!r} still open; nested phases "
                "are not supported"
            )
        self._phase_label = label
        self._phase_start = {
            "rounds": self.rounds,
            "messages": self.messages,
            "words_sent": self.words_sent,
            "violations": len(self.violations),
            "by_cat": dict(self.rounds_by_category),
            "by_machine": dict(self.words_by_machine),
            "peak": self.total_memory,
            "health": dict(health or {}),
        }
        # Peak within the phase starts from the current footprint.
        self._phase_peak = self.total_memory

    def note_memory_peak(self) -> None:
        """Fold the current footprint into the open phase's peak."""
        if self._phase_label is not None:
            self._phase_peak = max(self._phase_peak, self.total_memory)
        self._update_peak()

    def end_phase(self, batch_size: int = 0,
                  health: Optional[Dict[str, int]] = None) -> PhaseMetrics:
        if self._phase_label is None:
            raise RuntimeError("no phase is open")
        start = self._phase_start
        health_start = start.get("health", {})
        health_delta = {
            key: value - health_start.get(key, 0)  # type: ignore[union-attr]
            for key, value in (health or {}).items()
            if value - health_start.get(key, 0) > 0  # type: ignore[union-attr]
        }
        for key, value in health_delta.items():
            self.backend_events[key] = (
                self.backend_events.get(key, 0) + value
            )
        by_cat_delta = {
            cat: count - start["by_cat"].get(cat, 0)  # type: ignore[union-attr]
            for cat, count in self.rounds_by_category.items()
            if count - start["by_cat"].get(cat, 0) > 0  # type: ignore[union-attr]
        }
        by_machine_delta = {
            mid: words - start["by_machine"].get(mid, 0)  # type: ignore[union-attr]
            for mid, words in self.words_by_machine.items()
            if words - start["by_machine"].get(mid, 0) > 0  # type: ignore[union-attr]
        }
        snapshot = PhaseMetrics(
            label=self._phase_label,
            batch_size=batch_size,
            rounds=self.rounds - start["rounds"],  # type: ignore[operator]
            messages=self.messages - start["messages"],  # type: ignore[operator]
            words_sent=self.words_sent - start["words_sent"],  # type: ignore[operator]
            peak_total_memory=max(self._phase_peak, self.total_memory),
            rounds_by_category=by_cat_delta,
            capacity_violations=len(self.violations) - start["violations"],  # type: ignore[operator]
            words_by_machine=by_machine_delta,
            backend_events=health_delta,
        )
        self._phase_label = None
        self._phase_start = {}
        return snapshot
