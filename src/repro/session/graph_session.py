"""`GraphSession`: one front door for every maintained algorithm.

The paper's phase model (Section 1.2) maintains *a* solution per batch;
a deployment serving many query types wants *several* maintained
solutions -- connectivity, MSF, bipartiteness, matching -- over the
**same** update stream.  [CMM24] frames all of them as sketch-maintained
queries over one stream, and the batch-dynamic framework of [NO20]
treats algorithms as pluggable consumers of a shared batch pipeline.
Driving the standalone classes side by side duplicates the expensive
shared plumbing: each builds its own :class:`~repro.mpc.simulator.
Cluster`, resolves its own execution backend, validates the stream
independently, and charges the batch-routing step once per instance.

:class:`GraphSession` multiplexes instead.  It constructs **one**
cluster (one execution backend, one vertex partition, one metrics
ledger) and **one** :class:`~repro.core.api.UpdateValidator`, then
registers each requested task against them through
:meth:`~repro.core.api.BatchDynamicAlgorithm.attach`.  Per session
phase, stream validation and the ``route-updates`` gather happen once;
each task then processes the batch under its own phase label on the
shared ledger.

Parity guarantee
----------------
Every task answers **bit-identically** to its standalone class fed the
same batches.  Two mechanisms make that exact rather than approximate:

* the cluster's construction-randomness stream is :meth:`~repro.mpc.
  simulator.Cluster.reseed`-reset before each member is constructed, so
  each member draws exactly the randomness its standalone instance
  (fresh cluster, same config) would;
* validation and routing are pure accounting -- skipping the per-task
  copies changes no maintained state.

``tests/test_session.py`` pins this down on both execution backends.

Checkpoint / restore
--------------------
:meth:`GraphSession.checkpoint` serialises the full maintained state --
sketch pools (one private cell block per family), spawn-safe
randomness params (``SamplerRandomness.from_params``), validator edge
set, forests, metrics, and generator states -- to one file.
:meth:`GraphSession.restore` rebuilds a live session on any backend;
answers, and all further ingestion, match the uninterrupted run.  The
execution backend travels by name and worker count: unpickling hands
every cluster and sketch family the process's live
:func:`~repro.mpc.backend.get_backend` instance, and a ``backend=``
override of :meth:`~GraphSession.restore` is a plain reassignment, so
there is nothing to register and nothing to roll back.
"""

from __future__ import annotations

import inspect
import math
import numbers
import operator
import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

import repro.core  # noqa: F401  (importing defines every task's class,
#                    which is what populates the session task registry)
from repro._version import __version__
from repro.analysis.tables import print_table, render_table
from repro.core.api import (
    BatchDynamicAlgorithm,
    UpdateValidator,
    charge_route_updates,
)
from repro.errors import (
    BatchTooLargeError,
    ConfigurationError,
    InvalidUpdateError,
    QueryError,
)
from repro.mpc.backend import resolve_backend
from repro.mpc.config import MPCConfig, check_count
from repro.mpc.metrics import PhaseMetrics
from repro.mpc.simulator import Cluster
from repro.streams.batching import iter_batches
from repro.types import Batch, Edge, ForestSolution, MatchingSolution, Update, ins

#: On-disk checkpoint format version (bumped on layout changes; 2: the
#: sketch pool holds ``(Wd, Sd, Fd)`` with ``Fd`` one residue word; 3: the
#: Euler-tour forest holds int64 slot, vertex and per-tour arrays; 4: the
#: matching sparsifiers' per-pair samplers are rows of one pool; 5: clusters
#: and sketch families pickle their execution backend by name; 6: a cluster
#: holds no machine objects and phases no per-machine words).
CHECKPOINT_FORMAT = 6

#: Anything `ingest` coerces into an :class:`Update`.
UpdateLike = Union[Update, tuple]


@dataclass
class SessionPhase:
    """Resource record of one session phase (one shared batch).

    ``route`` is the once-per-phase shared work (stream validation is
    free in the model; the batch-routing gather is the charged part);
    ``per_task`` holds each task's own phase snapshot.
    """

    index: int
    batch_size: int
    route: PhaseMetrics
    per_task: Dict[str, PhaseMetrics] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        """Model rounds for the phase: routing + the slowest task (the
        tasks run on disjoint machine groups, i.e. in parallel)."""
        task_rounds = max((m.rounds for m in self.per_task.values()),
                          default=0)
        return self.route.rounds + task_rounds


def _vertex_id(x, n: int) -> Optional[int]:
    """``x`` as a vertex id of an ``n``-vertex graph, or ``None`` if it
    is not one: not an integer (``bool`` included) or outside
    ``[0, n)``.  It runs once per update and per ``connected`` endpoint,
    so a plain ``int`` skips the general conversion."""
    if type(x) is not int:
        if isinstance(x, bool):
            return None
        try:
            x = operator.index(x)
        except TypeError:
            return None
    return x if 0 <= x < n else None


def _check_update(up: Update, n: int) -> None:
    """Reject an update that is not an edge of the ``n``-vertex graph
    with a finite real weight (the sketch encoder and the MSF tasks
    would fail on it mid-phase, or silently misread it)."""
    w = up.weight
    if (_vertex_id(up.u, n) is None or _vertex_id(up.v, n) is None
            or not (type(w) is float or (isinstance(w, numbers.Real)
                                         and not isinstance(w, bool)))
            or not math.isfinite(w)):
        raise InvalidUpdateError(
            f"invalid update {up!r}: endpoints must be integers in "
            f"[0, {n}) and the weight a finite real"
        )


def _as_update(item: UpdateLike) -> Update:
    """Coerce one ingestion item to an :class:`Update`.

    Accepted shapes: an :class:`Update` (passes through, the only way
    to express deletions), an ``(u, v)`` pair (insertion, unit weight),
    or an ``(u, v, weight)`` triple (weighted insertion).  Endpoints
    must be integers (``operator.index``) and ``bool`` is refused; a
    real weight is stored as a float, anything else is left for
    :func:`_check_update` to reject.
    """
    if isinstance(item, Update):
        return item
    if isinstance(item, (tuple, list)) and len(item) in (2, 3):
        try:
            if any(isinstance(x, bool) for x in item):
                raise TypeError("bool is not a vertex id or a weight")
            u, v = operator.index(item[0]), operator.index(item[1])
            w = item[2] if len(item) == 3 else 1.0
            return ins(u, v, float(w) if isinstance(w, numbers.Real)
                       else w)
        except (TypeError, ValueError) as exc:
            raise InvalidUpdateError(
                f"cannot interpret {item!r} as an update: {exc}"
            ) from None
    raise InvalidUpdateError(
        f"cannot interpret {item!r} as an update; expected an Update, "
        "a (u, v) pair, or a (u, v, weight) triple"
    )


def _check_task_options(task: str, cls: type, options) -> dict:
    """``options`` as constructor keywords of task class ``cls``, or
    :class:`ConfigurationError` naming the task and the bad name.

    Checked against the constructor's signature before constructing, so
    a misspelt option fails by name; ``config`` and ``cluster`` are the
    session's to pass."""
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ConfigurationError(
            f"options of task {task!r} must be a dict, got {options!r}")
    accepted = set(inspect.signature(cls).parameters) - {"config",
                                                          "cluster"}
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ConfigurationError(
            f"unknown option(s) {unknown} for task {task!r}; accepted: "
            f"{sorted(accepted)}")
    return options


def _coerce_stream(updates: Iterable[UpdateLike]) -> Iterator[Update]:
    """Lazily coerce an ingestion stream (generators stay generators)."""
    for item in updates:
        yield _as_update(item)


class GraphSession:
    """Maintain several algorithms over one update stream.

    Parameters
    ----------
    n:
        Number of vertices; alternatively pass a full ``config``.
    tasks:
        The algorithms to maintain: an iterable of task names from the
        registry (``"connectivity"``, ``"msf"``, ``"msf_approx"``,
        ``"bipartiteness"``, ``"matching"``, ...) or a mapping
        ``{name: constructor_kwargs}`` for per-task options
        (e.g. ``{"msf_approx": {"eps": 0.1}}``).
    config:
        Explicit :class:`~repro.mpc.config.MPCConfig`; built from
        ``n`` / ``phi`` / ``seed`` when omitted.
    backend, backend_workers:
        Execution backend for the shared cluster (name, instance, or
        ``None`` for the config / environment default).  One backend
        serves every task.  A worker count given next to an instance
        must equal its own.
    batch_size:
        Auto-batching size for :meth:`ingest`; defaults to (and may
        not exceed) the model's per-phase batch bound.

    The session is a context manager; :meth:`close` tears the backend
    down deterministically.
    """

    def __init__(self, n: Optional[int] = None,
                 tasks: Union[Iterable[str], Dict[str, dict]] = ("connectivity",),
                 config: Optional[MPCConfig] = None, backend=None,
                 backend_workers: Optional[int] = None, *,
                 phi: float = 0.5, seed: int = 0,
                 batch_size: Optional[int] = None):
        if config is None:
            if n is None:
                raise ConfigurationError("pass n= or a full config=")
            config = MPCConfig(
                n=n, phi=phi, seed=seed,
                backend=backend if isinstance(backend, str) else None,
                backend_workers=backend_workers,
            )
        elif n is not None and n != config.n:
            raise ConfigurationError(
                f"n={n} conflicts with config.n={config.n}"
            )
        self.config = config
        if backend_workers is not None:
            # An explicit worker count wins over config=, and must
            # agree with an instance backend.
            backend = resolve_backend(
                config.backend if backend is None else backend,
                backend_workers)
        self.cluster = Cluster(config, backend=backend)
        self.validator = UpdateValidator(track=True)
        self._algs: Dict[str, BatchDynamicAlgorithm] = {}
        if isinstance(tasks, str):
            tasks = (tasks,)  # a bare name, not an iterable of chars
        if isinstance(tasks, dict):
            task_options = dict(tasks)
        else:
            names = list(tasks)
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"duplicate task names in {names!r}"
                )
            task_options = {name: {} for name in names}
        if not task_options:
            raise ConfigurationError("need at least one task")
        for task, options in task_options.items():
            cls = BatchDynamicAlgorithm.class_for_task(task)
            options = _check_task_options(task, cls, options)
            # Reset the construction-randomness stream so this member
            # draws exactly what its standalone instance would -- the
            # bit-identical parity contract (module docstring).
            self.cluster.reseed()
            alg = cls(config, cluster=self.cluster, **options)
            alg.attach(self.cluster, self.validator)
            self._algs[task] = alg
        limit = min(alg.batch_limit for alg in self._algs.values())
        if batch_size is None:
            self.batch_size = limit
        elif not 1 <= check_count("batch_size", batch_size) <= limit:
            raise ConfigurationError(
                f"batch_size={batch_size} outside [1, {limit}] "
                "(the model's per-phase batch bound)"
            )
        else:
            self.batch_size = batch_size
        self.phases: List[SessionPhase] = []
        self._closed = False
        self._broken: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.config.n

    @property
    def tasks(self) -> List[str]:
        return list(self._algs)

    @property
    def num_edges(self) -> int:
        """Current number of edges of the maintained graph."""
        return self.validator.num_edges

    def edges(self) -> set:
        return self.validator.edges()

    def query(self, task: str) -> BatchDynamicAlgorithm:
        """The live algorithm handle for ``task`` (its concrete class
        carries the task's full typed query surface)."""
        self._check_consistent()
        try:
            return self._algs[task]
        except KeyError:
            raise QueryError(
                f"task {task!r} is not maintained by this session; "
                f"active tasks: {self.tasks}"
            ) from None

    def _first_task(self, *names: str) -> Optional[BatchDynamicAlgorithm]:
        self._check_consistent()
        for name in names:
            if name in self._algs:
                return self._algs[name]
        return None

    def _all_algorithms(self) -> List[BatchDynamicAlgorithm]:
        """Top-level tasks plus nested members, transitively."""
        out: List[BatchDynamicAlgorithm] = []
        stack = list(self._algs.values())
        while stack:
            alg = stack.pop()
            out.append(alg)
            stack.extend(alg._members())
        return out

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise QueryError("session is closed")
        self._check_consistent()

    def _check_consistent(self) -> None:
        if self._broken is not None:
            raise QueryError(
                f"session state is inconsistent: {self._broken}; "
                "restore the last checkpoint or start a fresh session"
            )

    def _apply_phase(self, batch: Batch) -> SessionPhase:
        self._check_open()
        if len(batch) > self.batch_size:
            raise BatchTooLargeError(len(batch), self.batch_size)
        if batch.deletions:
            for task, alg in self._algs.items():
                if not alg.supports_deletions:
                    raise InvalidUpdateError(
                        f"task {task!r} ({alg.name}) maintains an "
                        "insertion-only theorem; remove it from the "
                        "session or keep the stream insertion-only"
                    )
        # Once per phase for every task: stream validation -- the
        # boundary checks first, so no task sees a malformed update ...
        n = self.n
        for up in batch:
            _check_update(up, n)
        self.validator.check_and_apply(batch)
        # ... and the route-updates charge, on the shared ledger.
        label = f"session-phase-{len(self.phases)}"
        self.cluster.begin_phase(label)
        charge_route_updates(self.cluster, batch)
        route = self.cluster.end_phase(batch_size=len(batch))
        phase = SessionPhase(index=len(self.phases),
                             batch_size=len(batch), route=route)
        for task, alg in self._algs.items():
            try:
                phase.per_task[task] = alg.apply_batch(batch)
            except Exception as exc:
                # The shared validator (and any earlier task) already
                # applied the batch; the remaining tasks have not.  The
                # tasks now sit at different stream positions, so no
                # further ingestion or query may trust the session.
                self._broken = (
                    f"task {task!r} raised {type(exc).__name__} "
                    f"mid-phase; earlier tasks applied the batch, "
                    f"later ones did not"
                )
                raise
        self.phases.append(phase)
        return phase

    def apply_batch(self, updates: Iterable[UpdateLike]) -> SessionPhase:
        """Process exactly one phase (raises if the batch exceeds the
        model bound; use :meth:`ingest` for auto-batching)."""
        return self._apply_phase(Batch(_coerce_stream(updates)))

    def ingest(self, updates: Iterable[UpdateLike],
               batch_size: Optional[int] = None) -> List[SessionPhase]:
        """Stream updates through every maintained task, auto-batched.

        ``updates`` may be a list, any iterable, or a lazy generator --
        items are (u, v) pairs, (u, v, weight) triples, or
        :class:`Update` objects (the only way to express deletions) --
        and is consumed incrementally in stream order, one batch of at
        most ``batch_size`` (default: the model's per-phase bound)
        buffered at a time.  Returns the resource record of every phase
        applied.
        """
        size = batch_size if batch_size is not None else self.batch_size
        if not 1 <= size <= self.batch_size:
            raise ConfigurationError(
                f"batch_size={size} outside [1, {self.batch_size}]"
            )
        return [
            self._apply_phase(batch)
            for batch in iter_batches(_coerce_stream(updates), size)
        ]

    # ------------------------------------------------------------------
    # Uniform query surface
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        """Are ``u`` and ``v`` connected? (any connectivity-maintaining
        task answers; O(1) rounds)."""
        alg = self._first_task("connectivity", "msf", "msf_approx")
        if alg is None:
            raise QueryError(
                "no connectivity-maintaining task in this session "
                f"(active: {self.tasks})"
            )
        n = self.n
        a, b = _vertex_id(u, n), _vertex_id(v, n)
        if a is None or b is None:
            raise QueryError(
                f"connected({u!r}, {v!r}): vertex ids must be integers "
                f"in [0, {n})"
            )
        return alg.connected(a, b)

    def num_components(self) -> int:
        alg = self._first_task("connectivity", "msf", "bipartiteness",
                               "msf_approx")
        if alg is None:
            raise QueryError(
                "no component-maintaining task in this session "
                f"(active: {self.tasks})"
            )
        return alg.num_components()

    def spanning_forest(self) -> ForestSolution:
        """The maintained (minimum) spanning forest."""
        self._check_consistent()
        if "connectivity" in self._algs:
            return self._algs["connectivity"].query_spanning_forest()
        if "msf" in self._algs:
            return self._algs["msf"].query_msf()
        if "msf_approx" in self._algs:
            return self._algs["msf_approx"].query_forest()
        raise QueryError(
            f"no forest-maintaining task in this session "
            f"(active: {self.tasks})"
        )

    def msf_weight(self) -> float:
        """Exact MSF weight (``msf`` task) or the (1+eps)-approximate
        estimate (``msf_approx``)."""
        self._check_consistent()
        if "msf" in self._algs:
            return self._algs["msf"].msf_weight()
        if "msf_approx" in self._algs:
            return self._algs["msf_approx"].weight_estimate()
        raise QueryError(
            f"no MSF task in this session (active: {self.tasks})"
        )

    def is_bipartite(self) -> bool:
        return self.query("bipartiteness").is_bipartite()

    def matching(self) -> MatchingSolution:
        alg = self._first_task("matching", "matching_greedy")
        if alg is None:
            raise QueryError(
                f"no matching task in this session (active: {self.tasks})"
            )
        return alg.matching()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, include_route: bool = True) -> List[Dict[str, object]]:
        """Per-task, per-phase resource rows for :mod:`repro.analysis.
        tables` (``render_table`` / ``print_table``).

        ``(route)`` rows are the once-per-phase shared work; each task
        row is that task's own phase snapshot on the shared ledger.
        """
        rows: List[Dict[str, object]] = []
        for phase in self.phases:
            if include_route:
                row = phase.route.row()
                row.update(phase=phase.index, task="(route)")
                rows.append(row)
            for task, snap in phase.per_task.items():
                row = snap.row()
                row.update(phase=phase.index, task=task)
                rows.append(row)
        return rows

    #: Column order for rendered reports.  ``fleet`` carries the
    #: phase's nonzero execution counters (the kernel profile under
    #: ``REPRO_KERNELS_PROFILE=1``) and is blank otherwise.
    REPORT_COLUMNS = ("phase", "task", "batch", "rounds", "messages",
                      "words_sent", "peak_total_memory", "violations",
                      "fleet")

    def fleet_health(self) -> Dict[str, int]:
        """Cumulative fleet-health counters of the live backend.

        Mirrors ``ExecutionBackend.health_counters()``: ``respawns`` /
        ``retries`` / ``degrades``, all 0 on the thread backend.  Empty
        on the sequential backend; per-phase deltas appear in the
        ``fleet`` column of :meth:`report`.
        """
        return self.cluster.backend.health_counters()

    def report_table(self) -> str:
        return render_table(
            self.report(), columns=list(self.REPORT_COLUMNS),
            title=f"session report ({', '.join(self.tasks)}; "
                  f"backend={self.cluster.backend.describe()})",
        )

    def print_report(self) -> None:
        print_table(
            self.report(), columns=list(self.REPORT_COLUMNS),
            title=f"session report ({', '.join(self.tasks)}; "
                  f"backend={self.cluster.backend.describe()})",
        )

    def summary(self) -> List[Dict[str, object]]:
        """One row per task: phase count, worst rounds, the task's own
        memory share of the shared ledger, and where the phases
        executed (``backend.describe()``)."""
        backend = self.cluster.backend.describe()
        return [
            {
                "task": task,
                "algorithm": alg.name,
                "phases": len(alg.phases),
                "rounds/batch(max)": alg.max_rounds(),
                "words_sent": sum(p.words_sent for p in alg.phases),
                "memory_words": alg.registered_memory_words(),
                "backend": backend,
            }
            for task, alg in self._algs.items()
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, close_backend: Optional[bool] = None) -> None:
        """Deterministic teardown (idempotent).

        When the session *owns* its backend (a privately constructed
        one, not the process-cached one other sessions share), joins its
        worker threads -- they are gone when this returns, not when the
        GC gets around to it.  Pass ``close_backend=True`` to force-close
        even a shared cached backend (the factory re-creates one for
        later users) or ``False`` to never close.  Double-close is a
        no-op, even when the session is latched inconsistent.
        """
        if self._closed:
            return
        self._closed = True
        self.cluster.close(close_backend)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"GraphSession(n={self.n}, tasks={self.tasks}, "
                f"phases={len(self.phases)}, edges={self.num_edges}, "
                f"{state})")

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Serialise the full session state to ``path``.

        Everything needed to answer queries and continue the stream
        goes in: sketch pools (each family's cell block, once), spawn-
        safe randomness params, validator edge set, forests/component
        ids, per-task stats and cursors, metrics ledgers, and generator
        states.  The execution backend is written as its name and worker
        count; no thread pool is pickled.
        """
        self._check_open()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": __version__,
            "config": self.config,
            "tasks": self.tasks,
            "batch_size": self.batch_size,
            "validator": self.validator,
            "cluster": self.cluster,
            "algorithms": self._algs,
            "phases": self.phases,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, path: str, backend=None,
                backend_workers: Optional[int] = None) -> "GraphSession":
        """Rebuild a live session from :meth:`checkpoint` output.

        Without overrides every cluster and sketch family gets the live
        ``get_backend(name, workers)`` of the backend it was written
        with.  ``backend`` (name or instance) and ``backend_workers``
        override that -- a session checkpointed under ``shared_memory``
        restores cleanly onto ``sequential`` and vice versa (results are
        bit-identical across backends).  A ``backend`` override is
        resolved before the file is read, so a bad one (an unknown name,
        a closed instance, a worker count that contradicts an instance)
        raises and leaves nothing behind.

        A file that is truncated, is not a pickle, does not hold a
        checkpoint dict, or was written in another checkpoint format
        raises :class:`~repro.errors.ConfigurationError` naming
        ``path``.
        """
        live = None
        if backend is not None:
            live = resolve_backend(backend, backend_workers)
        with open(path, "rb") as fh:
            try:
                payload = pickle.load(fh)
            except Exception as exc:
                raise ConfigurationError(
                    f"checkpoint {path!r} cannot be read as a format-"
                    f"{CHECKPOINT_FORMAT} checkpoint "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"checkpoint {path!r} holds a {type(payload).__name__}, "
                f"not a checkpoint dict"
            )
        fmt = payload.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise ConfigurationError(
                f"checkpoint {path!r} has format {fmt!r}, which is not "
                f"supported (expected {CHECKPOINT_FORMAT})"
            )
        session = cls.__new__(cls)
        session.config = payload["config"]
        session.validator = payload["validator"]
        session.cluster = payload["cluster"]
        session._algs = payload["algorithms"]
        session.phases = payload["phases"]
        session.batch_size = payload["batch_size"]
        session._closed = False
        session._broken = None
        if live is None and backend_workers is not None:
            live = resolve_backend(session.cluster.backend.name,
                                   backend_workers)
        if live is not None:
            session.cluster.backend = live
            for alg in session._all_algorithms():
                alg.cluster.backend = live
                for family in alg._sketch_families():
                    family.backend = live
        return session
