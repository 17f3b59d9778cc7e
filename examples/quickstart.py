"""Quickstart: a GraphSession serving three query types from one stream.

Run with::

    python examples/quickstart.py

The one-stop entry point is :class:`repro.GraphSession`: pick the
algorithms to maintain (here connectivity, exact MSF, and
bipartiteness), stream updates through ``ingest`` -- raw ``(u, v)``
pairs, ``(u, v, weight)`` triples, ``Update`` objects, or lazy
generators; batching to the model's per-phase bound is automatic --
and query any maintained solution at any time.  One simulated MPC
cluster, one execution backend, and one stream validator serve all
tasks, and every answer is bit-identical to running the standalone
algorithm classes side by side.

Choosing a backend
------------------
The simulator always *charges* MPC rounds the same way, but the sketch
work can execute on two backends (see :mod:`repro.mpc.backend`):

* ``sequential`` (default) -- everything in-process.  The right choice
  for small graphs and for this quickstart.
* ``shared_memory`` -- persistent worker processes scatter/query shards
  of the sketch pools in POSIX shared memory.  Bit-identical results;
  pays off when batches carry thousands of updates, ``n`` is large, and
  real cores are available (``bench/run.py``'s ``conn_churn_fleet``
  against ``conn_churn`` tracks the crossover).

Select it per session::

    GraphSession(n, tasks=..., backend="shared_memory",
                 backend_workers=4)

or globally via the environment (how CI runs the whole tier-1 suite on
the cluster backend)::

    REPRO_BACKEND=shared_memory REPRO_BACKEND_WORKERS=2 python ...

Five ``REPRO_BACKEND*`` knobs exist, all validated at read time -- a
garbage value raises a clear error naming the variable instead of
failing deep inside backend startup:

* ``REPRO_BACKEND`` -- backend name (``sequential`` / ``shared_memory``
  / ``shm``); unknown names raise ``ConfigurationError``.
* ``REPRO_BACKEND_WORKERS`` -- worker-process count, an integer >= 1;
  anything else (``abc``, ``-1``, ``""``) raises ``SketchError``.
* ``REPRO_BACKEND_TIMEOUT`` -- per-call deadline in seconds (positive
  number, default 120): a deadlocked or dead worker is *detected*
  within this bound instead of hanging the phase.
* ``REPRO_BACKEND_RETRIES`` -- how many times a dispatch that lost a
  worker is retried after respawning it (integer >= 0, default 2;
  exponential backoff between attempts from a fixed 0.05 s base).
* ``REPRO_BACKEND_FAULTS`` -- deterministic fault-injection plan for
  the worker fleet (see :mod:`repro.mpc.faults`), e.g.
  ``kill:w=1:n=3:op=apply`` or ``chaos:kill:every=400:seed=0`` -- how
  the CI chaos job proves recovery keeps the suite green.

Worker loss is no longer fatal: the supervisor respawns the dead
process, re-attaches its shard state (the shared-memory segments
survive the child), and retries the in-flight call.  If retries are
exhausted the backend *degrades* -- every later op runs in-process
through the same one-source-of-truth cores, so answers stay
bit-identical and the session keeps working; only the parallelism is
lost.  ``session.fleet_health()`` exposes the cumulative respawn /
retry / degrade counters, the ``fleet`` column of
``session.report()`` shows the per-phase deltas, and
``backend.describe()`` appends the nonzero counters (plus a
``degraded`` flag) to its summary.

On the shared-memory backend, small batches ship through preallocated
per-worker ring buffers (only a tiny ``(seq, offset, length)`` token
crosses the pipe), so fan-out latency stays flat as batches shrink --
see the wire protocol in :mod:`repro.mpc.backend`.

Kernel knobs
------------
The sketch inner loops (field arithmetic, scatter, decode, group
merge) are numpy kernels in :mod:`repro.kernels` -- see
``docs/kernels.md`` for the profiling hooks, the contract checks, and
how to add a kernel.  Two knobs wrap them, read at import (workers
read their own at spawn) and validated like the backend knobs:

* ``REPRO_KERNELS_PROFILE`` -- set to ``1`` to wrap every kernel and
  the parent-side dispatch sections in nanosecond accumulators,
  surfaced per phase through ``session.report()``'s backend events
  and :func:`repro.kernels.profile.counters`.
* ``REPRO_KERNELS_CHECK`` -- set to ``1`` to wrap every kernel in
  runtime dtype/range asserts generated from its one
  ``@kernel_contract`` declaration (``docs/kernels.md``); a violation
  raises ``SketchError`` naming the kernel, argument, and declared
  bound.

The conventions no test can provoke (validated env reads, segments
released on every exception edge, status brackets, bit-reproducible
kernel code) are enforced mechanically by
``python -m repro.lint src`` -- see
``docs/lint-rules.md`` for the rule pack and how to suppress a finding
with a justification.  The backend's crash-recovery wire protocol goes
one step further: the lint run extracts its state machine from the
source and exhaustively model-checks it against injected worker faults
(``docs/protocol-model.md``).  The kernel arithmetic is guarded by
tests instead: boundary-value parity against Python big-ints and a
seeded-mutation suite pinning what those checks kill
(``tests/test_kernel_contracts.py``).  So are the MPC round charges:
``tests/test_charge_ledger.py`` pins the exact rounds-by-category of
seeded phases for every registered task.
"""

from repro import GraphSession, dele, ins
from repro.analysis import connectivity_total_memory_bound, print_table


def main() -> None:
    n = 64
    with GraphSession(n, tasks=("connectivity", "msf", "bipartiteness"),
                      phi=0.5, seed=0) as session:
        print(session.config.describe())

        # Phase 1: one batch builds two separate weighted paths.  Raw
        # (u, v, weight) triples are coerced to insertions.
        session.ingest([(i, i + 1, 1.0 + i % 3) for i in range(0, 10)])
        session.ingest([(i, i + 1, 2.0) for i in range(20, 30)])

        # Phase 2: bridge them, and add a spare (non-tree) edge.
        session.ingest([(10, 20, 5.0), (0, 30, 4.0)])
        assert session.connected(0, 30)

        # Deletions (and anything non-default) use Update objects.  The
        # exact-MSF task maintains an insertion-only theorem, so queries
        # keep answering but the deletion stream must not reach it --
        # a production split would run it in its own session:
        print(f"\nbipartite so far? {session.is_bipartite()}")
        print(f"MSF weight: {session.msf_weight():.1f}")
        forest = session.spanning_forest()
        print(f"spanning forest: {len(forest.edges)} edges, "
              f"{forest.num_components} components")

        # The merged report: per-task, per-phase resources on the one
        # shared cluster ('(route)' rows are the once-per-phase shared
        # batch-routing charge).
        session.print_report()

        print_table(session.summary(),
                    title="per-task summary (one cluster, one backend)")

        conn = session.query("connectivity")
        print(f"connectivity memory: {conn.registered_memory_words()} "
              f"words (Theorem 1.1's derived worst case at n={n}: "
              f"{connectivity_total_memory_bound(n)})")


def under_the_hood() -> None:
    """The low-level path the session drives for you.

    Each algorithm class can still be used standalone -- it builds its
    own cluster, validates its own stream, and exposes the same queries.
    This is the PR-3-era API, kept for single-task tools and tests.
    """
    from repro.core import MPCConnectivity
    from repro.mpc import MPCConfig

    config = MPCConfig(n=64, phi=0.5, seed=0)
    alg = MPCConnectivity(config)
    alg.apply_batch([ins(i, i + 1) for i in range(0, 10)])
    alg.apply_batch([ins(0, 5), dele(3, 4)])  # deletion -> sketch recovery
    assert alg.connected(0, 10), "the 0-5 edge bridges the split"
    print_table([m.row() for m in alg.phases],
                title="standalone connectivity (same numbers, one task)")
    print(f"execution backend: {alg.cluster.backend.describe()}")


if __name__ == "__main__":
    main()
    under_the_hood()
