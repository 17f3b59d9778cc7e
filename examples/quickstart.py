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
* ``shared_memory`` -- worker threads scatter/query shards of the one
  in-process sketch pool.  Bit-identical results; on a 2-CPU host it
  runs slower than ``sequential`` (the Euler-tour work is serial and
  the thread handoff costs more than the kernels win back --
  ``bench/run.py``'s ``conn_churn_fleet`` against ``conn_churn``
  tracks it).

The executor is chosen in one place, when the session is built::

    GraphSession(n, tasks=..., backend="shared_memory",
                 backend_workers=4)

``backend`` is one of the two names above (anything else raises
``ConfigurationError`` naming it) or an ``ExecutionBackend`` instance;
``backend_workers`` defaults to ``min(4, cpus)``.  The session owns
that backend: ``close()`` joins its threads, and a restored checkpoint
gets a fresh one of the same kind and size.  No environment variable
chooses it.

A share that raises surfaces its own exception once every share of the
call has finished, so no thread is still writing when the caller sees
it.

Kernel knobs
------------
The sketch inner loops (field arithmetic, scatter, decode, group
merge) are numpy kernels in :mod:`repro.kernels` -- see
``docs/kernels.md`` for the profiling hooks, the contract checks, and
how to add a kernel.  Two knobs wrap them -- the only ``REPRO_*``
environment variables -- read at import and validated there: a garbage
value raises a ``SketchError`` naming the variable.

* ``REPRO_KERNELS_PROFILE`` -- set to ``1`` to wrap every kernel and
  the backend's dispatch sections in nanosecond accumulators,
  surfaced per phase through ``session.report()``'s backend events
  and :func:`repro.kernels.profile.counters`.
* ``REPRO_KERNELS_CHECK`` -- set to ``1`` to wrap every kernel in
  runtime dtype/range asserts generated from its one
  ``@kernel_contract`` declaration (``docs/kernels.md``); a violation
  raises ``SketchError`` naming the kernel, argument, and declared
  bound.

The kernel arithmetic is guarded by tests: boundary-value parity
against Python big-ints and a seeded-mutation suite pinning what those
checks kill, float64 twins of the exact integer arithmetic included
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
