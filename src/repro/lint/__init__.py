"""repro.lint -- AST-based static analysis for the repo's MPC invariants.

The reproduction's correctness claims rest on conventions no generic
tool checks: every routed bulk op must be charged to the MPC ledgers
(the paper's sublinearity argument is *about* those charges), shared
memory segments must be owned and unlinked on every exit path, the
ring/status wire protocol must be bracketed exactly, and randomness
must pickle spawn-safely.  This package turns those conventions into
machine-checked rules::

    python -m repro.lint src tests

Layout
------
``markers``
    Dependency-free ``@hot_path`` / ``@spawn_safe`` decorators that
    production code uses to opt into the stricter rules.  Importing it
    never pulls in the engine.
``engine``
    File walker, suppression parsing, baseline filtering, rule driver.
``rules``
    The per-file rule pack (RL001, RL002, RL004, RL006, RL007 plus the
    suppression-hygiene meta rule).  ``docs/lint-rules.md`` documents
    each rule and the seeded mutation or real finding that keeps it.
``flow`` / ``flow_rules``
    Whole-program call graph + per-function flow facts, and the
    interprocedural rules (RL008 charge-flow, RL009 shm escape,
    RL010 determinism discipline, RL011 bracket safety) built on it.
``protocol``
    The wire-protocol model checker (RL012): extracts the ring/
    status/respawn state machine from ``mpc/backend.py`` and
    exhaustively explores bounded fault interleavings
    (``docs/protocol-model.md``).
``reporters``
    Text and JSON output.

Keep this ``__init__`` import-light: sketch and backend modules import
:mod:`repro.lint.markers` at module load, on the hot import path of
every spawned worker.
"""

#: Version of the rule pack, recorded in JSON reports, baselines, and
#: the ``lint`` field of BENCH_ingest.json.  Bump when rules are added
#: or their detection logic changes meaningfully.
RULE_PACK_VERSION = "4.0"

__all__ = ["RULE_PACK_VERSION"]
