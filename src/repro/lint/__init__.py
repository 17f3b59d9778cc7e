"""repro.lint -- AST-based static analysis for the repo's MPC invariants.

The reproduction relies on conventions no generic tool checks and that
the dynamic suites cannot provoke: a shared-memory segment must be
owned or released on every exception edge, the ring/status wire
protocol must be bracketed exactly and survive every bounded fault
interleaving, and kernel and worker code must stay bit-reproducible.
This package turns those conventions into machine-checked rules::

    python -m repro.lint src tests

A rule is kept only while a seeded mutation that every test misses is
caught by it; ``docs/lint-rules.md`` carries that evidence per rule
and lists the rules deleted on it.

Layout
------
``engine``
    File walker, suppression parsing, baseline filtering, rule driver.
``rules``
    The per-file rule pack (RL004 env hygiene, plus the
    suppression-hygiene meta rule RL000).
``flow`` / ``flow_rules``
    Statement-level path analysis, and the path rules built on it
    (RL009 shm escape, RL010 determinism discipline, RL011 bracket
    safety).
``protocol``
    The wire-protocol model checker (RL012): extracts the ring/
    status/respawn state machine from ``mpc/backend.py`` and
    exhaustively explores bounded fault interleavings
    (``docs/protocol-model.md``).
``reporters``
    Text and JSON output.

Nothing under ``src/repro/`` outside this package imports it: the
linter reads the tree, the tree never reads the linter.
"""

#: Version of the rule pack, recorded in JSON reports and baselines.
#: Bump when rules are added, removed, or their detection logic changes
#: meaningfully.
RULE_PACK_VERSION = "6.0"

__all__ = ["RULE_PACK_VERSION"]
