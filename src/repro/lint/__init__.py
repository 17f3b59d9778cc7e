"""repro.lint -- AST-based static analysis for the repo's MPC invariants.

The reproduction relies on conventions no generic tool checks: every
``REPRO_*`` knob is read through one validated reader and documented,
and kernel and op-executor code must stay bit-reproducible.  This
package turns those conventions into machine-checked rules::

    python -m repro.lint src tests

A rule is kept only while a seeded mutation that every test misses is
caught by it; ``docs/lint-rules.md`` carries that evidence per rule
and lists the rules deleted on it.

Layout
------
``engine``
    File walker, suppression parsing, baseline filtering, rule driver.
``rules``
    The rule pack: RL004 env hygiene, RL010 determinism discipline,
    and the suppression-hygiene meta rule RL000.
``reporters``
    Text and JSON output.

Nothing under ``src/repro/`` outside this package imports it: the
linter reads the tree, the tree never reads the linter.
"""

#: Version of the rule pack, recorded in JSON reports and baselines.
#: Bump when rules are added, removed, or their detection logic changes
#: meaningfully.
RULE_PACK_VERSION = "7.0"

__all__ = ["RULE_PACK_VERSION"]
