"""The per-file rule pack: RL000, RL004.

Each rule is a pragmatic approximation of an invariant the repo relies
on (``docs/lint-rules.md`` spells out what it catches, why the MPC
model cares, and when to suppress).  The checks are keyed to the
patterns this codebase actually writes -- they are convention
enforcers, not general program analysis.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.engine import FileContext, Finding, Rule

_ENV_NAME_RE = re.compile(r"\AREPRO_[A-Z][A-Z0-9_]*\Z")


def _walk_functions(tree: ast.Module):
    """Yield every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _in_src(ctx: FileContext) -> bool:
    path = ctx.path
    return path.startswith("src/") or "/src/" in path


# ---------------------------------------------------------------------------
# RL000: suppression hygiene (meta rule)
# ---------------------------------------------------------------------------

class SuppressionHygiene(Rule):
    id = "RL000"
    title = "suppression-hygiene"
    rationale = ("every `# repro-lint: disable=` must carry a "
                 "`-- justification`")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for sup in ctx.suppressions:
            if sup.bare:
                yield Finding(
                    rule=self.id, path=ctx.path, line=sup.line, col=1,
                    message=("suppression without a justification; "
                             "write `# repro-lint: disable=<RULE> -- "
                             "<why this is safe>`"),
                )


# ---------------------------------------------------------------------------
# RL004: env hygiene + doc drift
# ---------------------------------------------------------------------------

class EnvHygiene(Rule):
    id = "RL004"
    title = "env-hygiene"
    rationale = ("REPRO_* env reads go through mpc/config.py readers; "
                 "every knob must be documented")

    def applies(self, ctx: FileContext) -> bool:
        return _in_src(ctx)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.path.endswith("mpc/config.py"):
            return
        for node in ast.walk(ctx.tree):
            hit = None
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "os" \
                    and node.attr in ("environ", "getenv"):
                hit = node
            if hit is not None:
                yield ctx.finding(
                    self.id, hit,
                    "direct os.environ/os.getenv read; route it "
                    "through the validated readers in "
                    "repro.mpc.config (read_env/env_int/env_float) so "
                    "garbage raises SketchError naming the variable")

    # -- project phase: doc drift --------------------------------------
    @staticmethod
    def _doc_text(root) -> Optional[str]:
        chunks = []
        quickstart = root / "examples" / "quickstart.py"
        if quickstart.is_file():
            chunks.append(quickstart.read_text(encoding="utf-8"))
        kernels_doc = root / "docs" / "kernels.md"
        if kernels_doc.is_file():
            chunks.append(kernels_doc.read_text(encoding="utf-8"))
        backend = root / "src" / "repro" / "mpc" / "backend.py"
        if backend.is_file():
            try:
                doc = ast.get_docstring(
                    ast.parse(backend.read_text(encoding="utf-8")))
            except SyntaxError:
                doc = None
            if doc:
                chunks.append(doc)
        return "\n".join(chunks) if chunks else None

    def check_project(self, contexts: Sequence[FileContext],
                      root) -> Iterable[Finding]:
        doc_text = self._doc_text(root)
        if doc_text is None:
            return
        seen: Dict[str, Finding] = {}
        for ctx in contexts:
            if not _in_src(ctx):
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and _ENV_NAME_RE.match(node.value) \
                        and node.value not in seen:
                    seen[node.value] = ctx.finding(
                        self.id, node,
                        f"env knob {node.value} is referenced in src/ "
                        f"but documented in neither the quickstart nor "
                        f"the backend docstring (doc drift)")
        for name, finding in sorted(seen.items()):
            if name not in doc_text:
                yield finding


#: The rule pack, in reporting order.  The path rules (RL009-RL011)
#: and the protocol model check (RL012) live in
#: :mod:`repro.lint.flow_rules`; the import sits at the bottom because
#: flow_rules imports helpers defined above.
from repro.lint.flow_rules import FLOW_RULES  # noqa: E402

ALL_RULES: List[Rule] = [
    SuppressionHygiene(),
    EnvHygiene(),
    *FLOW_RULES,
]
