"""The per-file rule pack: RL000, RL004, RL007.

Each rule is a pragmatic approximation of an invariant the repo relies
on (``docs/lint-rules.md`` spells out what it catches, why the MPC
model cares, and when to suppress).  The checks are keyed to the
patterns this codebase actually writes -- they are convention
enforcers, not general program analysis.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.engine import FileContext, Finding, Rule
from repro.lint.flow import _terminal_name

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


# ---------------------------------------------------------------------------
# RL007: kernel-tier parity
# ---------------------------------------------------------------------------

#: Tier-module basenames callers must never import directly.
_TIER_MODULES = ("numpy_tier", "compiled_tier")

#: Registration decorators -> the tier they register for.
_REGISTRARS = {"numpy_kernel": "numpy", "compiled_kernel": "compiled"}


def _kernel_registrations(ctx: FileContext):
    """``(tier, kernel_name, funcdef)`` for every registered kernel."""
    out = []
    for func in _walk_functions(ctx.tree):
        for dec in func.decorator_list:
            if not isinstance(dec, ast.Call) or not dec.args:
                continue
            tier = _REGISTRARS.get(_terminal_name(dec.func) or "")
            if tier is None:
                continue
            arg = dec.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.append((tier, arg.value, func))
    return out


def _kernel_signature(func) -> tuple:
    """Positional parameter names, in order (what the dispatcher swaps)."""
    args = func.args
    return tuple(a.arg for a in [*args.posonlyargs, *args.args])


class KernelTierParity(Rule):
    id = "RL007"
    title = "kernel-tier-parity"
    rationale = ("every registered kernel needs numpy and compiled "
                 "flavours with matching signatures; callers go through "
                 "the repro.kernels dispatcher, never a tier module")

    def applies(self, ctx: FileContext) -> bool:
        return _in_src(ctx)

    # -- per-file ------------------------------------------------------
    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if "repro/kernels/" not in ctx.path:
            yield from self._bypass_imports(ctx)
            return
        # Intra-file parity: only meaningful when one file registers
        # both flavours.  The real tier modules register one kind each;
        # cross-file drift between them is the project phase's job.
        regs = [(tier, name, func, ctx)
                for tier, name, func in _kernel_registrations(ctx)]
        if len({tier for tier, *_ in regs}) == 2:
            yield from self._parity_findings(regs)

    @staticmethod
    def _bypass_imports(ctx: FileContext) -> Iterable[Finding]:
        """Flag imports that freeze one tier behind ``set_tier``'s back."""
        why = ("; call through the repro.kernels dispatcher attributes "
               "so set_tier() re-binds apply to every caller")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith(
                        tuple(f"kernels.{m}" for m in _TIER_MODULES)):
                    yield ctx.finding(
                        "RL007", node,
                        f"direct import from kernel tier module "
                        f"{module!r} bypasses the dispatcher{why}")
                    continue
                if module.split(".")[-1] == "kernels":
                    for alias in node.names:
                        if alias.name in _TIER_MODULES:
                            yield ctx.finding(
                                "RL007", node,
                                f"direct import of kernel tier module "
                                f"{alias.name!r} bypasses the "
                                f"dispatcher{why}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith(
                            tuple(f"kernels.{m}" for m in _TIER_MODULES)):
                        yield ctx.finding(
                            "RL007", node,
                            f"direct import of kernel tier module "
                            f"{alias.name!r} bypasses the dispatcher{why}")

    # -- shared parity core --------------------------------------------
    @staticmethod
    def _parity_findings(regs) -> Iterable[Finding]:
        """Parity over ``(tier, name, func, ctx)`` registrations."""
        by_name: Dict[str, Dict[str, tuple]] = {}
        for tier, name, func, ctx in regs:
            by_name.setdefault(name, {}).setdefault(tier, (func, ctx))
        for name in sorted(by_name):
            flavours = by_name[name]
            if "compiled" not in flavours:
                func, ctx = flavours["numpy"]
                yield ctx.finding(
                    "RL007", func,
                    f"kernel {name!r} registers a numpy flavour but no "
                    f"compiled twin; the dispatcher refuses a tier with "
                    f"missing names -- register both (the compiled "
                    f"wrapper may just delegate)")
                continue
            if "numpy" not in flavours:
                func, ctx = flavours["compiled"]
                yield ctx.finding(
                    "RL007", func,
                    f"kernel {name!r} registers a compiled flavour but "
                    f"no numpy twin; numpy is the always-available "
                    f"fallback tier and must cover every name")
                continue
            np_sig = _kernel_signature(flavours["numpy"][0])
            c_sig = _kernel_signature(flavours["compiled"][0])
            if np_sig != c_sig:
                func, ctx = flavours["compiled"]
                yield ctx.finding(
                    "RL007", func,
                    f"kernel {name!r} tier signatures differ: "
                    f"numpy({', '.join(np_sig)}) vs "
                    f"compiled({', '.join(c_sig)}); set_tier swaps "
                    f"implementations freely, so parameter names and "
                    f"order must match exactly")

    # -- project phase: cross-file parity over the kernels package -----
    def check_project(self, contexts: Sequence[FileContext],
                      root) -> Iterable[Finding]:
        regs = []
        both_kinds_paths: Set[str] = set()
        for ctx in contexts:
            if not _in_src(ctx) or "repro/kernels/" not in ctx.path:
                continue
            file_regs = _kernel_registrations(ctx)
            if len({tier for tier, _, _ in file_regs}) == 2:
                # Per-file check already judged this file's parity.
                both_kinds_paths.add(ctx.path)
            regs.extend((tier, name, func, ctx)
                        for tier, name, func in file_regs)
        if len({tier for tier, *_ in regs}) < 2:
            return  # package absent or single-tier tree: nothing to hold
        cross = [r for r in regs if r[3].path not in both_kinds_paths]
        yield from self._parity_findings(cross)


#: The rule pack, in reporting order.  The path rules (RL009-RL011)
#: and the protocol model check (RL012) live in
#: :mod:`repro.lint.flow_rules`; the import sits at the bottom because
#: flow_rules imports helpers defined above.
from repro.lint.flow_rules import FLOW_RULES  # noqa: E402

ALL_RULES: List[Rule] = [
    SuppressionHygiene(),
    EnvHygiene(),
    KernelTierParity(),
    *FLOW_RULES,
]
