"""The per-file rule pack: RL000, RL001, RL002, RL004, RL006, RL007.

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

#: Names that count as "cleanup" when RL001 looks for a reachable
#: release on failure paths.
_CLEANUP_HINTS = ("close", "unlink", "release")

#: Backend bulk-op / query_groups-family methods RL008 requires to be
#: charged.  Kept in sync with SketchFamily's routed surface.
BULK_OPS = frozenset({
    "apply_edges_bulk", "apply_updates_bulk", "query_iteration_groups",
    "cuts_empty_groups", "query_groups", "update_grouped",
})

_ENV_NAME_RE = re.compile(r"\AREPRO_[A-Z][A-Z0-9_]*\Z")


def _func_name(node: ast.AST) -> Optional[str]:
    """Dotted tail of a call target: ``a.b.c(...)`` -> ``c`` etc."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorator_names(node) -> Set[str]:
    out: Set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _func_name(target)
        if name:
            out.add(name)
    return out


def _walk_functions(tree: ast.Module):
    """Yield every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_walk(func):
    """Walk ``func`` excluding the bodies of nested function defs, so
    findings attach to the innermost enclosing function only."""
    nested = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not func:
            for sub in ast.walk(node):
                nested.add(id(sub))
    for node in ast.walk(func):
        if id(node) not in nested:
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
# RL001: shared-memory lifecycle
# ---------------------------------------------------------------------------

class ShmLifecycle(Rule):
    id = "RL001"
    title = "shm-lifecycle"
    rationale = ("SharedMemory(create=True) must be owner-registered "
                 "and unlinkable on every exit path")

    @staticmethod
    def _creates(func) -> List[ast.Call]:
        out = []
        for node in _own_walk(func):
            if isinstance(node, ast.Call) \
                    and _func_name(node.func) == "SharedMemory":
                for kw in node.keywords:
                    if kw.arg == "create" and isinstance(kw.value,
                                                         ast.Constant) \
                            and kw.value.value is True:
                        out.append(node)
        return out

    @staticmethod
    def _binding(func, call: ast.Call):
        """The Assign statement binding ``call``, if any."""
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and node.value is call:
                return node
        return None

    @staticmethod
    def _is_registered(func, name: str, after_line: int) -> bool:
        """Is local ``name`` later stored on a tracked owner?

        Registration = assigning it into an attribute/subscript (e.g.
        ``self._status = shm``, ``self._handles[token] = shm``) or
        passing it to an ``append``/``add``/``register`` call on a
        container (``self._rings.append(shm)``).
        """
        for node in ast.walk(func):
            if getattr(node, "lineno", 0) < after_line:
                continue
            if isinstance(node, ast.Assign):
                names = {n.id for n in ast.walk(node.value)
                         if isinstance(n, ast.Name)}
                if name in names and any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in node.targets):
                    return True
            if isinstance(node, ast.Call) \
                    and _func_name(node.func) in ("append", "add",
                                                  "register"):
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
        return False

    @staticmethod
    def _has_cleanup(stmts) -> bool:
        for node in stmts:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    fname = _func_name(sub.func) or ""
                    if any(h in fname for h in _CLEANUP_HINTS):
                        return True
                if isinstance(sub, ast.Raise):
                    continue
        return False

    def _is_guarded(self, func, call: ast.Call) -> bool:
        """Some try/except-or-finally with a cleanup call covers the
        code after the creation (same enclosing function)."""
        line = call.lineno
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            handlers = [stmt for h in node.handlers for stmt in h.body]
            cleanup = (self._has_cleanup(handlers)
                       or self._has_cleanup(node.finalbody))
            if not cleanup:
                continue
            start = node.lineno
            end = max((getattr(n, "lineno", start)
                       for n in ast.walk(node)), default=start)
            # Creation inside the guarded try body, or a guard set up
            # right after the creation to cover the tail of the
            # function (the attach_pool shape).
            if start <= line <= end or start >= line:
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            for call in self._creates(func):
                binding = self._binding(func, call)
                if binding is None:
                    yield ctx.finding(self.id, call,
                                      "SharedMemory(create=True) result "
                                      "is discarded; bind it so close/"
                                      "unlink stay reachable")
                    continue
                target = binding.targets[0]
                registered = isinstance(target,
                                        (ast.Attribute, ast.Subscript))
                if not registered and isinstance(target, ast.Name):
                    registered = self._is_registered(
                        func, target.id, call.lineno)
                if not registered:
                    yield ctx.finding(
                        self.id, call,
                        "SharedMemory(create=True) segment is never "
                        "registered with a tracked owner (self "
                        "attribute / handle table / ring list)")
                if not self._is_guarded(func, call):
                    yield ctx.finding(
                        self.id, call,
                        "no close/unlink reachable on failure exit "
                        "paths: wrap the creation (or the statements "
                        "after it) in try/except-or-finally that "
                        "releases the segment")


# ---------------------------------------------------------------------------
# RL002: spawn safety
# ---------------------------------------------------------------------------

class SpawnSafety(Rule):
    id = "RL002"
    title = "spawn-safety"
    rationale = ("types crossing into worker processes must define "
                 "__reduce__ plus a from_params-style rebuild hook")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))
            }
            marked = "spawn_safe" in _decorator_names(node)
            has_reduce = "__reduce__" in methods
            has_rebuild = ("from_params" in methods
                           or ("__getstate__" in methods
                               and "__setstate__" in methods))
            if marked:
                if not has_reduce:
                    yield ctx.finding(
                        self.id, node,
                        f"@spawn_safe class {node.name} defines no "
                        f"__reduce__; a spawned worker cannot rebuild "
                        f"it from pipe payloads")
                if not has_rebuild:
                    yield ctx.finding(
                        self.id, node,
                        f"@spawn_safe class {node.name} defines no "
                        f"from_params (or __getstate__/__setstate__) "
                        f"reconstruction hook")
            elif "/sketch/" in ctx.path and "from_params" in methods \
                    and not has_reduce:
                yield ctx.finding(
                    self.id, node,
                    f"class {node.name} ships params (from_params) but "
                    f"defines no __reduce__: it will pickle parent "
                    f"state instead of parameters across spawn")


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
# RL006: hot-path purity
# ---------------------------------------------------------------------------

class HotPathPurity(Rule):
    id = "RL006"
    title = "hot-path-purity"
    rationale = ("@hot_path cores must stay vectorized: no pickle/"
                 "deepcopy, no per-element Python loops, no "
                 "list-materializing builds")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            if "hot_path" not in _decorator_names(func):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    kind = ("while" if isinstance(node, ast.While)
                            else "for")
                    yield ctx.finding(
                        self.id, node,
                        f"per-element Python `{kind}` loop inside "
                        f"@hot_path {func.name}; vectorize it (or "
                        f"suppress with a justification that the loop "
                        f"is over a small bounded dimension)")
                elif isinstance(node, ast.ListComp):
                    yield ctx.finding(
                        self.id, node,
                        f"list comprehension materializes O(n) Python "
                        f"objects inside @hot_path {func.name}")
                elif isinstance(node, ast.Call):
                    name = _func_name(node.func)
                    owner = (node.func.value.id
                             if isinstance(node.func, ast.Attribute)
                             and isinstance(node.func.value, ast.Name)
                             else None)
                    if owner == "pickle" and name in ("dumps", "loads",
                                                      "dump", "load"):
                        yield ctx.finding(
                            self.id, node,
                            f"pickle.{name} inside @hot_path "
                            f"{func.name}: serialization belongs on "
                            f"the dispatch path, never in a core")
                    elif name == "deepcopy":
                        yield ctx.finding(
                            self.id, node,
                            f"deepcopy inside @hot_path {func.name}")
                    elif name == "tolist":
                        yield ctx.finding(
                            self.id, node,
                            f".tolist() materializes Python objects "
                            f"inside @hot_path {func.name}")


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
            tier = _REGISTRARS.get(_func_name(dec.func) or "")
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


#: The rule pack, in reporting order.  The interprocedural flow rules
#: (RL008-RL011) and the protocol model check (RL012) live in
#: :mod:`repro.lint.flow_rules`; the import sits at the bottom because
#: flow_rules imports helpers defined above.
from repro.lint.flow_rules import FLOW_RULES  # noqa: E402

ALL_RULES: List[Rule] = [
    SuppressionHygiene(),
    ShmLifecycle(),
    SpawnSafety(),
    EnvHygiene(),
    HotPathPurity(),
    KernelTierParity(),
    *FLOW_RULES,
]
