"""The rule pack: RL000, RL004, RL010.

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

_ENV_NAME_RE = re.compile(r"\AREPRO_[A-Z][A-Z0-9_]*\Z")


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Dotted tail of a call target: ``a.b.c(...)`` -> ``c``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Walk ``func`` excluding bodies of nested function/class defs."""
    skip: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node is not func:
            for sub in ast.walk(node):
                if sub is not node:
                    skip.add(id(sub))
    for node in ast.walk(func):
        if id(node) not in skip:
            yield node


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
                    "repro.mpc.config (read_env/env_int) so "
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
# RL010: determinism discipline (the bit-identity lint)
# ---------------------------------------------------------------------------

#: ``random.<fn>`` calls that draw from ambient (unseeded) state.
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "getrandbits", "gauss", "betavariate",
})
#: ``time.<fn>`` calls that produce wall-clock *values* (sleep is fine).
_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns",
})
#: Materializers whose element order becomes array order.
_MATERIALIZERS = frozenset({"list", "tuple", "array", "asarray",
                            "fromiter", "concatenate", "stack"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) \
            and _terminal_name(node.func) in ("set", "frozenset"):
        return True
    return False


class DeterminismDiscipline(Rule):
    id = "RL010"
    title = "determinism-discipline"
    rationale = ("kernel/op-executor code must stay "
                 "bit-reproducible: no ambient RNG, wall-clock values, "
                 "set-iteration order, or float accumulation")

    def _in_scope(self, ctx: FileContext, func) -> bool:
        # The one op executor behind every backend route, wherever it
        # lives, and everything under kernels/.
        return func.name == "_execute_op" or "repro/kernels/" in ctx.path

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            if not self._in_scope(ctx, func):
                continue
            yield from self._check_func(ctx, func)

    def _check_func(self, ctx: FileContext, func) -> Iterable[Finding]:
        where = f"in determinism scope {func.name}"
        for node in _own_nodes(func):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, where)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield ctx.finding(
                        self.id, node,
                        f"iteration over a set {where}: set order is "
                        f"hash-seed dependent and feeds downstream "
                        f"arrays; sort it (sorted(...)) first")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield ctx.finding(
                            self.id, node,
                            f"comprehension over a set {where}: set "
                            f"order is hash-seed dependent; sort it "
                            f"first")

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    where: str) -> Iterable[Finding]:
        func_expr = node.func
        name = _terminal_name(func_expr)
        owner = None
        if isinstance(func_expr, ast.Attribute):
            try:
                owner = ast.unparse(func_expr.value)
            except Exception:  # pragma: no cover - defensive
                owner = None
        # Ambient randomness.
        if owner in ("np.random", "numpy.random"):
            yield ctx.finding(
                self.id, node,
                f"np.random.{name} {where}: all randomness must come "
                f"from the seeded SamplerRandomness/KWiseHash params, "
                f"never ambient RNG")
        elif owner == "random" and name in _RANDOM_FUNCS:
            yield ctx.finding(
                self.id, node,
                f"random.{name} {where}: ambient stdlib RNG breaks "
                f"cross-backend bit-identity")
        # Wall-clock values.
        elif (owner == "time" and name in _CLOCK_FUNCS) or \
                (owner is None and isinstance(func_expr, ast.Name)
                 and func_expr.id in _CLOCK_FUNCS):
            yield ctx.finding(
                self.id, node,
                f"wall-clock read ({name}) {where}: time-dependent "
                f"values make answers irreproducible across runs and "
                f"backends")
        # Set materialization into ordered containers/arrays.
        elif name in _MATERIALIZERS and node.args \
                and _is_set_expr(node.args[0]):
            yield ctx.finding(
                self.id, node,
                f"{name}(set(...)) {where}: materializes hash-seed-"
                f"dependent order into an ordered container; wrap in "
                f"sorted(...)")
        # Float accumulation / conversion: everything on the sketch hot
        # path is exact int64 limb arithmetic; a float dtype is either
        # a bug or carries an inline suppression arguing exactness.
        elif name == "astype" and node.args and \
                "float" in _safe_unparse(node.args[0]):
            yield ctx.finding(
                self.id, node,
                f".astype(float) {where}: float rounding is "
                f"association-order dependent; the sketch path is "
                f"exact int64/limb arithmetic")
        else:
            for kw in node.keywords:
                if kw.arg == "dtype" and "float" in _safe_unparse(kw.value):
                    yield ctx.finding(
                        self.id, node,
                        f"float dtype {where}: float accumulation is "
                        f"association-order dependent; keep the hot "
                        f"path exact int64/limb")


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ""


#: The rule pack, in reporting order.
ALL_RULES: List[Rule] = [
    SuppressionHygiene(),
    EnvHygiene(),
    DeterminismDiscipline(),
]
