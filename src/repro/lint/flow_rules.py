"""Path rules RL009..RL011 and the RL012 protocol model check.

These hold where the invariant is a *path* property of one function:

* RL009 -- a ``SharedMemory(create=True)`` handle must be released or
  owner-registered on every path, exception edges included
  (:func:`repro.lint.flow.shm_leak_paths`);
* RL010 -- determinism discipline in kernel / worker / op-executor
  code: no ambient randomness, no wall-clock values, no set-iteration
  order, no float accumulation (the bit-identity lint);
* RL011 -- the ``-opid``/``+opid`` status-slot writes must immediately
  bracket each routed op in ``_worker_main`` with no other work (and
  no possible raise) inside the bracket, and the ack must follow the
  ``+opid`` write;
* RL012 -- the ring/status/respawn state machine extracted from
  ``mpc/backend.py`` survives bounded fault-interleaving exploration
  (:mod:`repro.lint.protocol`).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence, Tuple

from repro.lint.engine import FileContext, Finding, Rule
from repro.lint.flow import _own_nodes, _terminal_name, shm_leak_paths
from repro.lint.rules import _in_src, _walk_functions


# ---------------------------------------------------------------------------
# RL009: shm escape/leak (path-sensitive lifecycle)
# ---------------------------------------------------------------------------

class ShmEscape(Rule):
    id = "RL009"
    title = "shm-escape"
    rationale = ("a SharedMemory(create=True) handle must reach close/"
                 "unlink or owner-registration on every path, exception "
                 "edges included")

    def applies(self, ctx: FileContext) -> bool:
        return _in_src(ctx)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            for leak in shm_leak_paths(func):
                yield Finding(
                    rule=self.id, path=ctx.path, line=leak.create_line,
                    col=1,
                    message=(
                        f"shared-memory segment {leak.var!r} leaks on a "
                        f"{leak.kind} path out of {func.name}: "
                        f"{leak.detail}"
                    ),
                )


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
    rationale = ("kernel/worker/op-executor code must stay "
                 "bit-reproducible: no ambient RNG, wall-clock values, "
                 "set-iteration order, or float accumulation")

    #: Functions in scope wherever they live: the worker loop and the
    #: one op executor behind every backend route.
    _SCOPED_FUNCTIONS = frozenset({"_worker_main", "_execute_op"})

    def _in_scope(self, ctx: FileContext, func) -> bool:
        return (func.name in self._SCOPED_FUNCTIONS
                or "repro/kernels/" in ctx.path)

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


# ---------------------------------------------------------------------------
# RL011: bracket exception-safety
# ---------------------------------------------------------------------------

def _stmt_lists(func) -> Iterable[List[ast.stmt]]:
    """Every statement list in ``func``, nested defs excluded."""
    def visit(body: List[ast.stmt]) -> Iterable[List[ast.stmt]]:
        yield body
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for field_name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field_name, None)
                if sub:
                    yield from visit(sub)
            for handler in getattr(stmt, "handlers", ()):
                yield from visit(handler.body)
    yield from visit(func.body)


def _writes_status(stmt: ast.stmt, sign: str) -> bool:
    """Does ``stmt`` (possibly via an If wrapper) write the status slot
    with a negative (``sign='-'``) or positive (``sign='+'``) opid?"""
    for sub in ast.walk(stmt):
        if not isinstance(sub, ast.Assign):
            continue
        target = sub.targets[0]
        if not (isinstance(target, ast.Subscript)
                and "status" in _safe_unparse(target.value)):
            continue
        negative = isinstance(sub.value, ast.UnaryOp) \
            and isinstance(sub.value.op, ast.USub)
        if sign == "-" and negative:
            return True
        if sign == "+" and not negative:
            return True
    return False


def _contains_send(stmt: ast.stmt) -> bool:
    return any(isinstance(sub, ast.Call)
               and _terminal_name(sub.func) == "send"
               for sub in ast.walk(stmt))


class BracketSafety(Rule):
    id = "RL011"
    title = "bracket-exception-safety"
    rationale = ("-opid/+opid status writes must immediately bracket "
                 "each routed op in _worker_main; no other work (or "
                 "possible raise) inside the bracket, ack after +opid")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.path.endswith("mpc/backend.py")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in _walk_functions(ctx.tree):
            if func.name != "_worker_main":
                continue
            yield from self._check_worker(ctx, func)

    def _check_worker(self, ctx: FileContext, func) -> Iterable[Finding]:
        op_stmts: List[Tuple[List[ast.stmt], int, ast.stmt]] = []
        for stmts in _stmt_lists(func):
            for idx, stmt in enumerate(stmts):
                # Only *simple* statements: a compound statement (the
                # while/try wrappers) "contains" the call too, but the
                # bracket obligation sits on the statement that makes
                # the call, at its own nesting level.
                if not isinstance(stmt, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign, ast.Expr,
                                         ast.Return)):
                    continue
                if any(isinstance(sub, ast.Call)
                       and _terminal_name(sub.func) in ("run_op",
                                                    "_execute_op")
                       for sub in ast.walk(stmt)):
                    op_stmts.append((stmts, idx, stmt))
        for stmts, idx, stmt in op_stmts:
            prev = stmts[idx - 1] if idx > 0 else None
            nxt = stmts[idx + 1] if idx + 1 < len(stmts) else None
            if prev is None or not _writes_status(prev, "-"):
                yield Finding(
                    rule=self.id, path=ctx.path, line=stmt.lineno, col=1,
                    message=("routed op is not immediately preceded by "
                             "the -opid status write: any statement "
                             "between the write and the op can raise "
                             "and latch a spurious 'partial' verdict"))
            if nxt is None or not _writes_status(nxt, "+"):
                yield Finding(
                    rule=self.id, path=ctx.path, line=stmt.lineno, col=1,
                    message=("routed op is not immediately followed by "
                             "the +opid status write: a completed op "
                             "would stay classified as partial and a "
                             "lost ack would latch the backend broken"))
            if nxt is not None and _writes_status(nxt, "+") \
                    and _contains_send(nxt):
                send_line = min(sub.lineno for sub in ast.walk(nxt)
                                if isinstance(sub, ast.Call)
                                and _terminal_name(sub.func) == "send")
                plus_line = min(
                    sub.lineno for sub in ast.walk(nxt)
                    if isinstance(sub, ast.Assign)
                    and _writes_status(sub, "+"))
                if send_line < plus_line:
                    yield Finding(
                        rule=self.id, path=ctx.path, line=send_line,
                        col=1,
                        message=("ack is sent before the +opid status "
                                 "write: a crash between them makes a "
                                 "completed op unclassifiable"))
            if not self._error_guarded(func, stmt):
                yield Finding(
                    rule=self.id, path=ctx.path, line=stmt.lineno, col=1,
                    message=("routed op is not inside a try whose "
                             "handler reports ('error', ...): a worker "
                             "exception would kill the process instead "
                             "of surfacing as an application error"))

    @staticmethod
    def _error_guarded(func, stmt: ast.stmt) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            if not any(s is stmt for s in ast.walk(node)):
                continue
            for handler in node.handlers:
                for sub in ast.walk(ast.Module(body=handler.body,
                                               type_ignores=[])):
                    if isinstance(sub, ast.Constant) \
                            and sub.value == "error":
                        return True
        return False


# ---------------------------------------------------------------------------
# RL012: wire-protocol model check
# ---------------------------------------------------------------------------

class ProtocolModelRule(Rule):
    id = "RL012"
    title = "protocol-model"
    rationale = ("the ring/status/respawn state machine extracted from "
                 "mpc/backend.py must survive exhaustive bounded "
                 "fault-interleaving exploration (exactly-once proof)")

    def check_program(self, program) -> Iterable[Finding]:
        from repro.lint import protocol

        for ctx in program.contexts:
            if not ctx.path.endswith("mpc/backend.py"):
                continue
            model = protocol.extract_model(ctx.source)
            if not model.complete:
                # Corpus fragments and partial test doubles: a file
                # that lacks any of the four protocol functions is not
                # the backend; tests/test_lint_protocol.py pins that
                # the real backend.py always extracts completely.
                continue
            result = protocol.check_model(model)
            program.protocol_results[ctx.path] = result
            anchor = self._worker_line(ctx)
            for bad in result.bad_states:
                yield Finding(
                    rule=self.id, path=ctx.path, line=anchor, col=1,
                    message=("protocol model check failed: "
                             + bad.render()))
            if result.ok and result.drift:
                drifted = ", ".join(
                    f"{fact} (expected {exp!r}, extracted {act!r})"
                    for fact, exp, act in result.drift)
                yield Finding(
                    rule=self.id, path=ctx.path, line=anchor, col=1,
                    message=(
                        f"extracted protocol machine drifted from the "
                        f"reference model: {drifted}; no bad state is "
                        f"reachable within the explored bounds, but the "
                        f"drift must be reviewed and the reference in "
                        f"docs/protocol-model.md updated"))

    @staticmethod
    def _worker_line(ctx: FileContext) -> int:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "_worker_main":
                return node.lineno
        return 1


FLOW_RULES: Sequence[Rule] = (
    ShmEscape(),
    DeterminismDiscipline(),
    BracketSafety(),
    ProtocolModelRule(),
)
