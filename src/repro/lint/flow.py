"""Statement-level path analysis shared by the path rules.

Pure stdlib ``ast`` -- no type inference, no call graph.  The one
analysis here, :func:`shm_leak_paths` (RL009), walks a single function
body and enumerates the exception and fall-through edges on which a
``SharedMemory(create=True)`` handle escapes unreleased;
``docs/lint-rules.md`` states what the approximation misses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


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


# ---------------------------------------------------------------------------
# Per-function leak-path analysis (RL009)
# ---------------------------------------------------------------------------

#: Method names that release a shared-memory handle.
RELEASE_METHODS = frozenset({"close", "unlink"})
#: Call names that register the handle with a tracked owner.
REGISTER_CALLS = frozenset({"append", "add", "register"})


@dataclass
class LeakPath:
    """One execution path on which a handle escapes unreleased."""

    var: str
    create_line: int
    escape_line: int
    kind: str  # "exception" | "fall-through"
    detail: str


def shm_leak_paths(func) -> List[LeakPath]:
    """Paths on which a ``SharedMemory(create=True)`` local leaks.

    A statement-level path walk (not a full CFG): the handle becomes
    *safe* when it is closed/unlinked, returned, stored into an
    attribute/subscript, or passed to an ``append``/``add``/``register``
    call.  Any other call expression executed while the handle is live
    **may raise**; unless an enclosing ``try`` has a handler or
    ``finally`` that releases the handle (or the raise is re-raised
    *after* releasing), that exception edge leaks the segment.  Falling
    off the end of the function with a live, unregistered handle leaks
    on the normal edge too.
    """
    creations: Dict[str, int] = {}
    for node in _own_nodes(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and _terminal_name(node.value.func) == "SharedMemory":
            if any(kw.arg == "create" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True
                   for kw in node.value.keywords):
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    creations[target.id] = node.lineno
    if not creations:
        return []

    leaks: List[LeakPath] = []

    def releases(stmts, var: str) -> bool:
        """Do ``stmts`` (a handler/finally body) release ``var``?"""
        for stmt in stmts:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    name = _terminal_name(sub.func) or ""
                    if name in RELEASE_METHODS and isinstance(
                            sub.func, ast.Attribute) and isinstance(
                            sub.func.value, ast.Name) \
                            and sub.func.value.id == var:
                        return True
                    # A bare self.close()-style call releases every
                    # registered handle; only trust it for the cleanup
                    # hints convention.
                    if name in RELEASE_METHODS or "release" in name:
                        return True
        return False

    def stmt_makes_safe(stmt, var: str) -> bool:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                name = _terminal_name(sub.func) or ""
                if name in RELEASE_METHODS and isinstance(
                        sub.func, ast.Attribute) and isinstance(
                        sub.func.value, ast.Name) \
                        and sub.func.value.id == var:
                    return True
                if name in REGISTER_CALLS and any(
                        isinstance(arg, ast.Name) and arg.id == var
                        for arg in sub.args):
                    return True
            if isinstance(sub, ast.Assign):
                used = {n.id for n in ast.walk(sub.value)
                        if isinstance(n, ast.Name)}
                if var in used and any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in sub.targets):
                    return True
            if isinstance(sub, ast.Return) and sub.value is not None:
                used = {n.id for n in ast.walk(sub.value)
                        if isinstance(n, ast.Name)}
                if var in used:
                    return True
        return False

    def stmt_may_raise(stmt, var: str) -> Optional[int]:
        """Line of the first call in ``stmt`` that may raise while the
        handle is live (the safe-making call itself is exempt)."""
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise):
                return sub.lineno
            if isinstance(sub, ast.Call):
                name = _terminal_name(sub.func) or ""
                if name in RELEASE_METHODS or name in REGISTER_CALLS:
                    continue
                if name == "SharedMemory":
                    continue  # the creation itself
                return sub.lineno
        return None

    def walk_body(body, var: str, live: bool, created: bool,
                  guards: List[tuple]) -> Tuple[bool, bool]:
        """Walk a statement list; returns (live, created) at its end.

        ``guards`` is the stack of enclosing ``(handler_releases,
        finally_releases)`` facts for this variable.
        """
        for stmt in body:
            if isinstance(stmt, ast.Assign) \
                    and isinstance(stmt.value, ast.Call) \
                    and _terminal_name(stmt.value.func) == "SharedMemory" \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and stmt.targets[0].id == var:
                live, created = True, True
                continue
            if not created:
                # Before the creation nothing can leak this var.
                if isinstance(stmt, ast.Try):
                    live, created = walk_body(
                        stmt.body, var, live, created, guards)
                    for handler in stmt.handlers:
                        walk_body(handler.body, var, live, created, guards)
                    live, created = walk_body(
                        stmt.orelse, var, live, created, guards)
                    live, created = walk_body(
                        stmt.finalbody, var, live, created, guards)
                elif isinstance(stmt, (ast.If, ast.For, ast.While,
                                       ast.With)):
                    bodies = [stmt.body, getattr(stmt, "orelse", [])]
                    for sub_body in bodies:
                        live, created = walk_body(
                            sub_body, var, live, created, guards)
                continue
            if not live:
                continue
            if stmt_makes_safe(stmt, var):
                live = False
                continue
            if isinstance(stmt, ast.Try):
                handler_safe = any(releases(h.body, var)
                                   for h in stmt.handlers) \
                    and len(stmt.handlers) > 0
                final_safe = releases(stmt.finalbody, var)
                inner = guards + [(handler_safe, final_safe)]
                live, created = walk_body(stmt.body, var, live, created,
                                          inner)
                for handler in stmt.handlers:
                    walk_body(handler.body, var, live, created, guards)
                live, created = walk_body(stmt.orelse, var, live,
                                          created, inner)
                live, created = walk_body(stmt.finalbody, var, live,
                                          created, guards)
                continue
            if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
                branch_live = live
                for sub_body in [stmt.body, getattr(stmt, "orelse", [])]:
                    sub_live, created = walk_body(sub_body, var, live,
                                                  created, guards)
                    branch_live = branch_live and sub_live
                # Conservative: live unless *every* branch made it safe
                # (the straight-line branch keeps it live anyway).
                live = branch_live
                continue
            raise_line = stmt_may_raise(stmt, var)
            if raise_line is not None and not any(
                    h or f for h, f in guards):
                leaks.append(LeakPath(
                    var=var, create_line=creations[var],
                    escape_line=raise_line, kind="exception",
                    detail=(f"a call on line {raise_line} may raise "
                            f"while {var!r} is live and no enclosing "
                            f"try releases it"),
                ))
                # Report once per creation; keep walking for the
                # fall-through check but stop duplicating.
                live = False
        return live, created

    for var, line in creations.items():
        live, created = walk_body(func.body, var, False, False, [])
        if live and created:
            leaks.append(LeakPath(
                var=var, create_line=line,
                escape_line=func.body[-1].lineno, kind="fall-through",
                detail=(f"{var!r} is still live and unregistered when "
                        f"the function falls off the end"),
            ))
    return leaks
