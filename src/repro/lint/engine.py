"""Rule engine: file walking, suppressions, baselines, rule driving.

The engine is deliberately simple -- plain :mod:`ast` walks, no type
inference -- because every rule in the pack is a *convention* check:
the patterns it looks for are the ones this repo actually writes (see
``docs/lint-rules.md`` for what each rule approximates and where it
stays silent).  Two phases:

1. **Per-file**: each ``.py`` file is parsed once; every rule whose
   ``applies()`` matches the path gets the parsed
   :class:`FileContext`.
2. **Project**: rules that need cross-file state (RL004's doc-drift
   check) run once over all contexts with the detected project root.

Parsed contexts are cached per ``(path, mtime, size)`` across runs in
the same process, so repeated ``run_paths``/test invocations re-parse
nothing that did not change.

Suppressions
------------
A finding on line ``L`` is suppressed by a trailing comment on the
same line, or by a standalone comment directly above the statement::

    value = os.environ.get(name)  # repro-lint: disable=RL004 -- the one reader

    # repro-lint: disable=RL010 -- timestamp measures, never feeds results
    start = time.perf_counter()

A justification after ``--`` is mandatory: a bare ``disable=`` is
itself reported (RL000), so every escape hatch carries its why.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint import RULE_PACK_VERSION

#: Rule id used for files that fail to parse (reported, exit code 1).
PARSE_ERROR_RULE = "RL998"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable id for baseline matching: rule + path + message.

        Line numbers are deliberately excluded so unrelated edits above
        a baselined finding do not un-baseline it.
        """
        raw = f"{self.rule}::{self.path}::{self.message}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Suppression:
    """One ``# repro-lint: disable=...`` comment."""

    rules: frozenset
    justification: Optional[str]
    line: int          # line the comment sits on (1-based)
    covers: int        # line whose findings it suppresses

    @property
    def bare(self) -> bool:
        return not (self.justification and self.justification.strip())


@dataclass
class FileContext:
    """Everything a per-file rule gets to look at."""

    path: str               # path as reported in findings (posix-ish)
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)

    def finding(self, rule: str, node, message: str) -> Finding:
        return Finding(rule=rule, path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


class Rule:
    """Base class: subclasses set ``id``/``title`` and override checks."""

    id = "RL000"
    title = ""
    #: One-line rationale shown by ``--list-rules``.
    rationale = ""

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, contexts: Sequence[FileContext],
                      root: Path) -> Iterable[Finding]:
        return ()


@dataclass
class Report:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    baselined: int
    files: int
    rule_pack: str = RULE_PACK_VERSION
    #: Per-rule wall time in seconds across all phases (``--stats``).
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Suppression parsing
# ---------------------------------------------------------------------------

def parse_suppressions(lines: List[str]) -> List[Suppression]:
    out: List[Suppression] = []
    for idx, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper()
            for token in match.group(1).split(",") if token.strip()
        )
        standalone = line[: match.start()].strip() == ""
        covers = idx
        if standalone:
            # A comment-only line covers the next code line below it.
            for nxt in range(idx + 1, len(lines) + 1):
                text = lines[nxt - 1].strip()
                if text and not text.startswith("#"):
                    covers = nxt
                    break
        out.append(Suppression(rules=rules,
                               justification=match.group(2),
                               line=idx, covers=covers))
    return out


def _is_suppressed(finding: Finding,
                   suppressions: List[Suppression]) -> bool:
    for sup in suppressions:
        if finding.line == sup.covers and finding.rule in sup.rules:
            return True
    return False


# ---------------------------------------------------------------------------
# File walking
# ---------------------------------------------------------------------------

def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Only ``*.py`` is picked up, which is what keeps the known-bad
    corpus (``corpus/*.case``) out of production runs.
    """
    seen: Dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                seen[str(sub)] = sub
        elif path.suffix == ".py" or path.is_file():
            seen[str(path)] = path
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return [seen[key] for key in sorted(seen)]


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``src/repro``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in [probe, *probe.parents]:
        if (candidate / "src" / "repro").is_dir() or \
                (candidate / ".git").exists():
            return candidate
    return Path.cwd()


def _display_path(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def make_context(display_path: str, source: str) -> FileContext:
    """Parse one file into a context (raises SyntaxError on bad code)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    return FileContext(path=display_path, tree=tree, source=source,
                       lines=lines,
                       suppressions=parse_suppressions(lines))


#: Parsed-context cache: resolved path -> ((mtime_ns, size), context).
#: Rules never mutate a context, so sharing across runs is safe; the
#: signature check invalidates on any on-disk change.
_CTX_CACHE: Dict[str, Tuple[Tuple[int, int], FileContext]] = {}


def _load_context(path: Path, display: str) -> FileContext:
    """Read + parse ``path``, reusing the cached AST when unchanged."""
    try:
        stat = path.stat()
        sig: Optional[Tuple[int, int]] = (stat.st_mtime_ns, stat.st_size)
    except OSError:  # pragma: no cover - racy delete
        sig = None
    key = str(path)
    if sig is not None:
        hit = _CTX_CACHE.get(key)
        if hit is not None and hit[0] == sig:
            cached = hit[1]
            if cached.path == display:
                return cached
            return FileContext(path=display, tree=cached.tree,
                               source=cached.source, lines=cached.lines,
                               suppressions=cached.suppressions)
    source = path.read_text(encoding="utf-8")
    ctx = make_context(display, source)
    if sig is not None:
        _CTX_CACHE[key] = (sig, ctx)
    return ctx


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _load_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    from repro.lint.rules import ALL_RULES

    rules = list(ALL_RULES)
    if select:
        wanted = {token.strip().upper() for token in select}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(unknown)}")
        rules = [rule for rule in rules if rule.id in wanted]
    return rules


def run_paths(paths: Sequence[str], *,
              select: Optional[Sequence[str]] = None,
              baseline_path: Optional[str] = None) -> Report:
    """Lint ``paths`` with the (optionally filtered) rule pack."""
    from repro.lint.baseline import load_baseline

    files = collect_files(paths)
    root = find_project_root(files[0] if files else Path.cwd())
    rules = _load_rules(select)

    contexts: List[FileContext] = []
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    timings: Dict[str, float] = {rule.id: 0.0 for rule in rules}
    for path in files:
        display = _display_path(path, root)
        try:
            ctx = _load_context(path, display)
        except (SyntaxError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                rule=PARSE_ERROR_RULE, path=display,
                line=getattr(exc, "lineno", 1) or 1, col=1,
                message=f"file does not parse: {exc.msg if isinstance(exc, SyntaxError) else exc}",
            ))
            continue
        contexts.append(ctx)

    for ctx in contexts:
        raw: List[Finding] = []
        for rule in rules:
            if rule.applies(ctx):
                start = time.perf_counter()
                raw.extend(rule.check(ctx))
                timings[rule.id] += time.perf_counter() - start
        for finding in raw:
            if _is_suppressed(finding, ctx.suppressions):
                suppressed.append(finding)
            else:
                findings.append(finding)

    ctx_by_path = {ctx.path: ctx for ctx in contexts}
    for rule in rules:
        start = time.perf_counter()
        raw = list(rule.check_project(contexts, root))
        timings[rule.id] += time.perf_counter() - start
        for finding in raw:
            ctx = ctx_by_path.get(finding.path)
            if ctx is not None and _is_suppressed(finding,
                                                  ctx.suppressions):
                suppressed.append(finding)
            else:
                findings.append(finding)

    baselined = 0
    if baseline_path:
        known = load_baseline(baseline_path)
        kept: List[Finding] = []
        for finding in findings:
            if finding.fingerprint in known:
                baselined += 1
            else:
                kept.append(finding)
        findings = kept

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return Report(findings=findings, suppressed=suppressed,
                  baselined=baselined, files=len(files),
                  timings=timings)


def lint_source(source: str, virtual_path: str,
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the per-file rules over in-memory ``source``.

    The self-test corpus uses this: ``virtual_path`` stands in for the
    real location, so path-scoped rules (RL010's ``kernels/`` scope,
    RL004's ``src/`` scope) fire exactly as they would on disk.
    Project-phase checks (RL004's cross-file doc drift) are not run.
    """
    ctx = make_context(virtual_path, source)
    out: List[Finding] = []
    rules = _load_rules(select)
    for rule in rules:
        if rule.applies(ctx):
            for finding in rule.check(ctx):
                if not _is_suppressed(finding, ctx.suppressions):
                    out.append(finding)
    out.sort(key=lambda f: (f.line, f.rule))
    return out
