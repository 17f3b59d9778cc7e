"""RL010's scope, and the engine's timing, cache and CLI surfaces.

Corpus ``.case`` pairs already pin the fire/silent behaviour of each
rule end-to-end; the tests here exercise RL010's scope beyond its
pair, plus the cache and ``--stats`` surfaces.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.engine import lint_source, run_paths

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# RL010 determinism discipline (rule-level, beyond the corpus pair)
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _fired(self, body, name="f", path="src/repro/kernels/x.py"):
        src = f"def {name}(xs):\n" + textwrap.indent(
            textwrap.dedent(body), "    ")
        return {f.rule for f in lint_source(src, path)}

    def test_flags_ambient_numpy_rng(self):
        assert "RL010" in self._fired("return np.random.randint(0, 8)\n")

    def test_flags_wall_clock(self):
        assert "RL010" in self._fired("return time.time()\n")

    def test_flags_set_iteration_into_array(self):
        assert "RL010" in self._fired(
            "return np.array(list(set(xs)))\n")

    def test_clean_integer_code_passes(self):
        assert "RL010" not in self._fired(
            "return np.bitwise_and(xs, np.int64(63))\n")

    def test_out_of_scope_function_ignored(self):
        assert "RL010" not in self._fired(
            "return time.time()\n", path="src/repro/core/x.py")

    def test_op_executor_in_scope_by_name(self):
        assert "RL010" in self._fired(
            "return time.time()\n", name="_execute_op",
            path="src/repro/mpc/x.py")


# ---------------------------------------------------------------------------
# Engine surfaces: timings, AST cache, CLI flags
# ---------------------------------------------------------------------------

class TestEngineSurfaces:
    def test_run_paths_reports_timings(self):
        report = run_paths([str(REPO / "src" / "repro" / "lint")])
        assert report.timings
        assert all(t >= 0.0 for t in report.timings.values())
        assert sorted(report.timings) == ["RL000", "RL004", "RL010"]

    def test_context_cache_hits_on_second_run(self):
        from repro.lint import engine

        target = [str(REPO / "src" / "repro" / "lint" / "rules.py")]
        run_paths(target)
        key = str((REPO / "src" / "repro" / "lint" / "rules.py").resolve())
        assert key in engine._CTX_CACHE
        sig, ctx = engine._CTX_CACHE[key]
        run_paths(target)
        # Same (mtime, size) signature -> the cached context object is
        # reused, not reparsed.
        assert engine._CTX_CACHE[key][1].tree is ctx.tree

    def test_cli_stats(self, tmp_path):
        (tmp_path / "mod.py").write_text("def f():\n    return 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path), "--stats"],
            capture_output=True, text=True,
            cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RL010" in proc.stdout  # stats table lists every rule
