"""The path analysis (repro.lint.flow) and its rules RL009..RL011.

Corpus ``.case`` pairs already pin the fire/silent behaviour of each
rule end-to-end; the tests here exercise the leak-path enumeration
underneath RL009 and RL010's scope, plus the cache and CLI surfaces
(``--stats``/``--protocol-report``).
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.engine import FileContext, lint_source, run_paths
from repro.lint.flow import shm_leak_paths

REPO = Path(__file__).resolve().parent.parent


def _ctx(path, source):
    source = textwrap.dedent(source)
    return FileContext(path=path, tree=ast.parse(source), source=source,
                       lines=source.splitlines())


class TestShmLeakPaths:
    def test_exception_edge_leak(self):
        ctx = _ctx("src/repro/mpc/t.py", """
            def leaky(n):
                shm = SharedMemory(create=True, size=n)
                publish(shm.name)
                return shm
        """)
        (func,) = [n for n in ast.walk(ctx.tree)
                   if isinstance(n, ast.FunctionDef)]
        leaks = shm_leak_paths(func)
        assert leaks

    def test_guarded_handle_is_clean(self):
        ctx = _ctx("src/repro/mpc/t.py", """
            def guarded(self, n):
                shm = SharedMemory(create=True, size=n)
                try:
                    self._handles[n] = shm
                except Exception:
                    shm.close()
                    shm.unlink()
                    raise
                return shm
        """)
        (func,) = [n for n in ast.walk(ctx.tree)
                   if isinstance(n, ast.FunctionDef)]
        assert shm_leak_paths(func) == []


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

    def test_op_executor_and_worker_loop_in_scope_by_name(self):
        for name in ("_execute_op", "_worker_main"):
            assert "RL010" in self._fired(
                "return time.time()\n", name=name,
                path="src/repro/mpc/x.py")


# ---------------------------------------------------------------------------
# Engine surfaces: program phase, timings, AST cache, CLI flags
# ---------------------------------------------------------------------------

class TestEngineSurfaces:
    def test_run_paths_reports_timings_and_program(self):
        report = run_paths([str(REPO / "src" / "repro" / "lint")])
        assert report.program is not None
        assert report.timings
        assert all(t >= 0.0 for t in report.timings.values())
        assert "RL012" in report.timings

    def test_context_cache_hits_on_second_run(self):
        from repro.lint import engine

        target = [str(REPO / "src" / "repro" / "lint" / "flow.py")]
        run_paths(target)
        key = str((REPO / "src" / "repro" / "lint" / "flow.py").resolve())
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
        assert "RL012" in proc.stdout  # stats table lists every rule

    def test_protocol_report_payload(self, tmp_path):
        out = tmp_path / "proto.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint",
             str(REPO / "src" / "repro" / "mpc" / "backend.py"),
             "--protocol-report", str(out)],
            capture_output=True, text=True,
            cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["checked"], "backend.py was not model-checked"
        (result,) = payload["results"].values()
        assert result["ok"] is True
        assert result["states"] > 0
