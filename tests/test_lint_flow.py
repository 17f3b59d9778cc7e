"""The flow engine (repro.lint.flow) and its rules RL008..RL011.

Corpus ``.case`` pairs already pin the fire/silent behaviour of each
rule end-to-end; the tests here exercise the *engine* underneath --
call resolution, path search, leak-path enumeration -- plus the cache
and CLI surfaces added alongside it (``--stats``/``--graph``).
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.engine import FileContext, Program, lint_source, run_paths
from repro.lint.flow import FlowGraph, shm_leak_paths
from repro.lint.rules import BULK_OPS

REPO = Path(__file__).resolve().parent.parent


def _ctx(path, source):
    source = textwrap.dedent(source)
    return FileContext(path=path, tree=ast.parse(source), source=source,
                       lines=source.splitlines())


def _graph(*pairs):
    return FlowGraph.build([_ctx(p, s) for p, s in pairs], BULK_OPS)


# ---------------------------------------------------------------------------
# Call graph construction and resolution
# ---------------------------------------------------------------------------

class TestFlowGraph:
    def test_self_call_resolves_within_class(self):
        graph = _graph(("src/repro/core/a.py", """
            class A:
                def outer(self):
                    return self.inner()

                def inner(self):
                    return 1
        """))
        (outer,) = [f for f in graph.functions.values()
                    if f.qname.endswith("A.outer")]
        targets = [t.qname for _, t in graph.callees(outer.qname)]
        assert targets == ["src/repro/core/a.py::A.inner"]

    def test_ambiguous_method_name_does_not_cross_link(self):
        # `health.update(...)` must NOT resolve to an unrelated class
        # that happens to define `update` -- this exact false edge once
        # linked the session layer to the sampler hot path.
        graph = _graph(
            ("src/repro/core/a.py", """
                class Caller:
                    def tick(self, health):
                        health.update(self.counters())

                    def counters(self):
                        return {}
            """),
            ("src/repro/core/b.py", """
                class Sampler:
                    def update(self, edge):
                        self.family.sample_bulk([edge])
            """),
        )
        (tick,) = [f for f in graph.functions.values()
                   if f.qname.endswith("Caller.tick")]
        targets = [t.qname for _, t in graph.callees(tick.qname)]
        assert "src/repro/core/b.py::Sampler.update" not in targets
        # ...but the self-call still resolves.
        assert "src/repro/core/a.py::Caller.counters" in targets

    def test_plain_name_call_resolves_cross_file(self):
        graph = _graph(
            ("src/repro/core/a.py", """
                def entry():
                    return helper()
            """),
            ("src/repro/core/b.py", """
                def helper():
                    return 1
            """),
        )
        (entry,) = [f for f in graph.functions.values()
                    if f.qname.endswith("::entry")]
        targets = [t.qname for _, t in graph.callees(entry.qname)]
        assert targets == ["src/repro/core/b.py::helper"]

    def test_to_json_shape(self):
        graph = _graph(("src/repro/core/a.py", """
            def entry():
                return helper()

            def helper():
                return 1
        """))
        payload = graph.to_json()
        assert {n["qname"] for n in payload["nodes"]} == {
            "src/repro/core/a.py::entry",
            "src/repro/core/a.py::helper",
        }
        assert payload["edges"]


class TestUnchargedBulkPaths:
    SRC = """
        class Facade:
            def __init__(self, cluster):
                self.cluster = cluster

            def query_many(self, us):
                return self._fanout(us)

            def charged_many(self, us):
                self.cluster.charge_gather(len(us))
                return self._fanout(us)

            def _fanout(self, us):
                return self.family.query_iteration_groups(us, 0)
    """

    def test_uncharged_path_is_found_with_witness(self):
        graph = _graph(("src/repro/session/f.py", self.SRC))
        (entry,) = [f for f in graph.functions.values()
                    if f.qname.endswith("Facade.query_many")]
        paths = graph.uncharged_bulk_paths(entry)
        assert len(paths) == 1
        chain, (op, _line) = paths[0]
        assert op == "query_iteration_groups"
        assert [f.qname.rsplit(".", 1)[-1] for f in chain] == [
            "query_many", "_fanout"]

    def test_charging_frame_covers_its_subtree(self):
        graph = _graph(("src/repro/session/f.py", self.SRC))
        (entry,) = [f for f in graph.functions.values()
                    if f.qname.endswith("Facade.charged_many")]
        assert graph.uncharged_bulk_paths(entry) == []


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
    def _fired(self, body):
        src = "@hot_path\ndef f(xs):\n" + textwrap.indent(
            textwrap.dedent(body), "    ")
        return {f.rule for f in lint_source(src, "src/repro/core/x.py")}

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
        src = "def f():\n    return time.time()\n"
        fired = {f.rule for f in lint_source(src, "src/repro/core/x.py")}
        assert "RL010" not in fired


# ---------------------------------------------------------------------------
# Engine surfaces: program phase, timings, AST cache, CLI flags
# ---------------------------------------------------------------------------

class TestEngineSurfaces:
    def test_run_paths_reports_timings_and_program(self):
        report = run_paths([str(REPO / "src" / "repro" / "lint")])
        assert report.program is not None
        assert report.timings
        assert all(t >= 0.0 for t in report.timings.values())
        assert "RL008" in report.timings

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

    def test_cli_stats_and_graph(self, tmp_path):
        (tmp_path / "mod.py").write_text("def f():\n    return 1\n")
        graph_out = tmp_path / "graph.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path),
             "--stats", "--graph", str(graph_out)],
            capture_output=True, text=True,
            cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "RL008" in proc.stdout  # stats table lists every rule
        payload = json.loads(graph_out.read_text())
        assert any(n["qname"].endswith("::f") for n in payload["nodes"])

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
