"""repro.lint: engine machinery, the rule-pack corpus, and the repo gate.

Four layers:

* corpus -- every rule fires on its known-bad snippet and stays silent
  on its known-good one (the snippets live in
  ``src/repro/lint/corpus/*.case`` with virtual paths, so path-scoped
  rules are exercised exactly as on disk);
* machinery -- suppressions, justification enforcement, baselines,
  exit codes, JSON output;
* the repo itself -- ``src`` and ``tests`` lint clean, every inline
  suppression carries a justification, and the checked-in baseline
  never grows;
* the gate -- seeding a deliberate violation fails with the rule id
  and file:line, which is what makes the CI job meaningful.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULE_PACK_VERSION
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.engine import (
    Finding,
    lint_source,
    parse_suppressions,
    run_paths,
)
from repro.lint.reporters import render_json

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "repro" / "lint" / "corpus"

#: Policy: the checked-in baseline stays empty.  New findings must be
#: fixed or justified inline with ``# repro-lint: disable=...``; raising
#: this number requires changing this test, i.e. a reviewed decision.
MAX_BASELINE_ENTRIES = 0


def _cases():
    cases = sorted(CORPUS.glob("*.case"))
    assert cases, f"corpus missing at {CORPUS}"
    return cases


def _parse_case(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    vpath = lines[0].split(":", 1)[1].strip()
    expect = lines[1].split(":", 1)[1].strip()
    return path.read_text(encoding="utf-8"), vpath, expect


# ---------------------------------------------------------------------------
# Corpus: each rule fires on bad, stays silent on good
# ---------------------------------------------------------------------------

class TestCorpus:
    @pytest.mark.parametrize("case", _cases(), ids=lambda c: c.stem)
    def test_case_behaves_as_annotated(self, case):
        source, vpath, expect = _parse_case(case)
        findings = lint_source(source, vpath)
        fired = sorted({f.rule for f in findings})
        if expect == "clean":
            assert not findings, (
                f"known-good snippet {case.name} raised {fired}: "
                + "; ".join(f.render() for f in findings)
            )
        else:
            assert expect in fired, (
                f"known-bad snippet {case.name} did not fire {expect} "
                f"(got {fired})"
            )

    def test_every_rule_has_a_bad_and_good_case(self):
        from repro.lint.rules import ALL_RULES

        stems = {case.stem for case in _cases()}
        for rule in ALL_RULES:
            slug = rule.id.lower()
            assert f"{slug}_bad" in stems, f"no known-bad case for {rule.id}"
            assert f"{slug}_good" in stems, f"no known-good case for {rule.id}"

    def test_findings_carry_rule_id_and_location(self):
        source, vpath, expect = _parse_case(CORPUS / "rl009_bad.case")
        finding = lint_source(source, vpath)[0]
        rendered = finding.render()
        assert "RL009" in rendered
        assert f"{vpath}:{finding.line}:" in rendered


# ---------------------------------------------------------------------------
# Suppression machinery
# ---------------------------------------------------------------------------

class TestSuppressions:
    BAD_ENV = (
        "import os\n"
        "def f():\n"
        "    return os.environ.get('REPRO_BACKEND')\n"
    )

    def test_unsuppressed_fires(self):
        findings = lint_source(self.BAD_ENV, "src/repro/demo.py")
        assert [f.rule for f in findings] == ["RL004"]

    def test_same_line_suppression_with_justification(self):
        src = self.BAD_ENV.replace(
            "    return os.environ.get('REPRO_BACKEND')",
            "    return os.environ.get('REPRO_BACKEND')"
            "  # repro-lint: disable=RL004 -- test fixture",
        )
        assert lint_source(src, "src/repro/demo.py") == []

    def test_standalone_suppression_covers_next_statement(self):
        src = self.BAD_ENV.replace(
            "    return os.environ.get('REPRO_BACKEND')",
            "    # repro-lint: disable=RL004 -- test fixture\n"
            "    return os.environ.get('REPRO_BACKEND')",
        )
        assert lint_source(src, "src/repro/demo.py") == []

    def test_bare_suppression_is_itself_a_finding(self):
        src = self.BAD_ENV.replace(
            "    return os.environ.get('REPRO_BACKEND')",
            "    return os.environ.get('REPRO_BACKEND')"
            "  # repro-lint: disable=RL004",
        )
        rules = {f.rule for f in lint_source(src, "src/repro/demo.py")}
        # The RL004 finding is suppressed, but the naked suppression is
        # flagged: escape hatches must carry their why.
        assert rules == {"RL000"}

    def test_suppression_for_other_rule_does_not_mask(self):
        src = self.BAD_ENV.replace(
            "    return os.environ.get('REPRO_BACKEND')",
            "    return os.environ.get('REPRO_BACKEND')"
            "  # repro-lint: disable=RL010 -- wrong rule",
        )
        rules = {f.rule for f in lint_source(src, "src/repro/demo.py")}
        assert "RL004" in rules

    def test_parse_suppressions_extracts_rules_and_justification(self):
        sups = parse_suppressions([
            "x = 1  # repro-lint: disable=RL009,RL004 -- because reasons",
        ])
        assert len(sups) == 1
        assert sups[0].rules == frozenset({"RL009", "RL004"})
        assert sups[0].justification == "because reasons"
        assert not sups[0].bare


# ---------------------------------------------------------------------------
# Baseline machinery
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_round_trip_filters_known_findings(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "demo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import os\nVALUE = os.environ.get('REPRO_THING')\n"
        )
        report = run_paths([str(tmp_path / "src")])
        assert report.findings
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), report.findings)
        assert load_baseline(str(baseline))
        again = run_paths([str(tmp_path / "src")],
                          baseline_path=str(baseline))
        assert again.findings == []
        assert again.baselined == len(report.findings)
        assert again.exit_code == 0

    def test_missing_baseline_file_means_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()

    def test_repo_baseline_never_grows(self):
        path = ROOT / "lint-baseline.json"
        payload = json.loads(path.read_text())
        assert len(payload["findings"]) <= MAX_BASELINE_ENTRIES, (
            "the lint baseline grew: fix the new findings or justify "
            "them inline instead of baselining them"
        )


# ---------------------------------------------------------------------------
# The repo itself is clean, and every suppression is justified
# ---------------------------------------------------------------------------

class TestRepoGate:
    def test_src_and_tests_lint_clean(self):
        report = run_paths([str(ROOT / "src"), str(ROOT / "tests")],
                           baseline_path=str(ROOT / "lint-baseline.json"))
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )

    def test_every_inline_suppression_is_justified(self):
        for path in sorted((ROOT / "src").rglob("*.py")):
            sups = parse_suppressions(
                path.read_text(encoding="utf-8").splitlines()
            )
            for sup in sups:
                assert not sup.bare, (
                    f"{path}:{sup.line}: suppression without a "
                    f"justification"
                )

    def test_doc_drift_guard_sees_all_knobs(self):
        # Deleting a knob from the quickstart docs must make RL004's
        # project phase fire -- prove the wiring by checking the knob
        # inventory the rule derives matches the documented set.
        quickstart = (ROOT / "examples" / "quickstart.py").read_text()
        for name in ("REPRO_BACKEND", "REPRO_BACKEND_WORKERS",
                     "REPRO_BACKEND_TIMEOUT", "REPRO_BACKEND_RETRIES",
                     "REPRO_BACKEND_FAULTS",
                     "REPRO_KERNELS", "REPRO_KERNELS_PROFILE"):
            assert name in quickstart

    def test_doc_drift_fires_on_undocumented_knob(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "examples").mkdir()
        (tmp_path / "src" / "repro" / "knobs.py").write_text(
            "NAME = 'REPRO_UNDOCUMENTED_KNOB'\n"
        )
        (tmp_path / "examples" / "quickstart.py").write_text(
            '"""docs mentioning nothing"""\n'
        )
        report = run_paths([str(tmp_path / "src")])
        assert any(
            f.rule == "RL004" and "REPRO_UNDOCUMENTED_KNOB" in f.message
            for f in report.findings
        )


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON shape, seeded violation
# ---------------------------------------------------------------------------

def _run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=cwd or ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCli:
    def test_clean_run_exits_zero(self):
        proc = _run_cli("src", "--baseline", "lint-baseline.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_seeded_violation_fails_with_rule_and_location(self, tmp_path):
        victim = tmp_path / "src" / "repro" / "seeded.py"
        victim.parent.mkdir(parents=True)
        victim.write_text(
            "from multiprocessing import shared_memory\n"
            "\n"
            "def start():\n"
            "    seg = shared_memory.SharedMemory(create=True, size=64)\n"
            "    publish(seg.name)\n"
            "    return seg\n"
        )
        proc = _run_cli(str(victim))
        assert proc.returncode == 1
        assert "RL009" in proc.stdout
        assert "seeded.py:4" in proc.stdout

    def test_json_format_carries_rule_pack_and_fingerprints(self, tmp_path):
        victim = tmp_path / "src" / "repro" / "seeded.py"
        victim.parent.mkdir(parents=True)
        victim.write_text(
            "import os\nV = os.environ.get('REPRO_X')\n"
        )
        proc = _run_cli(str(victim), "--format=json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["rule_pack"] == RULE_PACK_VERSION
        assert payload["findings"]
        entry = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message",
                "fingerprint"} <= set(entry)

    def test_unknown_rule_id_is_usage_error(self):
        proc = _run_cli("src", "--select", "RL777")
        assert proc.returncode == 2

    def test_list_rules_names_the_pack(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        listed = [line.split()[0] for line in proc.stdout.splitlines()
                  if line.startswith("  RL")]
        assert listed == ["RL000", "RL004", "RL007", "RL009", "RL010",
                          "RL011", "RL012"]

    def test_render_json_is_valid_json(self):
        report = run_paths([str(ROOT / "src" / "repro" / "lint")])
        payload = json.loads(render_json(report))
        assert payload["files"] > 0


# ---------------------------------------------------------------------------
# Fingerprints are line-independent (baseline stability)
# ---------------------------------------------------------------------------

def test_fingerprint_ignores_line_numbers():
    a = Finding(rule="RL004", path="src/x.py", line=3, col=1,
                message="m")
    b = Finding(rule="RL004", path="src/x.py", line=97, col=9,
                message="m")
    assert a.fingerprint == b.fingerprint
    c = Finding(rule="RL007", path="src/x.py", line=3, col=1,
                message="m")
    assert a.fingerprint != c.fingerprint


# ---------------------------------------------------------------------------
# RL007: kernel-tier parity specifics beyond the corpus
# ---------------------------------------------------------------------------

class TestKernelTierParity:
    def test_bypass_imports_fire_outside_the_package(self):
        for src in (
            "from repro.kernels.numpy_tier import mulmod_many\n",
            "from repro.kernels import compiled_tier\n",
            "import repro.kernels.numpy_tier\n",
        ):
            findings = lint_source(src, "src/repro/sketch/demo.py")
            assert [f.rule for f in findings] == ["RL007"], src

    def test_dispatcher_and_support_imports_stay_clean(self):
        src = (
            "from repro import kernels\n"
            "from repro.kernels import profile, registry\n"
        )
        assert lint_source(src, "src/repro/sketch/demo.py") == []

    def test_tier_modules_may_import_each_other(self):
        src = "from repro.kernels.numpy_tier import mulmod_many\n"
        assert lint_source(src, "src/repro/kernels/compiled_tier.py") == []

    def _kernel_tree(self, tmp_path, compiled_body):
        pkg = tmp_path / "src" / "repro" / "kernels"
        pkg.mkdir(parents=True)
        (pkg / "numpy_tier.py").write_text(
            "from repro.kernels.registry import numpy_kernel\n\n\n"
            "@numpy_kernel('mulmod')\n"
            "def mulmod(a, b):\n"
            "    return a\n"
        )
        (pkg / "compiled_tier.py").write_text(compiled_body)
        return tmp_path / "src"

    def test_project_phase_catches_cross_file_drift(self, tmp_path):
        src = self._kernel_tree(
            tmp_path,
            "from repro.kernels.registry import compiled_kernel\n\n\n"
            "@compiled_kernel('mulmod')\n"
            "def mulmod(b, a):\n"   # swapped parameter order
            "    return a\n",
        )
        report = run_paths([str(src)])
        assert [f.rule for f in report.findings] == ["RL007"]
        assert "signatures differ" in report.findings[0].message

    def test_project_phase_clean_on_matching_tiers(self, tmp_path):
        src = self._kernel_tree(
            tmp_path,
            "from repro.kernels.registry import compiled_kernel\n\n\n"
            "@compiled_kernel('mulmod')\n"
            "def mulmod(a, b):\n"
            "    return a\n",
        )
        assert run_paths([str(src)]).findings == []
