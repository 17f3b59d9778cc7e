"""Smoke test of the stream benchmark at toy size (n=128, 6 phases).

Collected by the tier-1 run.  This directory has no ``conftest.py`` on
purpose: ``benchmarks/`` imports its own as a top-level module.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``--all --trace`` once: the untraced rep gives the end-to-end
    metrics, the traced rep the per-layer ones."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = run("--all", "--trace", "--toy", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        return done.stdout, json.load(handle)


def test_every_name_in_the_contract_is_emitted(traced):
    stdout, document = traced
    assert document["claim"] is None
    assert {w["name"] for w in CONTRACT["workloads"]} == set(
        document["workloads"])
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    for name, result in document["workloads"].items():
        for entry in CONTRACT["end_to_end"]:
            assert result["end_to_end"][entry["name"]]["value"] > 0, (
                name, entry["name"])
            assert entry["name"] in stdout
        assert set(result["per_layer"]) == {
            entry["name"] for entry in CONTRACT["per_layer"]}, name
        assert result["end_to_end"]["failure_rate"]["value"] == 0
        assert result["failed"] == 0 and result["attempted"] > 6
        assert os.path.exists(os.path.join(ROOT, result["trace_file"]))


def test_layers_show_on_the_workload_that_exercises_them(traced):
    layers = {name: result["per_layer"]
              for name, result in traced[1]["workloads"].items()}
    insert, churn = layers["conn_insert"], layers["conn_churn"]
    fleet, mix = layers["conn_churn_fleet"], layers["service_mix"]
    assert insert["kernels.merge_groups_calls"] == 0
    assert insert["core.connectivity.tree_edge_deletions"] == 0
    assert churn["kernels.merge_groups_calls"] > 0
    assert churn["core.connectivity.replacement_edges"] > 0
    for name, values in layers.items():
        on_fleet = name == "conn_churn_fleet"
        assert (values["mpc.backend.exchange_ms"] is not None) == on_fleet
        assert (values["kernels.pool_scatter_ms"] is None) == on_fleet
        assert values["trace.overhead_frac"] is not None
    assert fleet["mpc.backend.degrades"] == 0
    assert fleet["mpc.backend.ring_dispatches"] > 0
    assert mix["core.bipartiteness.apply_ms"] > 0
    assert mix["session.checkpoint_mb"] > 0
    assert churn["core.bipartiteness.apply_ms"] is None


def test_fleet_forest_equals_sequential_forest(traced):
    workloads = traced[1]["workloads"]
    assert workloads["conn_churn"]["digests"]
    assert (workloads["conn_churn_fleet"]["digests"]
            == workloads["conn_churn"]["digests"])
    assert "forests equal conn_churn's" in traced[0]


def test_contract_line(traced):
    """The ``--workload`` form ends with the one JSON object the driver of
    ``BENCHMARK.json`` reads."""
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "conn_churn", "--seed", "3", "--toy",
                   "--seconds", "0", "--trace", trace)
        assert done.returncode == 0, done.stdout
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [e["name"] for e in CONTRACT[key]]
        for entry in CONTRACT[key]:
            metric = line["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))


def test_a_failed_oracle_check_fails_the_command(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(BENCH)
    import worker

    monkeypatch.setattr(
        worker.DynamicConnectivityOracle, "num_components",
        lambda self: self._refresh().components + 1)
    spec = {"workload": "conn_churn", "seed": 1, "reps": 1, "seconds": 0,
            "toy": True}
    assert worker.main(["worker.py", json.dumps(spec)]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] > 0
    assert result["end_to_end"]["failure_rate"]["value"] > 0
    assert any("num_components" in error for error in result["errors"])


def test_compare_flags_a_regression(traced, tmp_path):
    base = traced[1]
    slower = json.loads(json.dumps(base))
    for row in slower["workloads"]["conn_churn"]["end_to_end"].values():
        row.update({k: row[k] * 2 for k in ("value", "min", "max")})
    paths = []
    for name, document in (("base.json", base), ("slower.json", slower)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as handle:
            json.dump(document, handle)
    compare = [sys.executable, os.path.join(BENCH, "compare.py")]
    same = subprocess.run(compare + [paths[0], paths[0]],
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0 and "worse" not in same.stdout
    worse = subprocess.run(compare + paths, stdout=subprocess.PIPE,
                           text=True)
    assert worse.returncode == 1 and "worse" in worse.stdout
