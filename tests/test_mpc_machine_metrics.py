"""Unit tests for the reference message and the metrics ledgers."""

import pytest

from repro.mpc.metrics import CapacityViolation, ClusterMetrics
from tests.mpc_reference import Message


class TestMessage:
    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, payload=None, words=-1)


class TestClusterMetrics:
    def test_round_charging_by_category(self):
        metrics = ClusterMetrics()
        metrics.charge_rounds(2, "broadcast")
        metrics.charge_rounds(3, "sort")
        metrics.charge_rounds(1, "broadcast")
        assert metrics.rounds == 6
        assert metrics.rounds_by_category == {"broadcast": 3, "sort": 3}

    def test_negative_rounds_rejected(self):
        metrics = ClusterMetrics()
        with pytest.raises(ValueError):
            metrics.charge_rounds(-1, "x")

    def test_memory_registration_and_peak(self):
        metrics = ClusterMetrics()
        metrics.register_memory("a", 100)
        metrics.register_memory("b", 50)
        assert metrics.total_memory == 150
        metrics.register_memory("a", 10)
        assert metrics.total_memory == 60
        assert metrics.peak_total_memory == 150
        metrics.release_memory("b")
        assert metrics.total_memory == 10

    def test_phase_snapshot_deltas(self):
        metrics = ClusterMetrics()
        metrics.charge_rounds(5, "setup")
        metrics.begin_phase("p1")
        metrics.charge_rounds(3, "work")
        metrics.charge_traffic(10, 40)
        snap = metrics.end_phase(batch_size=4)
        assert snap.rounds == 3
        assert snap.messages == 10
        assert snap.words_sent == 40
        assert snap.batch_size == 4
        assert snap.rounds_by_category == {"work": 3}

    def test_nested_phase_rejected(self):
        metrics = ClusterMetrics()
        metrics.begin_phase("a")
        with pytest.raises(RuntimeError):
            metrics.begin_phase("b")

    def test_end_without_begin_rejected(self):
        metrics = ClusterMetrics()
        with pytest.raises(RuntimeError):
            metrics.end_phase()

    def test_phase_memory_peak(self):
        metrics = ClusterMetrics()
        metrics.register_memory("x", 10)
        metrics.begin_phase("p")
        metrics.register_memory("x", 500)
        metrics.note_memory_peak()
        metrics.register_memory("x", 20)
        snap = metrics.end_phase()
        assert snap.peak_total_memory == 500

    def test_violation_recording(self):
        metrics = ClusterMetrics()
        metrics.begin_phase("p")
        metrics.record_violation(
            CapacityViolation(machine_id=1, what="send", used=10,
                              capacity=5, round_index=0)
        )
        snap = metrics.end_phase()
        assert snap.capacity_violations == 1

    def test_row_flattening(self):
        metrics = ClusterMetrics()
        metrics.begin_phase("p")
        snap = metrics.end_phase(batch_size=2)
        row = snap.row()
        assert row["phase"] == "p"
        assert row["batch"] == 2
