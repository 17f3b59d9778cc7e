"""Spans around each layer's public functions, recorded from outside.

`Tracer.install` replaces the functions named in `_probes` with timing
wrappers; nothing under ``src/`` changes.  A wrapper records one span --
name, start, end, the span that caused it, the phase it belongs to -- into
an in-memory list, but only while the harness has set `Tracer.phase`, so
prefill, warm-up and oracle work leave no spans.  `Tracer.layers` reduces
the list to the per-layer metrics of ``BENCHMARK.json``, and
`Tracer.write_chrome` writes it out once, when the run is over.

A span's *self* time is its duration minus its direct children's.  Kernel
and dispatch-section totals also come from ``repro.kernels.profile`` (the
worker sets ``REPRO_KERNELS_PROFILE=1`` for the traced pass): those
counters are the only view of ``backend.exchange`` / ``ring_pack`` /
``shard``, which are sections inside functions, not functions.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Span-name prefix -> layer, longest first.
LAYERS = ("mpc.simulator", "mpc.backend", "session", "core", "euler",
          "sketch", "kernels")

KERNELS = ("mulmod_many", "addmod_many", "poly_field_values",
           "trailing_zeros_many", "powmod_many", "combine_limbs",
           "pool_scatter", "decode_prefix", "merge_groups", "is_zero_cells")

#: Indices into a span record.
NAME, START, END, PARENT, PHASE, COUNTS = range(6)


def layer_of(name: str) -> str:
    return next(layer for layer in LAYERS if name.startswith(layer + "."))


def _task_span(args, parent: Optional[str]) -> str:
    """A session task's phase, or a nested instance's (bipartiteness runs
    two private connectivity instances inside its own phase)."""
    if parent == "session.apply_batch":
        return f"core.{args[0].task}.apply"
    return "core.member.apply"


def _group_counts(args, result) -> Dict[str, int]:
    zeros, sampled = result
    live = [edge for zero, edge in zip(zeros, sampled) if not zero]
    return {
        "groups": len(args[1]),
        "group_rows": sum(len(members) for members in args[1]),
        "nonzero_groups": len(live),
        "recovered": sum(edge is not None for edge in live),
    }


def _probes():
    """``(owner, attribute, span name, counts)`` for every wrapped call.

    Imported here, not at module level, so that importing this file
    starts nothing and the worker can set the profiling variable first.
    """
    from repro import kernels
    from repro.core.api import BatchDynamicAlgorithm, UpdateValidator
    from repro.core.components import ComponentIds
    from repro.euler.distributed import DistributedEulerForest
    from repro.mpc.backend import SequentialBackend, SharedMemoryBackend
    from repro.mpc.simulator import Cluster
    from repro.session import graph_session
    from repro.session.graph_session import GraphSession
    from repro.sketch.graph_sketch import SketchFamily

    def edges(args, result):
        return {"edges": len(args[1])}

    probes = [
        (GraphSession, "apply_batch", "session.apply_batch", None),
        (UpdateValidator, "check_and_apply", "session.validate", None),
        # GraphSession calls the name its own module imported.
        (graph_session, "charge_route_updates", "session.route", None),
        (GraphSession, "connected", "session.query_connected", None),
        (GraphSession, "num_components", "session.query_components", None),
        (GraphSession, "spanning_forest", "session.query_forest", None),
        (GraphSession, "is_bipartite", "session.query_bipartite", None),
        (GraphSession, "matching", "session.query_matching", None),
        (GraphSession, "checkpoint", "session.checkpoint", None),
        (GraphSession, "restore", "session.restore", None),
        (BatchDynamicAlgorithm, "apply_batch", _task_span, None),
        (ComponentIds, "relabel_min", "core.components.relabel", None),
        (DistributedEulerForest, "batch_link", "euler.batch_link", edges),
        (DistributedEulerForest, "batch_cut", "euler.batch_cut", edges),
        (SketchFamily, "apply_updates_bulk", "sketch.apply_updates", None),
        (SketchFamily, "query_iteration_groups", "sketch.query_groups",
         _group_counts),
        (SketchFamily, "cuts_empty_groups", "sketch.zero_groups", None),
    ]
    for backend in (SequentialBackend, SharedMemoryBackend):
        probes += [
            (backend, "scatter_edges", "mpc.backend.scatter", None),
            (backend, "query_groups", "mpc.backend.query_groups", None),
            (backend, "zero_groups", "mpc.backend.zero_groups", None),
        ]
    for method in ("charge_local", "charge_broadcast", "charge_converge",
                   "charge_gather", "charge_sort", "begin_phase",
                   "end_phase"):
        probes.append((Cluster, method, "mpc.simulator.charge", None))
    # Callers reach a kernel as ``kernels.<name>`` at call time, so
    # rebinding the package attribute wraps every call site.
    for kernel in KERNELS:
        probes.append((kernels, kernel, f"kernels.{kernel}", None))
    return probes


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        #: The timed phase the next spans belong to; ``None`` = record
        #: nothing.  Set by the harness around each call it measures.
        self.phase: Optional[int] = None
        self._open: List[int] = []
        self._originals: List[tuple] = []

    # -- installing -----------------------------------------------------
    def wrap(self, name, func: Callable, counts=None) -> Callable:
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            if self.phase is None:
                return func(*args, **kwargs)
            parent = open_spans[-1] if open_spans else -1
            label = name
            if callable(name):
                label = name(args, spans[parent][NAME] if parent >= 0
                             else None)
            span = [label, 0, 0, parent, self.phase, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                open_spans.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counts in _probes():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self.wrap(name, original.__func__, counts))
            else:
                wrapped = self.wrap(name, original, counts)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.phase = None

    # -- reducing -------------------------------------------------------
    def totals(self, phases: int) -> Dict[str, Dict[str, float]]:
        """Per span name over timed phases ``[0, phases)``: ``ns``,
        ``self_ns``, ``calls`` and the summed counts."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, children in zip(self.spans, child_ns):
            if not 0 <= span[PHASE] < phases:
                continue
            row = out[span[NAME]]
            duration = span[END] - span[START]
            row["ns"] += duration
            row["self_ns"] += duration - children
            row["calls"] += 1
            for key, value in (span[COUNTS] or {}).items():
                row[key] += value
        return out

    def span_seconds(self, name: str) -> Optional[float]:
        """Duration of the one span called ``name``, in any phase."""
        for span in self.spans:
            if span[NAME] == name:
                return (span[END] - span[START]) / 1e9
        return None

    def layers(self, phases: int) -> Dict[str, Optional[float]]:
        """The span-derived per-layer metrics; ``*_ms`` are mean busy
        milliseconds per timed phase."""
        totals = self.totals(phases)

        def ms(name: str, field: str = "ns") -> float:
            return totals[name][field] / 1e6 / phases

        def ms_if_run(name: str) -> Optional[float]:
            """``None`` when the workload never entered the span."""
            return ms(name) if name in totals else None

        def per_phase(name: str, field: str) -> float:
            return totals[name][field] / phases

        def ratio(num: float, den: float) -> Optional[float]:
            return num / den if den else None

        connected = totals["session.query_connected"]
        links = totals["euler.batch_link"]
        groups = totals["sketch.query_groups"]
        phase_ms = ms("session.apply_batch")
        return {
            "session.self_ms": ms("session.apply_batch", "self_ns"),
            "session.validate_ms": ms("session.validate"),
            "session.route_ms": ms("session.route"),
            "session.query_connected_us": ratio(
                connected["ns"] / 1e3, connected["calls"]),
            "session.query_forest_ms": ms("session.query_forest"),
            "session.query_matching_ms": ms_if_run(
                "session.query_matching"),
            "session.checkpoint_s": self.span_seconds("session.checkpoint"),
            "session.restore_s": self.span_seconds("session.restore"),
            "core.connectivity.apply_ms": ms("core.connectivity.apply"),
            "core.connectivity.self_ms": ms("core.connectivity.apply",
                                            "self_ns"),
            "core.bipartiteness.apply_ms": ms_if_run(
                "core.bipartiteness.apply"),
            "core.matching.apply_ms": ms_if_run("core.matching.apply"),
            "core.components.relabel_ms": ms("core.components.relabel"),
            "euler.batch_link_ms": ms("euler.batch_link"),
            "euler.batch_cut_ms": ms("euler.batch_cut"),
            "euler.links": per_phase("euler.batch_link", "edges"),
            "euler.cuts": per_phase("euler.batch_cut", "edges"),
            "euler.link_us_per_edge": ratio(links["ns"] / 1e3,
                                            links["edges"]),
            "sketch.apply_updates_ms": ms("sketch.apply_updates"),
            "sketch.apply_updates_self_ms": ms("sketch.apply_updates",
                                               "self_ns"),
            "sketch.query_groups_ms": ms("sketch.query_groups"),
            "sketch.zero_groups_ms": ms("sketch.zero_groups"),
            "sketch.groups": per_phase("sketch.query_groups", "groups"),
            "sketch.group_rows": per_phase("sketch.query_groups",
                                           "group_rows"),
            "sketch.sampler_hit_ratio": ratio(groups["recovered"],
                                              groups["nonzero_groups"]),
            "mpc.backend.scatter_ms": ms("mpc.backend.scatter"),
            "mpc.backend.query_groups_ms": ms("mpc.backend.query_groups"),
            "mpc.backend.zero_groups_ms": ms("mpc.backend.zero_groups"),
            "mpc.simulator.charge_ms": ms("mpc.simulator.charge"),
            "trace.unattributed_frac": ratio(
                ms("session.apply_batch", "self_ns"), phase_ms),
        }

    def budget(self, phases: int) -> List[Dict[str, object]]:
        """"Where the time goes": self time per layer, largest first."""
        totals = self.totals(phases)
        phase_ns = totals["session.apply_batch"]["ns"]
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for name, row in totals.items():
            if name.startswith("session.query"):
                continue  # query rounds sit between phases, not in them
            layer = rows[layer_of(name)]
            layer["self_ns"] += row["self_ns"]
            layer["calls"] += row["calls"]
        return sorted(
            ({"layer": layer,
              "self_ms_per_phase": row["self_ns"] / 1e6 / phases,
              "share_of_phase": row["self_ns"] / phase_ns,
              "calls_per_phase": row["calls"] / phases}
             for layer, row in rows.items()),
            key=lambda row: -row["self_ms_per_phase"])

    def write_chrome(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
        events = [
            {"name": span[NAME], "cat": layer_of(span[NAME]), "ph": "X",
             "ts": span[START] / 1e3, "dur": (span[END] - span[START]) / 1e3,
             "pid": 1, "tid": 1,
             "args": {"id": index, "parent": span[PARENT],
                      "phase": span[PHASE], **(span[COUNTS] or {})}}
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def profile_layers(before: Dict[str, int], after: Dict[str, int],
                   phases: int, fleet: bool) -> Dict[str, Optional[float]]:
    """Per-layer metrics from ``repro.kernels.profile.counters()`` taken
    before and after the timed phases.

    Under the fleet the kernels run in the workers, whose counters the
    parent cannot see: those metrics are ``None``, not 0.  The dispatch
    sections exist only under the fleet.
    """
    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    out: Dict[str, Optional[float]] = {}
    for kernel in KERNELS:
        key = f"kernel.{kernel}"
        out[f"kernels.{kernel}_ms"] = (
            None if fleet else delta(f"{key}_ns") / 1e6 / phases)
        out[f"kernels.{kernel}_calls"] = (
            None if fleet else delta(f"{key}_calls") / phases)
    for section in ("exchange", "ring_pack", "shard"):
        out[f"mpc.backend.{section}_ms"] = (
            delta(f"backend.{section}_ns") / 1e6 / phases
            if fleet else None)
    return out
