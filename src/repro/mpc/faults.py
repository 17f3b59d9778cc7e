"""Deterministic fault injection for the shared-memory worker fleet.

The self-healing supervisor in :mod:`repro.mpc.backend` only earns its
keep if worker loss is *reproducible* in tests and CI.  This module
provides that: a :class:`FaultPlan` describes, ahead of time, exactly
which worker fails, how, and before which of its routed operations.
The backend consults the plan once per ``(worker, routed op)`` send --
control traffic (ping / attach / detach) is never faulted -- so a plan
replays identically run after run.

Fault kinds
-----------
``kill``
    The parent SIGKILLs the worker process immediately before sending
    it the op -- the literal ``kill -9`` of the acceptance criteria.
    The worker never sees the command, so retrying after a respawn is
    always safe, including for scatters.
``hang``
    A one-way ``("fault", "hang", seconds)`` command makes the worker
    sleep (without acknowledging) before it processes its next op,
    simulating a deadlocked shard.  With ``seconds`` above the call
    deadline the dispatch times out and the supervisor kills/respawns.
``delay``
    Same mechanism with a *short* sleep: the op completes late but
    within the deadline, exercising the slow-worker path with no
    recovery.
``drop``
    The worker executes its next routed op but swallows the ack.  The
    parent times out and must use the status-slot protocol to prove
    the op completed (a scatter must *not* be re-applied).
``truncate``
    The parent corrupts the packed ring-buffer record's header after
    writing it, so the worker's decoder rejects it as a transport
    desync.  Only meaningful for ring-transported descriptors; a
    descriptor that fell back to the pickled pipe path is delivered
    intact (the fault is consumed regardless).

Chaos mode
----------
``FaultPlan(chaos_every=N, chaos_seed=s)`` kills whichever worker is
being dispatched to on a pseudo-random schedule averaging one kill per
``N`` routed ops (seeded, hence deterministic per run).  CI's chaos job
runs the shared-memory tier-1 suite under exactly this plan via the
``REPRO_BACKEND_FAULTS`` environment variable.

Spec grammar (env / string form)
--------------------------------
``REPRO_BACKEND_FAULTS`` holds ``;``-separated entries::

    kill:w=1:n=3:op=apply      # kill worker 1 before its 3rd apply
    hang:w=0:n=2:s=300         # worker 0 sleeps 300s before op 2
    drop:w=1:n=1:op=apply      # swallow the ack of worker 1's next apply
    truncate:w=0:n=5           # corrupt worker 0's 5th ring record
    kill:w=1:n=1:repeat=1      # kill worker 1 on *every* op (degrade)
    chaos:kill:every=400:seed=0

Like every ``REPRO_BACKEND*`` knob, the spec is validated at read time:
garbage raises :class:`~repro.errors.SketchError` naming the variable
instead of detonating mid-dispatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SketchError
from repro.mpc.config import read_env

#: Environment switch: a fault-plan spec applied to every
#: SharedMemoryBackend constructed without an explicit ``faults=``.
ENV_FAULTS = "REPRO_BACKEND_FAULTS"

#: Fault kinds the backend knows how to inject.
KINDS = ("kill", "hang", "delay", "drop", "truncate")

#: Routed op names a fault may filter on (the backend wire ops).
ROUTED_OPS = ("apply", "gquery", "gzero")


@dataclass(frozen=True)
class Fault:
    """One planned failure of one worker.

    ``nth`` counts that worker's routed-op *sends* (1-based, retries
    included), optionally restricted to ops named ``op``; the fault
    fires on the first eligible send at or after the count.  One-shot
    by default; ``repeat`` re-arms it on every eligible send (how tests
    force retry exhaustion and graceful degradation).
    """

    kind: str
    worker: int
    nth: int = 1
    op: Optional[str] = None
    seconds: float = 0.0
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SketchError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{list(KINDS)}"
            )
        if self.worker < 0:
            raise SketchError("fault worker id must be >= 0")
        if self.nth < 1:
            raise SketchError("fault nth is 1-based and must be >= 1")
        if self.op is not None and self.op not in ROUTED_OPS:
            raise SketchError(
                f"unknown routed op {self.op!r}; expected one of "
                f"{list(ROUTED_OPS)}"
            )
        if self.seconds < 0:
            raise SketchError("fault seconds must be >= 0")


class FaultPlan:
    """A deterministic schedule of worker faults.

    The backend calls :meth:`draw` exactly once per routed-op send (in
    worker-id order within a fan-out, so runs replay identically) and
    injects whatever comes back.  Explicit faults take priority over
    the chaos schedule.
    """

    def __init__(self, faults: "Tuple[Fault, ...] | List[Fault]" = (),
                 chaos_every: int = 0, chaos_seed: int = 0,
                 chaos_kind: str = "kill"):
        if chaos_every < 0:
            raise SketchError("chaos_every must be >= 0 (0 disables)")
        if chaos_kind not in KINDS:
            raise SketchError(
                f"unknown chaos fault kind {chaos_kind!r}"
            )
        self._armed: List[Fault] = list(faults)
        self.chaos_every = int(chaos_every)
        self.chaos_seed = int(chaos_seed)
        self.chaos_kind = chaos_kind
        self._rng = random.Random(chaos_seed)
        self._per_worker: dict = {}
        self._global = 0
        self._next_chaos = (self._draw_gap() if self.chaos_every else 0)
        #: Log of fired faults: ``(worker, worker_op_index, op, kind)``.
        self.fired: List[Tuple[int, int, str, str]] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def kill_before(cls, worker: int, nth: int = 1,
                    op: Optional[str] = None) -> "FaultPlan":
        """Plan one SIGKILL of ``worker`` before its ``nth`` routed op."""
        return cls(faults=[Fault("kill", worker, nth=nth, op=op)])

    @classmethod
    def kill_always(cls, worker: int) -> "FaultPlan":
        """Kill ``worker`` on every send: exhausts retries, forcing the
        backend to degrade to the in-process sequential cores."""
        return cls(faults=[Fault("kill", worker, repeat=True)])

    @classmethod
    def parse(cls, spec: Optional[str],
              source: str = ENV_FAULTS) -> Optional["FaultPlan"]:
        """Build a plan from the spec grammar; ``None`` when unset/empty.

        Garbage raises :class:`~repro.errors.SketchError` naming
        ``source`` (the env variable, by default) at read time.
        """
        if spec is None or not spec.strip():
            return None
        faults: List[Fault] = []
        chaos_every = 0
        chaos_seed = 0
        chaos_kind = "kill"

        def bad(detail: str) -> SketchError:
            return SketchError(
                f"invalid {source}={spec!r}: {detail}"
            )

        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            parts = [p.strip() for p in entry.split(":")]
            kind = parts[0]
            if kind == "chaos":
                rest = parts[1:]
                if rest and "=" not in rest[0]:
                    chaos_kind = rest.pop(0)
                    if chaos_kind not in KINDS:
                        raise bad(f"unknown chaos kind {chaos_kind!r}")
                settings = dict(
                    _split_kv(kv, bad) for kv in rest
                )
                unknown = set(settings) - {"every", "seed"}
                if unknown:
                    raise bad(f"unknown chaos settings {sorted(unknown)}")
                chaos_every = _as_int(settings.get("every"), "every",
                                      bad, minimum=1, default=None)
                if chaos_every is None:
                    raise bad("chaos needs every=<N>")
                chaos_seed = _as_int(settings.get("seed"), "seed", bad,
                                     minimum=0, default=0)
                continue
            if kind not in KINDS:
                raise bad(f"unknown fault kind {kind!r}")
            settings = dict(_split_kv(kv, bad) for kv in parts[1:])
            unknown = set(settings) - {"w", "n", "op", "s", "repeat"}
            if unknown:
                raise bad(f"unknown settings {sorted(unknown)}")
            worker = _as_int(settings.get("w"), "w", bad, minimum=0,
                             default=None)
            if worker is None:
                raise bad(f"{kind} needs w=<worker id>")
            op = settings.get("op")
            if op is not None and op not in ROUTED_OPS:
                raise bad(f"unknown routed op {op!r}")
            try:
                fault = Fault(
                    kind=kind, worker=worker,
                    nth=_as_int(settings.get("n"), "n", bad, minimum=1,
                                default=1),
                    op=op,
                    seconds=_as_float(settings.get("s"), "s", bad),
                    repeat=bool(_as_int(settings.get("repeat"), "repeat",
                                        bad, minimum=0, default=0)),
                )
            except SketchError as exc:
                raise bad(str(exc)) from None
            faults.append(fault)
        if not faults and not chaos_every:
            return None
        return cls(faults=faults, chaos_every=chaos_every,
                   chaos_seed=chaos_seed, chaos_kind=chaos_kind)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_BACKEND_FAULTS`` (validated now)."""
        return cls.parse(read_env(ENV_FAULTS))

    # -- the draw -------------------------------------------------------
    def _draw_gap(self) -> int:
        """Next chaos firing point: jittered around ``chaos_every`` so a
        fixed-stride workload cannot systematically dodge the schedule,
        while the seeded generator keeps runs reproducible."""
        lo = max(1, self.chaos_every // 2)
        hi = max(lo, (3 * self.chaos_every) // 2)
        return self._rng.randint(lo, hi)

    def draw(self, worker: int, op: str) -> Optional[Fault]:
        """The fault (if any) to inject before this send.

        Must be called exactly once per routed-op send, in a
        deterministic order; each call advances the per-worker and
        global op counters the schedule is keyed on.
        """
        n = self._per_worker.get(worker, 0) + 1
        self._per_worker[worker] = n
        self._global += 1
        for fault in list(self._armed):
            if (fault.worker == worker and n >= fault.nth
                    and (fault.op is None or fault.op == op)):
                if not fault.repeat:
                    self._armed.remove(fault)
                self.fired.append((worker, n, op, fault.kind))
                return fault
        if self.chaos_every and self._global >= self._next_chaos:
            self._next_chaos = self._global + self._draw_gap()
            self.fired.append((worker, n, op, self.chaos_kind))
            return Fault(self.chaos_kind, worker, nth=n, seconds=0.0)
        return None

    @property
    def exhausted(self) -> bool:
        """True when no one-shot fault remains armed (chaos never is)."""
        return not self._armed and not self.chaos_every

    def __repr__(self) -> str:
        bits = [f"{len(self._armed)} armed", f"{len(self.fired)} fired"]
        if self.chaos_every:
            bits.append(f"chaos:{self.chaos_kind}/{self.chaos_every}")
        return f"FaultPlan({', '.join(bits)})"


def _split_kv(kv: str, bad) -> Tuple[str, str]:
    if "=" not in kv:
        raise bad(f"expected key=value, got {kv!r}")
    key, _, value = kv.partition("=")
    return key.strip(), value.strip()


def _as_int(raw: Optional[str], key: str, bad, minimum: int,
            default: Optional[int]) -> Optional[int]:
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise bad(f"{key}={raw!r} is not an integer") from None
    if value < minimum:
        raise bad(f"{key}={raw!r} must be >= {minimum}")
    return value


def _as_float(raw: Optional[str], key: str, bad,
              default: float = 0.0) -> float:
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise bad(f"{key}={raw!r} is not a number") from None
    if not value >= 0:
        raise bad(f"{key}={raw!r} must be >= 0")
    return value
