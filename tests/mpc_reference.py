"""The message-passing reference for the MPC ledger.

:class:`~repro.mpc.simulator.Cluster` charges every primitive's rounds
in closed form and materialises no machine or message.  This module is
the real execution those charges describe: :func:`exchange` delivers
:class:`Message` objects between machines in one synchronous round,
enforcing the model's per-machine send/receive budget of ``s`` words
(paper, Section 1.2: "the total messages sent or received by each
machine in each round should not exceed its memory"), and the
primitives on top of it -- fanout trees for broadcast/aggregation and
one level of sample sort for [GSZ11]-style constant-round sorting --
move actual data through it.  ``tests/test_mpc_primitives.py`` asserts
measured == charged for each of them.

Run its checks with ``PYTHONPATH=src python -m pytest
tests/test_mpc_primitives.py tests/test_mpc_simulator.py -q``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    TypeVar)

from repro.mpc.simulator import Cluster

T = TypeVar("T")


@dataclass
class Message:
    """A point-to-point message for one synchronous round.

    ``words`` is the accounting size; payloads are arbitrary Python
    values (the reference never serialises them, it only counts words).
    """

    src: int
    dst: int
    payload: Any
    words: int = 1

    def __post_init__(self) -> None:
        if self.words < 0:
            raise ValueError("message size must be non-negative")


def exchange(cluster: Cluster,
             messages: Iterable[Message]) -> Dict[int, List[Message]]:
    """Deliver ``messages`` in one synchronous round on ``cluster``.

    Returns the inbox of each destination machine.  Charges one
    ``exchange`` round and the traffic to the cluster's ledger, and
    checks per-machine send and receive word totals against ``s``
    through the cluster's own budget check, so violations either raise
    (strict mode) or are recorded in the ledger.
    """
    sent_words: Dict[int, int] = {}
    recv_words: Dict[int, int] = {}
    inboxes: Dict[int, List[Message]] = {}
    count = 0
    words = 0
    for msg in messages:
        if not (0 <= msg.src < cluster.num_machines):
            raise ValueError(f"bad source machine {msg.src}")
        if not (0 <= msg.dst < cluster.num_machines):
            raise ValueError(f"bad destination machine {msg.dst}")
        sent_words[msg.src] = sent_words.get(msg.src, 0) + msg.words
        recv_words[msg.dst] = recv_words.get(msg.dst, 0) + msg.words
        inboxes.setdefault(msg.dst, []).append(msg)
        count += 1
        words += msg.words

    cluster.metrics.charge_rounds(1, "exchange")
    cluster.metrics.charge_traffic(count, words)
    for mid, used in sent_words.items():
        cluster._check_budget(mid, used, "send")
    for mid, used in recv_words.items():
        cluster._check_budget(mid, used, "recv")
    return inboxes


def broadcast_value(
    cluster: Cluster, value: Any, words: int = 1, root: int = 0
) -> List[Any]:
    """Disseminate ``value`` from ``root`` to every machine.

    Uses a fanout tree where each informed machine informs ``fanout - 1``
    new machines per round, so the number of informed machines multiplies
    by ``fanout`` each round and the depth is ``ceil(log_fanout M)`` --
    exactly :func:`~repro.mpc.simulator.tree_depth`.

    Returns the per-machine received values (index = machine id).
    """
    num = cluster.num_machines
    received: List[Any] = [None] * num
    received[root] = value
    if num == 1:
        return received

    fanout = cluster.config.fanout(words)
    # Order machines with the root first; inform them in blocks.
    order = [root] + [m for m in range(num) if m != root]
    informed = 1
    while informed < num:
        messages = []
        senders = order[:informed]
        new_count = min(informed * (fanout - 1), num - informed)
        targets = order[informed:informed + new_count]
        for idx, dst in enumerate(targets):
            src = senders[idx // (fanout - 1)]
            messages.append(Message(src=src, dst=dst, payload=value, words=words))
        inboxes = exchange(cluster, messages)
        for dst, msgs in inboxes.items():
            received[dst] = msgs[-1].payload
        informed += new_count
    return received


def converge_cast(
    cluster: Cluster,
    per_machine: Sequence[Any],
    combine: Callable[[Any, Any], Any],
    words: int = 1,
    root: int = 0,
) -> Any:
    """Aggregate one value per machine down to ``root`` with ``combine``.

    The aggregation tree mirrors the broadcast tree: in each round the
    active machines are grouped into blocks of ``fanout`` and every
    non-leader sends its running aggregate to the block leader.  Depth is
    ``ceil(log_fanout M)``.  ``combine`` must be associative and is
    applied in machine-id order, so non-commutative combines (e.g. list
    concatenation for gathers) behave deterministically.
    """
    num = cluster.num_machines
    if len(per_machine) != num:
        raise ValueError("need exactly one value per machine")
    if num == 1:
        return per_machine[0]

    fanout = cluster.config.fanout(words)
    values: Dict[int, Any] = {m: per_machine[m] for m in range(num)}
    # Keep machine-id order within blocks for deterministic combining,
    # but ensure the root ends up the final survivor.
    active = [root] + sorted(m for m in range(num) if m != root)
    while len(active) > 1:
        messages = []
        survivors = []
        for block_start in range(0, len(active), fanout):
            block = active[block_start:block_start + fanout]
            leader = block[0]
            survivors.append(leader)
            for member in block[1:]:
                messages.append(
                    Message(src=member, dst=leader,
                            payload=values.pop(member), words=words)
                )
        inboxes = exchange(cluster, messages)
        for leader, msgs in inboxes.items():
            for msg in sorted(msgs, key=lambda m: m.src):
                values[leader] = combine(values[leader], msg.payload)
        active = survivors
    return values[active[0]]


def gather_to_root(
    cluster: Cluster,
    per_machine: Sequence[List[T]],
    words_per_item: int = 1,
    root: int = 0,
) -> List[T]:
    """Concatenate per-machine lists onto ``root`` (order by machine id).

    This is the "move all update requests to a dedicated single machine"
    preprocessing step (paper, Section 1.2); it is only legal when the
    result fits in local memory, which :func:`exchange` checks.
    """
    def combine(acc: List[T], more: List[T]) -> List[T]:
        return acc + more

    sized = [list(items) for items in per_machine]
    total = sum(len(items) for items in sized)
    words = max(1, words_per_item * max(1, total // max(1, cluster.num_machines)))
    return converge_cast(cluster, sized, combine, words=words, root=root)


def distributed_sort(
    cluster: Cluster,
    per_machine: Sequence[List[T]],
    key: Optional[Callable[[T], Any]] = None,
) -> List[List[T]]:
    """Sample sort across machines ([GSZ11], constant rounds).

    Phases: (1) free local sort; (2) converge-cast evenly spaced local
    samples to machine 0; (3) broadcast the chosen splitters; (4) one
    all-to-all routing round; (5) free local sort.  Total rounds:
    ``2 * depth + 1`` where ``depth = tree_depth(M, fanout)`` -- the same
    figure :meth:`Cluster.charge_sort` charges.

    Returns the new per-machine lists; concatenating them in machine-id
    order yields the globally sorted sequence.
    """
    num = cluster.num_machines
    keyf: Callable[[T], Any] = key if key is not None else (lambda x: x)

    locally_sorted = [sorted(items, key=keyf) for items in per_machine]
    if num == 1:
        cluster.charge_local("sort")
        return locally_sorted

    # Phase 2: sample gathering.  Each machine contributes <= num samples.
    samples_per_machine: List[List[Any]] = []
    for items in locally_sorted:
        if not items:
            samples_per_machine.append([])
            continue
        step = max(1, len(items) // num)
        samples_per_machine.append([keyf(x) for x in items[::step][:num]])
    all_samples = converge_cast(
        cluster, samples_per_machine, lambda a, b: a + b, words=max(1, num)
    )

    # Machine 0 picks num-1 splitters from the pooled samples.  The
    # splitter message is padded to ``num`` words so the broadcast tree
    # has the same fanout as the sample converge-cast (and the measured
    # depth matches charge_sort exactly).
    pooled = sorted(all_samples)
    splitters: List[Any] = []
    if pooled:
        for i in range(1, num):
            splitters.append(pooled[min(len(pooled) - 1,
                                        i * len(pooled) // num)])
    broadcast_value(cluster, splitters, words=max(1, num))

    # Phase 4: route every item to its splitter bucket.
    messages = []
    for src, items in enumerate(locally_sorted):
        for item in items:
            dst = bisect.bisect_right(splitters, keyf(item))
            messages.append(Message(src=src, dst=dst, payload=item, words=1))
    inboxes = exchange(cluster, messages)

    result: List[List[T]] = [[] for _ in range(num)]
    for dst, msgs in inboxes.items():
        result[dst] = sorted((m.payload for m in msgs), key=keyf)
    return result


def distributed_sort_flat(
    cluster: Cluster, items: Sequence[T],
    key: Optional[Callable[[T], Any]] = None,
) -> List[T]:
    """Convenience wrapper: scatter ``items`` round-robin, sort, flatten."""
    num = cluster.num_machines
    per_machine: List[List[T]] = [[] for _ in range(num)]
    for idx, item in enumerate(items):
        per_machine[idx % num].append(item)
    sorted_parts = distributed_sort(cluster, per_machine, key=key)
    flat: List[T] = []
    for part in sorted_parts:
        flat.extend(part)
    return flat
