"""A simulated message scheduler.

Concurrency-dependent Heisenbugs manifest only under particular message
interleavings or process priorities.  RX's perturbations include "shuffled
message orders" and "modified process priority"; this scheduler makes both
meaningful: delivery order is a deterministic function of (arrival order,
ordering policy, priorities, seed), so changing the policy or the seed
re-executes the same workload under a genuinely different interleaving.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional

from repro.observe import current as _telemetry

FIFO = "fifo"
SHUFFLE = "shuffle"
PRIORITY = "priority"

_POLICIES = (FIFO, SHUFFLE, PRIORITY)


@dataclasses.dataclass(frozen=True)
class Message:
    """A unit of scheduled work.

    Attributes:
        sender: Originating component name.
        payload: Opaque content.
        seq: Arrival sequence number (assigned by the scheduler).
        priority: Higher delivers earlier under the ``priority`` policy.
    """

    sender: str
    payload: Any
    seq: int = 0
    priority: int = 0


class MessageScheduler:
    """Deterministic, policy-driven delivery ordering."""

    def __init__(self, policy: str = FIFO, seed: int = 0) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {_POLICIES}")
        self.policy = policy
        self.seed = seed
        self._queue: List[Message] = []
        self._seq = 0
        #: Priority overrides per sender (RX 'modified process priority').
        self._priorities: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def set_priority(self, sender: str, priority: int) -> None:
        """Override the priority of every queued/future message of a sender."""
        self._priorities[sender] = priority

    def submit(self, sender: str, payload: Any, priority: int = 0) -> Message:
        """Enqueue a message; returns the stamped message."""
        priority = self._priorities.get(sender, priority)
        message = Message(sender=sender, payload=payload, seq=self._seq,
                          priority=priority)
        self._seq += 1
        self._queue.append(message)
        return message

    def delivery_order(self) -> List[Message]:
        """The order in which currently queued messages will deliver."""
        if self.policy == FIFO:
            return sorted(self._queue, key=lambda m: m.seq)
        if self.policy == PRIORITY:
            return sorted(self._queue,
                          key=lambda m: (-self._effective_priority(m), m.seq))
        # SHUFFLE: deterministic permutation from the seed.
        rng = random.Random(self.seed * 1_000_003 + len(self._queue))
        order = sorted(self._queue, key=lambda m: m.seq)
        rng.shuffle(order)
        return order

    def _effective_priority(self, message: Message) -> int:
        return self._priorities.get(message.sender, message.priority)

    def drain(self) -> List[Message]:
        """Deliver everything queued, in policy order, and empty the queue."""
        order = self.delivery_order()
        self._queue.clear()
        if order:
            tel = _telemetry()
            if tel.enabled:
                tel.publish("scheduler.delivered", count=len(order),
                            policy=self.policy)
                tel.metrics.inc("repro_messages_delivered_total",
                                len(order), policy=self.policy)
        return order

    def next(self) -> Optional[Message]:
        """Deliver the single next message, or None when idle."""
        if not self._queue:
            return None
        head = self.delivery_order()[0]
        self._queue.remove(head)
        tel = _telemetry()
        if tel.enabled:
            tel.publish("scheduler.delivered", count=1, policy=self.policy)
            tel.metrics.inc("repro_messages_delivered_total",
                            policy=self.policy)
        return head

    def perturb(self, new_policy: Optional[str] = None,
                new_seed: Optional[int] = None) -> None:
        """Change ordering policy and/or shuffle seed (RX perturbation)."""
        if new_policy is not None:
            if new_policy not in _POLICIES:
                raise ValueError(f"unknown policy {new_policy!r}")
            self.policy = new_policy
        if new_seed is not None:
            self.seed = new_seed
        tel = _telemetry()
        if tel.enabled:
            tel.bus.publish("scheduler.perturbed", policy=self.policy,
                            seed=self.seed)

    # -- snapshotting ----------------------------------------------------

    def capture(self) -> dict:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "seq": self._seq,
            "priorities": dict(self._priorities),
            "queue": [(m.sender, m.payload, m.seq, m.priority)
                      for m in self._queue],
        }

    def restore(self, state: dict) -> None:
        self.policy = state["policy"]
        self.seed = state["seed"]
        self._seq = state["seq"]
        self._priorities = dict(state["priorities"])
        self._queue = [Message(sender=s, payload=p, seq=q, priority=r)
                       for s, p, q, r in state["queue"]]
