"""Span tracing for redundant executions.

A :class:`Tracer` records nested :class:`Span` objects — the telemetry
backbone of the framework.  The canonical span vocabulary mirrors the
lifecycle of a redundant request:

* ``technique.execute`` — one request through a technique facade;
* ``pattern.execute`` — one invocation of a Figure-1 pattern engine;
* ``unit.run`` — one redundant alternative executing (attribute
  ``cost`` carries its virtual execution cost);
* ``adjudicate`` — one adjudication (attribute ``cost`` carries the
  adjudication cost);
* ``recover`` — a recovery action (rollback, reboot, rejuvenation;
  attribute ``kind`` names it).

Timestamps come from whatever clock the owning
:class:`~repro.observe.telemetry.Telemetry` is bound to — normally the
virtual clock of a :class:`~repro.environment.simenv.SimEnvironment`,
so span durations are expressed in the same virtual time units as every
cost in the framework.  Spans additionally carry a monotonic sequence
number so ordering is stable even when the clock does not advance.

Exports: :meth:`Tracer.export_jsonl` (one JSON object per span, machine
readable) and :meth:`Tracer.timeline` (indented human-readable tree).
The :mod:`repro.observe.export` package adds Chrome trace-event JSON
(loadable in Perfetto / ``chrome://tracing``).

Cross-process aggregation: :meth:`Tracer.snapshot` freezes the recorded
spans into a picklable document and :meth:`Tracer.merge` appends such a
document to another tracer, renumbering span ids and sequence numbers
past the receiver's high-water mark so parent/child links survive and
the merged record reads exactly as if the spans had been recorded
locally in merge order.  Merging is associative; order follows merge
(i.e. submission) order by design — the parallel runtime merges chunk
snapshots in submission order so a pooled run reproduces the serial
trace byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional

#: Span statuses.
OK = "ok"
ERROR = "error"
REJECTED = "rejected"


@dataclasses.dataclass(init=False)
class Span:
    """One traced operation.

    Attributes:
        name: Span kind (see the module docstring vocabulary).
        span_id: Unique id within the owning tracer.
        parent_id: Enclosing span's id, or ``None`` for a root span.
        start: Virtual time at which the span opened.
        end: Virtual time at which it closed (``None`` while open).
        seq: Monotonic start order, stable even on a frozen clock.
        status: ``"ok"``, ``"error"`` or ``"rejected"``.
        attrs: Free-form attributes (``producer``, ``pattern``, ``cost``…).
    """

    # Written out (not ``dataclass(slots=True)``) to keep Python 3.9;
    # slots rule out class-level defaults, hence the explicit __init__.
    __slots__ = ("name", "span_id", "parent_id", "start", "end", "seq",
                 "status", "attrs")

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float]
    seq: int
    status: str
    attrs: Dict[str, Any]

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int] = None, start: float = 0.0,
                 end: Optional[float] = None, seq: int = 0,
                 status: str = OK,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.seq = seq
        self.status = status
        self.attrs = {} if attrs is None else attrs

    @property
    def duration(self) -> float:
        """Elapsed virtual time (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def cost(self) -> float:
        """The span's ``cost`` attribute as a float (0.0 when absent)."""
        return float(self.attrs.get("cost", 0.0) or 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (used by JSONL export)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "seq": self.seq,
            "status": self.status,
            "attrs": self.attrs,
        }


class _SpanContext:
    """What :meth:`Tracer.span` returns: opens the span on entry and
    finishes it on exit (a plain slotted object, cheaper to create and
    drive than a generator-based context manager)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = span = self._tracer.start(self._name, **self._attrs)
        return span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        span = self._span
        if exc_type is not None and span.status == OK:
            span.status = ERROR
        self._tracer.finish(span)
        return False


class Tracer:
    """Records spans with parent/child nesting.

    Args:
        now: Zero-argument callable returning the current (virtual)
            time.  Defaults to a constant 0.0 — sequence numbers still
            give a total order; bind a real virtual clock through the
            telemetry facade to get meaningful timestamps.
        capacity: Maximum number of retained spans; recording silently
            stops beyond it (the count keeps growing) so a runaway
            workload cannot exhaust memory.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None,
                 capacity: int = 100_000) -> None:
        self._now = now or (lambda: 0.0)
        self.capacity = capacity
        self.spans: List[Span] = []
        self.started = 0
        self._stack: List[Span] = []
        self._next_id = 1
        #: Optional single-slot hook called with every span as it
        #: closes (the flight recorder's tap).  Never part of
        #: :meth:`snapshot`, so it cannot affect merge byte-identity.
        self.on_finish: Optional[Callable[[Span], None]] = None

    # -- recording ---------------------------------------------------------

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span (nested under the innermost open span)."""
        stack = self._stack
        span = Span(name, self._next_id,
                    stack[-1].span_id if stack else None, self._now(),
                    None, self.started, OK, attrs)
        self._next_id += 1
        self.started += 1
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        stack.append(span)
        return span

    def finish(self, span: Span, status: Optional[str] = None) -> Span:
        """Close a span (and any child accidentally left open).

        A span that is not open — finished already, or never started
        here — leaves the stack alone and only gets an ``end`` if it
        has none.
        """
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            span.end = self._now()
        elif any(open_span is span for open_span in stack):
            while True:
                top = stack.pop()
                top.end = self._now()
                if top is span:
                    break
        elif span.end is None:
            span.end = self._now()
        if status is not None:
            span.status = status
        if self.on_finish is not None:
            self.on_finish(span)
        return span

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Context manager recording one span.

        An exception escaping the block marks the span ``"error"``
        (unless the block already set a status) and propagates.
        """
        return _SpanContext(self, name, attrs)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Freeze the recorded spans into a plain, picklable document."""
        return {
            "schema": "repro-trace-snapshot/v1",
            "spans": [span.to_dict() for span in self.spans],
            "started": self.started,
            "next_id": self._next_id,
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Append a :meth:`snapshot` document to this tracer.

        Span ids and sequence numbers are shifted past this tracer's
        high-water mark (parent/child links shift with them), so a
        parent that merges worker snapshots in submission order holds
        the same span record a serial run would have produced.  Spans
        beyond :attr:`capacity` are dropped exactly as live recording
        would drop them; ``started`` keeps the true count.
        """
        id_base = self._next_id - 1
        seq_base = self.started
        for row in snapshot["spans"]:
            if len(self.spans) >= self.capacity:
                break
            parent = row["parent_id"]
            self.spans.append(Span(
                name=row["name"],
                span_id=row["span_id"] + id_base,
                parent_id=None if parent is None else parent + id_base,
                start=row["start"], end=row["end"],
                seq=row["seq"] + seq_base,
                status=row["status"], attrs=dict(row["attrs"])))
        self._next_id += snapshot["next_id"] - 1
        self.started += snapshot["started"]

    # -- queries -----------------------------------------------------------

    def find(self, name: str, **attrs: Any) -> List[Span]:
        """Spans with this name whose attrs contain every given item."""
        return [s for s in self.spans
                if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total_cost(self, name: str, **attrs: Any) -> float:
        """Sum of the ``cost`` attribute over matching spans.

        Summation follows recording order, so totals are bit-identical
        to counters accumulated by the instrumented code itself.
        """
        total = 0.0
        for span in self.find(name, **attrs):
            total += span.cost
        return total

    # -- exports -----------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON object per recorded span, in start order."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True, default=str)
                         for s in self.spans)

    def timeline(self, limit: int = 200) -> str:
        """Human-readable indented span tree.

        Args:
            limit: Maximum number of lines (a trailing marker reports
                how many spans were elided).
        """
        depth: Dict[Optional[int], int] = {None: -1}
        lines = []
        for span in self.spans:
            depth[span.span_id] = depth.get(span.parent_id, -1) + 1
            if len(lines) >= limit:
                continue
            indent = "  " * depth[span.span_id]
            end = "…" if span.end is None else f"{span.end:g}"
            extras = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(f"[{span.start:g} → {end}] {indent}{span.name}"
                         f" ({span.status})" + (f" {extras}" if extras else ""))
        if len(self.spans) > limit:
            lines.append(f"… {len(self.spans) - limit} more spans")
        if self.started > len(self.spans):
            lines.append(f"… {self.started - len(self.spans)} spans dropped "
                         f"(capacity {self.capacity})")
        return "\n".join(lines)
