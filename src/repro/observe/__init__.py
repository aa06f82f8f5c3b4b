"""repro.observe — telemetry for every redundant execution.

The paper's central claims are accounting claims: N-version programming
pays N executions for a cheap implicit adjudicator, recovery blocks pay
the reverse, micro-reboots cost a fraction of full reboots.  This
package makes that accounting a first-class, zero-dependency subsystem
with three cooperating pieces:

* :mod:`~repro.observe.tracer` — nested spans
  (``technique.execute`` → ``pattern.execute`` → ``unit.run`` →
  ``adjudicate`` / ``recover``) with virtual-clock timestamps,
  exportable as JSONL or a human-readable timeline;
* :mod:`~repro.observe.metrics` — labelled counters, gauges and
  histograms with a Prometheus text dump;
* :mod:`~repro.observe.events` — a topic bus that patterns,
  techniques, the fault injector and the scheduler publish to, and
  monitors subscribe to.

On top of those sit :mod:`~repro.observe.sli` (sliding-window
per-technique health, the body of ``repro report``) and
:mod:`~repro.observe.export` (Chrome trace-event JSON, OpenMetrics
text, JSONL event logs).  All four pieces snapshot into picklable
documents and merge deterministically, which is how the parallel
runtime ships worker telemetry back to the parent session —
incrementally, when a :class:`~repro.observe.stream.TelemetryStream`
is attached (the ``repro campaign --live`` dashboard).  Every process
also keeps an always-on bounded flight recorder
(:mod:`~repro.observe.flightrec`) whose window is dumped on chunk
timeouts, serial retries and trial failures.

The default session is a disabled no-op whose cost at every
instrumentation site is a single attribute check, so existing
benchmark numbers are unchanged unless a session is installed::

    from repro import observe

    with observe.session() as tel:
        nvp.execute(7, env=env)
    print(tel.tracer.timeline())
"""

from repro.observe.events import Event, EventBus, Subscription
from repro.observe.flightrec import FlightRecorder
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.sli import SliMonitor, parse_report
from repro.observe.stream import (
    LiveDashboard,
    StreamCollector,
    TelemetryStream,
)
from repro.observe.telemetry import (
    Telemetry,
    current,
    disable,
    enabled,
    install,
    local_session,
    session,
)
from repro.observe.tracer import Span, Tracer

__all__ = [
    "Counter",
    "Event",
    "EventBus",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LiveDashboard",
    "MetricsRegistry",
    "SliMonitor",
    "Span",
    "StreamCollector",
    "Subscription",
    "Telemetry",
    "TelemetryStream",
    "Tracer",
    "current",
    "disable",
    "enabled",
    "install",
    "local_session",
    "parse_report",
    "session",
]
