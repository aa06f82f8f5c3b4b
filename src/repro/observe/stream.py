"""Delta-snapshot telemetry streaming (``repro-delta/v1``).

The snapshot/merge protocol of PR 4 ships a worker chunk's telemetry
home **once, at the end of the chunk** — correct, byte-identical, and
completely blind while the chunk runs.  This module makes the same
telemetry *stream*: a worker emits **incremental snapshots** (deltas)
every few items, each delta covering exactly the telemetry produced
since the previous one, and the parent folds them with the very same
commutative merge algebra.

The trick that keeps byte-identity is *partitioning*: after each
emission the worker session is :meth:`~repro.observe.telemetry.
Telemetry.reset` (same clock object, fresh tracer/metrics/bus), so the
sequence of deltas is a partition of the session's content.  Because
counters and histogram tallies add, gauges merge as accumulated
deltas, span ids/seqs renumber cumulatively and event seqs shift
cumulatively, folding the deltas **in emission order** into any
receiver produces byte-for-byte the state that merging one
whole-chunk snapshot would have — the property
``tests/unit/test_stream.py`` pins across all three pool backends.
(The one PR 4 caveat carries over: a ``set()``-style gauge merges as a
net delta; no framework series uses one.)

Two consumers fold the same stream:

* the **canonical session** — :class:`~repro.runtime.pmap.ParallelMap`
  takes each chunk's deltas at gather time and folds them in
  submission order, replacing the merge-at-end snapshot 1:1;
* an optional **live view** — a second Telemetry folded in *arrival*
  order by the collector's drain thread, feeding the ``repro campaign
  --live`` dashboard while chunks are still in flight.  The live view is
  advisory (arrival order is nondeterministic; a dropped chunk's
  deltas may already be in it); the canonical session is the one whose
  byte-identity is proven, so final dashboards report from it.

Transport is queue-shaped and backend-matched: a
``multiprocessing.Manager().Queue()`` proxy for the process backend
(picklable through executor submission, unlike a raw
``multiprocessing.Queue``), a plain ``queue.SimpleQueue`` for threads,
and a direct function call for serial runs.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import queue as _queue
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.observe.sli import SCHEMAS as _SLI_SCHEMAS

__all__ = ["DELTA_SCHEMA", "FRAME_SCHEMA", "make_delta", "validate_delta",
           "StreamCollector", "TelemetryStream", "LiveDashboard",
           "validate_frame", "shutdown_stream_manager"]

#: Schema tag of one streamed delta document.
DELTA_SCHEMA = "repro-delta/v1"

#: Schema tag of one live-dashboard frame (``repro campaign --live
#: --format json``).
FRAME_SCHEMA = "repro-top-frame/v1"

#: Default items per delta emission.
DEFAULT_EVERY = 8

#: How long (real seconds) a gather may wait for in-transit deltas of a
#: successfully completed chunk before declaring the stream wedged.
#: The worker finished *after* its last ``put`` returned, so the
#: deltas are in the channel; this bounds a lost drain thread, not a
#: slow chunk.
TAKE_TIMEOUT = 60.0

#: Keys every delta document must carry.
_DELTA_KEYS = frozenset(("schema", "origin", "seq", "final", "snapshot"))


def make_delta(origin: Any, seq: int, snapshot: Dict[str, Any],
               final: bool = False) -> Dict[str, Any]:
    """One ``repro-delta/v1`` document.

    Args:
        origin: Emitting chunk's identity (the runtime uses
            ``(epoch, chunk_index)`` tuples).
        seq: Emission index within the origin, starting at 0; folding
            in ``seq`` order is the byte-identity contract.
        snapshot: A :meth:`~repro.observe.telemetry.Telemetry.snapshot`
            document covering everything since the previous emission.
        final: True on the origin's last delta (emitted just before
            the chunk returns).
    """
    return {"schema": DELTA_SCHEMA, "origin": origin, "seq": seq,
            "final": final, "snapshot": snapshot}


def validate_delta(document: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` unless ``document`` is a well-formed
    delta."""
    if not isinstance(document, dict) or \
            document.get("schema") != DELTA_SCHEMA:
        raise ValueError(f"not a {DELTA_SCHEMA} document: "
                         f"{document!r:.120}")
    missing = _DELTA_KEYS - set(document)
    if missing:
        raise ValueError(f"delta is missing keys {sorted(missing)}")
    snapshot = document["snapshot"]
    if not isinstance(snapshot, dict) or \
            snapshot.get("schema") != "repro-telemetry-snapshot/v1":
        raise ValueError("delta snapshot must be a "
                         "repro-telemetry-snapshot/v1 document")
    if not isinstance(document["seq"], int) or document["seq"] < 0:
        raise ValueError("delta seq must be a non-negative integer")


class _DirectSink:
    """Serial-run transport: ``put`` offers straight to the collector."""

    def __init__(self, collector: "StreamCollector") -> None:
        self._collector = collector

    def put(self, delta: Dict[str, Any]) -> None:
        self._collector.offer(delta)


class StreamCollector:
    """Parent-side intake: buffers deltas per origin, folds a live view.

    Thread-safe.  :meth:`offer` is called by the drain thread (or
    inline on serial runs) for every arriving delta: the delta is
    validated, folded into the optional live view in arrival order,
    and buffered under its origin in ``seq`` order.  The runtime then
    either :meth:`take`\\ s an origin's buffer (successful chunk — the
    deltas join the canonical session in submission order) or
    :meth:`discard`\\ s it (timeout / failure — the chunk re-runs
    serially and its deltas must not double-count).
    """

    def __init__(self, live: Optional[Any] = None) -> None:
        #: Optional live-view Telemetry, folded in arrival order.
        self.live = live
        # Reentrant: dashboards snapshot frames under locked() while
        # the frame builder calls stats() on the same collector.
        self._lock = threading.RLock()
        self._ready = threading.Condition(self._lock)
        self._buffers: Dict[Any, List[Dict[str, Any]]] = {}
        self._abandoned: set = set()
        #: Tallies (all-time for this collector).
        self.received = 0
        self.folded_live = 0
        self.dropped = 0
        self.invalid = 0

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the intake lock (dashboard reads of the live view)."""
        with self._lock:
            yield

    def offer(self, delta: Dict[str, Any]) -> None:
        """Fold one arriving delta into the live view and buffer it."""
        try:
            validate_delta(delta)
        except ValueError:
            with self._lock:
                self.invalid += 1
            return
        with self._ready:
            self.received += 1
            if self.live is not None:
                self.live.merge(delta["snapshot"])
                self.folded_live += 1
            origin = _origin_key(delta["origin"])
            if origin in self._abandoned:
                self.dropped += 1
            else:
                self._buffers.setdefault(origin, []).append(delta)
                self._ready.notify_all()

    def take(self, origin: Any, count: int,
             timeout: float = TAKE_TIMEOUT) -> List[Dict[str, Any]]:
        """All ``count`` deltas of ``origin``, in emission order.

        Blocks until the drain thread has received them (the emitting
        chunk completed only after its last ``put`` returned, so they
        are in transit at worst).  Raises :class:`RuntimeError` if the
        stream fails to deliver within ``timeout`` — losing deltas
        silently would break the byte-identity contract.
        """
        key = _origin_key(origin)
        with self._ready:
            ok = self._ready.wait_for(
                lambda: len(self._buffers.get(key, ())) >= count,
                timeout=timeout)
            if not ok:
                have = len(self._buffers.get(key, ()))
                raise RuntimeError(
                    f"telemetry stream wedged: origin {origin!r} "
                    f"delivered {have}/{count} deltas "
                    f"within {timeout}s")
            deltas = self._buffers.pop(key)
        deltas.sort(key=lambda d: d["seq"])
        return deltas

    def discard(self, origin: Any) -> int:
        """Drop an origin's buffered deltas (failed/timed-out chunk).

        Late arrivals for the origin are dropped on :meth:`offer`.
        Returns how many buffered deltas were discarded now.
        """
        key = _origin_key(origin)
        with self._lock:
            dropped = len(self._buffers.pop(key, ()))
            self.dropped += dropped
            self._abandoned.add(key)
        return dropped

    def pending(self) -> int:
        """Buffered deltas not yet taken."""
        with self._lock:
            return sum(len(buffer) for buffer in self._buffers.values())

    def stats(self) -> Dict[str, int]:
        """JSON-friendly tallies for dashboards and tests."""
        with self._lock:
            return {"received": self.received,
                    "folded_live": self.folded_live,
                    "dropped": self.dropped,
                    "invalid": self.invalid,
                    "pending": sum(len(buffer)
                                   for buffer in self._buffers.values())}


def _origin_key(origin: Any) -> Any:
    """Origins arrive through pickling transports: normalize lists
    (JSON round-trips, Manager proxies) back to hashable tuples."""
    return tuple(origin) if isinstance(origin, list) else origin


# -- the shared multiprocessing manager ----------------------------------

_manager: Optional[Any] = None
_manager_pid: Optional[int] = None
_manager_lock = threading.Lock()


def _get_manager() -> Any:
    """The process-wide ``multiprocessing.Manager`` for stream queues.

    Lazy — spawning a manager costs a process — and pid-guarded like
    the warm-pool registry: a forked child never talks to the parent's
    manager.  Torn down by :func:`shutdown_stream_manager` (``atexit``,
    and from :func:`repro.runtime.pool.shutdown_pools`).
    """
    global _manager, _manager_pid
    with _manager_lock:
        if _manager is None or _manager_pid != os.getpid():
            import multiprocessing

            _manager = multiprocessing.Manager()
            _manager_pid = os.getpid()
        return _manager


def shutdown_stream_manager() -> bool:
    """Shut the shared manager down; True when one was running."""
    global _manager, _manager_pid
    with _manager_lock:
        manager, _manager = _manager, None
        owned = _manager_pid == os.getpid()
        _manager_pid = None
    if manager is None or not owned:
        return False
    try:
        manager.shutdown()
    except Exception:  # pragma: no cover - teardown best-effort
        pass
    return True


atexit.register(shutdown_stream_manager)


#: Drain-queue poll granularity (seconds); bounds deactivate latency
#: when a sentinel and a straggler race.
_DRAIN_POLL = 0.25

#: Sentinel telling the drain thread to exit.
_STOP = None


class TelemetryStream:
    """Configuration + lifecycle of one delta stream.

    Pass one to :class:`~repro.runtime.pmap.ParallelMap` (or through
    ``Experiment``/``FaultCampaign`` ``stream=``) to stream worker
    telemetry while a map call runs::

        live = observe.Telemetry()
        stream = TelemetryStream(every=4, live=live)
        campaign = FaultCampaign(..., workers=4, stream=stream)
        campaign.run()          # live fills while cells execute

    Args:
        every: Items a worker executes between delta emissions (the
            chunk's tail always emits a final delta regardless).
        live: Optional live-view :class:`~repro.observe.telemetry.
            Telemetry`, folded in arrival order (see the module
            docstring for its advisory nature).

    The stream is reusable across map calls (each activation is an
    epoch; origins are ``(epoch, chunk_index)``, so stragglers of an
    abandoned epoch can never be mistaken for current deltas).
    """

    def __init__(self, every: int = DEFAULT_EVERY,
                 live: Optional[Any] = None) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every
        self.collector = StreamCollector(live=live)
        self._epoch = 0
        self._queue: Optional[Any] = None
        self._drainer: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    @property
    def live(self) -> Optional[Any]:
        """The live-view Telemetry (or ``None``)."""
        return self.collector.live

    # -- lifecycle (driven by ParallelMap.map) ---------------------------

    def activate(self, backend: str) -> Tuple[int, Any]:
        """Open the transport for one map call.

        Returns ``(epoch, sink)``: the epoch tags this call's origins;
        the sink is what workers ``put`` deltas into — a manager-queue
        proxy (process), a ``queue.SimpleQueue`` (thread), or a direct
        collector sink (serial).  Queue-backed transports get a drain
        thread feeding :meth:`StreamCollector.offer`.
        """
        with self._lock:
            if self._drainer is not None:
                raise RuntimeError("stream already active; one map call "
                                   "at a time per TelemetryStream")
            self._epoch += 1
            epoch = self._epoch
            if backend == "serial":
                return epoch, _DirectSink(self.collector)
            if backend == "process":
                self._queue = _get_manager().Queue()
            else:
                self._queue = _queue.SimpleQueue()
            self._drainer = threading.Thread(
                target=self._drain, args=(self._queue,),
                name="repro-stream-drain", daemon=True)
            self._drainer.start()
            return epoch, self._queue

    def deactivate(self) -> None:
        """Close the transport: stop the drain thread, drop the queue."""
        with self._lock:
            drainer, self._drainer = self._drainer, None
            channel, self._queue = self._queue, None
        if drainer is None:
            return
        channel.put(_STOP)
        drainer.join()

    def _drain(self, channel: Any) -> None:
        """Drain-thread body: queue → collector until the sentinel."""
        while True:
            try:
                delta = channel.get(timeout=_DRAIN_POLL)
            except _queue.Empty:
                continue
            except (EOFError, OSError, ConnectionError):
                # pragma: no cover - manager torn down under us
                return
            if delta is _STOP:
                return
            self.collector.offer(delta)


class LiveDashboard:
    """Builds ``repro-top-frame/v1`` frames for the live dashboard.

    One frame is a self-contained JSON document: progress, stream and
    pool accounting, flight-recorder state, and the monitor's full SLI
    report.  ``repro campaign --live`` renders frames as a refreshing
    table; ``--format json`` prints one frame per line for CI, and the
    final frame additionally embeds the canonical
    (non-streaming-identical) campaign report under ``"report"`` —
    ``null`` when ``--max-shards`` stopped the run before its last
    shard.

    Args:
        monitor: The :class:`~repro.observe.sli.SliMonitor` the frame's
            SLI section reads from (typically attached to the live
            view).
        collector: The stream's collector (``"stream"`` section).
        wall_clock: Injected wall clock for ``elapsed_sec`` (e.g.
            ``time.perf_counter``); without one the field stays
            ``None``.  The observe package never reads a process clock
            itself (DET005).
        cells_total: Expected ``campaign.cell`` count for the progress
            section.
        counts: Zero-arg callable returning an event-topic -> count
            mapping (usually the live bus's ``counts``) for progress.
        pool_info: Zero-arg callable returning pool accounting (e.g.
            :func:`repro.runtime.pool.pool_stats`).
        shards: Zero-arg callable returning sharded-run accounting (a
            :meth:`repro.harness.shard.ShardStats` ``asdict``); frames
            then carry an extra ``"shards"`` key.
            :func:`validate_frame` checks required keys only, so
            shard-less consumers are unaffected.
    """

    def __init__(self, monitor: Any,
                 collector: Optional[StreamCollector] = None,
                 wall_clock: Optional[Callable[[], float]] = None,
                 cells_total: Optional[int] = None,
                 counts: Optional[Callable[[], Dict[str, int]]] = None,
                 pool_info: Optional[Callable[[], Any]] = None,
                 shards: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        self.monitor = monitor
        self.collector = collector
        self._wall = wall_clock
        self._start = wall_clock() if wall_clock is not None else None
        self.cells_total = cells_total
        self._counts = counts
        self._pool_info = pool_info
        self._shards = shards
        self.frames = 0

    def frame(self, final: bool = False,
              report: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Build the next frame (``seq`` increments per call)."""
        from repro.observe import flightrec

        counts = self._counts() if self._counts is not None else {}
        recorder = flightrec.recorder()
        document: Dict[str, Any] = {
            "schema": FRAME_SCHEMA,
            "seq": self.frames,
            "final": bool(final),
            "elapsed_sec": (self._wall() - self._start
                            if self._wall is not None else None),
            "trials_per_sec": self.monitor.trials_per_sec(),
            "cells": {"done": counts.get("campaign.cell", 0),
                      "total": self.cells_total},
            "stream": (self.collector.stats()
                       if self.collector is not None else None),
            "pool": (self._pool_info()
                     if self._pool_info is not None else None),
            "flight": {"captured": recorder.captured,
                       "window": len(recorder.records),
                       "dumps": recorder.dumps},
            "sli": self.monitor.as_dict(),
        }
        if self._shards is not None:
            document["shards"] = self._shards()
        if final:
            document["report"] = report
        self.frames += 1
        return document


#: Keys every frame must carry.
_FRAME_KEYS = frozenset(("schema", "seq", "final", "elapsed_sec",
                         "trials_per_sec", "cells", "stream", "pool",
                         "flight", "sli"))


def validate_frame(document: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` unless ``document`` is a well-formed
    ``repro-top-frame/v1`` dashboard frame."""
    if not isinstance(document, dict) or \
            document.get("schema") != FRAME_SCHEMA:
        raise ValueError(f"not a {FRAME_SCHEMA} document")
    missing = _FRAME_KEYS - set(document)
    if missing:
        raise ValueError(f"frame is missing keys {sorted(missing)}")
    if not isinstance(document["seq"], int) or document["seq"] < 0:
        raise ValueError("frame seq must be a non-negative integer")
    if not isinstance(document["final"], bool):
        raise ValueError("frame final must be a boolean")
    sli = document["sli"]
    if not isinstance(sli, dict) or sli.get("schema") not in _SLI_SCHEMAS:
        raise ValueError("frame sli must be an SLI report document")
    if document["final"] and "report" not in document:
        raise ValueError("final frame must embed the campaign report")
