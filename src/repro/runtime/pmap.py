"""Deterministic parallel map: ordered scatter/gather over pure tasks.

The harness's unit of work — a seeded trial, a campaign cell, a
benchmark file — is a pure function of its arguments, so fanning work
out across workers must not change a single byte of output.
:class:`ParallelMap` enforces that:

* **ordered gather** — results always come back in submission order,
  regardless of completion order;
* **seed partitioning** — items are split into contiguous chunks, so a
  chunk sees exactly the items (and therefore the seeds) the serial
  loop would have given it;
* **no shared RNG** — the pool never touches ``random``; every task
  derives its randomness from its own item;
* **retry-once-serial fallback** — a chunk that times out, fails to
  pickle, or dies with its worker is re-run serially in the parent
  exactly once, which is always safe for pure tasks.

By default the thread and process backends borrow a **warm executor**
from the process-wide registry in :mod:`repro.runtime.pool` (keyed on
``(backend, workers)``), so repeated maps amortise worker spawn cost;
``reuse=False`` restores the original per-call executor, which is
joined before :meth:`ParallelMap.map` returns.  Either way the serial
backend is the reference semantics; the thread and process backends
are bit-identical accelerations of it.  ``backend="auto"``
picks the process pool when the task and items are picklable and falls
back to ``fallback`` (threads by default) when they are not — closures
and lambdas keep working, they just stay in-process.

**Telemetry capture.**  Every chunk — in a worker, or the serial
backend's one chunk in the parent — runs through one chunk runner.
When the parent has a telemetry session installed at the moment a
chunk is submitted, the chunk runs inside a worker-local session
(:func:`repro.observe.local_session`) and ships its telemetry home as
``repro-delta/v1`` documents (:func:`repro.observe.stream.make_delta`);
the parent folds each chunk's deltas in emission order, chunks strictly
in submission order, so the merged telemetry of a pooled run is
byte-identical to the serial run's (workload series — pool
self-metrics ``repro_runtime_*`` are backend-dependent by nature; see
docs/OBSERVABILITY.md).  The enabled check happens per chunk, not per
pool, so a session installed while a long campaign is already fanned
out still captures the remaining chunks.

A *captured* chunk returns one final delta with its results.  Pass a
:class:`~repro.observe.stream.TelemetryStream` as ``stream=`` and the
chunk is *streamed* instead: a delta every ``stream.every`` items plus
the final one go through the stream while the chunk runs, so an
optional live view can fold them in arrival order for the ``repro top``
dashboard.  A timed-out or failed chunk additionally dumps the process
flight recorder's window (:mod:`repro.observe.flightrec`) into
:attr:`ParallelMap.flight_records`.

:func:`dispatch` is the harness runners' entry point: inline for
trivial work, one :meth:`ParallelMap.map` call otherwise.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import os
import pickle
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.observe import current as _telemetry
from repro.observe import flightrec as _flightrec
from repro.observe import local_session as _local_session
from repro.observe.stream import TelemetryStream, make_delta
from repro.runtime.pool import get_pool as _get_pool
from repro.runtime.pool import retire_pool as _retire_pool

T = TypeVar("T")
R = TypeVar("R")

#: Recognised backend names (``auto`` resolves to one of the others).
BACKENDS = ("auto", "serial", "thread", "process")


@dataclasses.dataclass
class PoolStats:
    """Accounting for one :meth:`ParallelMap.map` call; every field
    after ``workers`` is a count."""

    backend: str = "serial"
    workers: int = 1
    tasks: int = 0
    chunks: int = 0
    #: Chunks re-run serially in the parent (worker error or timeout).
    serial_retries: int = 0
    #: Chunks whose future missed the per-chunk deadline.
    timeouts: int = 0
    #: Chunks that ran with worker-local telemetry capture.
    captured_chunks: int = 0
    #: Captured chunks whose snapshot was never merged (the chunk timed
    #: out or failed and was re-run in the parent, which writes straight
    #: into the installed session).  ``captured_chunks -
    #: dropped_snapshots`` is the number of snapshots actually merged.
    dropped_snapshots: int = 0
    #: 1 when this call was served by an already-warm shared executor.
    pool_reuses: int = 0
    #: Chunks that ran with delta streaming (a subset of
    #: ``captured_chunks``).
    streamed_chunks: int = 0
    #: Deltas folded into the installed session at gather time.
    deltas_merged: int = 0
    #: Deltas discarded because their chunk timed out or failed (the
    #: serial rerun writes straight into the installed session; only
    #: the advisory live view keeps the partial fold).
    deltas_dropped: int = 0
    #: Flight-recorder dumps attached to this call (see
    #: :attr:`ParallelMap.flight_records`).
    flight_dumps: int = 0


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T],
               origin: Any = None, sink: Any = None, every: int = 0):
    """Run one contiguous slice of items — in a worker or the parent.

    Returns ``(results, emitted, deltas)``.  With no ``origin`` the
    chunk runs bare and ships no telemetry: ``(results, 0, [])``.  With
    an ``origin`` it runs inside a worker-local telemetry session whose
    telemetry goes home as ``repro-delta/v1`` documents, each covering
    exactly the telemetry since the previous one (thanks to
    :meth:`~repro.observe.telemetry.Telemetry.reset`): with a ``sink``,
    one into it every ``every`` items plus a final one for the tail,
    ``emitted`` counting them for the parent to take from the stream
    collector; without one (a *captured* chunk), just the final delta,
    returned in ``deltas``.  Folding a chunk's deltas in emission order
    is byte-identical to merging one whole-chunk snapshot.
    Module-level so the process backend can pickle it.
    """
    if origin is None:
        return [fn(item) for item in chunk], 0, []
    with _local_session() as telemetry:
        results: List[R] = []
        emitted = 0
        for item in chunk:
            results.append(fn(item))
            if sink is not None and len(results) % every == 0:
                sink.put(make_delta(origin, emitted, telemetry.snapshot()))
                telemetry.reset()
                emitted += 1
        final = make_delta(origin, emitted, telemetry.snapshot(),
                           final=True)
        if sink is None:
            return results, 0, [final]
        sink.put(final)
        return results, emitted + 1, []


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


class ParallelMap:
    """An ordered, chunked map over pure tasks.

    Args:
        workers: Worker count; ``None`` means ``os.cpu_count()``.
            ``workers <= 1`` always runs serially.
        backend: One of :data:`BACKENDS`.  ``auto`` resolves per call:
            serial for trivial inputs, process when ``fn`` and the items
            pickle, else ``fallback``.
        fallback: Backend ``auto`` degrades to for unpicklable work —
            ``"thread"`` (default) or ``"serial"`` (required when tasks
            touch process-global state such as an installed telemetry
            session).
        chunk_size: Items per submitted chunk; ``None`` picks
            ``ceil(len(items) / (workers * 4))`` so every worker gets
            several chunks to smooth uneven task costs.
        timeout: Per-chunk deadline in (real) seconds; an overdue chunk
            is re-run serially in the parent.  ``None`` waits forever.
        max_in_flight: Bound on submitted-but-ungathered chunks
            (default ``workers * 2``), so huge inputs never materialise
            a future per chunk up front.
        reuse: When true (the default) the call borrows a long-lived
            executor from the warm-pool registry
            (:mod:`repro.runtime.pool`), keyed on ``(backend,
            workers)``, so repeated maps amortise worker spawn cost.
            ``reuse=False`` keeps the original per-call executor, which
            is joined before :meth:`map` returns.  Results and merged
            telemetry are byte-identical either way.
        stream: Optional :class:`~repro.observe.stream.TelemetryStream`.
            When set and telemetry is enabled, captured chunks stream
            incremental ``repro-delta/v1`` snapshots home while they
            run (live dashboards fold them in arrival order); at gather
            time the parent folds each chunk's deltas in emission
            order, which is byte-identical to the merge-at-end
            protocol.  A timed-out or failed chunk's deltas are
            discarded (the serial rerun writes straight into the
            installed session) and a flight-recorder window is dumped
            into :attr:`flight_records`.
    """

    def __init__(self, workers: Optional[int] = None, backend: str = "auto",
                 fallback: str = "thread",
                 chunk_size: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_in_flight: Optional[int] = None,
                 reuse: bool = True,
                 stream: Optional[TelemetryStream] = None) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if fallback not in ("thread", "serial"):
            raise ValueError("fallback must be 'thread' or 'serial'")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.backend = backend
        self.fallback = fallback
        self.chunk_size = chunk_size
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self.reuse = reuse
        self.stream = stream
        self.stats = PoolStats()
        #: Flight-recorder dump documents produced by the most recent
        #: :meth:`map` call (one per chunk timeout / serial retry).
        self.flight_records: List[Any] = []

    # -- backend resolution ------------------------------------------------

    def _resolve(self, fn: Callable, items: Sequence) -> str:
        if self.backend != "auto":
            return self.backend
        if self.workers <= 1 or len(items) <= 1:
            return "serial"
        if _picklable(fn, items[0]):
            return "process"
        return self.fallback

    # -- the map -----------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T],
            chunk_size: Optional[int] = None) -> List[R]:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results are returned in submission order; for a pure ``fn`` the
        returned list is identical to the serial comprehension above.

        Args:
            chunk_size: Per-call override of the constructor's chunk
                size.  Batched callers (the harness's batch kernel)
                pass ``1`` so each item — already a coarse batch of
                work — is submitted as its own chunk and never
                re-bundled into a second layer of pickling.
        """
        results: List[R] = []
        for chunk_results in self.imap(fn, items, chunk_size=chunk_size):
            results.extend(chunk_results)
        return results

    def imap(self, fn: Callable[[T], R], items: Iterable[T],
             chunk_size: Optional[int] = None):
        """The incremental face of :meth:`map`: a generator yielding
        one **chunk's result list** at a time, strictly in submission
        order, as chunks are gathered.

        Every :meth:`map` guarantee holds per chunk — ordered gather,
        retry-once-serial, telemetry capture and delta streaming at the
        moment each chunk is merged — but the parent holds only the
        in-flight window of results instead of the whole output list,
        so a streaming consumer (the sharded campaign engine, which
        submits one shard per chunk and checkpoints each as it lands)
        keeps peak memory O(chunk), not O(items).  Closing the
        generator early deactivates the stream and releases the
        executor; with a warm shared pool, chunks already submitted may
        still complete in the background.

        The serial backend runs the whole task list as its single
        chunk, exactly as :meth:`map` does — callers that need
        chunk-at-a-time progress under ``workers <= 1`` should iterate
        their items themselves.
        """
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        tasks = list(items)
        backend = self._resolve(fn, tasks)
        self.stats = PoolStats(backend=backend, workers=self.workers,
                               tasks=len(tasks))
        self.flight_records = []
        if backend == "serial" or not tasks:
            results = self._run_serial(fn, tasks)
            self.stats.chunks = 1 if tasks else 0
            self._report()
            if tasks:
                yield results
            return

        size = (chunk_size or self.chunk_size
                or max(1, -(-len(tasks) // (self.workers * 4))))
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        self.stats.chunks = len(chunks)
        max_in_flight = self.max_in_flight or self.workers * 2
        pool, warm = self._executor(backend, len(chunks))
        stream = self.stream
        epoch: Optional[int] = None
        sink: Any = None
        every = stream.every if stream is not None else 0
        try:
            if stream is not None:
                # Activation is per map call (an epoch); origins are
                # (epoch, chunk_index), so a straggler delta from an
                # earlier call can never be mistaken for this one's.
                epoch, sink = stream.activate(backend)
            pending: collections.deque = collections.deque()
            submitted = 0
            while submitted < len(chunks) or pending:
                while (submitted < len(chunks)
                       and len(pending) < max_in_flight):
                    # The enabled check is per chunk, not per pool: a
                    # session installed mid-campaign captures (and
                    # streams) whatever chunks are submitted from then
                    # on.
                    captured = _telemetry().enabled
                    streamed = captured and sink is not None
                    capture = ((epoch, submitted), sink, every) \
                        if captured else ()
                    try:
                        future = pool.submit(_run_chunk, fn,
                                             chunks[submitted], *capture)
                    except Exception as exc:
                        # A broken shared executor rejects at submit
                        # time; a pre-failed future keeps the gather
                        # order intact and routes the chunk through the
                        # ordinary retry-once-serial path below.
                        future = concurrent.futures.Future()
                        future.set_exception(exc)
                    pending.append((submitted, captured, streamed,
                                    future))
                    submitted += 1
                    if captured:
                        self.stats.captured_chunks += 1
                    if streamed:
                        self.stats.streamed_chunks += 1
                # Gather strictly in submission order: chunk i's results
                # land before chunk i+1's even when i+1 finished first.
                index, captured, streamed, future = pending.popleft()
                try:
                    payload = future.result(timeout=self.timeout)
                except Exception as exc:
                    # A timeout, worker death, pickling failure, or the
                    # task's own exception: re-run serially once in the
                    # parent, after dumping the flight recorder's window
                    # (the telemetry leading up to the failure).  A
                    # deterministic task error re-raises there with a
                    # clean parent-side traceback.
                    timed_out = isinstance(
                        exc, concurrent.futures.TimeoutError)
                    if timed_out:
                        future.cancel()
                        self.stats.timeouts += 1
                    # The chunk's telemetry is never folded: the rerun
                    # writes straight into the installed session, and
                    # folding both would double count.
                    if captured:
                        self.stats.dropped_snapshots += 1
                    if streamed:
                        self.stats.deltas_dropped += \
                            stream.collector.discard((epoch, index))
                    self.stats.serial_retries += 1
                    self.flight_records.append(_flightrec.dump(
                        "chunk-timeout" if timed_out
                        else "chunk-serial-retry", chunk=index,
                        backend=backend, tasks=len(chunks[index])))
                    self.stats.flight_dumps += 1
                    chunk_results = _run_chunk(fn, chunks[index])[0]
                else:
                    chunk_results = self._fold(payload, (epoch, index))
                yield chunk_results
            self._report()
        finally:
            if stream is not None and sink is not None:
                stream.deactivate()
            if warm is None:
                # Per-call executor: join it, exactly like the previous
                # ``with`` block did.
                pool.shutdown(wait=True)
            elif warm.broken():
                # A warm pool that lost a worker must not be reused;
                # drop it so the next call respawns cleanly.
                _retire_pool(warm)

    # -- streaming ---------------------------------------------------------

    def _run_serial(self, fn: Callable[[T], R],
                    tasks: Sequence[T]) -> List[R]:
        """The serial backend: the whole task list as one chunk.

        With a stream attached and telemetry on, the chunk streams its
        deltas straight to the collector (no queue, no thread), so live
        dashboards update mid-run even without a pool, and the final
        folded state stays byte-identical to the plain serial run's.
        """
        stream = self.stream
        if not tasks or stream is None or not _telemetry().enabled:
            return _run_chunk(fn, tasks)[0]
        epoch, sink = stream.activate("serial")
        try:
            payload = _run_chunk(fn, tasks, (epoch, 0), sink, stream.every)
            self.stats.captured_chunks += 1
            self.stats.streamed_chunks += 1
            return self._fold(payload, (epoch, 0))
        finally:
            stream.deactivate()

    def _fold(self, payload: Any, origin: Any) -> List[R]:
        """A finished chunk's results, with its telemetry folded into
        the installed session in emission order: the deltas it returned
        (a captured chunk's one final delta), or the ``emitted`` ones a
        streamed chunk put in the stream."""
        results, emitted, deltas = payload
        if emitted:
            deltas = self.stream.collector.take(origin, emitted)
        tel = _telemetry()
        if tel.enabled:
            for delta in deltas:
                tel.merge(delta["snapshot"])
            if emitted:
                self.stats.deltas_merged += len(deltas)
        elif emitted:
            # Session uninstalled mid-gather: nowhere canonical to
            # fold into (the live view already saw them on arrival).
            self.stats.deltas_dropped += len(deltas)
        return results

    # -- executors ---------------------------------------------------------

    def _executor(self, backend: str, nchunks: int):
        """``(executor, warm_pool_or_None)`` for one map call.

        With ``reuse`` (the default) the executor comes from the
        process-wide warm registry, keyed on ``(backend, workers)``;
        ``None`` as the second element marks the per-call fallback
        executor, which the caller must join.
        """
        if self.reuse:
            warm = _get_pool(backend, self.workers)
            reused = warm.warm
            executor = warm.acquire()
            if reused:
                self.stats.pool_reuses = 1
            return executor, warm
        executor_cls = (concurrent.futures.ThreadPoolExecutor
                        if backend == "thread"
                        else concurrent.futures.ProcessPoolExecutor)
        return executor_cls(max_workers=min(self.workers, nchunks)), None

    def prewarm(self, fn: Optional[Callable] = None,
                items: Sequence = ()) -> str:
        """Spawn (or reuse) the warm executor for this pool's signature.

        Resolves the backend exactly as :meth:`map` would for ``fn`` and
        ``items`` (an ``auto`` backend with no sample resolves to
        ``process``) and acquires the registry executor outside any
        timed region, so the first measured :meth:`map` call pays no
        spawn cost.  No-op for serial resolutions or ``reuse=False``.
        Returns the resolved backend name.
        """
        if fn is not None:
            backend = self._resolve(fn, list(items))
        elif self.backend == "auto":
            backend = "process" if self.workers > 1 else "serial"
        else:
            backend = self.backend
        if self.reuse and backend in ("thread", "process"):
            _get_pool(backend, self.workers).acquire()
        return backend

    # -- telemetry ---------------------------------------------------------

    def _report(self) -> None:
        """Forward the call's accounting to an installed telemetry
        session (no-op when telemetry is disabled)."""
        tel = _telemetry()
        if not tel.enabled:
            return
        stats = self.stats
        # Every count field lands as ``repro_runtime_<field>_total``;
        # tasks and chunks even at zero, the others only when nonzero.
        for field in dataclasses.fields(stats)[2:]:
            value = getattr(stats, field.name)
            if value or field.name in ("tasks", "chunks"):
                tel.metrics.inc(f"repro_runtime_{field.name}_total", value,
                                backend=stats.backend)


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: Optional[int] = None,
                 **kwargs: Any) -> List[R]:
    """One-shot functional form of :class:`ParallelMap`."""
    return ParallelMap(workers=workers, **kwargs).map(fn, items)


def dispatch(owner: Any, fn: Callable[[T], R], items: Sequence[T],
             fallback: str = "thread",
             chunk_size: Optional[int] = None) -> List[R]:
    """``[fn(item) for item in items]`` under a harness runner's
    ``workers``/``backend``/``stream`` settings.

    Runs inline when ``owner.workers <= 1`` or there is at most one
    item, and no stream is attached; otherwise makes one
    :meth:`ParallelMap.map` call and records its :class:`PoolStats` and
    flight records on ``owner.pool_stats`` / ``owner.flight_records``.
    """
    if (owner.workers <= 1 or len(items) <= 1) and owner.stream is None:
        return [fn(item) for item in items]
    pool = ParallelMap(workers=owner.workers, backend=owner.backend,
                       fallback=fallback, stream=owner.stream)
    try:
        return pool.map(fn, items, chunk_size=chunk_size)
    finally:
        owner.pool_stats = pool.stats
        owner.flight_records = pool.flight_records
