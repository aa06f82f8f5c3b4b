"""Seeded experiment trials."""

from __future__ import annotations

import dataclasses
import functools
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Union)

from repro.runtime.kernel import (BatchResult, MetricAccumulator, partition,
                                  run_batch, run_seed)
from repro.runtime.pmap import dispatch
from repro.runtime.store import (args_digest, cached_map, code_fingerprint,
                                 fingerprint)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.runtime.store import ResultStore


@dataclasses.dataclass(frozen=True)
class TrialResult:
    """One trial's measurements: a flat ``metric -> value`` mapping.

    When the owning experiment runs instrumented, ``telemetry`` carries
    the trial's telemetry digest (span/event/metric summaries from
    :meth:`repro.observe.Telemetry.summary`); otherwise it is ``None``.
    """

    seed: int
    metrics: Dict[str, float]
    telemetry: Optional[Dict[str, Any]] = None


@dataclasses.dataclass
class Experiment:
    """A named, seeded experiment.

    Args:
        name: Experiment id (e.g. ``"C4-rejuvenation"``).
        trial: ``trial(seed) -> {metric: value}``; must be a pure function
            of the seed so reruns reproduce EXPERIMENTS.md exactly.
        seeds: The seeds to run.
        instrument: When true, each trial runs inside a fresh telemetry
            session and its :class:`TrialResult` carries the session's
            summary.  Telemetry never feeds back into the trial (no RNG
            draws, no clock writes), so metric values are identical
            either way.  Inside a pool worker whose chunk is being
            captured (an outer session was installed), the per-trial
            session nests within the worker's thread-local capture
            session — shadowing it exactly as it shadows the global
            session serially.
        workers: Fan the trials out over this many pool workers
            (``repro.runtime.ParallelMap``).  Every trial is a pure
            function of its seed and results are gathered in seed
            order, so any worker count produces byte-identical results;
            ``workers <= 1`` keeps the plain serial loop.
        backend: Pool backend (``auto``/``serial``/``thread``/
            ``process``); ``auto`` uses processes when the trial
            pickles.
        batch: When set, run the seeds through the **batch kernel**
            (:mod:`repro.runtime.kernel`): contiguous batches of up to
            ``batch`` seeds execute as one pure call each, returning
            one struct-of-arrays :class:`~repro.runtime.kernel.
            BatchResult` per batch instead of ``batch`` scalar results
            — ~batch× less pickle volume through the pool and one
            store key per batch.  Because every trial is a pure
            function of its seed, any partition (``batch=1``,
            ``batch=len(seeds)``, ragged tails) yields byte-identical
            aggregates; :meth:`run` expands batches back to scalar
            :class:`TrialResult` objects, while :meth:`run_batches` and
            :meth:`summary` stay compact end to end.
        store: Optional :class:`~repro.runtime.store.ResultStore`.
            When set, each unit (a trial, or under ``batch`` a whole
            batch) is looked up by content address — (trial source
            version, ``instrument``, seed / batch seed-tuple) — before
            executing, and persisted after; unchanged units are served
            from disk across processes and runs.  A served unit is
            **not re-executed**, so its side-band telemetry events are
            not re-published (the stored result, including any
            ``telemetry`` digest, is byte-identical).
        certify: Optional determinism certificate — a
            :class:`~repro.lint.deep.certificate.Certificate` or a path
            to one (written by ``repro lint --deep --certificate``).
            Before any trial executes, the trial callable is checked
            against it: uncertified, stale, or hazardous tasks raise a
            :class:`~repro.lint.deep.certificate.CertificationWarning`
            in plain runs, and a :class:`~repro.exceptions.
            CertificationError` when ``batch=`` or ``store=`` is in
            play — the paths whose byte-identity and content-addressed
            keys a hidden hazard silently poisons.  Enforcement never
            touches the RNG, the clock, or the trial itself, so a
            certified run is byte-identical to the same run without
            ``certify=``.
        stream: Optional :class:`~repro.observe.stream.TelemetryStream`
            handed to the pool, on inline runs too: with an outer
            session installed, chunks stream incremental telemetry
            deltas home while trials run (the ``repro campaign
            --live`` view) instead of one snapshot per chunk at the
            end.  The folded session is byte-identical either way.

    After a pooled :meth:`run`, :attr:`pool_stats` holds the last map
    call's :class:`~repro.runtime.pmap.PoolStats` and
    :attr:`flight_records` any flight-recorder dumps it produced
    (chunk timeouts / serial retries).
    """

    name: str
    trial: Callable[[int], Dict[str, float]]
    seeds: Sequence[int] = tuple(range(5))
    instrument: bool = False
    workers: int = 1
    backend: str = "auto"
    batch: Optional[int] = None
    store: Optional["ResultStore"] = None
    certify: Optional[Any] = None
    stream: Optional[Any] = None

    def __post_init__(self) -> None:
        self.pool_stats: Optional[Any] = None
        self.flight_records: List[Any] = []

    def _enforce_certificate(self) -> None:
        """Gate on ``certify=`` (no-op when unset).  Runs before any
        trial; strict (error, not warning) whenever batching or the
        store could silently absorb nondeterministic results."""
        if self.certify is None:
            return
        from repro.lint.deep.certificate import enforce_certificate

        enforce_certificate(
            self.certify, {"trial": self.trial},
            strict=self.batch is not None or self.store is not None,
            context=f"experiment {self.name!r}")

    def run(self) -> List[TrialResult]:
        if self.batch is not None:
            # run_batches() enforces the certificate itself.
            return [result for batch in self.run_batches()
                    for result in batch.results()]
        self._enforce_certificate()
        return self._run_units(_execute_trial, list(self.seeds))

    def run_batches(self) -> List[BatchResult]:
        """The batched path: one :class:`BatchResult` per seed batch.

        Usable with any ``batch`` (``None`` means one batch of all
        seeds).  With a ``store``, each batch is addressed by its
        **batch fingerprint key** — (trial source version,
        ``instrument``, the batch's seed tuple) — so an unchanged batch
        is served as one record; ``store.hit``/``store.write`` carry
        ``trials=len(batch)`` for per-batch accounting in the SLI
        store-traffic table.
        """
        self._enforce_certificate()
        batches = partition(self.seeds,
                            self.batch if self.batch is not None
                            else max(1, len(self.seeds)))
        # Each batch is already a coarse unit of work; submit one per
        # chunk so the pool never re-bundles (and re-pickles) batches.
        return self._run_units(run_batch, batches, chunk_size=1)

    def _run_units(self, kernel: Callable, units: Sequence[Any],
                   chunk_size: Optional[int] = None) -> List[Any]:
        """``kernel(trial, instrument, unit)`` for every unit — a seed,
        or a seed tuple under :func:`run_batch` — in order: served from
        the store when there is one, the misses run inline or pooled."""
        # With no outer session installed, instrumented trials install
        # a process-global telemetry session, so unpicklable trials
        # must degrade to serial (not threads) to keep per-trial
        # digests isolated.  (Captured chunks are safe under threads:
        # each worker holds a thread-local session the per-trial
        # sessions nest inside.)
        run = functools.partial(
            dispatch, self,
            functools.partial(kernel, self.trial, self.instrument),
            fallback="serial" if self.instrument else "thread",
            chunk_size=chunk_size)
        store = self.store
        if store is None:
            return run(units)
        code = code_fingerprint(self.trial)
        task = (f"{getattr(self.trial, '__module__', '?')}"
                f".{getattr(self.trial, '__qualname__', 'trial')}")
        if kernel is run_batch:
            return cached_map(
                store, units,
                lambda batch: store.key(task, (self.instrument, batch),
                                        seed=batch[0], code=code),
                run, lambda batch: {"task": task, "seed": batch[0],
                                    "trials": len(batch)})
        # Every seed shares the arguments, so digest them once; each key
        # equals ``store.key(task, (instrument,), seed, code)``.
        digest = args_digest((self.instrument,))
        return cached_map(store, units,
                          lambda seed: fingerprint(task, digest, seed, code),
                          run, lambda seed: {"task": task, "seed": seed})

    def summary(self, results: Optional[Sequence[Union[TrialResult,
                                                       BatchResult]]] = None
                ) -> Dict[str, float]:
        """Mean and stdev of every metric across trials.

        Args:
            results: Precomputed trial results or batch results (e.g.
                from a preceding :meth:`run` / :meth:`run_batches`);
                when omitted the trials are (re)run — batched when
                ``batch`` is set, so the summary never materialises
                scalar result objects.
        """
        if results is None:
            results = (self.run_batches() if self.batch is not None
                       else self.run())
        return summarize(results)


def _execute_trial(trial: Callable[[int], Dict[str, float]],
                   instrument: bool, seed: int) -> TrialResult:
    """Run one seed as a :class:`TrialResult` — through
    :func:`~repro.runtime.kernel.run_seed`, like the batch kernel, so
    both paths are the same code and stay byte-identical."""
    metrics, telemetry = run_seed(trial, instrument, seed)
    return TrialResult(seed=seed, metrics=metrics, telemetry=telemetry)


def run_trials(trial: Callable[[int], Dict[str, float]],
               seeds: Sequence[int], workers: int = 1,
               backend: str = "auto",
               batch: Optional[int] = None,
               store: Optional["ResultStore"] = None,
               certify: Optional[Any] = None,
               stream: Optional[Any] = None) -> List[TrialResult]:
    """Run ``trial`` over seeds (functional form of :class:`Experiment`)."""
    return Experiment(name="trials", trial=trial, seeds=tuple(seeds),
                      workers=workers, backend=backend, batch=batch,
                      store=store, certify=certify, stream=stream).run()


def summarize(results: Sequence[Union[TrialResult, BatchResult]]
              ) -> Dict[str, float]:
    """Per-metric means (and ``<metric>_stdev``) over trial results.

    Accepts scalar :class:`TrialResult` sequences, struct-of-arrays
    :class:`~repro.runtime.kernel.BatchResult` sequences, or a mix;
    batched and scalar runs of the same seeds summarize byte-identically.

    Trials may report heterogeneous metric sets (e.g. a metric only
    meaningful when a fault actually struck): each metric is averaged
    over the trials that reported it.  The sample standard deviation is
    reported alongside every mean under ``<metric>_stdev`` (0.0 when
    only one trial reported the metric).

    Single pass: one :class:`~repro.runtime.kernel.MetricAccumulator`
    per metric folds count/mean/M2 state as values stream by — no
    per-key value list is rebuilt — and reproduces the
    ``statistics.fmean`` / ``statistics.stdev`` floats to the digit
    (the accumulator keeps exact state; see its docstring).  Keys keep
    first-seen order, exactly as the two-pass implementation reported
    them.
    """
    accumulators: Dict[str, MetricAccumulator] = {}
    for result in results:
        if isinstance(result, BatchResult):
            # Struct-of-arrays fast path: fold whole columns; column
            # insertion order is the batch-wide first-seen key order.
            for key, column in result.columns.items():
                accumulator = accumulators.get(key)
                if accumulator is None:
                    accumulator = accumulators[key] = MetricAccumulator()
                accumulator.update(column)
        else:
            for key, value in result.metrics.items():
                accumulator = accumulators.get(key)
                if accumulator is None:
                    accumulator = accumulators[key] = MetricAccumulator()
                accumulator.add(value)
    out: Dict[str, float] = {}
    for key, accumulator in accumulators.items():
        out[key] = accumulator.mean()
        out[f"{key}_stdev"] = accumulator.stdev()
    return out
