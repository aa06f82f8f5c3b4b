"""The layer ledger: spans recorded from outside the program.

While a :class:`Ledger` is installed, the public functions of each of
the program's layers are replaced by wrappers that record one span per
call: site, start, end, parent span and operation id.  Spans are kept
in memory (column arrays) and written out once, at the end of the run.

A layer's self time is the time of its spans minus the time their child
spans cover.  Two limits follow from wrapping from outside:

* a call is seen only when it resolves through the wrapped class or
  module attribute at call time; names imported by value (such as the
  ``current`` telemetry accessor most modules bind at import) are not;
* work done inside pool workers is seen only as the parent's time in
  ``ParallelMap.map``.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import pickle
import threading
import time
from typing import Callable, Dict, List, Tuple

#: The layers, in ledger order; :func:`targets` says which functions of
#: which modules each one owns.
LAYERS = ("faults", "environment", "patterns", "adjudicators", "observe",
          "runtime", "store", "harness", "cli")

#: Layer of the wrappers' own bookkeeping (pickled-size estimates):
#: subtracted from the enclosing span like any child, never reported.
HOOK_LAYER = "trace"


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def targets() -> List[Tuple[str, object, str]]:
    """Every ``(layer, owner, attribute)`` the ledger wraps."""
    import repro.cli
    import repro.harness.experiment
    import repro.harness.shard
    import repro.runtime.store
    from repro.adjudicators.base import Adjudicator
    from repro.components.version import Version
    from repro.environment.simenv import SimEnvironment
    from repro.faults.injector import FaultyFunction
    from repro.harness.campaign import FaultCampaign
    from repro.harness.experiment import Experiment
    from repro.harness.shard import ShardedCampaign, ShardPlan
    from repro.observe.events import EventBus
    from repro.observe.metrics import MetricsRegistry
    from repro.observe.sli import SliMonitor
    from repro.observe.telemetry import Telemetry
    from repro.observe.tracer import Tracer
    from repro.patterns.base import ExecutionUnit, RedundancyPattern
    from repro.runtime.pmap import ParallelMap
    from repro.runtime.pool import WorkerPool
    from repro.runtime.store import ResultStore
    from repro.techniques.base import Technique

    out = [("faults", FaultyFunction, "__call__")]
    out += [("environment", SimEnvironment, name) for name in (
        "do_work", "chance", "perturb", "reset_perturbations", "reboot",
        "rejuvenate", "snapshot", "restore")]
    out.append(("patterns", RedundancyPattern, "execute"))
    out.append(("patterns", Version, "execute"))
    out += [("patterns", cls, "run") for cls in _subclasses(ExecutionUnit)
            if "run" in vars(cls)]
    out += [("patterns", cls, "execute") for cls in _subclasses(Technique)
            if "execute" in vars(cls)]
    out += [("adjudicators", cls, name) for cls in _subclasses(Adjudicator)
            for name in ("adjudicate", "check") if name in vars(cls)]
    out += [("observe", EventBus, name)
            for name in ("publish", "snapshot", "merge")]
    out += [("observe", Telemetry, name) for name in (
        "publish", "count", "reset", "snapshot", "merge")]
    out += [("observe", MetricsRegistry, name) for name in (
        "inc", "observe", "set_gauge", "snapshot", "merge")]
    out += [("observe", Tracer, name) for name in (
        "span", "start", "finish", "snapshot", "merge")]
    out += [("observe", SliMonitor, name) for name in ("observe", "as_dict")]
    out += [("runtime", ParallelMap, name) for name in ("map", "prewarm")]
    out.append(("runtime", WorkerPool, "acquire"))
    out += [("store", ResultStore, name) for name in (
        "__init__", "key", "get", "get_many", "put", "put_many",
        "refresh")]
    out.append(("store", repro.runtime.store, "code_fingerprint"))
    out += [("harness", Experiment, name)
            for name in ("run", "run_batches", "summary")]
    out.append(("harness", repro.harness.experiment, "summarize"))
    out.append(("harness", FaultCampaign, "run"))
    out += [("harness", ShardedCampaign, name)
            for name in ("__init__", "run")]
    out.append(("harness", repro.harness.shard, "campaign_fingerprint"))
    out.append(("harness", ShardPlan, "build"))
    out += [("cli", repro.cli, name)
            for name, fn in vars(repro.cli).items()
            if inspect.isfunction(fn) and fn.__module__ == "repro.cli"]
    return out


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.sites: List[Tuple[str, str]] = []  # (layer, name)
        self._site_ids: Dict[Tuple[str, str], int] = {}
        self.site = array.array("i")
        self.op = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.child = array.array("d")
        self.error = array.array("b")
        self.ops: List[str] = []  # operation id -> pass label
        self.pickled_bytes = 0
        self.pool = {"chunks": 0, "serial_retries": 0, "timeouts": 0}
        self._stack = [-1]
        self._op = -1
        self._targets = targets()
        self._saved: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def begin_pass(self, label: str) -> None:
        """Start a new operation id (one timed pass)."""
        self.ops.append(label)
        self._op = len(self.ops) - 1

    def end_pass(self) -> None:
        """Spans until the next :meth:`begin_pass` belong to no
        operation and are left out of every sum."""
        self._op = -1

    def _site(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._site_ids:
            self._site_ids[key] = len(self.sites)
            self.sites.append(key)
        return self._site_ids[key]

    def _open(self, site: int) -> int:
        index = len(self.site)
        self.site.append(site)
        self.op.append(self._op)
        self.parent.append(self._stack[-1])
        self.child.append(0.0)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, failed: bool = False) -> None:
        now = time.perf_counter()
        self.end[index] = now
        self._stack.pop()
        if failed:
            self.error[index] = 1
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def _wrap(self, site: int, fn: Callable) -> Callable:
        ledger, main = self, self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            index = ledger._open(site)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ledger._close(index, failed=True)
                raise
            ledger._close(index)
            return result
        return traced

    def _wrap_context(self, site: int, fn: Callable) -> Callable:
        """For functions returning a context manager: time its creation,
        ``__enter__`` and ``__exit__`` as spans of the same site."""
        plain = self._wrap(site, fn)
        ledger = self

        class Traced:
            def __init__(self, manager):
                self.manager = manager

            def __enter__(self):
                index = ledger._open(site)
                try:
                    return self.manager.__enter__()
                finally:
                    ledger._close(index)

            def __exit__(self, *exc_info):
                index = ledger._open(site)
                try:
                    return self.manager.__exit__(*exc_info)
                finally:
                    ledger._close(index)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return Traced(plain(*args, **kwargs))
        return traced

    def _wrap_map(self, site: int, fn: Callable) -> Callable:
        """``ParallelMap.map`` plus its pool counters and a computed
        estimate of the bytes it pickles: the task once per chunk, the
        items and the results."""
        plain = self._wrap(site, fn)
        hook = self._site(HOOK_LAYER, "pickled-bytes")
        ledger = self

        @functools.wraps(fn)
        def traced(pool, task, items, *args, **kwargs):
            items = list(items)
            results = plain(pool, task, items, *args, **kwargs)
            index = ledger._open(hook)
            stats = pool.stats
            for name in ledger.pool:
                ledger.pool[name] += getattr(stats, name)
            if stats.backend == "process" and ledger._op >= 0:
                ledger.pickled_bytes += (
                    len(pickle.dumps(task)) * stats.chunks
                    + len(pickle.dumps(items))
                    + len(pickle.dumps(results)))
            ledger._close(index)
            return results
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its wrapper (undone by
        :meth:`uninstall`)."""
        for layer, owner, attr in self._targets:
            raw = vars(owner)[attr]
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            site = self._site(layer, name.replace("repro.", ""))
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if name.endswith("ParallelMap.map"):
                wrapped = self._wrap_map(site, fn)
            elif attr == "span":
                wrapped = self._wrap_context(site, fn)
            else:
                wrapped = self._wrap(site, fn)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr,
                    classmethod(wrapped) if is_classmethod else wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def fold(self, overhead: Dict[str, float]) -> dict:
        """Fold the spans of the timed passes into per-site and
        per-layer sums.

        Self and inclusive times are corrected for the tracing itself.
        ``overhead`` maps each pass label to the traced minus the
        untraced wall of its passes; less the wrappers' own bookkeeping,
        it is spread evenly over that label's spans, and a span loses
        one share per direct child from its self time and one per
        descendant from its inclusive time.  Returns ``sites`` (name ->
        layer, calls, errors, incl, self), ``layers`` (layer -> self),
        ``outer`` (layer -> calls from outside the layer), ``passes``
        (pass label -> layer -> self) and ``span_cost`` (label -> the
        share).
        """
        count = len(self.site)
        descendants = [0] * count
        children = [0] * count
        spans: Dict[str, int] = {}
        hooks: Dict[str, float] = {}
        for i in range(count - 1, -1, -1):
            if self.op[i] < 0:
                continue
            parent = self.parent[i]
            if parent >= 0:
                descendants[parent] += descendants[i] + 1
                children[parent] += 1
            label = self.ops[self.op[i]]
            if self.sites[self.site[i]][0] == HOOK_LAYER:
                hooks[label] = (hooks.get(label, 0.0) + self.end[i]
                                - self.start[i])
            else:
                spans[label] = spans.get(label, 0) + 1
        span_cost = {
            label: max(overhead.get(label, 0.0) - hooks.get(label, 0.0),
                       0.0) / spans[label]
            for label in spans}
        costs = [span_cost.get(label, 0.0) for label in self.ops]
        layer_of = [layer for layer, _ in self.sites]
        name_of = [name for _, name in self.sites]
        sites: Dict[str, Dict[str, float]] = {}
        layers: Dict[str, float] = {}
        outer: Dict[str, int] = {}
        passes: Dict[str, Dict[str, float]] = {}
        for i in range(count):
            if self.op[i] < 0:
                continue
            site = self.site[i]
            layer = layer_of[site]
            cost = costs[self.op[i]]
            duration = self.end[i] - self.start[i]
            own = duration - self.child[i] - cost * children[i]
            row = sites.get(name_of[site])
            if row is None:
                row = sites[name_of[site]] = {
                    "layer": layer, "calls": 0, "errors": 0,
                    "incl": 0.0, "self": 0.0}
            row["calls"] += 1
            row["errors"] += self.error[i]
            row["incl"] += duration - cost * descendants[i]
            row["self"] += own
            layers[layer] = layers.get(layer, 0.0) + own
            parent = self.parent[i]
            if parent < 0 or layer_of[self.site[parent]] != layer:
                outer[layer] = outer.get(layer, 0) + 1
            per_pass = passes.setdefault(self.ops[self.op[i]], {})
            per_pass[layer] = per_pass.get(layer, 0.0) + own
        return {"sites": sites, "layers": layers, "outer": outer,
                "passes": passes, "span_cost": span_cost}

    def write(self, path: str) -> int:
        """Write every span, once, as gzipped tab-separated lines after a
        header naming the operations and sites; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as out:
            for op, label in enumerate(self.ops):
                out.write(f"# op\t{op}\t{label}\n")
            for site, (layer, name) in enumerate(self.sites):
                out.write(f"# site\t{site}\t{layer}\t{name}\n")
            out.write("span\top\tparent\tsite\tstart_s\tend_s\terror\n")
            origin = self._origin
            for i in range(len(self.site)):
                out.write(f"{i}\t{self.op[i]}\t{self.parent[i]}"
                          f"\t{self.site[i]}\t{self.start[i] - origin:.9f}"
                          f"\t{self.end[i] - origin:.9f}\t{self.error[i]}\n")
        return len(self.site)
