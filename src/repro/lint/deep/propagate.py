"""Fixpoint propagation of determinism / picklability / purity.

Given one :class:`~repro.lint.deep.summaries.ModuleSummary` per
analyzed module, :class:`DeepAnalysis` builds the whole-program
function index, resolves call references (local names, ``self.m``
method calls, canonical dotted imports) against it, and sweeps the
three properties to a fixpoint: a function is *dirty* when it has a
local hazard or calls a dirty function.  Unresolvable callees (stdlib,
dynamic dispatch, parameters called as functions) are assumed clean —
the pass under-approximates rather than drowning the report in false
positives.

Each dirty verdict carries its **evidence chain**: the call hops from
the flagged function down to the concrete hazard site, embedded in the
:class:`~repro.lint.findings.Finding` payload (``chain``) and in the
certificate.  Findings fire only on *entry points* — functions named
like trials or referenced as tasks — but the certificate records the
verdict for every function.

Summaries are cached through a :class:`~repro.runtime.store.
ResultStore` keyed on (module name, source text, summary version), so
a warm re-lint only re-summarizes edited modules; the propagation
itself is cheap and always recomputed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.deep.graph import import_graph
from repro.lint.deep.summaries import (
    SUMMARY_VERSION,
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)
from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource

__all__ = ["DeepAnalysis"]

#: hazard kind -> (rule id, consequence clause) for determinism chains.
_DET_RULES = {
    "clock": ("XDET001", "results depend on when the run happens, "
                         "not on seeds"),
    "rng": ("XDET002", "redundant executions draw different values "
                       "and stop being comparable"),
    "env": ("XDET003", "results depend on the launching environment, "
                       "not on seeds"),
    "order": ("XDET003", "iteration order varies with PYTHONHASHSEED"),
}

_PROPERTIES = ("determinism", "picklability", "purity")


def _hazard_lists(summary: FunctionSummary) -> Dict[str, list]:
    return {"determinism": summary.hazards,
            "picklability": summary.pickle_hazards,
            "purity": summary.global_writes}


class DeepAnalysis:
    """One whole-program analysis run over a set of parsed modules.

    Args:
        cache: Optional :class:`~repro.runtime.store.ResultStore` for
            per-module summaries (incremental re-lints).  Hit/miss
            counts are exposed via :meth:`stats` — and asserted by the
            CI ``lint-deep`` job's warm invocation.
    """

    def __init__(self, cache: Optional[Any] = None) -> None:
        self.cache = cache
        self.cache_hits = 0
        self.cache_misses = 0
        self.summaries: Dict[str, ModuleSummary] = {}
        #: ``module:qualname -> FunctionSummary``
        self.functions: Dict[str, FunctionSummary] = {}
        #: ``module:qualname -> {property: chain-or-None}``
        self.chains: Dict[str, Dict[str, Optional[List[dict]]]] = {}

    # -- phase 1: summaries ------------------------------------------------

    def summarize(self, modules: Sequence[ModuleSource]) -> None:
        for summary in self._summaries(modules):
            self.summaries[summary.module] = summary
            for qual, fn in summary.functions.items():
                self.functions[f"{summary.module}:{qual}"] = fn

    def _summaries(self, modules: Sequence[ModuleSource]
                   ) -> List[ModuleSummary]:
        """Summaries in module order; a cache serves its hits with one
        ``get_many`` and stores the misses with one ``put_many``."""
        if self.cache is None:
            return [summarize_module(module) for module in modules]
        from repro.runtime.store import cached_map

        task = "repro.lint.deep.summary"
        fresh: Dict[str, ModuleSummary] = {}

        def run(misses: Sequence[ModuleSource]) -> List[dict]:
            self.cache_misses += len(misses)
            fresh.update((module.name, summarize_module(module))
                         for module in misses)
            return [fresh[module.name].as_dict() for module in misses]

        payloads = cached_map(
            self.cache, modules,
            lambda module: self.cache.key(task, (module.name, module.source),
                                          code=SUMMARY_VERSION),
            run, lambda module: {"task": task})
        summaries = []
        for module, payload in zip(modules, payloads):
            summary = fresh.get(module.name)
            if summary is None:
                self.cache_hits += 1
                summary = ModuleSummary.from_dict(payload)
                summary.path = module.path  # may have moved since caching
            summaries.append(summary)
        return summaries

    # -- phase 2: the fixpoint ---------------------------------------------

    def propagate(self) -> None:
        """Sweep the three properties to a fixpoint over the call graph."""
        keys = sorted(self.functions)
        resolved: Dict[str, List[Tuple[str, int]]] = {
            key: self._resolved_calls(key) for key in keys}
        for key in keys:
            summary = self.functions[key]
            lists = _hazard_lists(summary)
            path = self._path_of(key)
            self.chains[key] = {
                prop: ([{"hazard": lists[prop][0].kind,
                         "detail": lists[prop][0].detail,
                         "path": path, "line": lists[prop][0].line}]
                       if lists[prop] else None)
                for prop in _PROPERTIES}
        changed = True
        while changed:
            changed = False
            for key in keys:
                mine = self.chains[key]
                for prop in _PROPERTIES:
                    if mine[prop] is not None:
                        continue
                    for callee, line in resolved[key]:
                        tail = self.chains[callee][prop]
                        if tail is not None:
                            mine[prop] = [{"function": callee,
                                           "path": self._path_of(key),
                                           "line": line}] + tail
                            changed = True
                            break

    def _path_of(self, key: str) -> str:
        module = key.split(":", 1)[0]
        return self.summaries[module].path

    def _resolved_calls(self, key: str) -> List[Tuple[str, int]]:
        """``(callee key, call line)`` for every resolvable call edge,
        in source order (deterministic chain choice)."""
        module = key.split(":", 1)[0]
        out: List[Tuple[str, int]] = []
        for kind, target, line in self.functions[key].calls:
            resolved = (self._resolve_local(module, target)
                        if kind == "local"
                        else self._resolve_ext(target))
            if resolved is not None and resolved != key:
                out.append((resolved, line))
        return out

    def _resolve_local(self, module: str, qual: str) -> Optional[str]:
        candidate = f"{module}:{qual}"
        return candidate if candidate in self.functions else None

    def _resolve_ext(self, dotted: str) -> Optional[str]:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Class.method`` against
        the analyzed set: longest module prefix first, then a unique
        dotted-suffix module match."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            qual = ".".join(parts[split:])
            if module in self.summaries:
                candidate = f"{module}:{qual}"
                return candidate if candidate in self.functions else None
            suffixed = [name for name in self.summaries
                        if name.endswith("." + module)]
            if len(suffixed) == 1:
                candidate = f"{suffixed[0]}:{qual}"
                if candidate in self.functions:
                    return candidate
        return None

    # -- phase 3: findings -------------------------------------------------

    def findings(self) -> List[Finding]:
        """XDET/XPROC findings for every dirty entry point."""
        out: List[Finding] = []
        for key in sorted(self.functions):
            summary = self.functions[key]
            if not (summary.is_trial or summary.is_task):
                continue
            chains = self.chains[key]
            role = "trial" if summary.is_trial else "task"
            path = self._path_of(key)
            det = chains["determinism"]
            if det is not None:
                rule, consequence = _DET_RULES[det[-1]["hazard"]]
                out.append(self._finding(rule, summary, path, role, det,
                                         consequence))
            if chains["picklability"] is not None:
                out.append(self._finding(
                    "XPROC001", summary, path, role,
                    chains["picklability"],
                    "the task will not pickle into process-pool "
                    "workers"))
            if chains["purity"] is not None:
                out.append(self._finding(
                    "XPROC002", summary, path, role, chains["purity"],
                    "parallel and serial runs observe different global "
                    "state"))
        out.sort(key=Finding.sort_key)
        return out

    def _finding(self, rule: str, summary: FunctionSummary, path: str,
                 role: str, chain: List[dict],
                 consequence: str) -> Finding:
        terminal = chain[-1]
        hops = len(chain) - 1
        via = " -> ".join(hop["function"].split(":", 1)[1]
                          for hop in chain if "function" in hop)
        location = f"{terminal['path']}:{terminal['line']}"
        reach = (f"reaches {terminal['detail']} ({location})"
                 if hops == 0 else
                 f"transitively reaches {terminal['detail']} "
                 f"({location}) via {via} "
                 f"({hops} call hop{'s' if hops != 1 else ''})")
        return Finding(
            rule=rule, severity="warning", path=path,
            line=summary.line, col=summary.col,
            message=f"{role} '{summary.qualname}' {reach}; "
                    f"{consequence}",
            chain=chain)

    # -- exports -----------------------------------------------------------

    def certificate(self) -> Dict[str, Any]:
        """The ``determinism-certificate/v1`` document."""
        from repro.lint.deep.certificate import CERTIFICATE_VERSION

        functions: Dict[str, Any] = {}
        for key in sorted(self.functions):
            summary = self.functions[key]
            chains = self.chains[key]
            entry: Dict[str, Any] = {
                "deterministic": chains["determinism"] is None,
                "picklable": chains["picklability"] is None,
                "pure": chains["purity"] is None,
                "code": summary.code,
                "path": self._path_of(key),
                "line": summary.line,
            }
            hazards = {prop: chain for prop, chain in chains.items()
                       if chain is not None}
            if hazards:
                entry["hazards"] = hazards
            functions[key] = entry
        modules = {
            name: {"path": summary.path,
                   "functions": len(summary.functions)}
            for name, summary in sorted(self.summaries.items())}
        graph = import_graph({name: summary.imports
                              for name, summary in
                              self.summaries.items()})
        for name, edges in graph.items():
            modules[name]["imports"] = edges
        return {"version": CERTIFICATE_VERSION,
                "summary_version": SUMMARY_VERSION,
                "modules": modules, "functions": functions}

    def stats(self) -> Dict[str, Any]:
        """Deep-pass accounting for reports and the CI warm-cache gate."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "modules": len(self.summaries),
            "functions": len(self.functions),
            "summary_cache": {
                "enabled": self.cache is not None,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": (round(self.cache_hits / lookups, 4)
                             if lookups else 0.0),
            },
        }

    # -- convenience -------------------------------------------------------

    def run(self, modules: Sequence[ModuleSource]) -> List[Finding]:
        """Summarize + propagate + findings in one call."""
        self.summarize(modules)
        self.propagate()
        return self.findings()
