"""Determinism rules (DET*).

The harness's determinism contract — serial and parallel runs are
byte-identical, and every result is a pure function of explicit seeds —
has twice been broken by latent static bugs (builtin ``hash()`` seeds,
wall-clock defaults) that only surfaced at runtime.  These rules catch
the whole class at review time:

* DET001 — module-level ``random.*`` calls (shared, unseeded global RNG)
  and seedless ``random.Random()``;
* DET002 — wall-clock reads (``time.time``, ``datetime.now``, …);
* DET003 — builtin ``hash()``: salted per-process for str/bytes, so any
  value derived from it varies with ``PYTHONHASHSEED``;
* DET004 — iteration over sets or ``os.environ``, whose order is
  hash- or environment-dependent;
* DET005 — process-clock reads (``time.perf_counter``,
  ``time.monotonic``, …) inside the ``repro.observe`` package, whose
  timestamps must come from the injected clock so exported traces and
  metric dumps are byte-stable;
* DET006 — hand-rolled re-seeding (``random.seed``,
  ``random.Random(seed)``) inside trial functions: trial code must
  derive randomness through the counter-based
  :func:`repro.runtime.kernel.trial_stream`, or batch partitions stop
  being byte-identical.  A warning normally; an **error** in modules
  that pass ``batch=`` anywhere (they are explicitly on the batched
  path).

Every rule is a filter over the sites of the module's one memoised
scan (:attr:`ModuleSource.scan <repro.lint.registry.ModuleSource.scan>`,
shared with the deep summaries).  They match call targets as written,
not alias-resolved: that is the deep pass's job.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Iterator, Type

from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule, has_arguments

#: ``random`` module functions that drive the shared global RNG.
UNSEEDED_RANDOM_FNS = frozenset((
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "binomialvariate",
))

#: Dotted call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))


_GLOBAL_RNG = ("draws from the shared, unseeded global RNG; construct "
               "random.Random(seed) and thread it explicitly")
_TRIAL_STREAM = ("repro.runtime.kernel.trial_stream(base_seed, index) so "
                 "batch partitions stay byte-identical")


def _calls(module: ModuleSource):
    """``(site, owner, attr)`` per call in the module's scan: the call
    target as written, split at its last dot (``owner`` is ``""`` for a
    bare name)."""
    for site in module.scan.calls:
        if site.raw is not None:
            owner, _, attr = site.raw.rpartition(".")
            yield site, owner, attr


class UnseededRandomRule(Rule):
    id = "DET001"
    severity = "warning"
    summary = ("module-level random.* call or seedless random.Random(): "
               "shared global RNG breaks seeded reproducibility")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        scan = module.scan
        draws = {local for local, name in scan.random_imports
                 if name in UNSEEDED_RANDOM_FNS}
        for site, owner, attr in _calls(module):
            if owner in scan.random_modules and attr in UNSEEDED_RANDOM_FNS:
                message = f"{site.raw}() {_GLOBAL_RNG}"
            elif (owner in scan.random_modules and attr == "Random"
                    and not has_arguments(site.node)):
                message = (f"{site.raw}() without a seed is OS-entropy "
                           f"seeded; pass an explicit seed")
            elif not owner and attr in draws:
                message = f"{attr}() (from random import) {_GLOBAL_RNG}"
            else:
                continue
            yield self.finding(module, site.node, message)


class WallClockRule(Rule):
    id = "DET002"
    severity = "warning"
    summary = ("wall-clock read (time.time, datetime.now, ...): results "
               "depend on when the run happens, not on seeds")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site, _, _ in _calls(module):
            if site.raw in WALL_CLOCK_CALLS:
                yield self.finding(
                    module, site.node,
                    f"{site.raw}() reads the wall clock; use the virtual "
                    f"clock (environment.clock) for simulated time or "
                    f"time.perf_counter() for interval measurement")


class BuiltinHashRule(Rule):
    id = "DET003"
    severity = "warning"
    summary = ("builtin hash(): salted per-process for str/bytes "
               "(PYTHONHASHSEED), so derived seeds and orderings drift "
               "across runs")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site, _, _ in _calls(module):
            if site.raw == "hash":
                yield self.finding(
                    module, site.node,
                    "builtin hash() varies with PYTHONHASHSEED for "
                    "str/bytes inputs; use repro._util.stable_int / "
                    "stable_fraction or zlib.crc32 for stable values")


class EnvIterationRule(Rule):
    id = "DET004"
    severity = "warning"
    summary = ("iteration over a set or os.environ: order is hash- or "
               "environment-dependent; wrap in sorted()")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.scan.iterations:
            target = site.node
            if isinstance(target, (ast.Set, ast.SetComp)):
                yield self.finding(
                    module, target,
                    "iterating a set: order varies with PYTHONHASHSEED; "
                    "wrap in sorted() or use a list/dict (insertion "
                    "ordered)")
            elif (isinstance(target, ast.Call)
                    and isinstance(target.func, ast.Name)
                    and target.func.id in ("set", "frozenset")):
                yield self.finding(
                    module, target,
                    f"iterating {target.func.id}(...): order varies with "
                    f"PYTHONHASHSEED; wrap in sorted()")
            elif site.raw == "os.environ":
                yield self.finding(
                    module, target,
                    "iterating os.environ: contents and order depend on "
                    "the launching environment; wrap in sorted() and "
                    "pin the variables you read")


#: ``time``-module attributes that read a process clock.  DET002 flags
#: the wall-clock subset everywhere; inside ``repro.observe`` even the
#: monotonic ones are off-limits, because telemetry timestamps must
#: come from the session's injected clock to keep exports byte-stable.
PROCESS_CLOCK_ATTRS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
))


class ObserveClockRule(Rule):
    id = "DET005"
    severity = "warning"
    summary = ("process-clock read inside repro.observe: telemetry "
               "timestamps must come from the injected clock "
               "(Telemetry.bind_clock), never from the time module")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if "observe" not in pathlib.PurePath(module.path).parts:
            return
        for site, owner, attr in _calls(module):
            if owner == "time" and attr in PROCESS_CLOCK_ATTRS:
                yield self.finding(
                    module, site.node,
                    f"{site.raw}() inside repro.observe bypasses the "
                    f"injected clock; take timestamps from the telemetry "
                    f"session's bound clock so traces and dumps stay "
                    f"byte-stable")


class TrialReseedRule(Rule):
    id = "DET006"
    severity = "warning"
    summary = ("random.seed / random.Random(seed) inside a trial "
               "function: hand-rolled re-seeding breaks batch-partition "
               "identity; use repro.runtime.kernel.trial_stream")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        scan = module.scan
        seeders = {local: name for local, name in scan.random_imports
                   if name in ("seed", "Random")}
        severity = "error" if scan.batch else None
        for site, owner, attr in _calls(module):
            trial, seeded = site.trial, has_arguments(site.node)
            if trial is None:
                continue
            if owner in scan.random_modules and attr == "seed":
                message = (f"{site.raw}() inside trial {trial!r} re-seeds "
                           f"the global RNG; draw from {_TRIAL_STREAM}")
            elif owner in scan.random_modules and attr == "Random" \
                    and seeded:
                message = (f"{owner}.Random(seed) inside trial {trial!r} "
                           f"hand-rolls a seed derivation; use "
                           f"{_TRIAL_STREAM}")
            elif (not owner and attr in seeders
                    and (seeders[attr] == "seed" or seeded)):
                message = (f"{attr}() (from random import "
                           f"{seeders[attr]}) inside trial {trial!r} "
                           f"hand-rolls re-seeding; use {_TRIAL_STREAM}")
            else:
                continue
            yield self.finding(module, site.node, message,
                               severity=severity)


RULES: Iterable[Type[Rule]] = (UnseededRandomRule, WallClockRule,
                               BuiltinHashRule, EnvIterationRule,
                               ObserveClockRule, TrialReseedRule)
