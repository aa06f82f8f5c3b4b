"""Per-module intraprocedural summaries for the deep pass.

:class:`ModuleScan` — the one memoised pass over a parsed module that
the local DET and PAT rules also read — records every call and
iteration site; from it the summary extracts, for every function
(methods and nested defs included, each under its qualified name):

* **determinism hazards** — canonical calls that read a clock
  (``time.time`` and friends, ``datetime.now``), draw OS entropy
  (module-level ``random.*``, seedless ``random.Random()``,
  ``uuid.uuid4``, ``os.urandom``, ``secrets.*``), read the launching
  environment (``os.getenv``, ``os.environ``, ``os.getpid``, …), or
  observe hash order (iterating a set).  Import aliases are resolved
  first — ``from time import time as _wall`` is still a clock read —
  which is precisely the gap the local DET rules cannot see across.
  ``random.Random(seed)`` **with** a seed argument counts as clean:
  seeded-RNG-in-parameter is the sanctioned pattern;
* **picklability hazards** — constructing locks / queues / open file
  handles, touching the warm-pool API (parent-side only, see PROC003),
  importing :mod:`repro.runtime.pool`, or defining a ``lambda`` (which
  captures the enclosing frame);
* **purity hazards** — writes to module globals: ``global`` +
  assignment, mutating method calls (``.append`` …) on a module-level
  name, and subscript / attribute stores into one;
* **outgoing calls** — local references (same-module functions,
  ``self.method``) and canonical dotted externals, the edges the
  fixpoint propagates over.

Summaries serialize to plain dicts so :class:`~repro.runtime.store.
ResultStore` can content-address them (key: module name + source text +
:data:`SUMMARY_VERSION`) and a warm re-lint skips unedited modules.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.deep.certificate import function_fingerprint
from repro.lint.registry import ModuleSource, dotted_name, has_arguments
from repro.lint.rules_determinism import UNSEEDED_RANDOM_FNS
from repro.lint.rules_process_safety import POOL_API, POOL_MODULE

__all__ = ["SUMMARY_VERSION", "FunctionSummary", "Hazard", "ModuleScan",
           "ModuleSummary", "Site", "summarize_module"]

#: Version tag baked into every summary cache key: bump it whenever the
#: extraction below changes, and every cached summary invalidates.
SUMMARY_VERSION = "lint-deep-summary/v1"

#: Canonical dotted calls that read a wall clock (kind ``clock``).
CLOCK_CALLS = frozenset((
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
))

#: Canonical dotted calls that draw OS entropy (kind ``rng``), beyond
#: the ``random.*`` global-RNG family handled separately.
ENTROPY_CALLS = frozenset((
    "uuid.uuid1", "uuid.uuid4", "os.urandom",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
))

#: Canonical dotted calls that read the launching environment
#: (kind ``env``).
ENV_CALLS = frozenset((
    "os.getenv", "os.getpid", "os.getppid", "os.getcwd", "os.cpu_count",
    "os.uname", "socket.gethostname", "platform.node",
    "platform.platform", "sys.getrecursionlimit",
))

#: Canonical dotted constructors whose instances do not pickle
#: (kind ``pickle``).
UNPICKLABLE_CTORS = frozenset((
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Event", "threading.Barrier", "threading.local",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Queue", "multiprocessing.Pool",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
))

#: Mutating method names that turn a module-global receiver into a
#: purity hazard (kind ``global``).
_MUTATORS = frozenset((
    "append", "add", "update", "extend", "insert", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "write",
))

#: Call-site shapes whose referenced function becomes a *task* entry
#: point: first positional argument of these canonical callables.
_TASK_CALLABLES = frozenset((
    "run_trials", "parallel_map", "run_batch",
    "repro.harness.experiment.run_trials",
    "repro.runtime.pmap.parallel_map",
    "repro.runtime.kernel.run_batch",
))


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One local hazard site inside a function."""

    kind: str    # clock | rng | env | order | pickle | global
    detail: str  # human-readable, e.g. "wall-clock read time.time()"
    line: int

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FunctionSummary:
    """Everything the fixpoint needs to know about one function."""

    qualname: str
    line: int
    col: int
    #: Determinism hazards (clock / rng / env / order).
    hazards: List[Hazard] = dataclasses.field(default_factory=list)
    #: Picklability hazards (kind ``pickle``).
    pickle_hazards: List[Hazard] = dataclasses.field(default_factory=list)
    #: Purity hazards (kind ``global``).
    global_writes: List[Hazard] = dataclasses.field(default_factory=list)
    #: Outgoing calls: ``("local", qualname, line)`` within the module
    #: or ``("ext", canonical.dotted.name, line)`` across modules.
    calls: List[Tuple[str, str, int]] = dataclasses.field(
        default_factory=list)
    #: Name matches the trial convention (contains "trial").
    is_trial: bool = False
    #: Referenced as a task somewhere in the module (``trial=``,
    #: ``run_trials(fn, …)``, ``<pool>.map(fn, …)``).
    is_task: bool = False
    #: Fingerprint of the function's own source segment — the runtime
    #: compares it against the live callable to detect stale
    #: certificates.
    code: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "line": self.line, "col": self.col,
            "hazards": [h.as_dict() for h in self.hazards],
            "pickle_hazards": [h.as_dict() for h in self.pickle_hazards],
            "global_writes": [h.as_dict() for h in self.global_writes],
            "calls": [list(call) for call in self.calls],
            "is_trial": self.is_trial, "is_task": self.is_task,
            "code": self.code,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=payload["qualname"], line=payload["line"],
            col=payload["col"],
            hazards=[Hazard(**h) for h in payload["hazards"]],
            pickle_hazards=[Hazard(**h)
                            for h in payload["pickle_hazards"]],
            global_writes=[Hazard(**h) for h in payload["global_writes"]],
            calls=[(c[0], c[1], c[2]) for c in payload["calls"]],
            is_trial=payload["is_trial"], is_task=payload["is_task"],
            code=payload["code"],
        )


@dataclasses.dataclass
class ModuleSummary:
    """One module's functions, imports, and task references."""

    path: str
    module: str
    imports: List[str]
    functions: Dict[str, FunctionSummary]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "path": self.path, "module": self.module,
            "imports": list(self.imports),
            "functions": {name: fn.as_dict()
                          for name, fn in sorted(self.functions.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=payload["path"], module=payload["module"],
            imports=list(payload["imports"]),
            functions={name: FunctionSummary.from_dict(fn)
                       for name, fn in payload["functions"].items()},
        )


# -- the scan --------------------------------------------------------------


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOPS = (ast.For, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
#: Nodes a function summary reads, besides the sites they carry.
_SUMMARY_NODES = (ast.Call, ast.Lambda, *_LOOPS, *_COMPREHENSIONS,
                  ast.Import, ast.ImportFrom, ast.Global, ast.Assign,
                  ast.AnnAssign, ast.AugAssign)


@dataclasses.dataclass
class Site:
    """One call or iteration site, as the scan records it."""

    #: The ``ast.Call``, or the iterated expression; its line and column
    #: anchor any finding.
    node: ast.expr
    #: Dotted name as written — the call target, or the iterated
    #: expression — or ``None`` when it is no Name/Attribute chain.
    raw: Optional[str]
    #: Name of the innermost enclosing function named like a trial.
    trial: Optional[str]
    #: ``raw`` with import aliases resolved.
    canonical: Optional[str] = None


def _resolve_relative(node: ast.ImportFrom, package: str) -> str:
    """The absolute dotted module an ``ImportFrom`` targets."""
    if node.level == 0:
        return node.module or ""
    parts = package.split(".") if package else []
    # level=1 is the current package; each extra level climbs one.
    climb = node.level - 1
    base = parts[:len(parts) - climb] if climb <= len(parts) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _module_globals(tree: ast.Module) -> set:
    """Names assigned at module level (mutation targets for purity)."""
    names = set()
    for node in tree.body:
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(e.id for e in target.elts
                             if isinstance(e, ast.Name))
    return names


def _local_bindings(fn: ast.AST,
                    own: Sequence[ast.AST]) -> Tuple[set, set]:
    """Parameter and locally assigned names (they shadow globals), and
    the names the function declares ``global``."""
    bound = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global = set()
    for node in own:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, _LOOPS):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
    return bound - declared_global, declared_global


class ModuleScan:
    """The one scan of a parsed module.

    A single breadth-first pass over the tree (``ast.walk`` order)
    records every call and iteration :class:`Site`, the module's import
    bindings, whether any call passes ``batch=``, and, per def or class
    scope, the nodes a function summary reads.  The DET and PAT rules
    filter :attr:`calls` and :attr:`iterations`; :meth:`summarize`
    derives the deep :class:`ModuleSummary`.  :attr:`ModuleSource.scan
    <repro.lint.registry.ModuleSource.scan>` memoises the scan, so a
    lint run scans each module once, with or without ``--deep``.
    """

    def __init__(self, module: ModuleSource) -> None:
        self.module = module
        #: Every call site, in walk order.
        self.calls: List[Site] = []
        #: Every iterated expression (loops and comprehensions).
        self.iterations: List[Site] = []
        #: Any call passes a ``batch=`` keyword: the module is on the
        #: batched path.
        self.batch = False
        #: ``import`` / ``from ... import`` statements, in walk order.
        self.imports: List[ast.stmt] = []
        #: Node -> the sites it carries (a call; the iterable of a loop
        #: or of each comprehension generator).
        self._sites_at: Dict[ast.AST, List[Site]] = {}
        #: Def/class node (``None`` at module level) -> the summary
        #: nodes in its own body, nested defs and classes excluded.
        self._own: Dict[Optional[ast.AST], List[ast.AST]] = {}
        queue = collections.deque(
            (child, None, None)
            for child in ast.iter_child_nodes(module.tree))
        while queue:
            node, scope, trial = queue.popleft()
            if isinstance(node, _SUMMARY_NODES):
                self._own.setdefault(scope, []).append(node)
            if isinstance(node, ast.Call):
                self._record(node, self.calls, node, node.func, trial)
                if not self.batch:
                    self.batch = any(keyword.arg == "batch"
                                     for keyword in node.keywords)
            elif isinstance(node, _LOOPS):
                self._record(node, self.iterations, node.iter, node.iter,
                             trial)
            elif isinstance(node, _COMPREHENSIONS):
                for generator in node.generators:
                    self._record(node, self.iterations, generator.iter,
                                 generator.iter, trial)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.append(node)
            elif isinstance(node, (*_SCOPE_NODES, ast.ClassDef)):
                scope = node
                if (not isinstance(node, ast.ClassDef)
                        and "trial" in node.name.lower()):
                    trial = node.name
            queue.extend((child, scope, trial)
                         for child in ast.iter_child_nodes(node))
        self._bind_imports()
        for site in (*self.calls, *self.iterations):
            site.canonical = self.canonical(site.raw)

    def _bind_imports(self) -> None:
        #: ``bound name -> dotted module`` from ``import a.b [as c]``.
        self.modules: Dict[str, str] = {}
        #: ``bound name -> module.attr`` from ``from m import a [as b]``.
        self.members: Dict[str, str] = {}
        #: Names ``import random [as name]`` binds the module to.
        self.random_modules = set()
        #: ``(local, name)`` per ``from random import name [as local]``.
        self.random_imports: List[Tuple[str, str]] = []
        #: Dotted modules imported anywhere (``from m import a`` names
        #: ``m``), relative imports resolved.
        self.imported = set()
        package = self.module.name.rpartition(".")[0]
        for node in self.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported.add(alias.name)
                    head = alias.name.split(".")[0]
                    self.modules[alias.asname or head] = \
                        alias.name if alias.asname else head
                    if alias.name == "random":
                        self.random_modules.add(alias.asname or "random")
                continue
            base = _resolve_relative(node, package)
            if base:
                self.imported.add(base)
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    self.members[local] = f"{base}.{alias.name}"
                if node.module == "random":
                    self.random_imports.append((local, alias.name))

    def canonical(self, dotted: Optional[str]) -> Optional[str]:
        """A dotted name as written, with import aliases resolved.

        ``_wall`` after ``from time import time as _wall`` resolves to
        ``time.time``; ``t.time`` after ``import time as t`` to
        ``time.time``; a plain local name stays itself.
        """
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        bound = self.members.get(head) or self.modules.get(head)
        return dotted if bound is None else bound + dot + rest

    def _record(self, anchor: ast.AST, sites: List[Site], node: ast.expr,
                named: ast.expr, trial: Optional[str]) -> None:
        site = Site(node, dotted_name(named), trial)
        sites.append(site)
        self._sites_at.setdefault(anchor, []).append(site)

    # -- the deep summary --------------------------------------------------

    def summarize(self) -> ModuleSummary:
        """Every function summary of the module, from this scan."""
        tree = self.module.tree
        self.globals = _module_globals(tree)
        #: top-level function/class names, for local call resolution.
        self.top_level = {node.name for node in tree.body
                          if isinstance(node, (*_SCOPE_NODES,
                                               ast.ClassDef))}
        self.functions: Dict[str, FunctionSummary] = {}
        self._walk(tree.body, prefix="", class_name=None)
        for name in self._task_names():
            summary = self.functions.get(name)
            if summary is not None:
                summary.is_task = True
        return ModuleSummary(
            path=self.module.path, module=self.module.name,
            imports=sorted(self.imported),
            functions=self.functions)

    def _walk(self, body: Sequence[ast.stmt], prefix: str,
              class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, _SCOPE_NODES):
                qual = f"{prefix}{node.name}"
                self.functions[qual] = self._summarize(node, qual,
                                                       class_name)
                self._walk(node.body, prefix=f"{qual}.<locals>.",
                           class_name=None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                self._walk(node.body, prefix=f"{qual}.",
                           class_name=node.name)

    def _summarize(self, fn: ast.AST, qual: str,
                   class_name: Optional[str]) -> FunctionSummary:
        start = min([d.lineno for d in fn.decorator_list],
                    default=fn.lineno)
        segment = "\n".join(self.module.lines[start - 1:fn.end_lineno])
        summary = FunctionSummary(
            qualname=qual, line=fn.lineno, col=fn.col_offset,
            is_trial="trial" in fn.name.lower(),
            code=function_fingerprint(segment))
        own = sorted(self._own.get(fn, ()),
                     key=lambda node: (node.lineno, node.col_offset))
        locals_, declared = _local_bindings(fn, own)
        for node in own:
            for site in self._sites_at.get(node, ()):
                if isinstance(node, ast.Call):
                    self._scan_call(site, summary, class_name, locals_)
                else:
                    self._scan_iteration(site, summary)
            if isinstance(node, ast.Lambda):
                summary.pickle_hazards.append(Hazard(
                    kind="pickle",
                    detail="lambda capturing the enclosing frame",
                    line=node.lineno))
            elif (isinstance(node, ast.ImportFrom)
                    and node.module == POOL_MODULE):
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"from {POOL_MODULE} import ...", node.lineno))
            elif isinstance(node, ast.Import):
                summary.pickle_hazards.extend(
                    Hazard("pickle", f"import {POOL_MODULE}", node.lineno)
                    for alias in node.names if alias.name == POOL_MODULE)
        self._scan_global_writes(own, summary, locals_, declared)
        return summary

    # -- hazard scanners ---------------------------------------------------

    def _scan_call(self, site: Site, summary: FunctionSummary,
                   class_name: Optional[str], locals_: set) -> None:
        canonical = site.canonical
        line = site.node.lineno
        if canonical is not None and not self._shadowed(canonical,
                                                        locals_):
            if canonical in CLOCK_CALLS:
                summary.hazards.append(Hazard(
                    "clock", f"wall-clock read {canonical}()", line))
            elif canonical in ENTROPY_CALLS:
                summary.hazards.append(Hazard(
                    "rng", f"OS-entropy draw {canonical}()", line))
            elif canonical in ENV_CALLS or canonical.startswith(
                    "os.environ."):
                summary.hazards.append(Hazard(
                    "env", f"environment read {canonical}()", line))
            elif (canonical.startswith("random.")
                    and canonical[len("random."):] in UNSEEDED_RANDOM_FNS):
                summary.hazards.append(Hazard(
                    "rng", f"global-RNG draw {canonical}()", line))
            elif canonical == "random.Random" and not has_arguments(site.node):
                summary.hazards.append(Hazard(
                    "rng", "seedless random.Random()", line))
            elif canonical in UNPICKLABLE_CTORS:
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"unpicklable {canonical}() handle", line))
            elif canonical == "open":
                summary.pickle_hazards.append(Hazard(
                    "pickle", "open file handle", line))
            tail = canonical.rpartition(".")[2]
            if (tail in POOL_API
                    and (canonical == tail
                         or canonical.startswith(POOL_MODULE + ".")
                         or canonical.startswith("pool."))):
                summary.pickle_hazards.append(Hazard(
                    "pickle", f"warm-pool API call {tail}()", line))
        self._record_call_edge(site, summary, class_name, locals_)

    def _shadowed(self, canonical: str, locals_: set) -> bool:
        """A canonical match is void when its head is a local binding
        (a parameter named ``time`` shadows the module)."""
        head = canonical.split(".")[0]
        return head in locals_ and not self._aliased(head)

    def _scan_iteration(self, site: Site,
                        summary: FunctionSummary) -> None:
        target = site.node
        if isinstance(target, (ast.Set, ast.SetComp)):
            summary.hazards.append(Hazard(
                "order", "iteration over a set (hash order)",
                target.lineno))
        elif (isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id in ("set", "frozenset")):
            summary.hazards.append(Hazard(
                "order", f"iteration over {target.func.id}() "
                         f"(hash order)", target.lineno))
        elif site.canonical == "os.environ":
            summary.hazards.append(Hazard(
                "env", "iteration over os.environ", target.lineno))

    def _scan_global_writes(self, own: Sequence[ast.AST],
                            summary: FunctionSummary, locals_: set,
                            declared: set) -> None:
        mutable = (self.globals - locals_) | declared
        if not mutable:
            return
        for node in own:
            if isinstance(node, (ast.Assign, ast.AnnAssign,
                                 ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    hazard = self._write_target(target, declared, mutable)
                    if hazard is not None:
                        summary.global_writes.append(
                            Hazard("global", hazard, node.lineno))
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in mutable):
                    summary.global_writes.append(Hazard(
                        "global",
                        f"mutates module global "
                        f"'{func.value.id}.{func.attr}()'", node.lineno))

    def _write_target(self, target: ast.expr, declared: set,
                      mutable: set) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in declared:
            return f"assigns module global '{target.id}'"
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in mutable):
            return f"stores into module global '{target.value.id}[...]'"
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in mutable):
            return (f"sets attribute on module global "
                    f"'{target.value.id}.{target.attr}'")
        return None

    # -- call edges --------------------------------------------------------

    def _record_call_edge(self, site: Site, summary: FunctionSummary,
                          class_name: Optional[str],
                          locals_: set) -> None:
        func = site.node.func
        line = site.node.lineno
        if isinstance(func, ast.Name):
            name = func.id
            if name in locals_:
                return
            if name in self.top_level:
                summary.calls.append(("local", name, line))
            elif name in self.members:
                summary.calls.append(("ext", self.members[name],
                                      line))
        elif isinstance(func, ast.Attribute):
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "self"
                    and class_name is not None):
                summary.calls.append(("local",
                                      f"{class_name}.{func.attr}", line))
                return
            canonical = site.canonical
            if canonical is None:
                return
            head = canonical.split(".")[0]
            if head in locals_ and not self._aliased(head):
                return
            if self._aliased(head):
                summary.calls.append(("ext", canonical, line))
            elif head in self.top_level:
                # Foo.bar() / CONFIG.build() on a module-level name:
                # the dotted form matches a method qualname directly.
                summary.calls.append(("local", canonical, line))

    def _aliased(self, head: str) -> bool:
        return head in self.modules or head in self.members

    # -- task references ---------------------------------------------------

    def _task_names(self) -> set:
        """Names referenced as task callables anywhere in the module."""
        names = set()
        for site in self.calls:
            call = site.node
            for keyword in call.keywords:
                if (keyword.arg in ("trial", "fn", "task")
                        and isinstance(keyword.value, ast.Name)):
                    names.add(keyword.value.id)
            canonical = site.canonical
            is_map = (isinstance(call.func, ast.Attribute)
                      and call.func.attr == "map")
            is_runner = canonical in _TASK_CALLABLES or (
                canonical is not None
                and canonical.rpartition(".")[2] in ("run_trials",
                                                     "parallel_map"))
            if (is_map or is_runner) and call.args \
                    and isinstance(call.args[0], ast.Name):
                names.add(call.args[0].id)
        return names


def summarize_module(module: ModuleSource) -> ModuleSummary:
    """The :class:`ModuleSummary` of one parsed module, derived from its
    memoised :attr:`~repro.lint.registry.ModuleSource.scan`."""
    return module.scan.summarize()
