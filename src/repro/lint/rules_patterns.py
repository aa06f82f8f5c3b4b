"""Redundancy-pattern misuse rules (PAT*).

The paper's patterns come with usage rules the type system cannot see:

* PAT001 — a voting set of even size: ``2k`` versions tolerate no more
  simultaneous failures than ``2k - 1`` (the ``2k + 1`` rule of §3.1),
  so the extra version is pure cost — and a 2-2 split deadlocks a
  majority voter;
* PAT002 — a parallel-evaluation pattern explicitly wired with
  ``adjudicator=None`` / ``voter=None``: Figure 1a is adjudicator-
  centric; relying on the implicit default deserves to be visible;
* PAT003 — sequential alternatives without a checkpointable subject:
  Randell's recovery blocks require state rollback before an alternate
  runs, otherwise the alternate sees the primary's side effects.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Type

from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule, keyword_value

#: Constructors whose first argument is a voting set.
VOTING_CONSTRUCTORS = frozenset((
    "NVersionProgramming", "ParallelEvaluation", "NCopyDataDiversity",
))
#: Version-population builders whose count argument feeds a voter.
POPULATION_BUILDERS = frozenset((
    "diverse_versions", "correlated_version_population",
))
#: Parallel patterns that accept an explicit adjudicator keyword.
ADJUDICATED_PATTERNS = {
    "ParallelEvaluation": "adjudicator",
    "NVersionProgramming": "voter",
}
#: Sequential patterns that accept a rollback subject.
SEQUENTIAL_PATTERNS = frozenset(("SequentialAlternatives",))


def _call_name(call: ast.Call) -> Optional[str]:
    """Terminal name of the constructor (handles ``module.Class(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_set_size(node: ast.expr) -> Optional[int]:
    """Statically known size of a voting set expression, else ``None``."""
    if isinstance(node, (ast.List, ast.Tuple)):
        if any(isinstance(el, ast.Starred) for el in node.elts):
            return None
        return len(node.elts)
    if isinstance(node, ast.Call) and _call_name(node) in \
            POPULATION_BUILDERS:
        count = node.args[1] if len(node.args) > 1 else \
            keyword_value(node, "n")
        if isinstance(count, ast.Constant) and isinstance(count.value, int):
            return count.value
    return None


class EvenVoterRule(Rule):
    id = "PAT001"
    severity = "warning"
    summary = ("even-sized voting set: 2k versions tolerate no more "
               "failures than 2k-1 (the paper's 2k+1 rule) and a tie "
               "deadlocks the majority voter")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.scan.calls:
            node = site.node
            name = _call_name(node)
            if name not in VOTING_CONSTRUCTORS or not node.args:
                continue
            size = _literal_set_size(node.args[0])
            if size is not None and size >= 2 and size % 2 == 0:
                yield self.finding(
                    module, node,
                    f"{name} with {size} versions: an even voting set "
                    f"tolerates only {size // 2 - 1} failures — the "
                    f"same as {size - 1} versions at lower cost; use "
                    f"2k+1 versions")


class MissingAdjudicatorRule(Rule):
    id = "PAT002"
    severity = "warning"
    summary = ("parallel pattern wired with an explicit None "
               "adjudicator: Figure 1a requires an adjudicator over "
               "the collected results")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.scan.calls:
            node = site.node
            name = _call_name(node)
            keyword = ADJUDICATED_PATTERNS.get(name or "")
            if keyword is None:
                continue
            value = keyword_value(node, keyword)
            if isinstance(value, ast.Constant) and value.value is None:
                yield self.finding(
                    module, node,
                    f"{name}({keyword}=None) disables the explicit "
                    f"adjudicator; pass a voter (e.g. MajorityVoter()) "
                    f"or omit the keyword to accept the default")


class MissingRollbackRule(Rule):
    id = "PAT003"
    severity = "info"
    summary = ("sequential alternatives without a checkpointable "
               "subject: alternates run against the primary's "
               "side effects (no rollback)")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for site in module.scan.calls:
            node = site.node
            if _call_name(node) not in SEQUENTIAL_PATTERNS:
                continue
            has_subject = (keyword_value(node, "subject") is not None
                           or len(node.args) > 1)
            if not has_subject:
                yield self.finding(
                    module, node,
                    "SequentialAlternatives without subject=: state is "
                    "not rolled back between alternates; pass a "
                    "Checkpointable subject unless the alternatives "
                    "are side-effect free")


RULES: Iterable[Type[Rule]] = (EvenVoterRule, MissingAdjudicatorRule,
                               MissingRollbackRule)
