"""Rule base class and registry.

Every rule inspects one parsed module at a time and yields
:class:`~repro.lint.findings.Finding` objects.  Rules are registered by
id in a :class:`RuleRegistry`; the default registry is populated by
importing the ``rules_*`` modules (see :func:`default_rules`).
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import functools
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.lint.findings import Finding, severity_rank

#: The line breaks ``ast`` counts.  ``str.splitlines`` also breaks on
#: form feeds, vertical tabs, ``\x1c``-``\x1e``, ``\x85``, U+2028 and
#: U+2029, which would shift every later line off its ``lineno``.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


@dataclasses.dataclass
class ModuleSource:
    """One parsed source file handed to every rule.

    Attributes:
        path: Path the file was read from (relative paths stay relative
            so findings and baselines are machine-independent).
        source: Raw text.
        tree: Parsed ``ast.Module``.
        lines: The source split into lines the way ``ast`` numbers
            them, line breaks dropped — shared so rules and the
            suppression pass don't each re-split.
    """

    path: str
    source: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleSource":
        lines = _LINE_BREAK.split(source)
        if not lines[-1]:
            lines.pop()  # a final line break opens no line
        return cls(path=path, source=source,
                   tree=ast.parse(source, filename=path), lines=lines)

    def line(self, lineno: int) -> str:
        """The text of line ``lineno`` (1-based), ``""`` out of range."""
        return self.lines[lineno - 1] if 0 < lineno <= len(self.lines) \
            else ""

    @functools.cached_property
    def name(self) -> str:
        """The dotted module name, inferred from the package layout."""
        from repro.lint.deep.graph import module_name_for

        return module_name_for(self.path)[0]

    @functools.cached_property
    def scan(self):
        """The module's one memoised scan
        (:class:`~repro.lint.deep.summaries.ModuleScan`), shared by the
        DET and PAT rules and the deep summary."""
        from repro.lint.deep.summaries import ModuleScan

        return ModuleScan(self)

    def segment(self, node: ast.AST) -> str:
        """``ast.get_source_segment(self.source, node)``, byte for
        byte, without re-splitting the whole source on every call."""
        return self.source[self._index(node.lineno, node.col_offset):
                           self._index(node.end_lineno, node.end_col_offset)]

    def _index(self, lineno: int, offset: int) -> int:
        """Source index of an ``ast`` position (UTF-8 byte column)."""
        line = self.lines[lineno - 1]
        if not line.isascii():
            offset = len(line.encode("utf-8")[:offset].decode("utf-8"))
        return self._line_starts[lineno - 1] + offset

    @functools.cached_property
    def _line_starts(self) -> List[int]:
        return [0] + [match.end()
                      for match in _LINE_BREAK.finditer(self.source)]


class Rule(abc.ABC):
    """One static check.

    Class attributes:
        id: Short unique identifier (``family + number``, e.g. DET001).
        severity: Default severity; the engine may override per run.
        summary: One-line description for ``--list-rules`` and docs.
    """

    id: str = ""
    severity: str = "warning"
    summary: str = ""

    @abc.abstractmethod
    def check(self, module: ModuleSource) -> Iterable[Finding]:
        """Yield findings for one module."""

    def finding(self, module: ModuleSource, node: ast.AST,
                message: str, severity: Optional[str] = None) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(rule=self.id, severity=severity or self.severity,
                       path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


class RuleRegistry:
    """Rules by id, with per-rule severity overrides."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if not rule.id:
            raise ValueError(f"{type(rule).__name__} has no id")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        severity_rank(rule.severity)
        self._rules[rule.id] = rule
        return rule

    def rules(self, select: Optional[Sequence[str]] = None) -> List[Rule]:
        """All rules, or only the ids in ``select`` (order: by id)."""
        if select is None:
            return [self._rules[rid] for rid in sorted(self._rules)]
        missing = [rid for rid in select if rid not in self._rules]
        if missing:
            raise KeyError(f"unknown rule id(s): {', '.join(missing)}; "
                           f"known: {', '.join(sorted(self._rules))}")
        return [self._rules[rid] for rid in sorted(set(select))]

    def ids(self) -> List[str]:
        return sorted(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules())

    def __len__(self) -> int:
        return len(self._rules)


def default_rules() -> RuleRegistry:
    """A registry holding a fresh instance of every built-in rule.

    Instances are constructed per call so that per-run configuration
    (e.g. the DIV001 similarity threshold) never leaks between runs.
    """
    from repro.lint import (  # noqa: F401 - imported for registration
        rules_deep,
        rules_determinism,
        rules_diversity,
        rules_patterns,
        rules_process_safety,
    )

    registry = RuleRegistry()
    for module in (rules_determinism, rules_process_safety,
                   rules_patterns, rules_diversity, rules_deep):
        for rule_cls in module.RULES:
            registry.register(rule_cls())
    return registry


# -- shared AST helpers ----------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def has_arguments(call: ast.Call) -> bool:
    """Whether a call passes any positional or keyword argument."""
    return bool(call.args or call.keywords)


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` in a call, or ``None``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None
