"""Module naming and import-graph construction for the deep pass.

A whole-program analysis needs to know *which module a file is* (to
resolve ``from pkg.mod import helper`` against the analyzed set) without
importing anything.  :func:`module_name_for` infers the dotted name the
standard way: walk up from the file while ``__init__.py`` marks each
parent as a package.  The returned root directory is the import root —
the directory a runtime would need on ``sys.path`` — which
:func:`import_closure` uses to chase project-internal imports for
``repro certify`` without analyzing the whole tree.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.registry import ModuleSource

__all__ = ["import_closure", "import_graph", "module_name_for"]


def module_name_for(path: str) -> Tuple[str, str]:
    """``(dotted module name, import root dir)`` for a source file.

    ``src/repro/lint/engine.py`` → ``("repro.lint.engine", "src")``
    provided each of ``repro`` and ``repro/lint`` holds an
    ``__init__.py``.  A file outside any package is its own bare stem.
    ``__init__.py`` itself names the package.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:  # pragma: no cover - filesystem root guard
            break
        parts.insert(0, package)
    return ".".join(parts) or stem, directory


def import_graph(modules: Dict[str, Sequence[str]]) -> Dict[str, List[str]]:
    """``module -> sorted imports``, restricted to the analyzed set.

    ``modules`` maps each analyzed module name to *all* its imports;
    the graph keeps only edges whose target is itself analyzed (a
    ``from pkg import mod`` edge recorded as ``pkg`` is promoted to
    ``pkg.mod`` when only the submodule is in the set).
    """
    names = set(modules)
    graph: Dict[str, List[str]] = {}
    for module, imports in modules.items():
        edges: Set[str] = set()
        for target in imports:
            if target in names:
                edges.add(target)
                continue
            # 'from pkg import mod' records 'pkg'; keep the edge when
            # exactly one analyzed module lives directly under it.
            children = [name for name in names
                        if name.startswith(target + ".")]
            edges.update(children if len(children) <= 4 else [])
        edges.discard(module)
        graph[module] = sorted(edges)
    return graph


def import_closure(path: str, limit: int = 512) -> List[ModuleSource]:
    """Project-internal transitive import closure of one source file.

    Starting from ``path``, resolve every import against the file's
    import root and follow the ones that exist on disk, breadth-first
    and alphabetically, up to ``limit`` files.  This is how ``repro
    certify`` scopes its analysis: the target module plus everything it
    can reach, nothing else.  Returns the parsed modules sorted by path
    (files that do not read or parse are left out); each one's imports
    come from its memoised scan, which the analysis then reuses.
    """
    first = os.path.abspath(path)
    _, root = module_name_for(first)
    parsed: Dict[str, Optional[ModuleSource]] = {first: _parse(first)}
    queue = [first]
    while queue and len(parsed) < limit:
        module = parsed[queue.pop(0)]
        if module is None:
            continue
        for target in sorted(module.scan.imported):
            for candidate in _candidate_files(root, target):
                if candidate not in parsed and os.path.isfile(candidate):
                    parsed[candidate] = _parse(candidate)
                    queue.append(candidate)
    return sorted((module for module in parsed.values()
                   if module is not None),
                  key=lambda module: module.path)


def _parse(path: str) -> Optional[ModuleSource]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ModuleSource.parse(path, handle.read())
    except (OSError, SyntaxError, ValueError):
        return None


def _candidate_files(root: str, dotted: str) -> List[str]:
    """Filesystem paths a dotted module could live at under ``root``."""
    base = os.path.join(root, *dotted.split("."))
    return [base + ".py", os.path.join(base, "__init__.py")]
