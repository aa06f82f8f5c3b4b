"""Diversity rules (DIV*).

Redundancy only pays when the versions are diverse (§4, Brilliant et
al.): near-clone implementations fail on the same inputs, and the voter
confidently picks the shared wrong answer.  DIV001 fingerprints every
sizeable function in a module — normalized AST hash first, token-
shingle Jaccard similarity second — and flags pairs whose similarity
exceeds the threshold as correlated-fault risk, reporting the pairwise
score so reviewers can judge how much diversity actually exists.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple, Type

from repro.lint.diversity import (
    ast_fingerprint,
    normalize_tokens,
    shingles,
    similarity,
)
from repro.lint.findings import Finding
from repro.lint.registry import ModuleSource, Rule

#: Functions with fewer normalized tokens than this are skipped: tiny
#: accessors legitimately look alike.
MIN_TOKENS = 45

#: Similarity at or above this flags the pair as near-clones.
DEFAULT_THRESHOLD = 0.9


def module_functions(module: ModuleSource) -> List[
        Tuple[str, ast.AST, str]]:
    """``(qualified_name, node, source_segment)`` for every top-level
    function and method in the module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    named = []
    for node in module.tree.body:
        if isinstance(node, defs):
            named.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            named.extend((f"{node.name}.{item.name}", item)
                         for item in node.body if isinstance(item, defs))
    return [(name, node, module.segment(node)) for name, node in named]


def pairwise_similarity(sources: List[str]) -> List[List[float]]:
    """The full similarity matrix over a version set's sources.

    Symmetric with a unit diagonal; entry ``[i][j]`` is
    :func:`repro.lint.diversity.similarity` of sources ``i`` and ``j``.
    """
    n = len(sources)
    matrix = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            score = similarity(sources[i], sources[j])
            matrix[i][j] = matrix[j][i] = score
    return matrix


class NearCloneRule(Rule):
    id = "DIV001"
    severity = "warning"
    summary = ("near-clone function pair: correlated-fault risk — the "
               "versions will fail together and the voter will pick "
               "the shared wrong answer")

    def __init__(self, threshold: float = DEFAULT_THRESHOLD) -> None:
        self.threshold = threshold

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        functions = []
        for qualname, node, segment in module_functions(module):
            tokens = normalize_tokens(segment)
            if len(tokens) < MIN_TOKENS:
                continue
            functions.append((qualname, node, segment, tokens,
                              ast_fingerprint(segment)))

        for i, (name_a, node_a, src_a, tokens_a, fp_a) in \
                enumerate(functions):
            for name_b, node_b, src_b, tokens_b, fp_b in \
                    functions[i + 1:]:
                if fp_a is not None and fp_a == fp_b:
                    score = 1.0
                else:
                    sh_a = shingles(tokens_a)
                    sh_b = shingles(tokens_b)
                    union = len(sh_a | sh_b)
                    score = (len(sh_a & sh_b) / union) if union else 1.0
                if score >= self.threshold:
                    yield self.finding(
                        module, node_b,
                        f"'{name_b}' is a near-clone of '{name_a}' "
                        f"(similarity {score:.2f}, diversity "
                        f"{1 - score:.2f}): correlated-fault risk — "
                        f"diversify the implementation or merge the "
                        f"duplicates")


RULES: Iterable[Type[Rule]] = (NearCloneRule,)
