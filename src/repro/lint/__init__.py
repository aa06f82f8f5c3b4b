"""repro.lint — redundancy-aware static analysis.

Fault-handling machinery needs its own correctness tooling: the
determinism contract and the diversity assumption are both properties a
reviewer cannot see in a diff, and both have been broken by latent
static bugs.  This package is an AST-based linter with four rule
families:

* **diversity** (DIV*) — normalized-AST fingerprinting and
  token-shingle similarity flag near-clone versions as
  correlated-fault risk (the paper's §4 caveat, Brilliant et al.);
* **determinism** (DET*) — unseeded ``random``, wall-clock reads,
  builtin ``hash()``, hash-ordered iteration;
* **process-safety** (PROC*) — unpicklable lambdas/closures flowing
  into ``ParallelMap`` process-backend call sites;
* **pattern misuse** (PAT*) — even-sized voting sets (the ``2k + 1``
  rule), adjudicator-less parallel patterns, rollback-less sequential
  alternatives;
* **deep whole-program** (XDET*/XPROC*) — summary-based call-graph
  propagation of determinism, picklability, and purity across module
  boundaries (``repro lint --deep``, :mod:`repro.lint.deep`), plus
  runtime-enforced determinism certificates (``repro certify``).

Run it via ``repro lint <paths>`` or programmatically::

    from repro.lint import LintEngine

    report = LintEngine().run(["src/repro"])
    for finding in report.findings:
        print(finding.render())

Suppression: ``# lint: allow[RULE]`` inline for by-design findings, a
committed baseline file for accepted debt (docs/STATIC_ANALYSIS.md).
"""

from repro.lint.baseline import Baseline
from repro.lint.diversity import (
    ast_fingerprint,
    diversity,
    normalize_tokens,
    shingles,
    similarity,
)
from repro.lint.engine import (
    LintEngine,
    LintReport,
    build_engine,
    discover_files,
    discover_sources,
)
from repro.lint.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Finding,
    at_least,
    severity_rank,
)
from repro.lint.registry import (
    ModuleSource,
    Rule,
    RuleRegistry,
    default_rules,
)
from repro.lint.reporters import render_github, render_json, render_text
from repro.lint.rules_diversity import pairwise_similarity

__all__ = [
    "Baseline",
    "ERROR",
    "Finding",
    "INFO",
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "Rule",
    "RuleRegistry",
    "SEVERITIES",
    "WARNING",
    "ast_fingerprint",
    "at_least",
    "build_engine",
    "default_rules",
    "discover_files",
    "discover_sources",
    "diversity",
    "normalize_tokens",
    "pairwise_similarity",
    "render_github",
    "render_json",
    "render_text",
    "severity_rank",
    "shingles",
    "similarity",
]
