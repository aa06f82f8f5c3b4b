"""N-version programming (Avizienis).

Several independently designed versions execute in parallel with the same
input configuration; a general voting algorithm — the reactive, implicit
adjudicator — compares the results and selects the majority output.
Deliberate code redundancy targeting development faults; the parallel
evaluation pattern of Figure 1a.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.adjudicators.base import Adjudicator
from repro.adjudicators.voting import MajorityVoter
from repro.analysis.cost import CostLedger
from repro.components.library import diverse_versions
from repro.components.version import Version
from repro.observe import current as _telemetry
from repro.patterns.parallel_evaluation import ParallelEvaluation
from repro.taxonomy.paper import paper_entry
from repro.taxonomy.registry import register
from repro.techniques.base import Technique


@register
class NVersionProgramming(Technique):
    """Execute N versions in parallel and vote.

    Args:
        versions: The independently developed versions (N >= 2; the paper
            notes ``2k + 1`` versions tolerate ``k`` faulty results).
        voter: The implicit adjudicator; defaults to majority voting.

    Raises:
        NoMajorityError: from :meth:`execute` when no quorum forms.
    """

    TAXONOMY = paper_entry("N-version programming")

    def __init__(self, versions: Sequence[Version],
                 voter: Optional[Adjudicator] = None) -> None:
        if len(versions) < 2:
            raise ValueError("N-version programming needs at least 2 versions")
        self.versions = list(versions)
        self.pattern = ParallelEvaluation(self.versions,
                                          adjudicator=voter or MajorityVoter())

    @classmethod
    def from_oracle(cls, oracle: Callable[..., Any], n: int,
                    failure_probability: float, seed: int = 0,
                    voter: Optional[Adjudicator] = None
                    ) -> "NVersionProgramming":
        """Build an NVP system over a synthetic diverse population."""
        return cls(diverse_versions(oracle, n, failure_probability,
                                    seed=seed), voter=voter)

    @property
    def n(self) -> int:
        return len(self.versions)

    @property
    def tolerable_failures(self) -> int:
        """k such that 2k + 1 <= N (the paper's sizing rule)."""
        return (self.n - 1) // 2

    def execute(self, *args: Any, env=None) -> Any:
        """Run all versions and return the voted result."""
        tel = _telemetry()
        if not tel.enabled:
            return self.pattern.execute(*args, env=env)
        with tel.tracer.span("technique.execute",
                             technique=self.technique_name):
            return self.pattern.execute(*args, env=env)

    @property
    def stats(self):
        return self.pattern.stats

    def cost_ledger(self, correct: int = 0) -> CostLedger:
        """Cost accounting: N design costs, zero adjudicator design cost
        (the voter is generic), N executions per request."""
        return CostLedger.from_pattern(self.pattern.stats, self.versions,
                                       adjudicator_design_cost=0.0,
                                       correct=correct)
