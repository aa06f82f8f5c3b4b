"""Recovery blocks (Randell).

The primary block runs first; an explicitly designed acceptance test
judges its result.  On rejection the system state is rolled back to the
entry checkpoint and the next alternate runs — the sequential
alternatives pattern of Figure 1c.  Deliberate code redundancy with a
reactive, explicit adjudicator, targeting development faults.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.adjudicators.acceptance import AcceptanceTest
from repro.analysis.cost import CostLedger
from repro.components.state import Checkpointable
from repro.components.version import Version
from repro.observe import current as _telemetry
from repro.patterns.base import GuardedUnit
from repro.patterns.sequential_alternatives import SequentialAlternatives
from repro.taxonomy.paper import paper_entry
from repro.taxonomy.registry import register
from repro.techniques.base import Technique

#: Nominal one-off engineering cost of an application-specific acceptance
#: test, charged in the cost/efficacy comparison (Section 4.1).
ACCEPTANCE_TEST_DESIGN_COST = 50.0


@register
class RecoveryBlocks(Technique):
    """Primary + alternates guarded by an acceptance test with rollback.

    Args:
        blocks: The primary block first, then the alternates, in priority
            order.
        acceptance: The explicit adjudicator shared by all blocks.
        subject: Optional checkpointable application state, captured on
            entry and rolled back before each alternate (and on final
            failure), per Randell's formulation.

    Raises:
        AllAlternativesFailedError: from :meth:`execute` when every block
            fails its acceptance test.
    """

    TAXONOMY = paper_entry("Recovery blocks")

    def __init__(self, blocks: Sequence[Version],
                 acceptance: AcceptanceTest,
                 subject: Optional[Checkpointable] = None) -> None:
        if not blocks:
            raise ValueError("recovery blocks need at least a primary block")
        self.blocks = list(blocks)
        self.acceptance = acceptance
        units = [GuardedUnit(block, acceptance) for block in self.blocks]
        self.pattern = SequentialAlternatives(units, subject=subject)

    def execute(self, *args: Any, env=None) -> Any:
        """Run blocks in order until one passes the acceptance test."""
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
        """Cost accounting: alternate design costs plus the explicit
        acceptance test's design cost; executions only grow on failure."""
        return CostLedger.from_pattern(
            self.pattern.stats, self.blocks,
            adjudicator_design_cost=ACCEPTANCE_TEST_DESIGN_COST,
            correct=correct)
