"""Result containers for the distributed tester."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..congest.instrumentation import ExecutionTrace

__all__ = ["RepetitionReport", "TesterResult"]


@dataclass(frozen=True, slots=True)
class RepetitionReport:
    """What happened in one repetition of the protocol."""

    index: int
    rejected: bool
    #: Cycle evidence as node IDs in cyclic order (if any node rejected).
    cycle_ids: Optional[Tuple[int, ...]]
    #: Vertices (indices) that output reject.
    rejecting_vertices: Tuple[int, ...]
    rounds: int


@dataclass
class TesterResult:
    """Aggregate output of :class:`repro.core.tester.CkFreenessTester`.

    ``accepted`` follows the paper's convention: the network accepts iff
    *every node in every repetition* accepted.  By the 1-sided-error
    guarantee, ``accepted=False`` always comes with verified cycle
    evidence.
    """

    accepted: bool
    k: int
    epsilon: float
    repetitions_run: int
    repetitions_planned: int
    rounds_per_repetition: int
    reports: List[RepetitionReport] = field(default_factory=list)
    traces: List[ExecutionTrace] = field(default_factory=list)

    @property
    def rejected(self) -> bool:
        """Convenience negation of ``accepted``."""
        return not self.accepted

    @property
    def total_rounds(self) -> int:
        """Communication rounds summed over executed repetitions."""
        return sum(r.rounds for r in self.reports)

    @property
    def evidence(self) -> Optional[Tuple[int, ...]]:
        """Cycle evidence (node IDs) from the first rejecting repetition."""
        for r in self.reports:
            if r.rejected and r.cycle_ids is not None:
                return r.cycle_ids
        return None

    @property
    def max_sequences_per_message(self) -> int:
        """Largest per-message sequence count across kept traces."""
        return max((t.max_sequences_per_message for t in self.traces), default=0)

    def __repr__(self) -> str:
        verdict = "accept" if self.accepted else "reject"
        return (
            f"TesterResult({verdict}, k={self.k}, eps={self.epsilon}, "
            f"reps={self.repetitions_run}/{self.repetitions_planned}, "
            f"rounds={self.total_rounds})"
        )
