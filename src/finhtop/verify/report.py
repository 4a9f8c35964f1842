"""Reports produced by the theorem checkers.

A report records whether the hypothesis of a result could be established
on the given instance, and whether the conclusion held.  Refuted reports
carry a replayable counterexample bundle (serialized inputs); a refutation
of a true theorem is a bug certificate for this library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import io
from ..diagram import Diagram, DiagramMorphism
from ..poset import PosetMap

ESTABLISHED = "Established"
NOT_ESTABLISHED = "NotEstablished"
ORACLE_UNKNOWN = "OracleUnknown"

VERIFIED = "Verified"
REFUTED = "Refuted"
SKIPPED = "Skipped"


@dataclass
class CheckReport:
    theorem: str
    hypothesis_status: str
    conclusion_status: str
    evidence: dict = field(default_factory=dict)
    hypothesis_reason: str | None = None

    def __post_init__(self):
        if self.hypothesis_status not in (ESTABLISHED, NOT_ESTABLISHED, ORACLE_UNKNOWN):
            raise ValueError(f"bad hypothesis status {self.hypothesis_status!r}")
        if self.conclusion_status not in (VERIFIED, REFUTED, SKIPPED):
            raise ValueError(f"bad conclusion status {self.conclusion_status!r}")
        skipped = self.conclusion_status == SKIPPED
        established = self.hypothesis_status == ESTABLISHED
        if skipped == established:
            raise ValueError("conclusion is Skipped exactly when hypothesis is not Established")

    def ok(self) -> bool:
        return self.conclusion_status != REFUTED

    def to_obj(self) -> dict:
        obj = {
            "theorem": self.theorem,
            "hypothesis_status": self.hypothesis_status,
            "conclusion_status": self.conclusion_status,
            "evidence": self.evidence,
        }
        if self.hypothesis_reason is not None:
            obj["hypothesis_reason"] = self.hypothesis_reason
        return obj

    def describe(self) -> str:
        head = f"[{self.theorem}] hypothesis={self.hypothesis_status} conclusion={self.conclusion_status}"
        if self.hypothesis_reason:
            head += f" ({self.hypothesis_reason})"
        return head


def skipped(theorem: str, status: str, reason: str, evidence: dict | None = None) -> CheckReport:
    return CheckReport(
        theorem=theorem,
        hypothesis_status=status,
        conclusion_status=SKIPPED,
        evidence=evidence or {},
        hypothesis_reason=reason,
    )


def verified(theorem: str, evidence: dict) -> CheckReport:
    return CheckReport(
        theorem=theorem,
        hypothesis_status=ESTABLISHED,
        conclusion_status=VERIFIED,
        evidence=evidence,
    )


def _serialized(value):
    """A checker input, or a dict of them, as JSON data; plain values pass
    through.  The io serializers are looked up at call time, so a rebinding
    there (to trace them) is the one that runs."""
    if isinstance(value, dict):
        return {k: _serialized(v) for k, v in value.items()}
    if isinstance(value, DiagramMorphism):
        return io.morphism_to_obj(value)
    if isinstance(value, Diagram):
        return io.diagram_to_obj(value)
    if isinstance(value, PosetMap):
        return io.map_to_obj(value)
    return value


def refuted(theorem: str, evidence: dict, bundle) -> CheckReport:
    """A refutation carrying the checker's inputs, serialized only now."""
    ev = dict(evidence)
    ev["counterexample"] = _serialized(bundle)
    return CheckReport(
        theorem=theorem,
        hypothesis_status=ESTABLISHED,
        conclusion_status=REFUTED,
        evidence=ev,
    )
