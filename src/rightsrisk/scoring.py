"""Right-impact scoring with exact rational arithmetic.

A right at position x of a length-y chain weighs y/x. The impact degree of
a scenario is the sum of adopted-occurrence weights minus the sum of
demoted-occurrence weights; domains and purposes add up their parts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .engine import Engine, Occurrence, ScenarioFindings


class ScoringError(ValueError):
    pass


@dataclass(frozen=True)
class OccurrenceWeight:
    scenario: str
    right: str
    chain: str
    position: int
    length: int
    side: str  # "xi" | "delta"
    value: Fraction


@dataclass
class DegreeBreakdown:
    xi: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)
    per_occurrence: list[OccurrenceWeight] = field(default_factory=list)

    @property
    def degree(self) -> Fraction:
        return self.xi - self.delta

    def add(self, other: "DegreeBreakdown") -> "DegreeBreakdown":
        return DegreeBreakdown(self.xi + other.xi, self.delta + other.delta,
                               self.per_occurrence + other.per_occurrence)


def weight(x: int, y: int) -> Fraction:
    """Positional weight y/x for position x in a chain of length y."""
    if x < 1 or x > y:
        raise ScoringError(f"invalid chain position <{x},{y}>")
    return Fraction(y, x)


def _entries(scenario: str, occs: Iterable[Occurrence], side: str) -> list[OccurrenceWeight]:
    out = [OccurrenceWeight(scenario, o.right, o.chain, o.position, o.length,
                            side, weight(o.position, o.length))
           for o in occs]
    out.sort(key=lambda e: (e.chain, e.position, e.right))
    return out


def degree_scenario(findings: ScenarioFindings) -> DegreeBreakdown:
    entries = (_entries(findings.scenario, findings.adopted, "xi")
               + _entries(findings.scenario, findings.demoted_occurrences, "delta"))
    xi = sum((e.value for e in entries if e.side == "xi"), Fraction(0))
    delta = sum((e.value for e in entries if e.side == "delta"), Fraction(0))
    return DegreeBreakdown(xi, delta, entries)


def degree_domain(engine: Engine, domain_id: str,
                  subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of scenario degrees over the domain (or an explicit non-empty
    subset of its scenarios)."""
    domain = engine.kb.domain(domain_id)
    if subset is None:
        chosen = list(domain.scenarios)
    else:
        if not subset:
            raise ScoringError("empty subset: minimization ranges over non-empty sets")
        extra = set(subset) - set(domain.scenarios)
        if extra:
            raise ScoringError(f"scenarios {sorted(extra)} outside domain {domain_id!r}")
        chosen = [s for s in domain.scenarios if s in subset]
    total = DegreeBreakdown()
    for sid in chosen:
        total = total.add(degree_scenario(engine.assess(sid)))
    return total


def degree_purpose(engine: Engine, purpose_id: str,
                   subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of domain degrees over the purpose's family of domains."""
    purpose = engine.kb.purpose(purpose_id)
    if subset is None:
        chosen = list(purpose.domains)
    else:
        if not subset:
            raise ScoringError("empty subset: minimization ranges over non-empty sets")
        extra = set(subset) - set(purpose.domains)
        if extra:
            raise ScoringError(f"domains {sorted(extra)} outside purpose {purpose_id!r}")
        chosen = [d for d in purpose.domains if d in subset]
    total = DegreeBreakdown()
    for did in chosen:
        total = total.add(degree_domain(engine, did))
    return total
