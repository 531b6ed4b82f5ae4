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
        return _sum((self, other))


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


def _chosen(units: tuple[str, ...], subset: Optional[set[str]],
            unit_kind: str, owner: str) -> list[str]:
    """`units` in declaration order, or those in a non-empty `subset` of them."""
    if subset is None:
        return list(units)
    if not subset:
        raise ScoringError("empty subset: minimization ranges over non-empty sets")
    extra = set(subset) - set(units)
    if extra:
        raise ScoringError(f"{unit_kind} {sorted(extra)} outside {owner}")
    return [u for u in units if u in subset]


def _sum(parts: Iterable[DegreeBreakdown]) -> DegreeBreakdown:
    total = DegreeBreakdown()
    for part in parts:
        total.xi += part.xi
        total.delta += part.delta
        total.per_occurrence.extend(part.per_occurrence)
    return total


def degree_domain(engine: Engine, domain_id: str,
                  subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of scenario degrees over the domain (or an explicit non-empty
    subset of its scenarios)."""
    chosen = _chosen(engine.kb.domain(domain_id).scenarios, subset,
                     "scenarios", f"domain {domain_id!r}")
    return _sum(degree_scenario(engine.assess(sid)) for sid in chosen)


def degree_purpose(engine: Engine, purpose_id: str,
                   subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of domain degrees over the purpose's family of domains."""
    chosen = _chosen(engine.kb.purpose(purpose_id).domains, subset,
                     "domains", f"purpose {purpose_id!r}")
    return _sum(degree_domain(engine, did) for did in chosen)
