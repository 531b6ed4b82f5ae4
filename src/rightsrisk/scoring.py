"""Right-impact scoring with exact rational arithmetic.

A right at position x of a length-y chain weighs y/x. The impact degree of
a scenario is the sum of adopted-occurrence weights minus the sum of
demoted-occurrence weights; domains and purposes add up their parts.
Each Engine keeps one score table: a scenario is scored on first use and
its breakdown is shared by every later reader.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    """xi, delta and their entries. A breakdown from an Engine's score
    table is shared, so no caller may mutate one."""
    xi: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)
    per_occurrence: list[OccurrenceWeight] = field(default_factory=list)

    @property
    def degree(self) -> Fraction:
        return self.xi - self.delta

    def add(self, other: "DegreeBreakdown") -> "DegreeBreakdown":
        return _sum((self, other))


@lru_cache(maxsize=1024)
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


def _exact_sum(values: list[Fraction]) -> Fraction:
    """The sum in integers over the values' least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def degree_scenario(findings: ScenarioFindings) -> DegreeBreakdown:
    xi = _entries(findings.scenario, findings.adopted, "xi")
    delta = _entries(findings.scenario, findings.demoted_occurrences, "delta")
    return DegreeBreakdown(_exact_sum([e.value for e in xi]),
                           _exact_sum([e.value for e in delta]), xi + delta)


def scenario_breakdown(engine: Engine, scenario_id: str) -> DegreeBreakdown:
    """The scenario's breakdown from the Engine's score table, scored on
    first use."""
    table = engine.breakdowns
    if scenario_id not in table:
        table[scenario_id] = degree_scenario(engine.assess(scenario_id))
    return table[scenario_id]


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
    """A new breakdown; the parts are left as they were."""
    parts = list(parts)
    return DegreeBreakdown(_exact_sum([p.xi for p in parts]),
                           _exact_sum([p.delta for p in parts]),
                           [e for p in parts for e in p.per_occurrence])


def degree_domain(engine: Engine, domain_id: str,
                  subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of scenario degrees over the domain (or an explicit non-empty
    subset of its scenarios)."""
    chosen = _chosen(engine.kb.domain(domain_id).scenarios, subset,
                     "scenarios", f"domain {domain_id!r}")
    return _sum(scenario_breakdown(engine, sid) for sid in chosen)


def degree_purpose(engine: Engine, purpose_id: str,
                   subset: Optional[set[str]] = None) -> DegreeBreakdown:
    """Sum of domain degrees over the purpose's family of domains."""
    chosen = _chosen(engine.kb.purpose(purpose_id).domains, subset,
                     "domains", f"purpose {purpose_id!r}")
    return _sum(degree_domain(engine, did) for did in chosen)
