"""Right-impact scoring with exact rational arithmetic.

A right at position x of a length-y chain weighs y/x. The impact degree of
a scenario is the sum of adopted-occurrence weights minus the sum of
demoted-occurrence weights; domains and purposes add up their parts.
Each side is summed in integers over the lcm of its positions, and a
scenario's xi, delta and degree are each one `Fraction` made from those
integer sums (an empty side is a shared zero), so a breakdown carries
exact numbers and nothing per occurrence; its `per_occurrence` entries
are built when read.
Each Engine keeps two score tables: a scenario is scored, and a domain
summed, on first use, and the breakdown is shared by every later reader.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .engine import Engine, Occurrence, ScenarioFindings


class ScoringError(ValueError):
    pass


_ZERO = Fraction(0)


class OccurrenceWeight(NamedTuple):
    scenario: str
    right: str
    chain: str
    position: int
    length: int
    side: str  # "xi" | "delta"
    value: Fraction


@dataclass
class DegreeBreakdown:
    """Exact xi, delta and degree = xi - delta. A breakdown from an
    Engine's score table is shared, so no caller may mutate one."""
    xi: Fraction = _ZERO
    delta: Fraction = _ZERO
    # what `per_occurrence` is built from: a scenario's findings, or the
    # breakdowns a sum added up
    source: ScenarioFindings | tuple[DegreeBreakdown, ...] = field(
        default=(), repr=False, compare=False)
    degree: Fraction | None = None  # xi - delta, worked out here when not given

    def __post_init__(self) -> None:
        if self.degree is None:
            self.degree = self.xi - self.delta

    @property
    def per_occurrence(self) -> list[OccurrenceWeight]:
        """Each occurrence's weight y/x, built anew on every read. A
        scenario lists its adopted entries, then its demoted ones, each
        sorted by chain, position and right; a sum lists its parts' entries
        part by part."""
        source = self.source
        if isinstance(source, ScenarioFindings):
            return (_entries(source.scenario, source.adopted, "xi")
                    + _entries(source.scenario, source.demoted_occurrences, "delta"))
        return [e for part in source for e in part.per_occurrence]

    def add(self, other: "DegreeBreakdown") -> "DegreeBreakdown":
        return _sum((self, other))


@lru_cache(maxsize=1024)
def weight(x: int, y: int) -> Fraction:
    """Positional weight y/x for position x in a chain of length y."""
    if x < 1 or x > y:
        raise ScoringError(f"invalid chain position <{x},{y}>")
    return Fraction(y, x)


def _entries(scenario: str, occs: Iterable[Occurrence], side: str) -> list[OccurrenceWeight]:
    out = [OccurrenceWeight(scenario, *o, side, weight(o.position, o.length)) for o in occs]
    out.sort(key=lambda e: (e.chain, e.position, e.right))
    return out


def _side(occs: Iterable[Occurrence]) -> tuple[int, int]:
    """The sum of y/x over the occurrences as (numerator, L): the sum of
    y * (L // x) over L, the lcm of the positions x, grown as the positions
    come."""
    num, den = 0, 1
    for _, _, x, y in occs:
        if x < 1 or x > y:
            raise ScoringError(f"invalid chain position <{x},{y}>")
        if den % x:
            grown = den // math.gcd(den, x) * x
            num *= grown // den
            den = grown
        num += y * (den // x)
    return num, den


def _exact_sum(values: list[Fraction]) -> Fraction:
    """The sum in integers over the values' least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)


def degree_scenario(findings: ScenarioFindings) -> DegreeBreakdown:
    xn, xd = _side(findings.adopted)
    dn, dd = _side(findings.demoted_occurrences)
    xi = Fraction(xn, xd) if xn else _ZERO
    if not dn:
        return DegreeBreakdown(xi, _ZERO, findings, xi)
    return DegreeBreakdown(xi, Fraction(dn, dd), findings,
                           Fraction(xn * dd - dn * xd, xd * dd))


def scenario_breakdown(engine: Engine, scenario_id: str) -> DegreeBreakdown:
    """The scenario's breakdown from the Engine's score table, scored on
    first use."""
    table = engine.breakdowns
    if scenario_id not in table:
        table[scenario_id] = degree_scenario(engine.assess(scenario_id))
    return table[scenario_id]


def _sum(parts: Iterable[DegreeBreakdown]) -> DegreeBreakdown:
    """A new breakdown; the parts are left as they were."""
    parts = tuple(parts)
    return DegreeBreakdown(_exact_sum([p.xi for p in parts]),
                           _exact_sum([p.delta for p in parts]), parts)


def degree_domain(engine: Engine, domain_id: str) -> DegreeBreakdown:
    """Sum of scenario degrees over the domain, from the Engine's domain
    table, summed on first use."""
    table = engine.domain_breakdowns
    if domain_id not in table:
        table[domain_id] = _sum(scenario_breakdown(engine, sid)
                                for sid in engine.kb.domain(domain_id).scenarios)
    return table[domain_id]


def degree_purpose(engine: Engine, purpose_id: str) -> DegreeBreakdown:
    """Sum of domain degrees over the purpose's family of domains."""
    return _sum(degree_domain(engine, did)
                for did in engine.kb.purpose(purpose_id).domains)
