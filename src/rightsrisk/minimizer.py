"""Risk-minimizing subset search: among all non-empty subsets of a
domain's scenarios (or a purpose's domains) find those with maximal
impact degree.

Degrees are additive over disjoint unions, so every maximizer is the
positive units plus some zero-degree ones, or else a best single unit.
The tests check this against enumeration of every subset.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Engine
# unused here, but `perfbench/spans.py` patches degree_scenario at this name
from .scoring import _exact_sum, degree_domain, degree_scenario, scenario_breakdown  # noqa: F401

MAXIMIZER_CAP = 64


class SizeError(ValueError):
    pass


@dataclass
class MinimizationResult:
    maximizers: list[frozenset[str]]       # capped at MAXIMIZER_CAP, canonical order
    maximizer_count: int                   # total number of maximizers
    canonical: frozenset[str]
    optimal_degree: Fraction
    per_unit_degrees: dict[str, Fraction] = field(default_factory=dict)


def _subsets(ids: list[str], smallest: int):
    """Subsets of sorted `ids` with >= `smallest` members, in canonical
    order: largest first, then lexicographic id order."""
    for r in range(len(ids), smallest - 1, -1):
        yield from itertools.combinations(ids, r)


def _minimize_units(per_unit: dict[str, Fraction]) -> MinimizationResult:
    ids = sorted(per_unit)
    if not ids:
        raise SizeError("nothing to minimize over")

    positives = tuple(i for i in ids if per_unit[i] > 0)
    zeros = [i for i in ids if per_unit[i] == 0]
    if positives or zeros:
        # every maximizer is the positives plus some zeros; within one
        # size, P | E sorts like E because P is fixed and disjoint from E
        optimal = _exact_sum([per_unit[i] for i in positives])
        family = (frozenset(positives + extra)
                  for extra in _subsets(zeros, 0 if positives else 1))
        maximizers = list(itertools.islice(family, MAXIMIZER_CAP))
        count = 2 ** len(zeros) - (0 if positives else 1)
    else:
        # all degrees strictly negative: best single unit wins
        optimal = max(per_unit.values())
        singles = [frozenset((i,)) for i in ids if per_unit[i] == optimal]
        maximizers, count = singles[:MAXIMIZER_CAP], len(singles)

    return MinimizationResult(
        maximizers=maximizers,
        maximizer_count=count,
        canonical=maximizers[0],
        optimal_degree=optimal,
        per_unit_degrees=per_unit,
    )


def minimize_domain(engine: Engine, domain_id: str) -> MinimizationResult:
    """Degree-maximizing non-empty subsets of the domain's scenario set."""
    domain = engine.kb.domain(domain_id)
    per_unit = {sid: scenario_breakdown(engine, sid).degree
                for sid in domain.scenarios}
    return _minimize_units(per_unit)


def minimize_purpose(engine: Engine, purpose_id: str) -> MinimizationResult:
    """Same search one level up, over the purpose's domains."""
    purpose = engine.kb.purpose(purpose_id)
    per_unit = {did: degree_domain(engine, did).degree
                for did in purpose.domains}
    return _minimize_units(per_unit)
