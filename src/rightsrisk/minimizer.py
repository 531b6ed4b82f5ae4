"""Risk-minimizing subset search: among all non-empty subsets of a
domain's scenarios (or a purpose's domains) find those with maximal
impact degree.

Degrees are additive over disjoint unions, so the exhaustive
enumeration doubles as the oracle for the additivity-based fast path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .engine import Engine
from .scoring import degree_domain, degree_scenario

EXHAUSTIVE_LIMIT = 24
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
    method: str = "fast-path"


def _subsets(ids: list[str], smallest: int):
    """Subsets of sorted `ids` with >= `smallest` members, in canonical
    order: largest first, then lexicographic id order."""
    for r in range(len(ids), smallest - 1, -1):
        yield from itertools.combinations(ids, r)


def _minimize_units(per_unit: dict[str, Fraction], mode: str) -> MinimizationResult:
    ids = sorted(per_unit)
    n = len(ids)
    if n == 0:
        raise SizeError("nothing to minimize over")

    if mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise SizeError(
                f"exhaustive mode supports at most {EXHAUSTIVE_LIMIT} units, "
                f"got {n}; use fast mode")
        optimal: Optional[Fraction] = None
        maximizers: list[frozenset[str]] = []
        count = 0
        for subset in _subsets(ids, 1):
            total = sum((per_unit[i] for i in subset), Fraction(0))
            if optimal is None or total > optimal:
                optimal, maximizers, count = total, [], 0
            if total == optimal:
                count += 1
                if count <= MAXIMIZER_CAP:
                    maximizers.append(frozenset(subset))
    elif mode != "fast":
        raise ValueError(f"unknown mode {mode!r}")
    else:
        positives = tuple(i for i in ids if per_unit[i] > 0)
        zeros = [i for i in ids if per_unit[i] == 0]
        if positives or zeros:
            # every maximizer is the positives plus some zeros; within one
            # size, P | E sorts like E because P is fixed and disjoint from E
            optimal = sum((per_unit[i] for i in positives), Fraction(0))
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
        method="exhaustive" if mode == "exhaustive" else "fast-path",
    )


def minimize_domain(engine: Engine, domain_id: str,
                    mode: str = "fast") -> MinimizationResult:
    """Degree-maximizing non-empty subsets of the domain's scenario set."""
    domain = engine.kb.domain(domain_id)
    per_unit = {sid: degree_scenario(engine.assess(sid)).degree
                for sid in domain.scenarios}
    return _minimize_units(per_unit, mode)


def minimize_purpose(engine: Engine, purpose_id: str,
                     mode: str = "fast") -> MinimizationResult:
    """Same search one level up, over the purpose's domains."""
    purpose = engine.kb.purpose(purpose_id)
    per_unit = {did: degree_domain(engine, did).degree
                for did in purpose.domains}
    return _minimize_units(per_unit, mode)
