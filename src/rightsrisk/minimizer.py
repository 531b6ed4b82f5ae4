"""Risk-minimizing subset search: among all non-empty subsets of a
domain's scenarios (or a purpose's domains) find those with maximal
impact degree.

Degrees are additive over disjoint unions, so the exhaustive bitmask
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


def _subset_key(subset: frozenset[str]):
    # largest first, then lexicographic id order
    return (-len(subset), tuple(sorted(subset)))


def _finalize(family: list[frozenset[str]], optimal: Fraction,
              per_unit: dict[str, Fraction], method: str) -> MinimizationResult:
    family = sorted(set(family), key=_subset_key)
    return MinimizationResult(
        maximizers=family[:MAXIMIZER_CAP],
        maximizer_count=len(family),
        canonical=family[0],
        optimal_degree=optimal,
        per_unit_degrees=per_unit,
        method=method,
    )


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
        best: Optional[Fraction] = None
        family: list[frozenset[str]] = []
        for mask in range(1, 1 << n):
            total = sum((per_unit[ids[i]] for i in range(n) if mask >> i & 1),
                        Fraction(0))
            if best is None or total > best:
                best = total
                family = []
            if total == best:
                family.append(frozenset(ids[i] for i in range(n) if mask >> i & 1))
        assert best is not None
        return _finalize(family, best, per_unit, "exhaustive")

    if mode != "fast":
        raise ValueError(f"unknown mode {mode!r}")

    positives = frozenset(i for i in ids if per_unit[i] > 0)
    zeros = [i for i in ids if per_unit[i] == 0]
    if positives or zeros:
        optimal = sum((per_unit[i] for i in positives), Fraction(0))
        family = []
        for r in range(len(zeros) + 1):
            for extra in itertools.combinations(zeros, r):
                subset = positives | frozenset(extra)
                if subset:
                    family.append(subset)
        return _finalize(family, optimal, per_unit, "fast-path")

    # all degrees strictly negative: best single unit wins
    best = max(per_unit.values())
    family = [frozenset((i,)) for i in ids if per_unit[i] == best]
    return _finalize(family, best, per_unit, "fast-path")


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
