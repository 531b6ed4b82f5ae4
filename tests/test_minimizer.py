import itertools
import random
import time
from fractions import Fraction

import pytest

from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine
from rightsrisk.minimizer import (MAXIMIZER_CAP, MinimizationResult, SizeError,
                                  _minimize_units, minimize_domain, minimize_purpose)

from kb_random import random_kb


def units(**kwargs):
    return {k: Fraction(v) for k, v in kwargs.items()}


def canonical_key(subset):
    return (-len(subset), tuple(sorted(subset)))


def brute_force(per_unit):
    """The oracle: every non-empty subset summed, the best ones sorted by
    `canonical_key`, the first MAXIMIZER_CAP kept, plus their count."""
    ids = sorted(per_unit)
    n = len(ids)
    subsets = [frozenset(ids[i] for i in range(n) if mask >> i & 1)
               for mask in range(1, 1 << n)]
    totals = [sum(per_unit[u] for u in s) for s in subsets]
    best = max(totals)
    family = sorted((s for s, t in zip(subsets, totals) if t == best), key=canonical_key)
    return MinimizationResult(maximizers=family[:MAXIMIZER_CAP], maximizer_count=len(family),
                              canonical=family[0], optimal_degree=best,
                              per_unit_degrees=per_unit)


class TestMinimizeDomain:
    def test_scholarship(self, scholarship_kb):
        result = minimize_domain(Engine(scholarship_kb), "D_scholarship")
        assert result.optimal_degree == 3
        assert set(result.maximizers) == {
            frozenset({"S_d"}),
            frozenset({"S_d", "S_r"}),
            frozenset({"S_d", "S_e"}),
            frozenset({"S_d", "S_r", "S_e"}),
        }
        assert result.canonical == frozenset({"S_d", "S_r", "S_e"})

    def test_single_negative_scenario(self, pandemic_kb):
        result = minimize_domain(Engine(pandemic_kb), "D_pandemic")
        assert result.optimal_degree == -1
        assert result.maximizers == [frozenset({"S"})]

    def test_positive_beats_negative(self):
        kb = parse_kb(
            "right a; right b;\n"
            "scenario S1 { x, y }\nscenario S2 { z }\n"
            "domain D { S1, S2 }\n"
            "assert promotes(a) in S1;\nassert promotes(b) in S1;\n"
            "assert demotes(a) in S2;\n")
        result = minimize_domain(Engine(kb), "D")
        assert result.optimal_degree == 2
        assert result.maximizers == [frozenset({"S1"})]


class TestMinimizePurpose:
    def test_drops_negative_domain(self, triage_kb):
        result = minimize_purpose(Engine(triage_kb), "P_triage")
        assert result.maximizers == [frozenset({"D_clinic"})]
        assert result.optimal_degree == 5

    def test_all_zero_units(self):
        result = _minimize_units(units(A=0, B=0))
        assert result.optimal_degree == 0
        assert set(result.maximizers) == {
            frozenset({"A"}), frozenset({"B"}), frozenset({"A", "B"})}
        assert result.canonical == frozenset({"A", "B"})

    def test_single_domain(self):
        result = _minimize_units(units(D=-2))
        assert result.maximizers == [frozenset({"D"})]

    def test_no_units(self):
        with pytest.raises(SizeError, match="nothing to minimize over"):
            _minimize_units({})


class TestInvariants:
    def test_matches_brute_force_randomized(self):
        rng = random.Random(99)
        for _ in range(60):
            kb = random_kb(rng, max_scenarios=8)
            result = minimize_domain(Engine(kb), "D")
            assert result == brute_force(result.per_unit_degrees)

    def test_optimality_certificate(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            per_unit = {f"S{i}": Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for i in range(n)}
            result = _minimize_units(per_unit)
            assert result == brute_force(per_unit)
            ids = sorted(per_unit)
            for mask in range(1, 1 << n):
                subset_sum = sum(per_unit[ids[i]] for i in range(n)
                                 if mask >> i & 1)
                assert result.optimal_degree >= subset_sum

    def test_monotone_exclusion(self):
        result = _minimize_units(units(A=2, B=-1, C=0))
        for m in result.maximizers:
            assert "B" not in m

    def test_canonical_determinism(self):
        result = _minimize_units(units(A=0, B=0, C=1))
        again = _minimize_units(units(A=0, B=0, C=1))
        assert result.canonical == again.canonical == frozenset({"A", "B", "C"})
        assert result.maximizers == again.maximizers

    def test_maximizer_cap(self):
        per_unit = {f"S{i:02d}": Fraction(0) for i in range(8)}
        result = _minimize_units(per_unit)
        assert result.maximizer_count == 255
        assert len(result.maximizers) == 64
        assert result.canonical == frozenset(per_unit)


class TestCanonicalOrder:
    def test_matches_brute_force_on_unit_dicts(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 12)
            per_unit = {f"U{i:02d}": Fraction(rng.choice([-2, -1, 0, 0, 0, 1, 1, 3]),
                                               rng.choice([1, 1, 2]))
                        for i in range(n)}
            assert _minimize_units(per_unit) == brute_force(per_unit)

    def test_matches_brute_force_on_integer_dicts(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 9)
            per_unit = {f"U{i}": Fraction(rng.choice([-1, 0, 0, 1, 1])) for i in range(n)}
            assert _minimize_units(per_unit) == brute_force(per_unit)

    @pytest.mark.parametrize("positive, count", [(True, 2 ** 30), (False, 2 ** 30 - 1)])
    def test_fast_thirty_zeros(self, positive, count):
        per_unit = {f"Z{i:02d}": Fraction(0) for i in range(30)}
        if positive:
            per_unit["P"] = Fraction(2)
        start = time.perf_counter()
        result = _minimize_units(per_unit)
        assert time.perf_counter() - start < 1
        assert result.maximizer_count == count
        assert result.optimal_degree == (2 if positive else 0)
        # the first 64 in canonical order are all of size >= 28 zeros
        zeros = sorted(u for u in per_unit if u.startswith("Z"))
        extra = frozenset(per_unit) - frozenset(zeros)
        large = [frozenset(zeros) - frozenset(drop) | extra
                 for r in range(3) for drop in itertools.combinations(zeros, r)]
        assert result.maximizers == sorted(large, key=canonical_key)[:64]
        assert result.canonical == frozenset(per_unit)

    def test_ten_zeros(self):
        per_unit = {f"Z{i}": Fraction(0) for i in range(10)}
        result = _minimize_units(per_unit)
        assert result.maximizer_count == 1023
        assert len(result.maximizers) == 64
        assert result == brute_force(per_unit)

    def test_negative_ties_are_singletons(self):
        result = _minimize_units(units(A=-1, B=-3, C=-1))
        assert result.maximizers == [frozenset({"A"}), frozenset({"C"})]
        assert result.maximizer_count == 2
        assert result.optimal_degree == -1
