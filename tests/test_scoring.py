import random
from fractions import Fraction

import pytest

from rightsrisk.engine import Engine
from rightsrisk.scoring import (ScoringError, degree_domain, degree_purpose,
                                degree_scenario, weight)

from kb_random import random_kb


class TestWeight:
    @pytest.mark.parametrize("x,y,expected", [
        (1, 2, Fraction(2)),
        (3, 3, Fraction(1)),
        (2, 3, Fraction(3, 2)),
        (1, 1, Fraction(1)),
    ])
    def test_values(self, x, y, expected):
        assert weight(x, y) == expected

    @pytest.mark.parametrize("x,y", [(0, 2), (3, 2), (-1, 4)])
    def test_invalid_positions(self, x, y):
        with pytest.raises(ScoringError):
            weight(x, y)

    def test_bounds(self):
        for y in range(1, 8):
            for x in range(1, y + 1):
                assert 1 <= weight(x, y) <= y


class TestDegreeScenario:
    def test_pandemic_degree(self, pandemic_kb):
        breakdown = degree_scenario(Engine(pandemic_kb).assess("S"))
        assert breakdown.xi == 1
        assert breakdown.delta == 2
        assert breakdown.degree == -1

    def test_outbreak_chain_degree(self, triage_kb):
        # chain of 3 with the first demoted: xi = 3/2 + 1, delta = 3
        breakdown = degree_scenario(Engine(triage_kb).assess("S_outbreak"))
        assert breakdown.xi == Fraction(5, 2)
        assert breakdown.delta == 3
        assert breakdown.degree == Fraction(-1, 2)

    def test_empty_findings(self):
        from rightsrisk.dsl import parse_kb
        kb = parse_kb("right a;\nscenario S { x }")
        breakdown = degree_scenario(Engine(kb).assess("S"))
        assert breakdown.degree == 0
        assert breakdown.per_occurrence == []

    def test_breakdown_is_exact(self, triage_kb):
        breakdown = degree_scenario(Engine(triage_kb).assess("S_outbreak"))
        assert breakdown.degree == breakdown.xi - breakdown.delta
        assert all(isinstance(e.value, Fraction)
                   for e in breakdown.per_occurrence)

    def test_sign_sanity(self):
        rng = random.Random(7)
        for _ in range(50):
            kb = random_kb(rng, max_scenarios=4)
            engine = Engine(kb)
            for scen in kb.scenarios:
                b = degree_scenario(engine.assess(scen.id))
                if b.delta == 0:
                    assert b.degree >= 0
                if b.xi == 0:
                    assert b.degree <= 0


class TestDegreeDomain:
    def test_scholarship_degrees(self, scholarship_kb):
        engine = Engine(scholarship_kb)
        per = {sid: degree_scenario(engine.assess(sid)).degree
               for sid in ("S_d", "S_r", "S_e")}
        assert per == {"S_d": 3, "S_r": 0, "S_e": 0}
        assert degree_domain(Engine(scholarship_kb), "D_scholarship").degree == 3

    def test_subset(self, scholarship_kb):
        assert degree_domain(Engine(scholarship_kb), "D_scholarship",
                             subset={"S_r"}).degree == 0

    def test_empty_subset_rejected(self, scholarship_kb):
        with pytest.raises(ScoringError, match="empty subset"):
            degree_domain(Engine(scholarship_kb), "D_scholarship", subset=set())

    def test_foreign_scenario_rejected(self, triage_kb):
        with pytest.raises(ScoringError, match="outside domain"):
            degree_domain(Engine(triage_kb), "D_clinic", subset={"S_outbreak"})


class TestDegreePurpose:
    def test_triage_purpose(self, triage_kb):
        total = degree_purpose(Engine(triage_kb), "P_triage")
        parts = (degree_domain(Engine(triage_kb), "D_clinic").degree
                 + degree_domain(Engine(triage_kb), "D_population").degree)
        assert total.degree == parts

    def test_subset_of_domains(self, triage_kb):
        only = degree_purpose(Engine(triage_kb), "P_triage", subset={"D_population"})
        assert only.degree == degree_domain(Engine(triage_kb), "D_population").degree

    def test_foreign_domain_rejected(self, triage_kb):
        with pytest.raises(ScoringError, match="outside purpose"):
            degree_purpose(Engine(triage_kb), "P_triage", subset={"D_other"})


class TestAdditivity:
    def test_disjoint_union(self, scholarship_kb):
        whole = degree_domain(Engine(scholarship_kb), "D_scholarship").degree
        a = degree_domain(Engine(scholarship_kb), "D_scholarship", subset={"S_d"}).degree
        b = degree_domain(Engine(scholarship_kb), "D_scholarship",
                          subset={"S_r", "S_e"}).degree
        assert whole == a + b
