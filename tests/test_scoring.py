import random
from fractions import Fraction

import pytest

from rightsrisk.engine import Engine, EngineConfig
from rightsrisk.minimizer import minimize_domain, minimize_purpose
from rightsrisk.report import build_bundle
from rightsrisk.scoring import (DegreeBreakdown, ScoringError, degree_domain,
                                degree_purpose, degree_scenario, scenario_breakdown,
                                weight)

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

    def test_one_scenario_is_a_per_unit_degree(self, scholarship_kb):
        # the degree of a part of a domain is read per unit, as the minimizer does
        per_unit = minimize_domain(Engine(scholarship_kb), "D_scholarship").per_unit_degrees
        assert per_unit["S_r"] == fresh_sum(scholarship_kb, EngineConfig(), ["S_r"]).degree == 0


class TestDegreePurpose:
    def test_triage_purpose(self, triage_kb):
        total = degree_purpose(Engine(triage_kb), "P_triage")
        parts = (degree_domain(Engine(triage_kb), "D_clinic").degree
                 + degree_domain(Engine(triage_kb), "D_population").degree)
        assert total.degree == parts

    def test_one_domain_is_a_per_unit_degree(self, triage_kb):
        per_unit = minimize_purpose(Engine(triage_kb), "P_triage").per_unit_degrees
        assert per_unit["D_population"] == degree_domain(Engine(triage_kb),
                                                         "D_population").degree

    def test_sum_keeps_every_occurrence_in_order(self, triage_kb):
        engine = Engine(triage_kb)
        parts = [degree_domain(engine, d) for d in ("D_clinic", "D_population")]
        total = degree_purpose(engine, "P_triage")
        assert total.per_occurrence == parts[0].per_occurrence + parts[1].per_occurrence
        assert (total.xi, total.delta) == (parts[0].xi + parts[1].xi,
                                           parts[0].delta + parts[1].delta)
        assert parts[0].add(parts[1]) == total
        assert parts[0] == degree_domain(engine, "D_clinic")


class TestAdditivity:
    def test_disjoint_union(self, scholarship_kb):
        whole = degree_domain(Engine(scholarship_kb), "D_scholarship").degree
        a = fresh_sum(scholarship_kb, EngineConfig(), ["S_d"]).degree
        b = fresh_sum(scholarship_kb, EngineConfig(), ["S_r", "S_e"]).degree
        assert whole == a + b


def fresh_sum(kb, config, scenario_ids) -> DegreeBreakdown:
    """The scenarios' summed breakdown, each scored by a new Engine and
    added up one Fraction at a time."""
    parts = [degree_scenario(Engine(kb, config).assess(sid)) for sid in scenario_ids]
    return DegreeBreakdown(sum((p.xi for p in parts), Fraction(0)),
                           sum((p.delta for p in parts), Fraction(0)),
                           [e for p in parts for e in p.per_occurrence])


class TestScoreTable:
    """Every value read from an Engine's score table equals a fresh score."""

    @pytest.mark.parametrize("derived", [True, False])
    def test_oracle_over_random_kbs(self, derived):
        config = EngineConfig(derived_collision=derived)
        purposes = 0
        for seed in range(80):
            kb = random_kb(random.Random(seed), with_extras=True)
            for domain in kb.domains:
                engine = Engine(kb, config)
                bundle = build_bundle(engine, domain_id=domain.id)
                for sid in domain.scenarios:
                    assert bundle.breakdowns[sid] == fresh_sum(kb, config, [sid])
                    assert scenario_breakdown(engine, sid) is bundle.breakdowns[sid]
                assert bundle.total == fresh_sum(kb, config, domain.scenarios)
                assert degree_domain(engine, domain.id) == bundle.total
                assert bundle.minimization.per_unit_degrees == {
                    sid: fresh_sum(kb, config, [sid]).degree for sid in domain.scenarios}
                assert minimize_domain(engine, domain.id) == bundle.minimization
            for purpose in kb.purposes:
                purposes += 1
                members = {did: kb.domain(did).scenarios for did in purpose.domains}
                engine = Engine(kb, config)
                bundle = build_bundle(engine, purpose_id=purpose.id)
                for sid in bundle.findings:
                    assert bundle.breakdowns[sid] == fresh_sum(kb, config, [sid])
                assert bundle.total == fresh_sum(
                    kb, config, [sid for did in purpose.domains for sid in members[did]])
                assert degree_purpose(engine, purpose.id) == bundle.total
                assert bundle.minimization.per_unit_degrees == {
                    did: fresh_sum(kb, config, sids).degree for did, sids in members.items()}
                assert minimize_purpose(engine, purpose.id) == bundle.minimization
        assert purposes >= 10

    def test_sums_leave_shared_breakdowns_alone(self, triage_kb):
        engine = Engine(triage_kb)
        before = {sid: scenario_breakdown(engine, sid) for sid in
                  ("S_routine", "S_emergency", "S_outbreak")}
        copies = {sid: DegreeBreakdown(b.xi, b.delta, list(b.per_occurrence))
                  for sid, b in before.items()}
        degree_purpose(engine, "P_triage")
        degree_domain(engine, "D_clinic").add(degree_domain(engine, "D_population"))
        assert before == copies
        assert engine.breakdowns == before

    def test_weight_is_cached_and_still_checked(self):
        assert weight(2, 3) is weight(2, 3)
        for _ in range(2):
            with pytest.raises(ScoringError):
                weight(4, 3)
