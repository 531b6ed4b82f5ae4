import copy
import random
from fractions import Fraction
from unittest import mock

import pytest

from rightsrisk import cli, scoring
from rightsrisk.engine import Engine, EngineConfig, Occurrence, ScenarioFindings
from rightsrisk.minimizer import minimize_domain, minimize_purpose
from rightsrisk.report import build_bundle
from rightsrisk.scoring import (DegreeBreakdown, OccurrenceWeight, ScoringError,
                                degree_domain, degree_purpose, degree_scenario,
                                scenario_breakdown, weight)

from conftest import load_fixture
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

    @pytest.mark.parametrize("side", ["adopted", "demoted_occurrences"])
    def test_invalid_position_in_findings(self, side):
        bad = frozenset({Occurrence("a", "c", 3, 2)})
        sides = {"adopted": frozenset(), "demoted_occurrences": frozenset(), side: bad}
        findings = ScenarioFindings("S", {}, frozenset(), [], **sides)
        with pytest.raises(ScoringError, match=r"invalid chain position <3,2>"):
            degree_scenario(findings)

    def test_integer_sums_match_weights_over_random_kbs(self):
        # each side against weight(x, y) added one Fraction at a time, and
        # the entries built on read against the sides they list
        scored = 0
        for seed in range(60):
            kb = random_kb(random.Random(seed), with_extras=True)
            engine = Engine(kb)
            for scen in kb.scenarios:
                findings = engine.assess(scen.id)
                b = degree_scenario(findings)
                xi = sum((weight(o.position, o.length) for o in findings.adopted), Fraction(0))
                delta = sum((weight(o.position, o.length)
                             for o in findings.demoted_occurrences), Fraction(0))
                assert (b.xi, b.delta, b.degree) == (xi, delta, xi - delta)
                entries = b.per_occurrence
                assert len(entries) == len(findings.adopted) + len(findings.demoted_occurrences)
                for side, total in (("xi", xi), ("delta", delta)):
                    assert sum((e.value for e in entries if e.side == side),
                               Fraction(0)) == total
                scored += bool(entries)
        assert scored >= 100

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
        assert per_unit["S_r"] == fresh_sum(scholarship_kb, EngineConfig(), ["S_r"])[0].degree == 0


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
        assert with_entries(parts[0].add(parts[1])) == with_entries(total)
        assert with_entries(parts[0]) == with_entries(degree_domain(engine, "D_clinic"))


class TestAdditivity:
    def test_disjoint_union(self, scholarship_kb):
        whole = degree_domain(Engine(scholarship_kb), "D_scholarship").degree
        a = fresh_sum(scholarship_kb, EngineConfig(), ["S_d"])[0].degree
        b = fresh_sum(scholarship_kb, EngineConfig(), ["S_r", "S_e"])[0].degree
        assert whole == a + b


def fresh_sum(kb, config, scenario_ids) -> tuple[DegreeBreakdown, list[OccurrenceWeight]]:
    """The scenarios' summed breakdown, each scored by a new Engine and
    added up one Fraction at a time, and their entries in order."""
    parts = [degree_scenario(Engine(kb, config).assess(sid)) for sid in scenario_ids]
    return (DegreeBreakdown(sum((p.xi for p in parts), Fraction(0)),
                            sum((p.delta for p in parts), Fraction(0))),
            [e for p in parts for e in p.per_occurrence])


def with_entries(breakdown: DegreeBreakdown) -> tuple[DegreeBreakdown, list[OccurrenceWeight]]:
    """A breakdown with its entries, which `==` on the breakdown leaves out."""
    return breakdown, breakdown.per_occurrence


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
                    assert with_entries(bundle.breakdowns[sid]) == fresh_sum(kb, config, [sid])
                    assert scenario_breakdown(engine, sid) is bundle.breakdowns[sid]
                assert with_entries(bundle.total) == fresh_sum(kb, config, domain.scenarios)
                assert with_entries(degree_domain(engine, domain.id)) == with_entries(bundle.total)
                assert bundle.minimization.per_unit_degrees == {
                    sid: fresh_sum(kb, config, [sid])[0].degree for sid in domain.scenarios}
                assert minimize_domain(engine, domain.id) == bundle.minimization
            for purpose in kb.purposes:
                purposes += 1
                members = {did: kb.domain(did).scenarios for did in purpose.domains}
                engine = Engine(kb, config)
                bundle = build_bundle(engine, purpose_id=purpose.id)
                for sid in bundle.findings:
                    assert with_entries(bundle.breakdowns[sid]) == fresh_sum(kb, config, [sid])
                assert with_entries(bundle.total) == fresh_sum(
                    kb, config, [sid for did in purpose.domains for sid in members[did]])
                assert with_entries(degree_purpose(engine, purpose.id)) == with_entries(bundle.total)
                assert bundle.minimization.per_unit_degrees == {
                    did: fresh_sum(kb, config, sids)[0].degree for did, sids in members.items()}
                assert minimize_purpose(engine, purpose.id) == bundle.minimization
        assert purposes >= 10

    def test_sums_leave_shared_breakdowns_alone(self, triage_kb):
        engine = Engine(triage_kb)
        before = {sid: scenario_breakdown(engine, sid) for sid in
                  ("S_routine", "S_emergency", "S_outbreak")}
        copies = {sid: (copy.copy(b), b.per_occurrence) for sid, b in before.items()}
        degree_purpose(engine, "P_triage")
        domains = dict(engine.domain_breakdowns)
        domain_copies = {did: with_entries(copy.copy(b)) for did, b in domains.items()}
        degree_domain(engine, "D_clinic").add(degree_domain(engine, "D_population"))
        assert {sid: with_entries(b) for sid, b in before.items()} == copies
        assert engine.breakdowns == before
        assert engine.domain_breakdowns == domains
        assert all(engine.domain_breakdowns[did] is b for did, b in domains.items())
        assert {did: with_entries(b) for did, b in domains.items()} == domain_copies

    def test_domain_breakdown_is_kept(self, triage_kb):
        engine = Engine(triage_kb)
        clinic = degree_domain(engine, "D_clinic")
        assert degree_domain(engine, "D_clinic") is clinic
        assert engine.domain_breakdowns == {"D_clinic": clinic}
        with pytest.raises(KeyError):
            degree_domain(engine, "D_nowhere")

    def test_gpai_fria_sums_each_domain_once(self, capsys, fixtures_dir):
        argv = ["fria", str(fixtures_dir / "triage.rights"), "--gpai",
                "--fixed-time", "2026-01-01T00:00:00Z"]
        with mock.patch.object(scoring, "_sum", wraps=scoring._sum) as sums:
            assert cli.main(argv) == 0
        assert capsys.readouterr().out
        # D_clinic and D_population once each, then P_triage over the two
        assert sums.call_count == 2 + 1

    def test_minimize_purpose_after_degree_purpose_sums_nothing(self, triage_kb):
        engine = Engine(triage_kb)
        degree_purpose(engine, "P_triage")
        with mock.patch.object(scoring, "_sum", wraps=scoring._sum) as sums:
            result = minimize_purpose(engine, "P_triage")
        assert not sums.called
        assert result.per_unit_degrees == {did: b.degree for did, b in
                                           engine.domain_breakdowns.items()}

    def test_weight_is_cached_and_still_checked(self):
        assert weight(2, 3) is weight(2, 3)
        for _ in range(2):
            with pytest.raises(ScoringError):
                weight(4, 3)


class TestEntriesOnRead:
    """Scoring builds no per-occurrence record or weight until something
    reads `per_occurrence`."""

    @pytest.mark.parametrize("argv", [
        ["fria", "scholarship.rights", "--format", "json", "--fixed-time", "2026-01-01T00:00:00Z"],
        ["fria", "triage.rights", "--gpai", "--fixed-time", "2026-01-01T00:00:00Z"],
        ["assess", "triage.rights", "--purpose", "P_triage"],
        ["minimize", "scholarship.rights"],
    ], ids=["fria-json", "fria-gpai", "assess-purpose", "minimize"])
    def test_commands_build_no_entries(self, capsys, fixtures_dir, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".rights") else a for a in argv]
        with mock.patch.object(scoring, "_entries", wraps=scoring._entries) as entries, \
                mock.patch.object(scoring, "weight", wraps=scoring.weight) as weights:
            assert cli.main(argv) == 0
            assert capsys.readouterr().out
            assert not entries.called and not weights.called
            # the spies are the ones a read goes through
            engine = Engine(load_fixture("scholarship.rights"))
            assert degree_domain(engine, "D_scholarship").per_occurrence
            assert entries.called and weights.called
