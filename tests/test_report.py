import random

import pytest

from kb_random import random_kb
from rightsrisk import report as report_module
from rightsrisk.engine import Engine
from rightsrisk.model import Obligation, RiskAnnotation, validate_kb
from rightsrisk.report import (ART26_ITEMS, ReportError, build_bundle,
                               build_report, parse_report, render)

META = {"generated_at": "2026-01-01T00:00:00+00:00", "process": "pilot",
        "oversight": "human review", "mitigation": "narrow the rollout"}


@pytest.fixture()
def scholarship_report(scholarship_kb):
    bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
    return build_report(scholarship_kb, bundle, META)


class TestBuildReport:
    def test_demotions_reported(self, scholarship_report):
        by_id = {s.scenario: s for s in scholarship_report.scenarios}
        assert by_id["S_r"].demoted == ["privacy"]
        assert by_id["S_e"].demoted == ["privacy"]
        assert by_id["S_d"].demoted == []

    def test_mitigation_recommends_canonical(self, scholarship_report):
        assert scholarship_report.mitigation["recommended_subset"] == \
            ["S_d", "S_e", "S_r"]
        assert scholarship_report.mitigation["optimal_degree"] == "3"

    def test_covers_every_scenario(self, scholarship_report, scholarship_kb):
        assert {s.scenario for s in scholarship_report.scenarios} == \
            {s.id for s in scholarship_kb.scenarios}

    def test_pandemic_degree(self, pandemic_kb):
        bundle = build_bundle(Engine(pandemic_kb), domain_id="D_pandemic")
        report = build_report(pandemic_kb, bundle, META)
        (scen,) = report.scenarios
        assert scen.demoted == ["privacy"]
        assert str(scen.degree) == "-1"

    def test_no_demotions_still_emits_sections(self, privacy_kb):
        from rightsrisk.model import DeploymentDomain, Scenario, FeatureLiteral
        privacy_kb.scenarios.append(
            Scenario("S", frozenset({FeatureLiteral("f")})))
        privacy_kb.domains.append(DeploymentDomain("D", ("S",)))
        bundle = build_bundle(Engine(privacy_kb), domain_id="D")
        report = build_report(privacy_kb, bundle, META)
        assert report.scenarios[0].demoted == []
        assert len(report.checklist) == 11

    def test_checklist_has_eleven_items(self, scholarship_report):
        assert len(ART26_ITEMS) == 11
        assert len(scholarship_report.checklist) == 11
        assert all(c.status == "unaddressed" for c in scholarship_report.checklist)

    def test_checklist_statuses_from_metadata(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        meta = dict(META, checklist={0: "addressed", 5: "not-applicable"})
        report = build_report(scholarship_kb, bundle, meta)
        assert report.checklist[0].status == "addressed"
        assert report.checklist[5].status == "not-applicable"

    def test_invalid_checklist_status(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        with pytest.raises(ReportError):
            build_report(scholarship_kb, bundle, {"checklist": {0: "done"}})

    def test_band_from_risk_annotation(self, triage_kb):
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        report = build_report(triage_kb, bundle, META)
        by_id = {s.scenario: s for s in report.scenarios}
        assert by_id["S_outbreak"].band == "Critical"
        assert by_id["S_routine"].band is None


class TestRender:
    def test_json_round_trip(self, scholarship_report):
        assert parse_report(render(scholarship_report, "json")) == scholarship_report

    def test_deterministic(self, scholarship_kb):
        def make():
            bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
            report = build_report(scholarship_kb, bundle, META)
            return render(report, "json"), render(report, "markdown")
        assert make() == make()

    def test_markdown_structure(self, scholarship_report):
        text = render(scholarship_report, "markdown")
        for heading in ("Art. 27(a)", "Art. 27(d)", "Art. 27(e)", "Art. 27(f)",
                        "Art. 26"):
            assert heading in text
        assert text.count("- [") == 11
        assert "privacy" in text

    def test_kb_hash_tracks_input(self, scholarship_kb, pandemic_kb):
        b1 = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        b2 = build_bundle(Engine(pandemic_kb), domain_id="D_pandemic")
        r1 = build_report(scholarship_kb, b1, META)
        r2 = build_report(pandemic_kb, b2, META)
        assert r1.meta["kb_hash"] != r2.meta["kb_hash"]

    def test_unknown_format(self, scholarship_report):
        with pytest.raises(ReportError):
            render(scholarship_report, "pdf")


class TestBuildBundle:
    def test_requires_one_selector(self, scholarship_kb):
        with pytest.raises(ReportError):
            build_bundle(Engine(scholarship_kb))
        with pytest.raises(ReportError):
            build_bundle(Engine(scholarship_kb), domain_id="D_scholarship",
                         purpose_id="P")

    def test_purpose_bundle_covers_all_scenarios(self, triage_kb):
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        assert set(bundle.findings) == {"S_routine", "S_emergency", "S_outbreak"}

    def test_validates_unless_the_engine_carries_validation(self, triage_kb,
                                                            monkeypatch):
        triage_kb.obligations.append(Obligation("o_x", "review", "S_nowhere"))
        validation = validate_kb(triage_kb)
        assert validation
        engine = Engine(triage_kb)
        direct = build_bundle(engine, purpose_id="P_triage")
        expected = validation + engine.check_monotonicity()
        for f in direct.findings.values():
            expected += f.diagnostics
        assert direct.diagnostics == expected

        def fail(kb):
            raise AssertionError("validated twice")
        monkeypatch.setattr(report_module, "validate_kb", fail)
        engine = Engine(triage_kb)
        engine.validation = list(validation)
        assert build_bundle(engine, purpose_id="P_triage").diagnostics == expected
        assert engine.validation == validation


class TestAnnotationsAndObligations:
    """`build_report` indexes both once; each scenario reads what the KB's
    own lookups give."""

    def test_first_annotation_wins_and_obligations_keep_order(self, triage_kb):
        triage_kb.risk_annotations.insert(0, RiskAnnotation("S_routine", 5, 5, 5, 5, 5))
        triage_kb.risk_annotations.append(RiskAnnotation("S_routine", 1, 1, 1, 1, 1))
        triage_kb.obligations += [Obligation("o_b", "b", "S_routine"),
                                  Obligation("o_z", "z", "S_outbreak"),
                                  Obligation("o_a", "a", "S_routine")]
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        report = build_report(triage_kb, bundle, META)
        by_id = {s.scenario: s for s in report.scenarios}
        assert by_id["S_routine"].obligations[-2:] == ["o_b", "o_a"]
        self.assert_matches_lookups(triage_kb, report)

    def test_random_kbs(self):
        for seed in range(60):
            kb = random_kb(random.Random(seed), with_extras=True)
            bundle = build_bundle(Engine(kb), domain_id="D")
            self.assert_matches_lookups(kb, build_report(kb, bundle, META))

    @staticmethod
    def assert_matches_lookups(kb, report):
        for s in report.scenarios:
            assert s.obligations == [o.id for o in kb.scenario_obligations(s.scenario)]
            ann = kb.risk_annotation(s.scenario)
            band = None if ann is None else report_module.assess_annotation(
                ann.hazard, ann.response, ann.intensity, ann.sensitivity,
                ann.vulnerability).band
            assert s.band == band
