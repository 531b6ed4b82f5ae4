import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES, load_fixture
from kb_random import random_kb, with_collision_rules
from rightsrisk import report as report_module
from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine
from rightsrisk.model import Obligation, RiskAnnotation, validate_kb
from rightsrisk.riskmatrix import RangeError
from rightsrisk.report import (ART26_ITEMS, ReportError, ScenarioRisk, _json,
                               build_bundle, build_report, occurrence_labels,
                               parse_report, render, scenario_view)

# Y refines X and promotes the `a` that X demotes; in Y both rules for `a`
# fire at one strength, as do both rules for `b`
WARNINGS_TEXT = """right a;
right b;
scenario X { x }
scenario Y { x, y }
domain D { X, Y }
assert demotes(a) in X;
assert promotes(a) in Y;
rule r1: y => promotes(b);
rule r2: y => demotes(b);
"""
WARNINGS = [
    "warning[monotonicity]: 'Y' promotes 'a' while feature-subset scenario 'X' demotes it",
    "warning[ambiguity]: right 'b': promote and demote conclusions tie at strength 0; "
    "status undefined",
    "warning[ambiguity]: right 'a': promote and demote conclusions tie at strength 0; "
    "status undefined"]

META = {"generated_at": "2026-01-01T00:00:00+00:00", "process": "pilot",
        "oversight": "human review", "mitigation": "narrow the rollout"}


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.rights"))


def fixture_bundles(name):
    """The fixture's bundle for each of its domains and purposes; none for
    a fixture that declares neither, which `fria` refuses."""
    kb = load_fixture(f"{name}.rights")
    selections = [{"domain_id": d.id} for d in kb.domains]
    selections += [{"purpose_id": p.id} for p in kb.purposes]
    return [build_bundle(Engine(kb), **selection) for selection in selections]


@pytest.fixture()
def scholarship_report(scholarship_kb):
    bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
    return build_report(bundle, **META)


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
        report = build_report(bundle, **META)
        (scen,) = report.scenarios
        assert scen.demoted == ["privacy"]
        assert scen.degree == "-1"     # exact text, as in the JSON form
        assert report.degrees["per_scenario"] == {"S": "-1"}

    def test_no_demotions_still_emits_sections(self, privacy_kb):
        from rightsrisk.model import DeploymentDomain, Scenario, FeatureLiteral
        privacy_kb.scenarios.append(
            Scenario("S", frozenset({FeatureLiteral("f")})))
        privacy_kb.domains.append(DeploymentDomain("D", ("S",)))
        bundle = build_bundle(Engine(privacy_kb), domain_id="D")
        report = build_report(bundle, **META)
        assert report.scenarios[0].demoted == []
        assert len(report.checklist) == 11

    def test_checklist_has_eleven_items(self, scholarship_report):
        assert len(ART26_ITEMS) == 11
        assert len(scholarship_report.checklist) == 11
        assert all(c.status == "unaddressed" for c in scholarship_report.checklist)

    def test_checklist_statuses_from_metadata(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        meta = dict(META, checklist={0: "addressed", 5: "not-applicable"})
        report = build_report(bundle, **meta)
        assert report.checklist[0].status == "addressed"
        assert report.checklist[5].status == "not-applicable"

    def test_unknown_parameter_is_refused(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        with pytest.raises(TypeError):
            build_report(bundle, title="Mine")

    @pytest.mark.parametrize("key", ["0", -1, 11])
    def test_unknown_checklist_item(self, scholarship_kb, key):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        with pytest.raises(ReportError, match=f"unknown checklist item {key!r}"):
            build_report(bundle, checklist={key: "addressed"})

    def test_invalid_checklist_status(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        with pytest.raises(ReportError):
            build_report(bundle, checklist={0: "done"})

    def test_band_from_risk_annotation(self, triage_kb):
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        report = build_report(bundle, **META)
        by_id = {s.scenario: s for s in report.scenarios}
        assert by_id["S_outbreak"].band == "Critical"
        assert by_id["S_routine"].band is None

    def test_incomplete_risk_annotation_raises(self, triage_kb):
        # validate_kb reports it as missing-risk-field; a script that skips
        # validation gets the risk matrix's error, not a report without a band
        triage_kb.risk_annotations.insert(0, RiskAnnotation("S_routine", response=2))
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        with pytest.raises(RangeError, match="hazard must be an integer in 1..5, got None"):
            build_report(bundle, **META)


class TestRender:
    def test_json_round_trip(self, scholarship_report):
        assert parse_report(render(scholarship_report, "json")) == scholarship_report

    def test_dict_records_do_not_alias_the_report(self, scholarship_kb):
        bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
        report = build_report(bundle, **META)
        before = copy.deepcopy(report)
        views = [scenario_view(bundle.findings[s], bundle.breakdowns[s])
                 for s in sorted(bundle.findings)]
        fresh = copy.deepcopy(views)
        for view in views:
            for value in view.values():
                if isinstance(value, (list, dict)):
                    value.clear()
            for key in list(view):
                view[key] = None
        assert report == before
        assert [scenario_view(bundle.findings[s], bundle.breakdowns[s])
                for s in sorted(bundle.findings)] == fresh
        assert build_report(bundle, **META) == before

    @pytest.mark.parametrize("where", ["report", "scenario", "checklist"])
    @pytest.mark.parametrize("change", ["missing", "unknown"])
    def test_parse_report_rejects_a_changed_field(self, scholarship_report, where, change):
        data = json.loads(render(scholarship_report, "json"))
        record = {"report": data, "scenario": data["scenarios"][0],
                  "checklist": data["checklist"][0]}[where]
        if change == "missing":
            del record[sorted(record)[-1]]
        else:
            record["extra"] = 1
        with pytest.raises(TypeError):
            parse_report(json.dumps(data))

    def test_deterministic(self, scholarship_kb):
        def make():
            bundle = build_bundle(Engine(scholarship_kb), domain_id="D_scholarship")
            report = build_report(bundle, **META)
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
        r1 = build_report(b1, **META)
        r2 = build_report(b2, **META)
        assert r1.meta["kb_hash"] != r2.meta["kb_hash"]

    def test_unknown_format(self, scholarship_report):
        with pytest.raises(ReportError):
            render(scholarship_report, "pdf")


# text that the JSON string escapes must handle: quotes, backslashes,
# control characters, lone surrogates and non-ASCII text
TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\ud800",
                     "\udfff", "\u2028", "é", "\U0001f600", "a"]),
    st.characters()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda children: st.lists(children) | st.dictionaries(TEXT, children))
SCENARIO_RISKS = st.builds(
    ScenarioRisk, scenario=TEXT, statuses=st.dictionaries(TEXT, TEXT),
    demoted=st.lists(TEXT), collisions=st.lists(st.lists(TEXT, min_size=2, max_size=2)),
    adopted=st.lists(TEXT), degree=TEXT, band=st.none() | TEXT,
    obligations=st.lists(TEXT))


class TestJsonWriter:
    """`_json` against the stdlib's indented encoder it stands in for."""

    @given(JSON_VALUES)
    def test_matches_stdlib(self, value):
        assert _json(value) + "\n" == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [[], {}, [[]], {"": {}}, [[], {}, [[{}]]],
                                       {"b": [1, True], "a": None, "\ud800": "\x00"}])
    def test_empty_and_nested(self, value):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_refuses_what_it_does_not_write(self):
        with pytest.raises(TypeError):
            _json({"x": 1.5})

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_reports_match_stdlib(self, name):
        bundles = fixture_bundles(name)
        if not bundles:
            pytest.skip(f"{name}.rights declares no domain or purpose")
        meta = dict(META, process="Prüfung — \"pilot\"\n\\ phase 1")
        for bundle in bundles:
            report = build_report(bundle, **meta)
            text = render(report, "json")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert parse_report(text) == report

    @given(SCENARIO_RISKS)
    def test_scenario_risk_matches_stdlib(self, record):
        fields = dict(vars(record))
        assert _json(record) == json.dumps(fields, indent=2, sort_keys=True)
        # nested two levels down, so each line is indented further
        assert _json({"b": [record, None], "a": [record]}) == json.dumps(
            {"b": [fields, None], "a": [fields]}, indent=2, sort_keys=True)

    def test_scenario_risk_writes_every_field(self):
        record = ScenarioRisk("S", {}, [], [], [], "0", None, [])
        assert list(json.loads(_json(record))) == \
            sorted(f.name for f in dataclasses.fields(ScenarioRisk))


class TestScenarioRecords:
    """`build_report` builds each scenario's record from its findings with
    the helpers that `scenario_view` uses, so the two agree."""

    @staticmethod
    def assert_agrees_with_views(bundle) -> int:
        report = build_report(bundle, **META)
        assert [s.scenario for s in report.scenarios] == sorted(bundle.findings)
        for s in report.scenarios:
            view = scenario_view(bundle.findings[s.scenario],
                                 bundle.breakdowns[s.scenario])
            assert (s.statuses, s.collisions, s.adopted, s.degree) == \
                (view["statuses"], view["collisions"], view["adopted"], view["degree"])
            assert list(s.statuses) == sorted(s.statuses)
        return sum(len(s.collisions) + len(s.adopted) for s in report.scenarios)

    @staticmethod
    def assert_labels_are_str(bundle) -> int:
        occurrences = [o for f in bundle.findings.values()
                       for o in f.adopted | f.demoted_occurrences]
        for o in occurrences:
            assert occurrence_labels([o]) == [str(o)]
        return len(occurrences)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        bundles = fixture_bundles(name)
        if not bundles:
            pytest.skip(f"{name}.rights declares no domain or purpose")
        for bundle in bundles:
            assert self.assert_agrees_with_views(bundle) > 0
            assert self.assert_labels_are_str(bundle) > 0

    def test_random_kbs(self):
        """Collision rules make collisions, ties and cancelled demotions;
        every scenario is in the domain `D`."""
        shown = labels = 0
        for seed in range(60):
            rng = random.Random(seed)
            kb = with_collision_rules(random_kb(rng, with_extras=True), rng)
            bundle = build_bundle(Engine(kb), domain_id="D")
            shown += self.assert_agrees_with_views(bundle)
            labels += self.assert_labels_are_str(bundle)
        assert shown > 0 and labels > 0

    def test_contested_round_trip(self):
        for bundle in fixture_bundles("contested"):
            report = build_report(bundle, **META)
            assert parse_report(render(report, "json")) == report


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

    def test_does_not_validate(self, triage_kb, monkeypatch):
        triage_kb.obligations.append(Obligation("o_x", "review", "S_nowhere"))
        assert validate_kb(triage_kb)

        def fail(kb):
            raise AssertionError("build_bundle validated")
        monkeypatch.setattr(report_module, "validate_kb", fail)
        assert build_bundle(Engine(triage_kb), purpose_id="P_triage").diagnostics == []

    def test_diagnostics_are_monotonicity_then_ambiguity_warnings(self):
        engine = Engine(parse_kb(WARNINGS_TEXT))
        bundle = build_bundle(engine, domain_id="D")
        assert [str(d) for d in bundle.diagnostics] == WARNINGS
        assert bundle.diagnostics == engine.check_monotonicity() + \
            engine.assess("Y").diagnostics


class TestAnnotationsAndObligations:
    """`build_report` indexes both once; each scenario reads what a scan
    of the KB's lists gives (the first annotation, every obligation)."""

    def test_first_annotation_wins_and_obligations_keep_order(self, triage_kb):
        triage_kb.risk_annotations.insert(0, RiskAnnotation("S_routine", 5, 5, 5, 5, 5))
        triage_kb.risk_annotations.append(RiskAnnotation("S_routine", 1, 1, 1, 1, 1))
        triage_kb.obligations += [Obligation("o_b", "b", "S_routine"),
                                  Obligation("o_z", "z", "S_outbreak"),
                                  Obligation("o_a", "a", "S_routine")]
        bundle = build_bundle(Engine(triage_kb), purpose_id="P_triage")
        report = build_report(bundle, **META)
        by_id = {s.scenario: s for s in report.scenarios}
        assert by_id["S_routine"].obligations[-2:] == ["o_b", "o_a"]
        self.assert_matches_lookups(triage_kb, report)

    def test_random_kbs(self):
        for seed in range(60):
            kb = random_kb(random.Random(seed), with_extras=True)
            bundle = build_bundle(Engine(kb), domain_id="D")
            self.assert_matches_lookups(kb, build_report(bundle, **META))

    @staticmethod
    def assert_matches_lookups(kb, report):
        for s in report.scenarios:
            assert s.obligations == [o.id for o in kb.obligations
                                     if o.applies_to == s.scenario]
            ann = next((a for a in kb.risk_annotations if a.scenario == s.scenario), None)
            band = None if ann is None else report_module.assess_annotation(
                ann.hazard, ann.response, ann.intensity, ann.sensitivity,
                ann.vulnerability).band
            assert s.band == band
