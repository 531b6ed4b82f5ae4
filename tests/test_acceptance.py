"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite output doubles as an
acceptance summary.
"""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rightsrisk.dsl import parse_kb, print_kb
from rightsrisk.engine import Engine, Status
from rightsrisk.minimizer import minimize_domain
from rightsrisk.model import AndExpr, RightRef, expand_right
from rightsrisk.report import build_bundle, build_report, parse_report, render
from rightsrisk.riskmatrix import assess_annotation, band_for
from rightsrisk.scoring import degree_domain, degree_scenario

from conftest import load_fixture
from kb_random import random_kb
from test_minimizer import brute_force


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {desc}: FAIL")
        raise
    print(f"[criterion {num}] {desc}: PASS")


def test_1_pandemic_choice_and_degree(pandemic_kb):
    with criterion(1, "pandemic chain yields choice of public_health, degree -1"):
        start = time.perf_counter()
        engine = Engine(pandemic_kb)
        findings = engine.assess("S")
        adopted = {(o.right, o.position, o.length) for o in findings.adopted}
        assert adopted == {("public_health", 2, 2)}
        explanation = engine.explain("S", "choice(S, public_health)")
        assert explanation.derivable
        assert explanation.trace.rule == "right_adoption_2"
        breakdown = degree_scenario(findings)
        assert breakdown.xi == Fraction(2, 2)
        assert breakdown.delta == Fraction(2, 1)
        assert breakdown.degree == -1
        assert time.perf_counter() - start < 1.0


def test_2_scholarship_degrees_and_minimizer(scholarship_kb):
    with criterion(2, "scholarship facts, degrees (3, 0, 0), optimal subset 3"):
        start = time.perf_counter()
        engine = Engine(scholarship_kb)
        expected = {
            "S_d": ({"privacy", "non_discrimination", "dignity"}, set()),
            "S_r": ({"social_assistance"}, {"privacy"}),
            "S_e": ({"merit"}, {"privacy"}),
        }
        degrees = {}
        for sid, (promoted, demoted) in expected.items():
            f = engine.assess(sid)
            assert {r for r, s in f.statuses.items()
                    if s == Status.PROMOTED} == promoted
            assert {r for r, s in f.statuses.items()
                    if s == Status.DEMOTED} == demoted
            degrees[sid] = degree_scenario(f).degree
        assert degrees == {"S_d": 3, "S_r": 0, "S_e": 0}
        result = minimize_domain(Engine(scholarship_kb), "D_scholarship")
        assert result.optimal_degree == 3
        assert set(result.maximizers) == {
            frozenset({"S_d"}),
            frozenset({"S_d", "S_r"}),
            frozenset({"S_d", "S_e"}),
            frozenset({"S_d", "S_r", "S_e"}),
        }
        assert time.perf_counter() - start < 1.0


def test_3_privacy_decomposition(privacy_kb):
    with criterion(3, "privacy expands to the five-way basic-right conjunction"):
        expected = AndExpr((RightRef("data_protection"), RightRef("autonomy"),
                            RightRef("confidentiality"), RightRef("dignity"),
                            RightRef("control")))
        assert expand_right(privacy_kb, "privacy") == expected


def test_4_length_three_conformance():
    with criterion(4, "64-case length-3 chain adoption conformance"):
        rights = ("ri", "rj", "rk")
        pairs = [frozenset(p) for p in itertools.combinations(rights, 2)]
        for demoted in itertools.product((False, True), repeat=3):
            statuses = {r: Status.DEMOTED if d else Status.UNDEFINED
                        for r, d in zip(rights, demoted)}
            for colliding in itertools.product((False, True), repeat=3):
                collisions = frozenset(p for p, c in zip(pairs, colliding) if c)
                adopted = {o.right
                           for o in Engine.adopt("c", rights, statuses, collisions)}
                ri, rj, rk = rights
                # literal adoption rules for a three-element chain
                licensed = set()
                if statuses[ri] != Status.DEMOTED:
                    licensed.add(ri)
                if statuses[ri] == Status.DEMOTED:
                    licensed.add(rj)
                    if frozenset((rj, rk)) not in collisions:
                        licensed.add(rk)
                # documented deviation: demoted elements are never adopted
                licensed = {r for r in licensed
                            if statuses[r] != Status.DEMOTED}
                assert licensed <= adopted
                assert all(statuses[r] != Status.DEMOTED for r in adopted)


def test_5_fast_minimizer_matches_enumeration():
    with criterion(5, "fast minimizer equals enumeration on 500 random kbs"):
        start = time.perf_counter()
        rng = random.Random(2026)
        for _ in range(500):
            kb = random_kb(rng, max_scenarios=12, max_chain=4)
            result = minimize_domain(Engine(kb), "D")
            assert result == brute_force(result.per_unit_degrees)
        assert time.perf_counter() - start < 30.0


def part_degree(kb, scenario_ids) -> Fraction:
    """The scenarios' summed degrees, scored by a new Engine."""
    engine = Engine(kb)
    return sum((degree_scenario(engine.assess(s)).degree for s in scenario_ids),
               Fraction(0))


def test_6_degree_additivity():
    with criterion(6, "degree additivity over 500 random disjoint splits"):
        rng = random.Random(4242)
        checked = 0
        while checked < 500:
            kb = random_kb(rng, max_scenarios=8)
            ids = [s.id for s in kb.scenarios]
            if len(ids) < 2:
                continue
            cut = rng.randint(1, len(ids) - 1)
            rng.shuffle(ids)
            whole = degree_domain(Engine(kb), "D").degree
            assert whole == part_degree(kb, ids[:cut]) + part_degree(kb, ids[cut:])
            checked += 1


def test_7_parser_round_trip(fixtures_dir):
    with criterion(7, "parse/print identity on fixtures and 200 random kbs"):
        for path in sorted(fixtures_dir.glob("*.rights")):
            kb = load_fixture(path.name)
            assert parse_kb(print_kb(kb)) == kb
        rng = random.Random(77)
        for i in range(200):
            kb = random_kb(rng, with_extras=(i % 2 == 0))
            assert parse_kb(print_kb(kb)) == kb


def test_8_risk_matrix_exhaustive():
    with criterion(8, "risk matrix monotone and banded over all 5^5 tuples"):
        start = time.perf_counter()
        values = range(1, 6)
        for h, resp, i, s, v in itertools.product(values, repeat=5):
            result = assess_annotation(h, resp, i, s, v)
            assert result.magnitude == result.likelihood * result.severity
            assert result.band == band_for(result.magnitude)
            if h < 5:
                up = assess_annotation(h + 1, resp, i, s, v)
                assert up.likelihood >= result.likelihood
            if resp < 5:
                up = assess_annotation(h, resp + 1, i, s, v)
                assert up.likelihood <= result.likelihood
            for bump in ((i + 1, s, v), (i, s + 1, v), (i, s, v + 1)):
                if all(x <= 5 for x in bump):
                    assert (assess_annotation(h, resp, *bump).severity
                            >= result.severity)
        assert time.perf_counter() - start < 1.0


def test_9_report_completeness(fixtures_dir):
    with criterion(9, "reports name every demoted right; 11-item checklist"):
        meta = {"generated_at": "2026-01-01T00:00:00+00:00"}
        reports = 0
        for path in sorted(fixtures_dir.glob("*.rights")):
            kb = load_fixture(path.name)
            for domain in kb.domains:
                bundle = build_bundle(Engine(kb), domain_id=domain.id)
                report = build_report(bundle, **meta)
                markdown = render(report, "markdown")
                harm = markdown.split("Art. 27(d))")[1].split("Art. 27(e)")[0]
                for scen in report.scenarios:
                    for right in scen.demoted:
                        assert f"`{right}`" in harm
                assert len(report.checklist) == 11
                assert parse_report(render(report, "json")) == report
                reports += 1
        assert reports >= 3
