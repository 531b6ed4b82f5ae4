import itertools

import pytest

from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine, EngineConfig, Occurrence, Status
from rightsrisk.model import ChainHead, PredHead, PriorityChain


def occ(right, chain, x, y):
    return Occurrence(right, chain, x, y)


class TestFireRules:
    def test_pandemic_heads(self, pandemic_kb):
        fired = Engine(pandemic_kb).fire_rules("S")
        heads = {str(f.head) for f in fired}
        assert heads == {"privacy > public_health", "demotes(privacy)",
                         "promotes(public_health)"}

    def test_no_matching_rules(self):
        kb = parse_kb("right a;\nscenario S { x }\n"
                      "rule r: y => promotes(a);")
        assert Engine(kb).fire_rules("S") == []

    def test_subset_bodies_both_fire(self):
        kb = parse_kb("right a; right b;\n"
                      "scenario S { pandemic, !consent }\n"
                      "rule r1: pandemic => promotes(a);\n"
                      "rule r2: pandemic & !consent => promotes(b);")
        assert len(Engine(kb).fire_rules("S")) == 2


class TestResolveStatuses:
    def _statuses(self, text, scenario="S"):
        kb = parse_kb(text)
        engine = Engine(kb)
        findings = engine.assess(scenario)
        return findings

    def test_tie_blocks(self):
        f = self._statuses("right a;\nscenario S { x }\n"
                           "rule r1: x => promotes(a);\n"
                           "rule r2: x => demotes(a);")
        assert f.statuses["a"] == Status.UNDEFINED
        assert any(d.code == "ambiguity" for d in f.diagnostics)

    def test_stronger_demote_wins(self):
        f = self._statuses("right a;\nscenario S { x }\n"
                           "rule r1 [2]: x => demotes(a);\n"
                           "rule r2 [1]: x => promotes(a);")
        assert f.statuses["a"] == Status.DEMOTED

    def test_not_demotes_blocks_equal_strength(self):
        f = self._statuses("right a;\nscenario S { x }\n"
                           "rule r1: x => demotes(a);\n"
                           "rule r2: x => not_demotes(a);")
        assert f.statuses["a"] == Status.UNDEFINED

    def test_not_demotes_outranked(self):
        f = self._statuses("right a;\nscenario S { x }\n"
                           "rule r1 [2]: x => demotes(a);\n"
                           "rule r2: x => not_demotes(a);")
        assert f.statuses["a"] == Status.DEMOTED

    def test_scholarship_s_d_all_promoted(self, scholarship_kb):
        f = Engine(scholarship_kb).assess("S_d")
        for right in ("privacy", "non_discrimination", "dignity"):
            assert f.statuses[right] == Status.PROMOTED


class TestCollisions:
    def test_derived_collision_on(self, scholarship_kb):
        f = Engine(scholarship_kb).assess("S_r")
        assert frozenset({"social_assistance", "privacy"}) in f.collisions

    def test_derived_collision_off(self, scholarship_kb):
        config = EngineConfig(derived_collision=False)
        f = Engine(scholarship_kb, config).assess("S_r")
        assert f.collisions == frozenset()

    def test_logical_incompatibility_regardless_of_toggle(self):
        text = ("basic x;\nright A := x;\nright B := !x;\n"
                "scenario S { f }\n"
                "assert promotes(A) in S;\nassert promotes(B) in S;")
        kb = parse_kb(text)
        for toggle in (True, False):
            f = Engine(kb, EngineConfig(derived_collision=toggle)).assess("S")
            assert frozenset({"A", "B"}) in f.collisions

    def test_not_collides_removes_pair(self):
        kb = parse_kb("right a; right b;\nscenario S { x }\n"
                      "rule r1: x => promotes(a);\n"
                      "rule r2: x => demotes(b);\n"
                      "rule r3: x => not_collides(a, b);")
        f = Engine(kb).assess("S")
        assert f.collisions == frozenset()

    def test_explicit_collides_outranks_block(self):
        kb = parse_kb("right a; right b;\nscenario S { x }\n"
                      "rule r1 [2]: x => collides(a, b);\n"
                      "rule r2: x => not_collides(a, b);")
        f = Engine(kb).assess("S")
        assert frozenset({"a", "b"}) in f.collisions

    def test_symmetry(self, scholarship_kb):
        f = Engine(scholarship_kb).assess("S_r")
        for pair in f.collisions:
            assert frozenset(reversed(sorted(pair))) in f.collisions


class TestAdopt:
    def test_pandemic_rule_two(self, pandemic_kb):
        f = Engine(pandemic_kb).assess("S")
        assert f.adopted == frozenset({occ("public_health", f.fired_chains[0].id, 2, 2)})
        assert len(f.demoted_occurrences) == 1
        (d,) = f.demoted_occurrences
        assert (d.right, d.position, d.length) == ("privacy", 1, 2)

    def test_nothing_demoted_adopts_all(self):
        chain = PriorityChain("c", ("A", "B", "C"))
        statuses = {r: Status.PROMOTED for r in "ABC"}
        adopted = Engine.adopt(chain, statuses, frozenset())
        assert [(o.right, o.position, o.length) for o in adopted] == \
            [("A", 1, 3), ("B", 2, 3), ("C", 3, 3)]

    def test_collision_blocks_third(self):
        chain = PriorityChain("c", ("A", "B", "C"))
        statuses = {"A": Status.DEMOTED, "B": Status.PROMOTED,
                    "C": Status.PROMOTED}
        collisions = frozenset({frozenset({"B", "C"})})
        adopted = Engine.adopt(chain, statuses, collisions)
        assert [(o.right, o.position) for o in adopted] == [("B", 2)]

    def test_first_survivor_property(self):
        rights = ("A", "B", "C", "D")
        for demoted in itertools.product((False, True), repeat=4):
            statuses = {r: (Status.DEMOTED if d else Status.UNDEFINED)
                        for r, d in zip(rights, demoted)}
            adopted = Engine.adopt(PriorityChain("c", rights), statuses, frozenset())
            survivors = [r for r in rights if statuses[r] != Status.DEMOTED]
            if survivors:
                assert adopted[0].right == survivors[0]
            assert all(statuses[o.right] != Status.DEMOTED for o in adopted)


class TestAssessScenario:
    def test_scholarship_singletons(self, scholarship_kb):
        f = Engine(scholarship_kb).assess("S_d")
        assert f.adopted == frozenset({
            occ("privacy", "singleton", 1, 1),
            occ("non_discrimination", "singleton", 1, 1),
            occ("dignity", "singleton", 1, 1)})
        assert f.demoted_occurrences == frozenset()

    def test_no_rules_all_undefined(self):
        kb = parse_kb("right a;\nscenario S { x }\n"
                      "rule r: y => promotes(a);")
        f = Engine(kb).assess("S")
        assert f.adopted == frozenset()
        assert all(s == Status.UNDEFINED for s in f.statuses.values())

    def test_unknown_scenario(self, pandemic_kb):
        with pytest.raises(KeyError):
            Engine(pandemic_kb).assess("nope")

    def test_deterministic(self, triage_kb):
        a = Engine(triage_kb).assess("S_outbreak")
        b = Engine(triage_kb).assess("S_outbreak")
        assert a.statuses == b.statuses
        assert a.adopted == b.adopted
        assert a.collisions == b.collisions

    def test_status_partition(self, triage_kb):
        engine = Engine(triage_kb)
        for scen in triage_kb.scenarios:
            f = engine.assess(scen.id)
            assert all(isinstance(s, Status) for s in f.statuses.values())

    def test_adopted_never_demoted(self, triage_kb):
        engine = Engine(triage_kb)
        for scen in triage_kb.scenarios:
            f = engine.assess(scen.id)
            for o in f.adopted:
                assert f.statuses[o.right] != Status.DEMOTED


class TestMonotonicity:
    KB_TEXT = ("right R;\n"
               "scenario X { pandemic }\n"
               "scenario Y { pandemic, !consent }\n"
               "assert demotes(R) in X;\n"
               "assert promotes(R) in Y;\n")

    def test_superset_conflict_warns(self):
        kb = parse_kb(self.KB_TEXT)
        diags = Engine(kb).check_monotonicity()
        assert len(diags) == 1
        assert diags[0].code == "monotonicity"
        assert "'Y'" in diags[0].message and "'X'" in diags[0].message

    def test_disjoint_features_quiet(self, scholarship_kb):
        assert Engine(scholarship_kb).check_monotonicity() == []

    def test_toggle_off(self):
        kb = parse_kb(self.KB_TEXT)
        config = EngineConfig(monotonicity_check=False)
        assert Engine(kb, config).check_monotonicity() == []


class TestExplain:
    def test_pandemic_choice_trace(self, pandemic_kb):
        expl = Engine(pandemic_kb).explain("S", "choice(S, public_health)")
        assert expl.derivable
        assert expl.trace.rule == "right_adoption_2"
        rendered = expl.trace.render()
        assert "privacy > public_health" in rendered
        assert "demotes(privacy)" in rendered

    def test_underivable_promotion(self, scholarship_kb):
        expl = Engine(scholarship_kb).explain("S_d", "promotes(S_d, merit)")
        assert not expl.derivable
        assert "not derivable" in expl.blocked

    def test_demotes_single_node(self, scholarship_kb):
        expl = Engine(scholarship_kb).explain("S_r", "demotes(S_r, privacy)")
        assert expl.derivable
        assert expl.trace.conclusion == "demotes(privacy)"

    def test_unknown_right(self, pandemic_kb):
        with pytest.raises(KeyError):
            Engine(pandemic_kb).explain("S", "promotes(S, nope)")

    def test_malformed_conclusion(self, pandemic_kb):
        with pytest.raises(ValueError):
            Engine(pandemic_kb).explain("S", "choice[")
