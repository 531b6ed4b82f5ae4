import dataclasses
import itertools
import random
import re

import pytest

from kb_random import random_kb, with_collision_rules, with_refinements
from rightsrisk import engine as engine_module, model
from rightsrisk.dsl import parse_kb, print_kb
from rightsrisk.engine import Engine, EngineConfig, Occurrence, Status
from rightsrisk.minimizer import minimize_domain
from rightsrisk.model import (UNARY_PREDS, AssertStmt, ChainHead, CompiledRights,
                              Diagnostic, FeatureLiteral, ModelError, PredHead,
                              Rule, expand_right, logically_incompatible,
                              satisfies, validate_kb)
from rightsrisk.scoring import degree_scenario
from test_model import leaf_names, truth_table_satisfiable


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

    def test_each_scenario_fired_once(self, scholarship_kb):
        engine = Engine(scholarship_kb)
        calls = []
        fire = engine.fire_rules
        engine.fire_rules = lambda sid: calls.append(sid) or fire(sid)
        ids = [s.id for s in scholarship_kb.scenarios]
        engine.assess(ids[0])
        engine.check_monotonicity()
        for sid in ids:
            engine.assess(sid)
            engine.explain(sid, f"promotes({sid}, privacy)")
            engine.explain(sid, f"collides({sid}, merit, privacy)")
        assert sorted(calls) == sorted(ids)


def naive_fire(kb, scenario_id):
    """Reference firing: every rule tested against the scenario, in order."""
    features = next(s.features for s in kb.scenarios if s.id == scenario_id)
    return [r for r in kb.all_rules() if satisfies(features, r.body)]


def naive_monotonicity(engine):
    """Reference monotonicity check: every ordered scenario pair compared."""
    raw = {}
    for scen in engine.kb.scenarios:
        promotes, demotes = set(), set()
        for f in naive_fire(engine.kb, scen.id):
            if isinstance(f.head, PredHead):
                if f.head.kind == "promotes":
                    promotes.add(f.head.rights[0])
                elif f.head.kind == "demotes":
                    demotes.add(f.head.rights[0])
        raw[scen.id] = (promotes, demotes)

    diags = []
    for sub in engine.kb.scenarios:       # X: the weaker description
        for sup in engine.kb.scenarios:   # Y: features(Y) >= features(X)
            if sub.id == sup.id or not sub.features <= sup.features:
                continue
            sup_p, sup_d = raw[sup.id]
            sub_p, sub_d = raw[sub.id]
            for right in sorted(sup_p & sub_d):
                diags.append(model.Diagnostic(
                    "warning", "monotonicity",
                    f"{sup.id!r} promotes {right!r} while feature-subset "
                    f"scenario {sub.id!r} demotes it"))
            for right in sorted(sup_d & sub_p):
                diags.append(model.Diagnostic(
                    "warning", "monotonicity",
                    f"{sup.id!r} demotes {right!r} while feature-subset "
                    f"scenario {sub.id!r} promotes it"))
    return diags


class TestFiringOracle:
    """Indexed firing against the naive scan kept here as its oracle."""

    @pytest.mark.parametrize("seed", range(150))
    def test_random_kbs(self, seed):
        rng = random.Random(seed)
        kb = with_refinements(random_kb(rng, with_extras=seed % 2 == 1), rng)
        engine, reference = Engine(kb), Engine(kb)
        reference.fire_rules = lambda sid: naive_fire(kb, sid)
        for scen in kb.scenarios:
            assert engine.fire_rules(scen.id) == naive_fire(kb, scen.id)
            assert engine.assess(scen.id) == reference.assess(scen.id)
        assert engine.check_monotonicity() == reference.check_monotonicity()
        assert engine.check_monotonicity() == naive_monotonicity(engine)

    def fired_ids(self, text, scenario="S"):
        kb = parse_kb(text)
        fired = Engine(kb).fire_rules(scenario)
        assert fired == naive_fire(kb, scenario)
        return [r.id for r in fired]

    def test_empty_body_fires_everywhere_in_order(self):
        text = ("right a;\nscenario S { x }\nscenario T { y }\n"
                "rule r1: x => promotes(a);\nrule r2: => demotes(a);\n"
                "rule r3: y => promotes(a);")
        assert self.fired_ids(text, "S") == ["r1", "r2"]
        assert self.fired_ids(text, "T") == ["r2", "r3"]

    def test_repeated_literal(self):
        text = ("right a;\nscenario S { x }\nscenario T { y }\n"
                "rule r: x & x => promotes(a);")
        assert self.fired_ids(text, "S") == ["r"]
        assert self.fired_ids(text, "T") == []

    def test_contradictory_body_never_fires(self):
        text = ("right a;\nscenario S { x }\nscenario T { !x }\n"
                "rule r: x & !x => promotes(a);")
        assert self.fired_ids(text, "S") == []
        assert self.fired_ids(text, "T") == []

    def test_refinement_fires_base_asserts(self):
        text = ("right a; right b;\nscenario S { x, y }\nscenario B { x }\n"
                "assert promotes(a) in B;\nassert demotes(b) in S;\n"
                "rule r: y => promotes(b);")
        assert self.fired_ids(text, "S") == ["r", "assert#0@B", "assert#1@S"]
        assert self.fired_ids(text, "B") == ["assert#0@B"]

    def test_duplicate_scenario_first_wins(self):
        text = ("right a;\nscenario S { x }\nscenario S { y }\n"
                "assert promotes(a) in S;\n"
                "rule r1: x => promotes(a);\nrule r2: y => demotes(a);")
        assert self.fired_ids(text) == ["r1", "assert#0@S"]

    def test_shared_body_fires_every_rule_in_order(self):
        # both asserts of S share one body tuple; r2 lists the same literals
        # in another order and r4 in the asserts' sorted order
        text = ("right a; right b;\nscenario S { z, !y, x }\nscenario T { x, z }\n"
                "assert promotes(a) in S;\n"
                "rule r1: x => promotes(a);\nrule r2: z & x & !y => demotes(b);\n"
                "rule r3: x & z => promotes(b);\n"
                "assert demotes(b) in S;\n"
                "rule r4: x & !y & z => promotes(b);\nrule r5: w => demotes(a);")
        assert self.fired_ids(text, "S") == ["r1", "r2", "r3", "r4",
                                             "assert#0@S", "assert#1@S"]
        assert self.fired_ids(text, "T") == ["r1", "r3"]
        engine = Engine(parse_kb(text))
        _, groups = engine._rule_index
        assert groups == [[0], [1], [2], [3, 5, 6], [4]]

    def test_unknown_scenario(self, pandemic_kb):
        with pytest.raises(KeyError) as exc:
            Engine(pandemic_kb).fire_rules("X")
        assert exc.value.args == ("unknown scenario 'X'",)

    def test_index_built_on_first_firing(self, pandemic_kb):
        engine = Engine(pandemic_kb)
        assert "_rule_index" not in vars(engine)
        engine.fire_rules("S")
        assert "_rule_index" in vars(engine)


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

    @pytest.mark.parametrize("collides, blocks, expected", [
        (-2, -1, True), (2, 1, True), (-1, 0, False), (1, 1, False)])
    def test_implied_pair_strength(self, collides, blocks, expected):
        """A derived pair collides at max(explicit strength, 0)."""
        kb = parse_kb("right a; right b;\nscenario S { x }\n"
                      "rule r1: x => promotes(a);\nrule r2: x => demotes(b);\n"
                      f"rule r3 [{collides}]: x => collides(a, b);\n"
                      f"rule r4 [{blocks}]: x => not_collides(a, b);")
        f = Engine(kb).assess("S")
        assert (frozenset({"a", "b"}) in f.collisions) == expected

    def test_symmetry(self, scholarship_kb):
        f = Engine(scholarship_kb).assess("S_r")
        for pair in f.collisions:
            assert frozenset(reversed(sorted(pair))) in f.collisions


def naive_statuses(fired):
    """Reference status resolution: the per-right strength lists that
    `Engine.resolve_statuses` once built."""
    by_right: dict[str, dict[str, list[int]]] = {}
    for f in fired:
        if isinstance(f.head, PredHead) and f.head.kind in ("promotes", "demotes", "not_demotes"):
            slot = by_right.setdefault(f.head.rights[0], {})
            slot.setdefault(f.head.kind, []).append(f.strength)

    statuses: dict[str, Status] = {}
    diags: list[Diagnostic] = []
    for right, heads in by_right.items():
        promotes = heads.get("promotes", [])
        demotes = heads.get("demotes", [])
        blocks = heads.get("not_demotes", [])
        if blocks:
            bar = max(blocks)
            demotes = [s for s in demotes if s > bar]
        pmax = max(promotes) if promotes else None
        dmax = max(demotes) if demotes else None
        if pmax is None and dmax is None:
            statuses[right] = Status.UNDEFINED
        elif dmax is None:
            statuses[right] = Status.PROMOTED
        elif pmax is None:
            statuses[right] = Status.DEMOTED
        elif pmax > dmax:
            statuses[right] = Status.PROMOTED
        elif dmax > pmax:
            statuses[right] = Status.DEMOTED
        else:
            statuses[right] = Status.UNDEFINED
            diags.append(Diagnostic(
                "warning", "ambiguity",
                f"right {right!r}: promote and demote conclusions tie "
                f"at strength {pmax}; status undefined"))
    return statuses, diags


def naive_collisions(self, statuses, fired):
    """Reference collisions: every right pair tested, as
    `Engine.derive_collisions` once did; `self` is the Engine."""
    explicit: dict[frozenset[str], int] = {}
    blocks: dict[frozenset[str], int] = {}
    for f in fired:
        if isinstance(f.head, PredHead) and f.head.kind in ("collides", "not_collides"):
            pair = frozenset(f.head.rights)
            target = explicit if f.head.kind == "collides" else blocks
            target[pair] = max(target.get(pair, f.strength), f.strength)

    candidates: dict[frozenset[str], int] = dict(explicit)
    rights = sorted(statuses)
    for i, r1 in enumerate(rights):
        for r2 in rights[i + 1:]:
            pair = frozenset((r1, r2))
            if self._pair_incompatible(r1, r2) or (
                    self.config.derived_collision
                    and {statuses[r1], statuses[r2]} == {Status.PROMOTED, Status.DEMOTED}):
                candidates[pair] = max(candidates.get(pair, 0), 0)

    result = {pair for pair, strength in candidates.items()
              if not (pair in blocks and blocks[pair] >= strength)}
    return frozenset(result)


def collision_kb(seed):
    """A refinement KB with extra collides, not_collides and unary rules at
    strengths -3..3."""
    rng = random.Random(seed)
    kb = with_refinements(random_kb(rng, with_extras=seed % 2 == 1), rng)
    return with_collision_rules(kb, rng)


TOGGLES = [EngineConfig(derived, monotonicity)
           for derived in (True, False) for monotonicity in (True, False)]


class TestStatusCollisionOracle:
    """`resolve_statuses` and `derive_collisions` against the reference
    versions kept above."""

    @pytest.mark.parametrize("seed", range(150))
    def test_random_kbs(self, seed):
        kb = collision_kb(seed)
        for config in TOGGLES:
            engine = Engine(kb, config)
            for scen in kb.scenarios:
                fired = engine.fire_rules(scen.id)
                statuses, diags = engine.resolve_statuses(fired)
                expected, expected_diags = naive_statuses(fired)
                assert list(statuses.items()) == list(expected.items()), scen.id
                assert diags == expected_diags, scen.id
                findings = engine.assess(scen.id)
                assert findings.collisions == naive_collisions(
                    engine, findings.statuses, fired), scen.id

    def test_kbs_tie_block_and_collide_below_zero(self):
        """The seeds above tie statuses, block collisions with not_collides
        and collide pairs at negative explicit strength."""
        seen = set()
        for seed in range(150):
            kb = collision_kb(seed)
            engine = Engine(kb)
            for scen in kb.scenarios:
                fired = engine.fire_rules(scen.id)
                findings = engine.assess(scen.id)
                if any(d.code == "ambiguity" for d in findings.diagnostics):
                    seen.add("tie")
                for f in fired:
                    pair = frozenset(f.head.rights)
                    if f.head.kind == "not_collides" and pair not in findings.collisions:
                        seen.add("blocked")
                    if f.head.kind == "collides" and f.strength < 0 \
                            and pair in findings.collisions:
                        seen.add("negative")
        assert seen == {"tie", "blocked", "negative"}

    def test_ties_warn_in_first_concluded_order(self):
        kb = parse_kb("right a; right b;\nscenario S { x }\n"
                      "rule r1: x => demotes(a);\nrule r2: x => promotes(b);\n"
                      "rule r3: x => demotes(b);\nrule r4: x => promotes(a);")
        statuses, diags = Engine.resolve_statuses(Engine(kb).fire_rules("S"))
        assert statuses == {"a": Status.UNDEFINED, "b": Status.UNDEFINED}
        assert [d.message[:10] for d in diags] == ["right 'a':", "right 'b':"]


class TestMetamorphic:
    """Relations between the outputs on a KB and on a changed copy of it
    (Chen et al., "Metamorphic Testing: A Review of Challenges and
    Opportunities", ACM CSUR 2018), over the KBs of the oracle above."""

    @staticmethod
    def outputs(kb, config):
        engine = Engine(kb, config)
        findings = [engine.assess(scen.id) for scen in kb.scenarios]
        return findings, engine.check_monotonicity()

    @pytest.mark.parametrize("seed", range(150))
    def test_scaled_strengths(self, seed):
        """Only the order of strengths counts, and 0 (asserts, implied
        collisions) is fixed by s -> 3s."""
        kb = collision_kb(seed)
        scaled = dataclasses.replace(kb, rules=[r._replace(strength=3 * r.strength)
                                                for r in kb.rules])
        for config in TOGGLES:
            (before, mono), (after, mono_after) = (self.outputs(kb, config),
                                                   self.outputs(scaled, config))
            assert mono == mono_after
            for b, a in zip(before, after):
                assert (b.statuses, b.collisions, b.adopted, b.demoted_occurrences) == \
                    (a.statuses, a.collisions, a.adopted, a.demoted_occurrences)
                unscaled = [re.sub(r"at strength (-?\d+)",
                                   lambda m: f"at strength {int(m[1]) // 3}", d.message)
                            for d in a.diagnostics]
                assert [d.message for d in b.diagnostics] == unscaled

    @pytest.mark.parametrize("seed", range(150))
    def test_rule_that_never_fires(self, seed):
        kb = collision_kb(seed)
        rng = random.Random(seed)
        rights = [r.id for r in kb.rights]
        kind = rng.choice(["promotes", "demotes", "not_demotes", "collides", "not_collides",
                           "chain"])
        chosen = tuple(rng.sample(rights, 1 if kind in UNARY_PREDS else 2))
        head = ChainHead(chosen) if kind == "chain" else PredHead(kind, chosen)
        body = (FeatureLiteral("never", True),) + rng.choice(kb.rules).body
        added = dataclasses.replace(kb, rules=kb.rules + [Rule("unfired", body, head, 3)])
        for config in TOGGLES:
            assert self.outputs(kb, config) == self.outputs(added, config)

    @pytest.mark.parametrize("seed", range(150))
    def test_duplicated_rule(self, seed):
        """Relation 3(e) for predicate heads: a copy of a rule under a new
        id changes nothing. (A copied chain rule is scored as a second chain.)"""
        kb = collision_kb(seed)
        expected = [self.outputs(kb, config) for config in TOGGLES]
        for rule in kb.rules:
            if isinstance(rule.head, PredHead):
                copy = rule._replace(id=rule.id + "_copy")
                duplicated = dataclasses.replace(kb, rules=kb.rules + [copy])
                for config, before in zip(TOGGLES, expected):
                    assert self.outputs(duplicated, config) == before, (rule.id, config)

    @staticmethod
    def with_asserted_chains(kb, rng):
        """`kb` plus three asserted chains, so that occurrences name assert
        rules."""
        rights = [r.id for r in kb.rights]
        kb.assertions += [AssertStmt(rng.choice(kb.scenarios).id,
                                     ChainHead(tuple(rng.sample(rights, 2))))
                          for _ in range(3)]
        assert not [d for d in validate_kb(kb) if d.severity == "error"]
        return kb

    SHUFFLED = ("rules", "assertions", "scenarios", "rights", "basic_rights")

    @staticmethod
    def unordered(kb, config, assert_order):
        """Per scenario id: statuses, collisions, adopted and demoted
        occurrences, sorted ambiguity messages and degree; then the sorted
        monotonicity warnings and each domain's minimization. `assert_order[j]`
        is the declared position, in the unshuffled KB, of assert j."""
        def original(occurrence):
            chain = re.sub(r"^assert#(\d+)@", lambda m: f"assert#{assert_order[int(m[1])]}@",
                           occurrence.chain)
            return occurrence._replace(chain=chain)
        engine = Engine(kb, config)
        per_scenario = {}
        for scen in kb.scenarios:
            f = engine.assess(scen.id)
            per_scenario[scen.id] = (
                f.statuses, f.collisions, {original(o) for o in f.adopted},
                {original(o) for o in f.demoted_occurrences},
                sorted(d.message for d in f.diagnostics if d.code == "ambiguity"),
                degree_scenario(f).degree)
        return (per_scenario, sorted(d.message for d in engine.check_monotonicity()),
                [minimize_domain(engine, d.id) for d in kb.domains])

    @pytest.mark.parametrize("seed", range(150))
    def test_shuffled_declarations(self, seed):
        """Relation 3(a): the order of rules, asserts, scenarios, rights
        and basic rights changes no finding."""
        rng = random.Random(seed)
        kb = self.with_asserted_chains(collision_kb(seed), rng)
        identity = range(len(kb.assertions))
        expected = [self.unordered(kb, config, identity) for config in TOGGLES]
        for name in self.SHUFFLED:
            declared = getattr(kb, name)
            order = rng.sample(range(len(declared)), len(declared))
            shuffled = dataclasses.replace(kb, **{name: [declared[i] for i in order]})
            assert_order = order if name == "assertions" else identity
            for config, before in zip(TOGGLES, expected):
                assert self.unordered(shuffled, config, assert_order) == before, (name, config)

    @staticmethod
    def renamed_outputs(kb, config, rename):
        """Per renamed scenario id: statuses, collisions, adopted and demoted
        occurrences, the sorted diagnostics and the degree, all mapped
        through `rename`; then the sorted monotonicity warnings and each
        domain's optimal degree and maximizer count."""
        def occurrences(occs):
            return {o._replace(right=rename(o.right), chain=rename(o.chain))
                    for o in occs}
        engine = Engine(kb, config)
        per_scenario = {}
        for scen in kb.scenarios:
            f = engine.assess(scen.id)
            per_scenario[rename(scen.id)] = (
                {rename(r): status for r, status in f.statuses.items()},
                {frozenset(map(rename, pair)) for pair in f.collisions},
                occurrences(f.adopted), occurrences(f.demoted_occurrences),
                sorted(rename(d.message) for d in f.diagnostics),
                degree_scenario(f).degree)
        minimized = [minimize_domain(engine, d.id) for d in kb.domains]
        return (per_scenario, sorted(rename(d.message) for d in engine.check_monotonicity()),
                [(m.optimal_degree, m.maximizer_count) for m in minimized])

    @pytest.mark.parametrize("seed", range(150))
    def test_renamed_names(self, seed):
        """Relation 3(b): renaming rights, basic rights, features and
        scenarios consistently maps every output through the renaming. The
        renaming is applied to each name token of the printed KB, and to
        the names inside chain ids (`assert#i@S`) and messages. Which
        maximizers are listed depends on name order, so only the optimal
        degree and the maximizer count are compared."""
        rng = random.Random(seed)
        kb = self.with_asserted_chains(collision_kb(seed), rng)
        names = sorted({r.id for r in kb.rights} | {b.id for b in kb.basic_rights}
                       | {s.id for s in kb.scenarios}
                       | {lit.atom for s in kb.scenarios for lit in s.features}
                       | {lit.atom for r in kb.rules for lit in r.body})
        fresh = dict(zip(names, (f"n{i}" for i in rng.sample(range(len(names)), len(names)))))
        assert sorted(fresh) != sorted(fresh, key=fresh.get) or len(names) < 2

        def rename(text):
            return re.sub(r"[A-Za-z_]\w*", lambda m: fresh.get(m[0], m[0]), text)
        renamed = parse_kb(rename(print_kb(kb)))
        for config in TOGGLES:
            assert self.renamed_outputs(kb, config, rename) == \
                self.renamed_outputs(renamed, config, str), config


class TestIncompatibilityOracle:
    """The Engine's cached pair check against a fresh `logically_incompatible`
    and the truth-table oracle of `test_model.py`."""

    def test_random_kbs(self):
        answers = set()
        for seed in range(100):
            kb = random_kb(random.Random(seed), with_extras=True)
            engine = Engine(kb)
            for r1, r2 in itertools.combinations(sorted(kb.right_ids() | kb.basic_ids()), 2):
                expected = not truth_table_satisfiable(expand_right(kb, r1),
                                                       expand_right(kb, r2))
                assert engine._pair_incompatible(r1, r2) == expected, (seed, r1, r2)
                fresh = logically_incompatible(CompiledRights(kb), r1, r2)
                assert fresh == expected, (seed, r1, r2)
                answers.add(expected)
        assert answers == {False, True}

    KB_TEXT = ("basic x;\nright a;\nright d := !a & x;\nright e := x;\n"
               "right c1 := c2;\nright c2 := c1 & x;\n")

    def test_hand_cases(self):
        engine = Engine(parse_kb(self.KB_TEXT))
        assert engine._pair_incompatible("a", "d")       # atomic against defined
        assert not engine._pair_incompatible("d", "e")
        assert not engine._pair_incompatible("a", "nope")  # unknown right
        assert not engine._pair_incompatible("c1", "d")    # recursive definition
        assert not engine._pair_incompatible("c2", "e")

    def test_each_pair_checked_once_each_right_compiled_once(self, monkeypatch):
        checks, compiles = [], []
        check, compile_expr = engine_module.logically_incompatible, model._compile
        monkeypatch.setattr(engine_module, "logically_incompatible",
                            lambda *args: checks.append(args[1:3]) or check(*args))
        monkeypatch.setattr(model, "_compile",
                            lambda expr: compiles.append(expr) or compile_expr(expr))
        engine = Engine(parse_kb(self.KB_TEXT))
        assert compiles == []  # nothing is compiled before a pair is checked
        for r1, r2, expected in [("a", "d", True), ("d", "a", True), ("d", "e", False),
                                 ("e", "d", False), ("a", "e", False), ("c1", "a", False),
                                 ("a", "c1", False)]:
            assert engine._pair_incompatible(r1, r2) == expected
        assert checks == [("a", "d"), ("d", "e"), ("a", "e"), ("c1", "a")]
        assert len(compiles) == 3


@pytest.fixture()
def pair_checks(monkeypatch):
    """The (r1, r2) of every `logically_incompatible` call the Engine makes."""
    checks = []
    check = engine_module.logically_incompatible
    monkeypatch.setattr(engine_module, "logically_incompatible",
                        lambda *args: checks.append(args[1:3]) or check(*args))
    return checks


def expanded(kb, right):
    """`expand_right`, or None for an unknown or cyclic right."""
    try:
        return expand_right(kb, right)
    except (KeyError, ModelError):
        return None


class TestAtomIndex:
    """`derive_collisions` checks only the in-scope pairs that share an
    atom or hold a right unsatisfiable alone."""

    # z is unsatisfiable alone and shares no atom with a or d; u is not
    # declared, and c1 is defined through a cycle
    UNSAT_TEXT = ("basic x;\nbasic y;\nright a;\nright d := !y;\n"
                  "right c1 := c2;\nright c2 := c1 & x;\nright z := x & !x;\n"
                  "scenario S { f }\n"
                  + "".join(f"assert promotes({r}) in S;\n" for r in ("z", "a", "d", "u", "c1")))

    @pytest.mark.parametrize("config", TOGGLES)
    def test_unsatisfiable_right_collides_with_each_expandable_right(self, config):
        engine = Engine(parse_kb(self.UNSAT_TEXT), config)
        findings = engine.assess("S")
        assert findings.collisions == {frozenset({"z", "a"}), frozenset({"z", "d"})}
        assert findings.collisions == naive_collisions(engine, findings.statuses,
                                                       engine.fire_rules("S"))
        assert engine.explain("S", "collides(a, z)").trace.rule == \
            "logically incompatible definitions"

    @pytest.mark.parametrize("strength, removed", [(-1, False), (0, True), (1, True)])
    def test_not_collides_removes_an_unsatisfiable_pair(self, strength, removed):
        kb = parse_kb(self.UNSAT_TEXT + f"rule r [{strength}]: f => not_collides(a, z);\n")
        collisions = Engine(kb).assess("S").collisions
        assert (frozenset({"a", "z"}) in collisions) != removed
        assert frozenset({"d", "z"}) in collisions

    def test_atomic_rights_check_no_pair(self, pair_checks, pandemic_kb, scholarship_kb):
        """Atomic rights share no atom, so only each right's check against
        itself (is it satisfiable alone?) is made, once."""
        kbs = [pandemic_kb, scholarship_kb] + [random_kb(random.Random(seed))
                                               for seed in range(50)]
        checked = 0
        for kb in kbs:
            pair_checks.clear()
            engine = Engine(kb)
            for scen in kb.scenarios:
                engine.assess(scen.id)
            assert all(r1 == r2 for r1, r2 in pair_checks)
            assert len(pair_checks) == len(set(pair_checks))
            checked += len(pair_checks)
        assert checked

    def test_each_candidate_checked_once(self, pair_checks):
        """Over every scenario of the oracle's KBs, the pairs checked are
        exactly the in-scope pairs of expandable rights that share an atom
        or hold a right unsatisfiable alone, each checked once per Engine."""
        shared = unsat = 0
        for seed in range(150):
            kb = collision_kb(seed)
            pair_checks.clear()
            engine = Engine(kb)
            expected = set()
            for scen in kb.scenarios:
                in_scope = sorted(engine.assess(scen.id).statuses)
                for r1, r2 in itertools.combinations(in_scope, 2):
                    e1, e2 = expanded(kb, r1), expanded(kb, r2)
                    if e1 is None or e2 is None:
                        continue
                    if leaf_names(e1) & leaf_names(e2):
                        shared += 1
                    elif not (truth_table_satisfiable(e1, e1) and truth_table_satisfiable(e2, e2)):
                        unsat += 1
                    else:
                        continue
                    expected.add(frozenset((r1, r2)))
            pairs = [frozenset(c) for c in pair_checks if c[0] != c[1]]
            assert len(pairs) == len(set(pairs)) and set(pairs) == expected, seed
        assert shared and unsat


class TestAdopt:
    def test_pandemic_rule_two(self, pandemic_kb):
        f = Engine(pandemic_kb).assess("S")
        assert f.adopted == frozenset({occ("public_health", f.fired_chains[0].id, 2, 2)})
        assert len(f.demoted_occurrences) == 1
        (d,) = f.demoted_occurrences
        assert (d.right, d.position, d.length) == ("privacy", 1, 2)

    def test_nothing_demoted_adopts_all(self):
        statuses = {r: Status.PROMOTED for r in "ABC"}
        adopted = Engine.adopt("c", ("A", "B", "C"), statuses, frozenset())
        assert [(o.right, o.position, o.length) for o in adopted] == \
            [("A", 1, 3), ("B", 2, 3), ("C", 3, 3)]

    def test_collision_blocks_third(self):
        statuses = {"A": Status.DEMOTED, "B": Status.PROMOTED,
                    "C": Status.PROMOTED}
        collisions = frozenset({frozenset({"B", "C"})})
        adopted = Engine.adopt("c", ("A", "B", "C"), statuses, collisions)
        assert [(o.right, o.position) for o in adopted] == [("B", 2)]

    def test_first_survivor_property(self):
        rights = ("A", "B", "C", "D")
        for demoted in itertools.product((False, True), repeat=4):
            statuses = {r: (Status.DEMOTED if d else Status.UNDEFINED)
                        for r, d in zip(rights, demoted)}
            adopted = Engine.adopt("c", rights, statuses, frozenset())
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

    def test_fires_only_paired_scenarios(self):
        # A's features are a subset of B's; no other scenario is in a pair
        text = ("right a;\nscenario C { z }\nscenario A { x }\nscenario D { !x, w }\n"
                "scenario B { x, y }\n"
                "assert demotes(a) in A;\nassert promotes(a) in B;\n"
                "rule r: z => demotes(a);")
        engine = Engine(parse_kb(text))
        calls = []
        fire = engine.fire_rules
        engine.fire_rules = lambda sid: calls.append(sid) or fire(sid)
        diags = engine.check_monotonicity()
        assert sorted(calls) == ["A", "B"]
        assert len(diags) == 1
        assert diags == naive_monotonicity(engine)

    @staticmethod
    def warnings(text):
        """(superset, kind, right, subset) per warning, checked against the
        pair scan kept here as the oracle."""
        engine = Engine(parse_kb(text))
        diags = engine.check_monotonicity()
        assert diags == naive_monotonicity(engine)
        return [tuple(re.fullmatch(r"'(\w+)' (\w+) '(\w+)' while feature-subset "
                                   r"scenario '(\w+)' \w+ it", d.message).groups())
                for d in diags]

    def test_featureless_scenario_is_a_subset_of_all(self):
        text = ("right a;\nscenario E { }\nscenario S { x }\nscenario T { y, z }\n"
                "assert demotes(a) in E;\n"
                "rule r1: x => promotes(a);\nrule r2: z => promotes(a);")
        assert self.warnings(text) == [("S", "promotes", "a", "E"),
                                       ("T", "promotes", "a", "E")]

    def test_equal_features_count_both_ways(self):
        text = ("right a;\nscenario A { x, y }\nscenario B { y, x }\n"
                "assert promotes(a) in A;\nassert demotes(a) in B;")
        assert self.warnings(text) == [("B", "promotes", "a", "A"),
                                       ("B", "demotes", "a", "A"),
                                       ("A", "promotes", "a", "B"),
                                       ("A", "demotes", "a", "B")]

    def test_duplicate_ids_are_skipped(self):
        text = ("right a;\nscenario S { x }\nscenario S { x, y }\n"
                "scenario T { x, y, z }\n"
                "assert demotes(a) in S;\nrule r: z => promotes(a);")
        assert self.warnings(text) == [("T", "promotes", "a", "S")] * 2

    def test_chain(self):
        text = ("right a; right b;\nscenario Z { p, q, r }\nscenario X { p }\n"
                "scenario Y { p, q }\n"
                "rule r1: p => demotes(a);\nrule r2: q => promotes(a);\n"
                "rule r3: q => promotes(b);\nrule r4: r => demotes(b);")
        assert self.warnings(text) == [("Z", "promotes", "a", "X"),
                                       ("Y", "promotes", "a", "X"),
                                       ("Z", "promotes", "a", "Y"),
                                       ("Z", "demotes", "a", "Y"),
                                       ("Z", "demotes", "b", "Y")]

    def test_both_directions_with_several_rights(self):
        rules = [("x", "demotes", "b"), ("y", "promotes", "a"), ("x", "promotes", "d"),
                 ("y", "demotes", "d"), ("x", "demotes", "a"), ("y", "promotes", "b"),
                 ("x", "promotes", "c"), ("y", "demotes", "c")]
        text = ("right a; right b; right c; right d;\n"
                "scenario Y { x, y }\nscenario X { x }\n"
                + "".join(f"rule r{i}: {lit} => {kind}({right});\n"
                          for i, (lit, kind, right) in enumerate(rules)))
        assert self.warnings(text) == [("Y", "promotes", "a", "X"),
                                       ("Y", "promotes", "b", "X"),
                                       ("Y", "demotes", "c", "X"),
                                       ("Y", "demotes", "d", "X")]


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

    def test_conclusion_naming_another_scenario(self, scholarship_kb):
        with pytest.raises(ValueError, match=r"^conclusion 'demotes\(S_r, privacy\)' "
                                             r"names scenario 'S_r', not 'S_d'$"):
            Engine(scholarship_kb).explain("S_d", "demotes(S_r, privacy)")


class TestDefeasibleProperties:
    """Properties of defeasible logic (Antoniou, Billington, Governatori and
    Maher, "Representation results for defeasible logic", ACM TOCL 2001)
    over seeded random KBs."""

    @staticmethod
    def kb(seed):
        rng = random.Random(seed)
        return with_refinements(random_kb(rng, with_extras=seed % 2 == 1), rng)

    @pytest.mark.parametrize("seed", range(150))
    def test_consistency(self, seed):
        kb = self.kb(seed)
        engine = Engine(kb)
        for scen in kb.scenarios:
            f = engine.assess(scen.id)
            demoted = {r for r, status in f.statuses.items() if status == Status.DEMOTED}
            assert not demoted & {o.right for o in f.adopted}, scen.id

    @pytest.mark.parametrize("seed", range(150))
    def test_choice_derivable_iff_adopted(self, seed):
        kb = self.kb(seed)
        engine = Engine(kb)
        for scen in kb.scenarios:
            adopted = {o.right for o in engine.assess(scen.id).adopted}
            for right in sorted(kb.right_ids() | kb.basic_ids()):
                expl = engine.explain(scen.id, f"choice({scen.id}, {right})")
                assert expl.derivable == (right in adopted), (scen.id, right)

    @pytest.mark.parametrize("seed", range(150))
    def test_stronger_promotion_never_demotes(self, seed):
        kb = self.kb(seed)
        before = Engine(kb)
        top = max([0] + [r.strength for r in kb.rules]) + 1
        for i, rule in enumerate(kb.rules):
            if not (isinstance(rule.head, PredHead) and rule.head.kind == "promotes"):
                continue
            right = rule.head.rights[0]
            for strength in (rule.strength + 1, top):
                rules = list(kb.rules)
                rules[i] = rule._replace(strength=strength)
                after = Engine(dataclasses.replace(kb, rules=rules))
                for scen in kb.scenarios:
                    status = after.assess(scen.id).statuses.get(right)
                    if before.assess(scen.id).statuses.get(right) != Status.DEMOTED:
                        assert status != Status.DEMOTED, (rule.id, strength, scen.id)
                    if strength == top and satisfies(scen.features, rule.body):
                        assert status == Status.PROMOTED, (rule.id, scen.id)
