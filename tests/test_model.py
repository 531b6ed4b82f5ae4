import itertools
import time

import pytest
from hypothesis import given, strategies as st

from rightsrisk.dsl import parse_kb
from rightsrisk.model import (AndExpr, FeatureLiteral, KnowledgeBase,
                              FundamentalRight, ModelError, OrExpr, RightRef,
                              Scenario, expand_right, jointly_satisfiable,
                              logically_incompatible, satisfies, validate_kb,
                              NotExpr)


def lit(s: str) -> FeatureLiteral:
    return FeatureLiteral(s.lstrip("!"), not s.startswith("!"))


def lits(*specs: str) -> frozenset:
    return frozenset(lit(s) for s in specs)


class TestSatisfies:
    def test_pandemic_body(self):
        assert satisfies(lits("pandemic", "!consent"), lits("pandemic", "!consent"))

    def test_empty_body_always_true(self):
        assert satisfies(lits("pandemic"), [])
        assert satisfies(frozenset(), [])

    def test_unknown_atom_does_not_satisfy(self):
        # absent atoms are unknown, not false
        assert not satisfies(lits("pandemic"), lits("!consent"))

    def test_wrong_polarity(self):
        assert not satisfies(lits("consent"), lits("!consent"))

    @given(st.sets(st.sampled_from([lit(s) for s in
                                    ["a", "b", "!c", "d", "!e"]])),
           st.sets(st.sampled_from([lit(s) for s in
                                    ["a", "b", "!c", "d", "!e"]])),
           st.sets(st.sampled_from([lit(s) for s in ["f", "!g", "h"]])))
    def test_monotone_in_features(self, features, body, extra):
        if satisfies(features, body):
            assert satisfies(features | extra, body)


class TestExpandRight:
    def test_privacy_conjunction(self, privacy_kb):
        expanded = expand_right(privacy_kb, "privacy")
        assert expanded == AndExpr(tuple(
            RightRef(n) for n in ("data_protection", "autonomy",
                                  "confidentiality", "dignity", "control")))

    def test_atomic_right_is_self_leaf(self, pandemic_kb):
        assert expand_right(pandemic_kb, "public_health") == RightRef("public_health")

    def test_cycle_detected(self):
        kb = KnowledgeBase(rights=[
            FundamentalRight("A", RightRef("B")),
            FundamentalRight("B", RightRef("A")),
        ])
        with pytest.raises(ModelError, match="recursive right definition"):
            expand_right(kb, "A")

    def test_unknown_right(self, pandemic_kb):
        with pytest.raises(KeyError):
            expand_right(pandemic_kb, "nope")

    def test_shared_definitions_expand_once(self):
        chain = "basic x;\n" + "".join(f"right r{i} := r{i + 1} & r{i + 1};\n"
                                       for i in range(60)) + "right r60 := x;\n"
        start = time.perf_counter()
        assert validate_kb(parse_kb(chain)) == []
        assert time.perf_counter() - start < 1

    def test_cycle_diagnostics(self):
        kb = parse_kb("basic a;\nright A := B; right B := C; right C := A; right D := A & a;\n")
        assert [str(d) for d in validate_kb(kb)] == [
            f"error[recursive-definition]: recursive right definition: {c}"
            for c in ("A -> B -> C -> A", "B -> C -> A -> B",
                      "C -> A -> B -> C", "D -> A -> B -> C -> A")]


class TestIncompatibility:
    def test_negated_definitions_collide(self):
        kb = KnowledgeBase(rights=[
            FundamentalRight("A", RightRef("x")),
            FundamentalRight("B", NotExpr(RightRef("x"))),
        ])
        assert logically_incompatible(kb, "A", "B")

    def test_distinct_atomics_compatible(self, pandemic_kb):
        assert not logically_incompatible(pandemic_kb, "privacy", "public_health")

    def test_no_atom_cap(self):
        atoms = [f"b{i}" for i in range(21)]
        kb = parse_kb("".join(f"basic {a};\n" for a in atoms)
                      + f"right big := {' & '.join(atoms)};\nright nb := !b0;\n")
        assert logically_incompatible(kb, "big", "nb")

    def test_thousand_atoms(self):
        refs = tuple(RightRef(f"b{i}") for i in range(1000))
        negs = tuple(NotExpr(r) for r in refs)
        assert jointly_satisfiable(AndExpr(refs), AndExpr(refs))
        assert not jointly_satisfiable(AndExpr(refs), OrExpr(negs))
        assert not jointly_satisfiable(OrExpr(refs), AndExpr(negs))

    @given(st.data())
    def test_matches_truth_table(self, data):
        leaves = st.sampled_from([RightRef(f"b{i}") for i in range(8)])
        exprs = st.recursive(leaves, lambda sub: st.one_of(
            sub.map(NotExpr),
            st.lists(sub, min_size=1, max_size=4).map(lambda es: AndExpr(tuple(es))),
            st.lists(sub, min_size=1, max_size=4).map(lambda es: OrExpr(tuple(es)))),
            max_leaves=12)
        e1, e2 = data.draw(exprs), data.draw(exprs)
        assert jointly_satisfiable(e1, e2) == truth_table_satisfiable(e1, e2)


def truth_value(expr, assignment):
    if isinstance(expr, RightRef):
        return assignment[expr.name]
    if isinstance(expr, NotExpr):
        return not truth_value(expr.operand, assignment)
    values = [truth_value(e, assignment) for e in expr.operands]
    return all(values) if isinstance(expr, AndExpr) else any(values)


def truth_table_satisfiable(e1, e2):
    atoms = [f"b{i}" for i in range(8)]
    return any(truth_value(e1, a) and truth_value(e2, a)
               for a in (dict(zip(atoms, values))
                         for values in itertools.product((False, True), repeat=8)))


class TestValidateKb:
    def test_scholarship_is_clean(self, scholarship_kb):
        assert validate_kb(scholarship_kb) == []

    def test_triage_is_clean(self, triage_kb):
        assert validate_kb(triage_kb) == []

    def test_unknown_right_reference(self, scholarship_kb):
        from rightsrisk.model import AssertStmt, PredHead
        scholarship_kb.assertions.append(
            AssertStmt("S_d", PredHead("promotes", ("made_up",))))
        diags = validate_kb(scholarship_kb)
        assert any("unknown right" in d.message for d in diags)

    def test_polarity_conflict(self):
        kb = KnowledgeBase(scenarios=[Scenario("S", lits("consent", "!consent"))])
        diags = validate_kb(kb)
        assert any(d.code == "polarity-conflict" for d in diags)

    def test_order_insensitive(self, triage_kb):
        baseline = sorted(str(d) for d in validate_kb(triage_kb))
        triage_kb.assertions.reverse()
        triage_kb.rules.reverse()
        triage_kb.scenarios.reverse()
        assert sorted(str(d) for d in validate_kb(triage_kb)) == baseline

    def test_idempotent(self, scholarship_kb):
        first = validate_kb(scholarship_kb)
        assert validate_kb(scholarship_kb) == first
