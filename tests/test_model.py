import functools
import itertools
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load_fixture
from rightsrisk import model
from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine, Occurrence
from rightsrisk.model import (AndExpr, AssertStmt, ChainHead, CompiledRights,
                              FeatureLiteral, KnowledgeBase, FundamentalRight,
                              ModelError, OrExpr, PredHead,
                              RightRef, Rule, Scenario, TRUTH_TABLE_ATOMS,
                              expand_right, expr_atoms, jointly_satisfiable,
                              logically_incompatible, satisfies, validate_kb,
                              NotExpr)
from rightsrisk.scoring import OccurrenceWeight, degree_scenario


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


class TestAllRules:
    def test_assert_desugaring(self):
        kb = parse_kb("right a;\nscenario S { y, !x }\nscenario S { z }\n"
                      "rule r: y => promotes(a);\n"
                      "assert promotes(a) in Nowhere;\nassert demotes(a) in S;\n")
        rules = kb.all_rules()
        assert [r.id for r in rules] == ["r", "assert#1@S"]
        assert rules[1].body == (lit("!x"), lit("y"))  # first S, sorted
        assert rules[1].head == kb.assertions[1].head

    def test_asserts_of_one_scenario_share_its_sorted_body(self):
        kb = parse_kb("right a;\nscenario S { y, !x, b }\nscenario T { }\n"
                      "assert promotes(a) in S;\nassert demotes(a) in Nowhere;\n"
                      "assert demotes(a) in T;\nassert not_demotes(a) in S;\n")
        rules = kb.all_rules()
        assert [r.id for r in rules] == ["assert#0@S", "assert#2@T", "assert#3@S"]
        assert rules[0].body == rules[2].body == (lit("b"), lit("!x"), lit("y"))
        assert rules[1].body == ()
        assert [r.head for r in rules] == [kb.assertions[i].head for i in (0, 2, 3)]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code: str, hashseed: int, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed),
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                          capture_output=True, check=True).stdout


class TestFeatureLiteral:
    def test_fields_repr_and_equality_are_the_named_tuple_ones(self):
        assert FeatureLiteral._fields == ("atom", "positive")
        assert FeatureLiteral._field_defaults == {"positive": True}
        assert repr(FeatureLiteral("x", False)) == "FeatureLiteral(atom='x', positive=False)"
        assert FeatureLiteral("x") == FeatureLiteral("x", True) != FeatureLiteral("x", False)
        assert str(FeatureLiteral("x", False)) == "!x"

    def test_hash_is_the_field_tuple_hash(self):
        x = FeatureLiteral("x")
        for other in (x, x._replace(positive=False),
                      pickle.loads(pickle.dumps(x))):
            assert hash(other) == hash((other.atom, other.positive))

    def test_pickle_rebuilds_the_hash_under_another_hash_seed(self):
        dumped = run_python(
            "import pickle, sys\n"
            "from rightsrisk.model import FeatureLiteral\n"
            "sys.stdout.buffer.write(pickle.dumps("
            "[FeatureLiteral('x'), FeatureLiteral('consent', False)]))\n", 0)
        found = run_python(
            "import pickle, sys\n"
            "from rightsrisk.model import FeatureLiteral\n"
            "fresh = {FeatureLiteral('x'), FeatureLiteral('consent', False)}\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print([lit in fresh for lit in loaded])\n", 1, dumped)
        assert found.decode().strip() == "[True, True]"


RECORD_TYPES = (FeatureLiteral, Scenario, PredHead, ChainHead, Rule, AssertStmt,
                Occurrence, OccurrenceWeight)


def triage_records() -> list:
    """Instances of every record type: the parsed fixture's literals,
    scenarios, rules, asserts and heads, then each scenario's fired chain
    rules, adopted and demoted occurrences and their weights."""
    kb = load_fixture("triage.rights")
    records = [*kb.scenarios, *kb.rules, *kb.assertions]
    records += [lit for s in kb.scenarios for lit in s.features]
    records += [r.head for r in kb.all_rules()]
    engine = Engine(kb)
    for s in kb.scenarios:
        findings = engine.assess(s.id)
        records += [*findings.fired_chains, *findings.adopted, *findings.demoted_occurrences]
        records += degree_scenario(findings).per_occurrence
    return records


class TestRecordValues:
    def test_fixture_yields_every_record_type(self):
        assert {type(r) for r in triage_records()} == set(RECORD_TYPES)

    def test_records_are_immutable_hashable_picklable_values(self):
        for record in triage_records():
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
            copy = record._replace(**record._asdict())
            assert copy is not record and type(copy) is type(record)
            assert copy == record and hash(copy) == hash(record)
            loaded = pickle.loads(pickle.dumps(record))
            assert type(loaded) is type(record) and loaded == record

    def test_parsed_kb_pickles_across_hash_seeds(self):
        dump = ("import pickle, sys\n"
                "from rightsrisk.dsl import parse_kb\n"
                "text = sys.stdin.read()\n"
                "sys.stdout.buffer.write(pickle.dumps((text, parse_kb(text))))\n")
        load = ("import pickle, sys\n"
                "from rightsrisk.dsl import parse_kb\n"
                "text, kb = pickle.loads(sys.stdin.buffer.read())\n"
                "print(kb == parse_kb(text), pickle.loads(pickle.dumps(kb)) == kb)\n")
        text = (FIXTURES / "triage.rights").read_bytes()
        for dump_seed, load_seed in ((0, 1), (1, 0)):
            found = run_python(load, load_seed, run_python(dump, dump_seed, text))
            assert found.decode().split() == ["True", "True"], (dump_seed, load_seed)


CHAIN_TEXT = ("basic x;\nright y := !x;\n"
              + "".join(f"right r{i} := r{i + 1};\n" for i in range(1200))
              + "right r1200 := x;\n")
BANGS_TEXT = ("basic x;\nright y := !x;\n" + f"right d0 := {'!' * 98}x;\n"
              + "".join(f"right d{i} := {'!' * 98}d{i - 1};\n" for i in range(1, 12)))


def shared_chain(levels: int) -> str:
    """`r_i := r_{i+1} & r_{i+1}`: 2**levels paths through `levels` names."""
    return ("basic x;\nright y := !x;\n"
            + "".join(f"right r{i} := r{i + 1} & r{i + 1};\n" for i in range(levels))
            + f"right r{levels} := x;\n")


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

    def test_shared_definition_is_one_node(self):
        kb = parse_kb("basic x;\nright r0 := r1 & r1;\nright r1 := x | !x;\n")
        left, right = expand_right(kb, "r0").operands
        assert left is right

    def test_1200_link_chain(self):
        kb = parse_kb(CHAIN_TEXT)
        assert validate_kb(kb) == []
        assert expand_right(kb, "r0") == RightRef("x")
        assert logically_incompatible(CompiledRights(kb), "r0", "y")

    def test_chained_deep_negations(self):
        kb = parse_kb(BANGS_TEXT)
        assert validate_kb(kb) == []
        expanded = expand_right(kb, "d11")
        for _ in range(12 * 98):
            expanded = expanded.operand
        assert expanded == RightRef("x")
        assert expr_atoms(expand_right(kb, "d11")) == {"x"}
        assert logically_incompatible(CompiledRights(kb), "d11", "y")

    def test_deep_cycle_diagnostic(self):
        kb = parse_kb("".join(f"right r{i} := r{i + 1};\n" for i in range(1100))
                      + "right r1100 := r0;\n")
        first = validate_kb(kb)[0].message
        assert first.startswith("recursive right definition: r0 -> r1 -> r2 -> ")
        assert first.endswith(" -> r1099 -> r1100 -> r0")

    def test_cycle_diagnostics(self):
        kb = parse_kb("basic a;\nright A := B; right B := C; right C := A; right D := A & a;\n")
        assert [str(d) for d in validate_kb(kb)] == [
            f"error[recursive-definition]: recursive right definition: {c}"
            for c in ("A -> B -> C -> A", "B -> C -> A -> B",
                      "C -> A -> B -> C", "D -> A -> B -> C -> A")]


class TestIncompatibility:
    def test_shared_chain_in_linear_time(self):
        kb = parse_kb(shared_chain(60))
        start = time.perf_counter()
        assert expr_atoms(expand_right(kb, "r0")) == {"x"}
        assert logically_incompatible(CompiledRights(kb), "r0", "y")
        assert not logically_incompatible(CompiledRights(kb), "r0", "r5")
        assert time.perf_counter() - start < 1

    def test_negated_definitions_collide(self):
        kb = KnowledgeBase(rights=[
            FundamentalRight("A", RightRef("x")),
            FundamentalRight("B", NotExpr(RightRef("x"))),
        ])
        assert logically_incompatible(CompiledRights(kb), "A", "B")

    def test_distinct_atomics_compatible(self, pandemic_kb):
        assert not logically_incompatible(CompiledRights(pandemic_kb),
                                          "privacy", "public_health")

    def test_no_atom_cap(self, split_widths):
        atoms = [f"b{i}" for i in range(21)]
        kb = parse_kb("".join(f"basic {a};\n" for a in atoms)
                      + f"right big := {' & '.join(atoms)};\nright nb := !b0;\n")
        assert logically_incompatible(CompiledRights(kb), "big", "nb")
        assert split_widths == [21]

    def test_thousand_atoms(self, split_widths):
        refs = tuple(RightRef(f"b{i}") for i in range(1000))
        negs = tuple(NotExpr(r) for r in refs)
        assert jointly_satisfiable(AndExpr(refs), AndExpr(refs))
        assert not jointly_satisfiable(AndExpr(refs), OrExpr(negs))
        assert not jointly_satisfiable(OrExpr(refs), AndExpr(negs))
        assert split_widths == [1000] * 3

    @pytest.mark.parametrize("width", [TRUTH_TABLE_ATOMS, TRUTH_TABLE_ATOMS + 1])
    def test_path_by_width(self, split_widths, width):
        refs = tuple(RightRef(f"b{i}") for i in range(width))
        assert not jointly_satisfiable(AndExpr(refs), NotExpr(refs[-1]))
        assert jointly_satisfiable(OrExpr(refs), NotExpr(refs[-1]))
        assert split_widths == ([] if width <= TRUTH_TABLE_ATOMS else [width] * 2)

    @given(st.data())
    def test_matches_truth_table(self, data):
        e1, e2 = data.draw(exprs_over(8)), data.draw(exprs_over(8))
        assert jointly_satisfiable(e1, e2) == truth_table_satisfiable(e1, e2)

    @given(st.data())
    def test_disjoint_atoms_hold_together_iff_each_holds_alone(self, data):
        """The fact the Engine's atom index rests on: a pair over disjoint
        atoms is incompatible only if one of its rights is unsatisfiable."""
        e1, e2 = data.draw(exprs_over(4)), data.draw(exprs_over(4, first=4))
        assert truth_table_satisfiable(e1, e2) == (
            truth_table_satisfiable(e1, e1) and truth_table_satisfiable(e2, e2))

    @pytest.mark.parametrize("width", [TRUTH_TABLE_ATOMS, TRUTH_TABLE_ATOMS + 1])
    # a 17-atom split search refuted only by its last atom walks 2**16
    # branches, about 0.3 s
    @settings(deadline=None)
    @given(data=st.data())
    def test_widest_table_and_narrowest_split(self, width, data):
        """Pairs over exactly 16 joint atoms (the truth table) and 17 (the
        split search) against a table built from the expression trees."""
        e1, e2 = data.draw(exprs_over(width)), data.draw(exprs_over(width))
        missing = sorted({f"b{i}" for i in range(width)} - leaf_names(e1) - leaf_names(e2))
        if missing:  # an or over the unused atoms makes the pair span all of them
            signs = data.draw(st.lists(st.booleans(), min_size=len(missing),
                                       max_size=len(missing)))
            e2 = AndExpr((e2, OrExpr(tuple(RightRef(a) if positive else NotExpr(RightRef(a))
                                           for a, positive in zip(missing, signs)))))
        assert len(leaf_names(e1) | leaf_names(e2)) == width
        assert jointly_satisfiable(e1, e2) == wide_table_satisfiable(e1, e2, width)


@pytest.fixture()
def split_widths(monkeypatch):
    """The atom count of every split search this test runs."""
    widths = []
    search = model._split_search

    def counted(programs, atoms):
        widths.append(len(atoms))
        return search(programs, atoms)
    monkeypatch.setattr(model, "_split_search", counted)
    return widths


def exprs_over(n, max_leaves=12, first=0):
    """Expressions over the n atoms b<first>, b<first+1>, ..."""
    leaves = st.sampled_from([RightRef(f"b{i}") for i in range(first, first + n)])
    return st.recursive(leaves, lambda sub: st.one_of(
        sub.map(NotExpr),
        st.lists(sub, min_size=1, max_size=4).map(lambda es: AndExpr(tuple(es))),
        st.lists(sub, min_size=1, max_size=4).map(lambda es: OrExpr(tuple(es)))),
        max_leaves=max_leaves)


def leaf_names(expr):
    if isinstance(expr, RightRef):
        return {expr.name}
    if isinstance(expr, NotExpr):
        return leaf_names(expr.operand)
    return set().union(*map(leaf_names, expr.operands))


def truth_value(expr, assignment):
    if isinstance(expr, RightRef):
        return assignment[expr.name]
    if isinstance(expr, NotExpr):
        return not truth_value(expr.operand, assignment)
    values = [truth_value(e, assignment) for e in expr.operands]
    return all(values) if isinstance(expr, AndExpr) else any(values)


def truth_table_satisfiable(e1, e2):
    """Both hold under some assignment, trying every one in turn."""
    atoms = sorted(leaf_names(e1) | leaf_names(e2))
    return any(truth_value(e1, a) and truth_value(e2, a)
               for a in (dict(zip(atoms, values)) for values in
                         itertools.product((False, True), repeat=len(atoms))))


@functools.lru_cache(maxsize=None)
def naive_columns(n):
    """Atom b<i>'s value under each of the 2**n assignments, one bit each."""
    # as text with bit 0 first: 2**i zeros, then 2**i ones, over and over
    return {f"b{i}": int((("0" * (1 << i) + "1" * (1 << i)) * (1 << (n - i - 1)))[::-1], 2)
            for i in range(n)}


def table_value(expr, columns, full):
    if isinstance(expr, RightRef):
        return columns[expr.name]
    if isinstance(expr, NotExpr):
        return full ^ table_value(expr.operand, columns, full)
    values = [table_value(e, columns, full) for e in expr.operands]
    if isinstance(expr, AndExpr):
        return functools.reduce(int.__and__, values, full)
    return functools.reduce(int.__or__, values, 0)


def wide_table_satisfiable(e1, e2, n):
    """`truth_table_satisfiable` over atoms b0..b<n-1>, all assignments at once."""
    columns, full = naive_columns(n), (1 << (1 << n)) - 1
    return table_value(e1, columns, full) & table_value(e2, columns, full) != 0


class TestValidateKb:
    def test_scholarship_is_clean(self, scholarship_kb):
        assert validate_kb(scholarship_kb) == []

    def test_triage_is_clean(self, triage_kb):
        assert validate_kb(triage_kb) == []

    def test_unknown_right_reference(self, scholarship_kb):
        scholarship_kb.assertions.append(
            AssertStmt("S_d", PredHead("promotes", ("made_up",))))
        diags = validate_kb(scholarship_kb)
        assert any("unknown right" in d.message for d in diags)

    def test_head_diagnostics(self):
        kb = parse_kb("right a; right b;\nscenario S { x }\n"
                      "rule r1: x => a > nope > a;\nrule r2: x => collides(a, a);\n"
                      "rule r3: x => not_collides(b, ghost);\nassert demotes(ghost) in S;")
        assert [str(d) for d in validate_kb(kb)] == [
            "error[unknown-right]: assert in 'S': unknown right 'ghost'",
            "error[unknown-right]: rule 'r1': unknown right 'nope' in chain",
            "error[duplicate-chain-right]: rule 'r1': chain repeats a right",
            "error[self-collision]: rule 'r2': collides needs two distinct rights",
            "error[unknown-right]: rule 'r3': unknown right 'ghost'"]

    @pytest.mark.parametrize("text, expected", [
        ("scenario E { }", ["error[empty-scenario]: scenario 'E' has no features"]),
        ("domain D2 { S, nope }",
         ["error[unknown-scenario]: domain 'D2' references unknown scenario 'nope'"]),
        ("purpose P { D, nope }",
         ["error[unknown-domain]: purpose 'P' references unknown domain 'nope'"]),
        ("risk nope { hazard: 1, response: 1, intensity: 1, sensitivity: 1, "
         "vulnerability: 1 }",
         ["error[unknown-scenario]: risk annotation for unknown scenario 'nope'"]),
        ("risk S { hazard: 2, response: 3, intensity: 4, sensitivity: 5 }",
         ["error[missing-risk-field]: risk 'S': missing field 'vulnerability'"]),
        ("risk S { hazard: 2, response: 3, intensity: 0, sensitivity: 5, "
         "vulnerability: 6 }",
         ["error[risk-range]: risk 'S': intensity = 0 outside 1..5",
          "error[risk-range]: risk 'S': vulnerability = 6 outside 1..5"]),
    ], ids=["empty-scenario", "unknown-scenario-in-domain", "unknown-domain",
            "unknown-scenario-in-risk", "missing-risk-field", "risk-range"])
    def test_scenario_domain_and_risk_diagnostics(self, text, expected):
        kb = parse_kb("right a;\nscenario S { x }\ndomain D { S }\n" + text)
        assert [str(d) for d in validate_kb(kb)] == expected

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
