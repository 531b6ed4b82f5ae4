import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load_fixture
from kb_random import _right_expr as random_right_expr, random_kb
from rightsrisk import dsl, model
from rightsrisk.dsl import parse_kb
from rightsrisk.engine import Engine, Occurrence
from rightsrisk.model import (AndExpr, AssertStmt, ChainHead, CompiledKB,
                              DeploymentDomain, Diagnostic, FeatureLiteral,
                              Head, KnowledgeBase, FundamentalRight, ModelError,
                              Obligation, OrExpr, PredHead, Purpose, RightRef,
                              RiskAnnotation, Rule, Scenario, TRUTH_TABLE_ATOMS,
                              expand_right, jointly_satisfiable,
                              logically_incompatible, satisfies, validate_kb, NotExpr)
from rightsrisk.scoring import OccurrenceWeight, degree_scenario


def lit(s: str) -> FeatureLiteral:
    return FeatureLiteral(s.lstrip("!"), not s.startswith("!"))


def lits(*specs: str) -> frozenset:
    return frozenset(lit(s) for s in specs)


def expr_atoms(expr) -> set[str]:
    """The right names at the leaves of `expr`."""
    return set(model._compile(model._steps(expr)).atoms)


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
        rules = CompiledKB(kb).rules
        assert [r.id for r in rules] == ["r", "assert#1@S"]
        assert rules[1].body == (lit("!x"), lit("y"))  # first S, sorted
        assert rules[1].head == kb.assertions[1].head

    def test_asserts_of_one_scenario_share_its_sorted_body(self):
        kb = parse_kb("right a;\nscenario S { y, !x, b }\nscenario T { }\n"
                      "assert promotes(a) in S;\nassert demotes(a) in Nowhere;\n"
                      "assert demotes(a) in T;\nassert not_demotes(a) in S;\n")
        rules = CompiledKB(kb).rules
        assert [r.id for r in rules] == ["assert#0@S", "assert#2@T", "assert#3@S"]
        assert rules[0].body == rules[2].body == (lit("b"), lit("!x"), lit("y"))
        assert rules[1].body == ()
        assert [r.head for r in rules] == [kb.assertions[i].head for i in (0, 2, 3)]

    def test_skipped_assert_still_counts_in_ids(self):
        head = PredHead("promotes", ("a",))
        kb = KnowledgeBase(scenarios=[Scenario("S", lits("x"))],
                           assertions=[AssertStmt("Nowhere", head), AssertStmt("S", head),
                                       AssertStmt("Gone", head), AssertStmt("S", head)])
        assert [r.id for r in CompiledKB(kb).rules] == ["assert#1@S", "assert#3@S"]

    def test_duplicate_scenario_body_comes_from_first_declaration(self):
        kb = KnowledgeBase(scenarios=[Scenario("T", lits("z")), Scenario("S", lits("y", "!x")),
                                      Scenario("S", lits("w"))],
                           assertions=[AssertStmt("S", PredHead("promotes", ("a",))),
                                       AssertStmt("S", PredHead("demotes", ("a",)))])
        first, second = CompiledKB(kb).rules
        assert first.body == (lit("!x"), lit("y"))
        assert second.body is first.body  # one body tuple per scenario


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
                RiskAnnotation, Occurrence, OccurrenceWeight)


def triage_records() -> list:
    """Instances of every record type: the parsed fixture's literals,
    scenarios, rules, asserts, heads and risk annotations, then each
    scenario's fired chain rules, adopted and demoted occurrences and their
    weights."""
    kb = load_fixture("triage.rights")
    records = [*kb.scenarios, *kb.rules, *kb.assertions, *kb.risk_annotations]
    records += [lit for s in kb.scenarios for lit in s.features]
    records += [r.head for r in CompiledKB(kb).rules]
    engine = Engine(kb)
    for s in kb.scenarios:
        findings = engine.assess(s.id)
        records += [*findings.fired_chains, *findings.adopted, *findings.demoted_occurrences]
        records += degree_scenario(findings).per_occurrence
    return records


class TestRecordValues:
    def test_fixture_yields_every_record_type(self):
        assert {type(r) for r in triage_records()} == set(RECORD_TYPES)

    def test_risk_annotation_keywords_take_the_defaults(self):
        ann = RiskAnnotation("S", response=2)
        assert ann == ("S", None, 2, None, None, None)
        assert ann._fields == ("scenario", *RiskAnnotation.FIELDS)
        assert ann._replace(hazard=1) == RiskAnnotation("S", 1, 2)

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
        assert logically_incompatible(CompiledKB(kb), "r0", "y")

    def test_chained_deep_negations(self):
        kb = parse_kb(BANGS_TEXT)
        assert validate_kb(kb) == []
        expanded = expand_right(kb, "d11")
        for _ in range(12 * 98):
            expanded = expanded.operand
        assert expanded == RightRef("x")
        assert expr_atoms(expand_right(kb, "d11")) == {"x"}
        assert logically_incompatible(CompiledKB(kb), "d11", "y")

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
        assert logically_incompatible(CompiledKB(kb), "r0", "y")
        assert not logically_incompatible(CompiledKB(kb), "r0", "r5")
        assert time.perf_counter() - start < 1

    def test_negated_definitions_collide(self):
        kb = KnowledgeBase(rights=[
            FundamentalRight("A", RightRef("x")),
            FundamentalRight("B", NotExpr(RightRef("x"))),
        ])
        assert logically_incompatible(CompiledKB(kb), "A", "B")

    def test_distinct_atomics_compatible(self, pandemic_kb):
        assert not logically_incompatible(CompiledKB(pandemic_kb),
                                          "privacy", "public_health")

    def test_no_atom_cap(self, split_widths):
        atoms = [f"b{i}" for i in range(21)]
        kb = parse_kb("".join(f"basic {a};\n" for a in atoms)
                      + f"right big := {' & '.join(atoms)};\nright nb := !b0;\n")
        assert logically_incompatible(CompiledKB(kb), "big", "nb")
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

    @pytest.mark.parametrize("width, shared", [(4, 0), (4, 1), (4, 4), (9, 1)],
                             ids=["disjoint", "one-shared", "all-shared", "17-joint"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_kb_pairs_match_truth_table(self, width, shared, data):
        """`logically_incompatible` over a KB's compiled rights against a
        table built from the expression trees. r1 spans b0..b<width-1>, r2
        the next `width` atoms from b<width-shared>; a tautology conjunct
        over each side's atoms makes it span all of them. Either side may
        be made unsatisfiable."""
        sides = []
        for first in (0, width - shared):
            e = data.draw(exprs_over(width, first=first))
            sides.append(AndExpr((e, *tautologies(range(first, first + width)))))
        unsat = data.draw(st.sampled_from([None, 0, 1]))
        if unsat is not None:
            sides[unsat] = AndExpr((sides[unsat], NotExpr(sides[unsat])))
        e1, e2 = sides
        kb = KnowledgeBase(basic_rights=[model.BasicRight(f"b{i}") for i in range(2 * width)],
                           rights=[FundamentalRight("r1", e1), FundamentalRight("r2", e2)])
        compiled = CompiledKB(kb)
        p1, p2 = compiled.program("r1"), compiled.program("r2")
        assert len(set(p1.atoms) & set(p2.atoms)) == shared
        joint = 2 * width - shared
        assert logically_incompatible(compiled, "r1", "r2") == (
            not wide_table_satisfiable(e1, e2, joint))

    @pytest.mark.parametrize("pad", [False, True], ids=["17-joint", "31-joint"])
    def test_narrow_sides_take_no_split_search(self, split_widths, pad):
        """`z & (b00 | !b00) & ... & (b14 | !b14)`, 16 atoms, against `!z & w`
        (17 joint atoms), or against `!z` padded the same way over c00..c14
        (31): each side is narrow, so the pair splits on `z` alone and
        decides at once, where a search over the joint atoms in sorted
        order would reach `z` only after every assignment of the padding."""
        def padded(prefix):
            return " & ".join(f"({prefix}{i:02d} | !{prefix}{i:02d})" for i in range(15))
        other = padded("c") if pad else "w"
        kb = parse_kb("basic w, z, " + ", ".join(f"{p}{i:02d}" for p in "bc" for i in range(15))
                      + f";\nright r1 := z & {padded('b')};\nright r2 := !z & {other};\n"
                      + f"right r3 := z & {other};\n")
        compiled = CompiledKB(kb)
        start = time.perf_counter()
        assert logically_incompatible(compiled, "r1", "r2")
        assert not logically_incompatible(compiled, "r1", "r3")
        assert time.perf_counter() - start < 1
        assert len(set(compiled.program("r1").atoms).union(compiled.program("r2").atoms)) > 16
        assert split_widths == []

    def test_tables_built_once_per_right(self, monkeypatch):
        """Each right's truth table is built when it is compiled, over its own
        atoms; deciding its pairs builds none."""
        kb = parse_kb("basic a, b, c, d;\nright p := a & !b;\nright q := b | c;\n"
                      "right r := !a & d;\nright s := c & d;\n")
        compiled = CompiledKB(kb)
        widths = []
        table = model._table
        monkeypatch.setattr(model, "_table", lambda steps, column, full:
                            widths.append(len(column)) or table(steps, column, full))
        names = ["p", "q", "r", "s"]
        answers = {(x, y): logically_incompatible(compiled, x, y)
                   for x in names for y in names}
        assert widths == [2, 2, 2, 2]
        assert [pair for pair, incompatible in answers.items() if incompatible] == [
            ("p", "r"), ("r", "p")]

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


def tautologies(indices):
    """`b<i> | !b<i>` for each index: true, yet naming the atom."""
    return tuple(OrExpr((RightRef(f"b{i}"), NotExpr(RightRef(f"b{i}")))) for i in indices)


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


# ---------------------------------------------------------------------------
# Expansion oracle: each right's program, expansion and cycle diagnostics
# against recursive substitution, which knows nothing of `CompiledKB`.
# ---------------------------------------------------------------------------

def naive_expand(kb: KnowledgeBase, right: str):
    """`right` with each defined name that is not a basic right replaced by
    its last definition, again and again; a name met on its own path raises
    ModelError naming the path. KeyError for an unknown right."""
    basics = {b.id for b in kb.basic_rights}
    defs = {r.id: r.definition for r in kb.rights}
    if right not in basics and right not in defs:
        raise KeyError(right)
    path, on_path = [right], {right}

    def substitute(expr):
        if isinstance(expr, NotExpr):
            return NotExpr(substitute(expr.operand))
        if not isinstance(expr, RightRef):
            return type(expr)(tuple(substitute(e) for e in expr.operands))
        name = expr.name
        if name in basics or defs.get(name) is None:
            return RightRef(name)
        if name in on_path:
            raise ModelError("recursive right definition: " + " -> ".join(path + [name]))
        path.append(name)
        on_path.add(name)
        expanded = substitute(defs[name])
        path.pop()
        on_path.discard(name)
        return expanded

    return RightRef(right) if defs.get(right) is None else substitute(defs[right])


def same_tree(a, b) -> bool:
    """`a == b` without recursion, for trees deeper than the C stack allows."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, RightRef):
            if x.name != y.name:
                return False
        elif isinstance(x, NotExpr):
            pending.append((x.operand, y.operand))
        elif len(x.operands) != len(y.operands):
            return False
        else:
            pending.extend(zip(x.operands, y.operands))
    return True


def brute_table(expr, atoms) -> int:
    """Bit j set iff `expr` holds when atom i is bit i of j."""
    return sum(1 << j for j in range(1 << len(atoms))
               if truth_value(expr, {a: bool(j >> i & 1) for i, a in enumerate(atoms)}))


def definitional_kb(seed: int) -> KnowledgeBase:
    """A random KB with extras, plus up to six rights defined over basic,
    atomic, defined and undeclared names, some repeating a declared id (a
    basic right's too), so that chains, cycles and shadowed definitions
    all occur."""
    rng = random.Random(seed)
    kb = random_kb(rng, with_extras=True)
    declared = [b.id for b in kb.basic_rights] + [r.id for r in kb.rights]
    names = declared + [f"d{i}" for i in range(6)] + ["ghost"]
    for i in range(rng.randint(1, 6)):
        rid = rng.choice(declared) if rng.random() < 0.3 else f"d{i}"
        kb.rights.append(FundamentalRight(rid, random_right_expr(rng, names)))
    return kb


@pytest.fixture()
def deep_recursion():
    """Room for the oracle's recursion over chains a thousand names deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    yield
    sys.setrecursionlimit(limit)


class TestExpansionOracle:
    """For every known right: `program` has the oracle's atoms and brute-force
    truth table (or both are None), `expand_right` is the oracle's tree (or
    both raise the same cycle), and `validate_kb` reports the oracle's
    cycles, in order."""

    def check(self, kb: KnowledgeBase) -> set[str]:
        compiled = CompiledKB(kb)
        # `expand_right` is a fresh `CompiledKB(kb).expand`; over a thousand
        # rights, one compile serves them all, or each call would open every
        # definition again
        expand = CompiledKB(kb).expand if len(kb.rights) > 100 else functools.partial(
            expand_right, kb)
        outcomes = set()
        for right in sorted(compiled.known):
            try:
                tree, error = naive_expand(kb, right), None
            except ModelError as exc:
                tree, error = None, str(exc)
            program = compiled.program(right)
            if tree is None:
                assert program is None, right
                with pytest.raises(ModelError) as raised:
                    expand(right)
                assert str(raised.value) == error
                outcomes.add("cycle")
                continue
            atoms = sorted(leaf_names(tree))
            assert len(atoms) <= TRUTH_TABLE_ATOMS
            assert program.atoms == tuple(atoms), right
            assert program.table == brute_table(tree, atoms), right
            assert same_tree(expand(right), tree), right
            outcomes.add("nested" if len(atoms) > 1 or atoms != [right] else "leaf")
        expected = []
        for r in kb.rights:
            if r.definition is not None:
                try:
                    naive_expand(kb, r.id)
                except ModelError as exc:
                    expected.append(str(exc))
        assert [d.message for d in validate_kb(kb) if d.code == "recursive-definition"] == expected
        return outcomes

    def test_random_kbs(self):
        outcomes, repeated, cyclic = set(), 0, 0
        for seed in range(200):
            kb = definitional_kb(seed)
            outcomes |= self.check(kb)
            ids = [r.id for r in kb.rights] + [b.id for b in kb.basic_rights]
            repeated += len(set(ids)) < len(ids)
            cyclic += any(d.code == "recursive-definition" for d in validate_kb(kb))
        assert outcomes == {"cycle", "nested", "leaf"}
        assert repeated > 20 and cyclic > 20, (repeated, cyclic)

    @pytest.mark.parametrize("text", [
        shared_chain(12), BANGS_TEXT,
        "".join(f"right r{i} := r{i + 1};\n" for i in range(1100)) + "right r1100 := r0;\n",
        "basic a;\nright A := B; right B := C; right C := A; right D := A & a;\n",
        "basic x, y;\nright x := y & !x;\nright y := x | z;\nright z := y & w;\nright w;\n"
        "right p := q & q;\nright q := x & z;\nright p := q | !q;\n",
    ], ids=["shared-chain", "negations", "1100-name-cycle",
            "cycle-entered-twice", "basic-defined-and-repeated"])
    def test_hand_kbs(self, deep_recursion, text):
        self.check(parse_kb(text))


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
        # also on the KBs of both paths: the declaration matcher's and the token parser's
        text = "right a;\nscenario S { x }\ndomain D { S }\n" + text
        for kb in (parse_kb(text), dsl._Matcher().match_kb(text),
                   dsl._Parser(dsl.tokenize(text)).parse_kb()):
            assert [str(d) for d in validate_kb(kb)] == expected

    @pytest.mark.parametrize("kb, expected", [
        *((parse_kb("right a;\nscenario S { x }\ndomain D { S }\n" + text),
           f"error[duplicate-id]: {message}") for text, message in [
            ("basic b; basic b;", "duplicate basic right 'b'"),
            ("right a;", "duplicate right 'a'"),
            ("scenario S { y }", "duplicate scenario 'S'"),
            ("domain D { S }", "duplicate domain 'D'"),
            ("purpose P { D }\npurpose P { D }", "duplicate purpose 'P'"),
            ('obligation o "t" applies S;\nobligation o "u" applies S;',
             "duplicate obligation 'o'"),
            ("rule r: x => promotes(a);\nrule r: x => demotes(a);", "duplicate rule 'r'"),
            ("domain D2 { S, S }", "duplicate scenario in domain 'D2' 'S'"),
            ("purpose P { D, D }", "duplicate domain in purpose 'P' 'D'"),
            ("risk S { hazard: 1, response: 1, intensity: 1, sensitivity: 1, "
             "vulnerability: 1 }\n" * 2, "duplicate risk annotation 'S'")]),
        # the parser cannot produce an empty id
        (KnowledgeBase(basic_rights=[model.BasicRight("")]),
         "error[empty-id]: basic right with empty id"),
    ], ids=["basic-right", "right", "scenario", "domain", "purpose", "obligation",
            "rule", "scenario-in-domain", "domain-in-purpose", "risk-annotation",
            "empty-basic-right"])
    def test_duplicate_and_empty_ids(self, kb, expected):
        assert [str(d) for d in validate_kb(kb)] == [expected]

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

    @pytest.mark.parametrize("definitions", [("ghost & x", "x"), ("x", "ghost & x")],
                             ids=["undeclared-first", "undeclared-last"])
    def test_repeated_right_checks_each_definition(self, definitions):
        kb = parse_kb("basic x;\n" + "".join(f"right r := {d};\n" for d in definitions))
        assert [str(d) for d in validate_kb(kb)] == [
            "error[duplicate-id]: duplicate right 'r'",
            "error[unknown-right]: right 'r': definition references undeclared right 'ghost'"]

    @pytest.mark.parametrize("text", [shared_chain(30), BANGS_TEXT, CHAIN_TEXT],
                             ids=["shared-chain", "negations", "1200-link-chain"])
    def test_each_definition_compiled_once(self, monkeypatch, text):
        kb = parse_kb(text)
        calls = []
        steps = model._steps
        monkeypatch.setattr(model, "_steps", lambda expr: calls.append(expr) or steps(expr))
        assert validate_kb(kb) == []
        assert len(calls) == sum(r.definition is not None for r in kb.rights)

    @pytest.mark.parametrize("text", [shared_chain(30), BANGS_TEXT, CHAIN_TEXT],
                             ids=["shared-chain", "negations", "1200-link-chain"])
    def test_each_name_walked_once(self, monkeypatch, text):
        """validate_kb reads each definition twice: once for its references,
        once as the cycle check walks past it, whichever right's walk
        reaches it first."""
        kb = parse_kb(text)
        read = Counter()
        definition = CompiledKB.definition
        monkeypatch.setattr(CompiledKB, "definition",
                            lambda self, rid: read.update([rid]) or definition(self, rid))
        assert validate_kb(kb) == []
        assert read == Counter(2 * [r.id for r in kb.rights if r.definition is not None])


# ---------------------------------------------------------------------------
# Differential oracle for validation: the screened `validate_kb` against the
# unscreened version, kept here as it was, with its two helpers.
# ---------------------------------------------------------------------------

def naive_dup_diags(kind: str, ids: list[str]) -> list[Diagnostic]:
    seen: set[str] = set()
    out = []
    for i in ids:
        if i in seen:
            out.append(Diagnostic("error", "duplicate-id",
                                  f"duplicate {kind} {i!r}"))
        seen.add(i)
    return out


def naive_polarity_diags(where: str, lits: Iterable[FeatureLiteral]) -> list[Diagnostic]:
    atoms: dict[str, set[bool]] = {}
    for lit in lits:
        atoms.setdefault(lit.atom, set()).add(lit.positive)
    return [Diagnostic("error", "polarity-conflict",
                       f"{where}: atom {a!r} appears with both polarities")
            for a, pols in sorted(atoms.items()) if len(pols) == 2]


def naive_validate(kb: KnowledgeBase) -> list[Diagnostic]:
    """`validate_kb` without its screens: every record gets its location
    text and its detailed checks. The reference for the screened version."""
    diags: list[Diagnostic] = []
    diags += naive_dup_diags("basic right", [b.id for b in kb.basic_rights])
    diags += naive_dup_diags("right", [r.id for r in kb.rights])
    diags += naive_dup_diags("scenario", [s.id for s in kb.scenarios])
    diags += naive_dup_diags("domain", [d.id for d in kb.domains])
    diags += naive_dup_diags("purpose", [p.id for p in kb.purposes])
    diags += naive_dup_diags("obligation", [o.id for o in kb.obligations])
    diags += naive_dup_diags("rule", [r.id for r in kb.rules])

    declared_rights = CompiledKB(kb).known
    scen_ids = {s.id for s in kb.scenarios}
    dom_ids = {d.id for d in kb.domains}

    for b in kb.basic_rights:
        if not b.id:
            diags.append(Diagnostic("error", "empty-id", "basic right with empty id"))

    expand = CompiledKB(kb).expand
    for r in kb.rights:
        if r.definition is None:
            continue
        for atom in sorted(expr_atoms(r.definition)):
            if atom not in declared_rights:
                diags.append(Diagnostic(
                    "error", "unknown-right",
                    f"right {r.id!r}: definition references undeclared right {atom!r}"))
        try:
            expand(r.id)
        except ModelError as exc:
            diags.append(Diagnostic("error", "recursive-definition", str(exc)))

    for s in kb.scenarios:
        if not s.features:
            diags.append(Diagnostic("error", "empty-scenario",
                                    f"scenario {s.id!r} has no features"))
        diags += naive_polarity_diags(f"scenario {s.id!r}", s.features)

    for d in kb.domains:
        for sid in d.scenarios:
            if sid not in scen_ids:
                diags.append(Diagnostic("error", "unknown-scenario",
                                        f"domain {d.id!r} references unknown scenario {sid!r}"))
        diags += naive_dup_diags(f"scenario in domain {d.id!r}", list(d.scenarios))

    for p in kb.purposes:
        for did in p.domains:
            if did not in dom_ids:
                diags.append(Diagnostic("error", "unknown-domain",
                                        f"purpose {p.id!r} references unknown domain {did!r}"))
        diags += naive_dup_diags(f"domain in purpose {p.id!r}", list(p.domains))

    for o in kb.obligations:
        if o.applies_to not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"obligation {o.id!r} applies to unknown scenario {o.applies_to!r}"))

    def check_head(where: str, head: Head) -> None:
        chain = head.kind == "chain"
        in_chain = " in chain" if chain else ""
        for rid in head.rights:
            if rid not in declared_rights:
                diags.append(Diagnostic("error", "unknown-right",
                                        f"{where}: unknown right {rid!r}{in_chain}"))
        if len(set(head.rights)) != len(head.rights):
            code, text = (("duplicate-chain-right", "chain repeats a right") if chain
                          else ("self-collision", f"{head.kind} needs two distinct rights"))
            diags.append(Diagnostic("error", code, f"{where}: {text}"))

    for a in kb.assertions:
        if a.scenario not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"assert references unknown scenario {a.scenario!r}"))
        check_head(f"assert in {a.scenario!r}", a.head)

    for rule in kb.rules:
        diags += naive_polarity_diags(f"rule {rule.id!r} body", rule.body)
        check_head(f"rule {rule.id!r}", rule.head)

    for ann in kb.risk_annotations:
        if ann.scenario not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"risk annotation for unknown scenario {ann.scenario!r}"))
        for name in RiskAnnotation.FIELDS:
            value = getattr(ann, name)
            if value is None:
                diags.append(Diagnostic("error", "missing-risk-field",
                                        f"risk {ann.scenario!r}: missing field {name!r}"))
            elif not 1 <= value <= 5:
                diags.append(Diagnostic("error", "risk-range",
                                        f"risk {ann.scenario!r}: {name} = {value} outside 1..5"))
    diags += naive_dup_diags("risk annotation", [a.scenario for a in kb.risk_annotations])

    return diags


def _insert(items: list, rng: random.Random, item) -> None:
    items.insert(rng.randint(0, len(items)), item)


def _head_record(kb: KnowledgeBase, rng: random.Random, head) -> None:
    """`head` in a new assert or rule, at a random place."""
    scenario = rng.choice(kb.scenarios)
    if rng.random() < 0.5:
        _insert(kb.assertions, rng, AssertStmt(scenario.id, head))
    else:
        _insert(kb.rules, rng, Rule(f"faulty{len(kb.rules)}",
                                    tuple(sorted(scenario.features)), head))


def _opposite_literal(kb, rng):
    i = rng.randrange(len(kb.scenarios))
    s = kb.scenarios[i]
    atom, positive = rng.choice(sorted(s.features))
    kb.scenarios[i] = Scenario(s.id, s.features | {FeatureLiteral(atom, not positive)})


def _body(kb, rng, *literals):
    _insert(kb.rules, rng, Rule(f"body{len(kb.rules)}", literals,
                                PredHead("promotes", (kb.rights[0].id,))))


def _chain_with(kb, rng, extra):
    rights = rng.sample([r.id for r in kb.rights], 2)
    rights.insert(rng.randint(0, 2), extra)
    _head_record(kb, rng, ChainHead(tuple(rights)))


def _copy_of(kb, rng, name):
    """A copy of a random record of `kb.<name>`, at a random place."""
    items = getattr(kb, name)
    if items:
        _insert(items, rng, rng.choice(items))


def _repeat_member(kb, rng, name, field):
    items = getattr(kb, name)
    if items:
        i = rng.randrange(len(items))
        members = getattr(items[i], field)
        if members:
            items[i] = replace(items[i], **{field: members + (rng.choice(members),)})


def _unknown_scenario(kb, rng):
    where = rng.choice(["assert", "obligation", "risk", "domain"])
    if where == "assert":
        _insert(kb.assertions, rng, AssertStmt("Nowhere", PredHead("demotes", (kb.rights[0].id,))))
    elif where == "obligation":
        _insert(kb.obligations, rng, Obligation(f"o_nowhere{len(kb.obligations)}", "t", "Nowhere"))
    elif where == "risk":
        _insert(kb.risk_annotations, rng, RiskAnnotation("Nowhere", 1, 2, 3, 4, 5))
    else:
        _insert(kb.domains, rng, DeploymentDomain("D_nowhere", ("Nowhere", kb.scenarios[0].id)))


def _bad_risk(kb, rng, value):
    values = [rng.randint(1, 5) for _ in RiskAnnotation.FIELDS]
    for i in rng.sample(range(len(values)), rng.randint(1, 2)):
        values[i] = value(rng)
    _insert(kb.risk_annotations, rng, RiskAnnotation(rng.choice(kb.scenarios).id, *values))


# One seeded fault each; `inject_faults` applies each with probability 0.3.
FAULTS = {
    "scenario literal of the opposite polarity": _opposite_literal,
    "empty scenario": lambda kb, rng: _insert(kb.scenarios, rng, Scenario("E", frozenset())),
    "body x & !x": lambda kb, rng: _body(kb, rng, FeatureLiteral("f0"), FeatureLiteral("f0", False)),
    "body x & x": lambda kb, rng: _body(kb, rng, FeatureLiteral("f1"), FeatureLiteral("f1")),
    "undeclared unary head": lambda kb, rng: _head_record(
        kb, rng, PredHead(rng.choice(["promotes", "demotes", "not_demotes"]), ("ghost",))),
    "undeclared right in a chain": lambda kb, rng: _chain_with(kb, rng, "ghost"),
    "chain repeating a right": lambda kb, rng: _chain_with(kb, rng, rng.choice(kb.rights).id),
    "collides(a, a)": lambda kb, rng: _head_record(
        kb, rng, PredHead(rng.choice(["collides", "not_collides"]), (kb.rights[0].id,) * 2)),
    "undeclared collides": lambda kb, rng: _head_record(
        kb, rng, PredHead("collides", ("ghost", "ghost"))),
    **{f"duplicate {name}": functools.partial(_copy_of, name=name)
       for name in ("basic_rights", "rights", "scenarios", "domains", "purposes",
                    "obligations", "rules", "risk_annotations")},
    "duplicate scenario in a domain": functools.partial(
        _repeat_member, name="domains", field="scenarios"),
    "duplicate domain in a purpose": functools.partial(
        _repeat_member, name="purposes", field="domains"),
    "unknown scenario": _unknown_scenario,
    "unknown domain": lambda kb, rng: _insert(kb.purposes, rng, Purpose("Q", ("Nowhere", "D"))),
    "missing risk field": lambda kb, rng: _bad_risk(kb, rng, lambda rng: None),
    "risk field out of range": lambda kb, rng: _bad_risk(kb, rng, lambda rng: rng.choice([0, 6, -1])),
    "undeclared right in a definition": lambda kb, rng: _insert(
        kb.rights, rng, FundamentalRight("bad", AndExpr((RightRef("ghost"), RightRef("r0"))))),
    "recursive definition": lambda kb, rng: kb.rights.extend(
        [FundamentalRight("c1", RightRef("c2")), FundamentalRight("c2", RightRef("c1"))]),
    "empty basic right id": lambda kb, rng: _insert(kb.basic_rights, rng, model.BasicRight("")),
}


def inject_faults(kb: KnowledgeBase, rng: random.Random) -> None:
    for fault in FAULTS.values():
        if rng.random() < 0.3:
            fault(kb, rng)


class TestValidationOracle:
    """The screened `validate_kb` returns exactly `naive_validate`'s list,
    in order, on clean and on faulted KBs."""

    def test_random_kbs_with_seeded_faults(self):
        codes = set()
        for seed in range(400):
            rng = random.Random(seed)
            kb = random_kb(rng, with_extras=True)
            assert validate_kb(kb) == naive_validate(kb) == [], seed
            inject_faults(kb, rng)
            diags = validate_kb(kb)
            assert diags == naive_validate(kb), seed
            codes |= {d.code for d in diags}
        assert codes == {"polarity-conflict", "empty-scenario", "unknown-right",
                         "duplicate-chain-right", "self-collision", "duplicate-id",
                         "unknown-scenario", "unknown-domain", "missing-risk-field",
                         "risk-range", "recursive-definition", "empty-id"}

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_each_fault_alone(self, name):
        reported = 0
        for seed in range(40):
            rng = random.Random(seed)
            kb = random_kb(rng, with_extras=True)
            FAULTS[name](kb, rng)
            diags = validate_kb(kb)
            assert diags == naive_validate(kb), seed
            reported += bool(diags)
        assert reported == 0 if name == "body x & x" else reported > 0

    @pytest.mark.parametrize("text, expected", [
        ("rule r: x & x => promotes(a);", []),
        ("rule r: x & !x & x => promotes(a);",
         ["error[polarity-conflict]: rule 'r' body: atom 'x' appears with both polarities"]),
        ("rule r: x => a > b > a;",
         ["error[unknown-right]: rule 'r': unknown right 'b' in chain",
          "error[duplicate-chain-right]: rule 'r': chain repeats a right"]),
        ("assert a > b > a in S;",
         ["error[unknown-right]: assert in 'S': unknown right 'b' in chain",
          "error[duplicate-chain-right]: assert in 'S': chain repeats a right"]),
        ("assert collides(b, b) in S;",
         ["error[unknown-right]: assert in 'S': unknown right 'b'",
          "error[unknown-right]: assert in 'S': unknown right 'b'",
          "error[self-collision]: assert in 'S': collides needs two distinct rights"]),
    ], ids=["repeated-literal", "repeated-and-opposite-literal", "rule-chain",
            "assert-chain", "undeclared-self-collision"])
    def test_screen_edges(self, text, expected):
        kb = parse_kb("right a;\nscenario S { x }\n" + text)
        assert [str(d) for d in validate_kb(kb)] == expected
        assert validate_kb(kb) == naive_validate(kb)

    def test_valid_kb_takes_no_detailed_check(self, monkeypatch):
        def detailed(*args):
            raise AssertionError("a valid record failed its screen")

        monkeypatch.setattr(model, "_polarity_diags", detailed)
        monkeypatch.setattr(model, "_head_diags", detailed)
        kbs = [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.rights"))]
        kbs += [random_kb(random.Random(seed), with_extras=True) for seed in range(100)]
        for kb in kbs:
            assert validate_kb(kb) == []

    @pytest.mark.parametrize("value", ["3", 3.0])
    def test_non_integer_risk_value_is_a_range_error(self, value):
        # the parser reads integers only; a script can build any value
        kb = KnowledgeBase(scenarios=[Scenario("S", lits("x"))],
                           risk_annotations=[RiskAnnotation("S", value, 1, 1, 1, 6)])
        assert [str(d) for d in validate_kb(kb)] == [
            f"error[risk-range]: risk 'S': hazard = {value!r} is not an integer",
            "error[risk-range]: risk 'S': vulnerability = 6 outside 1..5"]
