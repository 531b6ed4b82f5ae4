"""Core domain types: rights, scenarios, rules, chains, and the knowledge base.

Everything here is an immutable value except the KnowledgeBase container
itself, which is assembled once by the parser and then treated as
read-only. The records built per literal, scenario, rule, head, assert and
risk annotation are named tuples: an analysis builds and hashes thousands
of them, and a tuple is hashed in C and, through `_new` below, built in C,
where a frozen dataclass sets each field through `object.__setattr__`. The
records built once per run stay frozen dataclasses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Optional, Union


class ModelError(Exception):
    """Raised for structural errors that cannot be reported as diagnostics."""


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}[{self.code}]: {self.message}"


# ---------------------------------------------------------------------------
# Rights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasicRight:
    id: str


@dataclass(frozen=True)
class RightRef:
    """Leaf of a right expression, naming a basic or fundamental right."""
    name: str


@dataclass(frozen=True)
class NotExpr:
    operand: "RightExpr"


@dataclass(frozen=True)
class AndExpr:
    operands: tuple["RightExpr", ...]


@dataclass(frozen=True)
class OrExpr:
    operands: tuple["RightExpr", ...]


RightExpr = Union[RightRef, NotExpr, AndExpr, OrExpr]


@dataclass(frozen=True)
class FundamentalRight:
    id: str
    definition: Optional[RightExpr] = None  # None => atomic


class FeatureLiteral(NamedTuple):
    atom: str
    positive: bool = True

    def __str__(self) -> str:
        return self.atom if self.positive else "!" + self.atom


class Scenario(NamedTuple):
    id: str
    features: frozenset[FeatureLiteral]


@dataclass(frozen=True)
class Obligation:
    id: str
    text: str
    applies_to: str  # scenario id


@dataclass(frozen=True)
class DeploymentDomain:
    id: str
    scenarios: tuple[str, ...]


@dataclass(frozen=True)
class Purpose:
    id: str
    domains: tuple[str, ...]


# ---------------------------------------------------------------------------
# Rules and heads
# ---------------------------------------------------------------------------

PRED_KINDS = ("promotes", "demotes", "not_demotes", "collides", "not_collides")
UNARY_PREDS = ("promotes", "demotes", "not_demotes")
BINARY_PREDS = ("collides", "not_collides")


class PredHead(NamedTuple):
    kind: str  # one of PRED_KINDS
    rights: tuple[str, ...]  # one id for unary, two for binary

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(self.rights)})"


class ChainHead(NamedTuple):
    rights: tuple[str, ...]
    kind = "chain"  # not annotated, or NamedTuple would make it a field

    def __str__(self) -> str:
        return " > ".join(self.rights)


Head = Union[PredHead, ChainHead]


class Rule(NamedTuple):
    id: str
    body: tuple[FeatureLiteral, ...]  # empty => unconditional
    head: Head
    strength: int = 0


class AssertStmt(NamedTuple):
    """`assert HEAD in SCENARIO;` — sugar for a rule guarded by the
    scenario's full feature conjunction."""
    scenario: str
    head: Head


class RiskAnnotation(NamedTuple):
    scenario: str
    hazard: Optional[int] = None
    response: Optional[int] = None
    intensity: Optional[int] = None
    sensitivity: Optional[int] = None
    vulnerability: Optional[int] = None

    FIELDS = ("hazard", "response", "intensity", "sensitivity", "vulnerability")


# `_new(Cls, (field, ...))` builds a record in C, where `Cls(...)` runs the
# Python __new__ that NamedTuple generates; it fills no default and checks no
# arity, so the hot sites (the declaration matcher, Engine.adopt and
# Engine.assess) pass every field in order. _Parser keeps the constructors.
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------

@dataclass
class KnowledgeBase:
    basic_rights: list[BasicRight] = field(default_factory=list)
    rights: list[FundamentalRight] = field(default_factory=list)
    scenarios: list[Scenario] = field(default_factory=list)
    domains: list[DeploymentDomain] = field(default_factory=list)
    purposes: list[Purpose] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)
    assertions: list[AssertStmt] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    risk_annotations: list[RiskAnnotation] = field(default_factory=list)

    # -- lookups ------------------------------------------------------------

    def domain(self, did: str) -> DeploymentDomain:
        for d in self.domains:
            if d.id == did:
                return d
        raise KeyError(f"unknown domain {did!r}")

    def purpose(self, pid: str) -> Purpose:
        for p in self.purposes:
            if p.id == pid:
                return p
        raise KeyError(f"unknown purpose {pid!r}")


# ---------------------------------------------------------------------------
# Feature satisfaction
# ---------------------------------------------------------------------------

def satisfies(features: Iterable[FeatureLiteral],
              body: Iterable[FeatureLiteral]) -> bool:
    """True iff every body literal is listed among the features.

    Atoms absent from the feature set are unknown, not false: they satisfy
    neither polarity.
    """
    fs = features if isinstance(features, (set, frozenset)) else set(features)
    return all(lit in fs for lit in body)


# ---------------------------------------------------------------------------
# Right expansion and propositional checks
# ---------------------------------------------------------------------------

Step = tuple[str, Any]


def _steps(expr: RightExpr) -> list[Step]:
    """`expr` as a list of steps, each after the steps of its operands and
    the leaves left to right: ("atom", name), ("not", i), ("and", (i, ...))
    or ("or", (i, ...)), where i is an operand's position in the list. The
    last step is `expr` itself.

    Built without recursion, so definitions chained thousands deep are fine,
    and keyed on node identity, so a sub-expression shared by several
    parents (as `expand_right` returns for a name used twice) is one step,
    not one per path."""
    steps: list[Step] = []
    at: dict[int, int] = {}  # node id -> its step; -1 while its operands are pending
    stack: list[Any] = [expr]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (node,): its operands have their steps now
            node = node[0]
            if isinstance(node, NotExpr):
                step: Step = ("not", at[id(node.operand)])
            else:
                kind = "or" if isinstance(node, OrExpr) else "and"
                step = (kind, tuple(at[id(e)] for e in node.operands))
        elif id(node) in at:
            continue
        elif isinstance(node, RightRef):
            step = ("atom", node.name)
        elif isinstance(node, (NotExpr, AndExpr, OrExpr)):
            at[id(node)] = -1
            stack.append((node,))
            if isinstance(node, NotExpr):
                stack.append(node.operand)
            else:
                stack.extend(reversed(node.operands))
            continue
        else:
            raise TypeError(f"not a right expression: {node!r}")
        at[id(node)] = len(steps)
        steps.append(step)
    return steps


def _value(steps: list[Step], fixed: dict[str, bool]) -> Optional[bool]:
    """Three-valued evaluation of `_steps` under a partial assignment: True
    or False once `fixed` decides the expression, None while an unset atom
    still matters. Each step is evaluated once."""
    values: list[Optional[bool]] = []
    value: Optional[bool] = None
    for kind, arg in steps:
        if kind == "atom":
            value = fixed.get(arg)
        elif kind == "not":
            value = values[arg]
            if value is not None:
                value = not value
        else:
            absorbing = kind == "or"  # True absorbs an or, False an and
            value = not absorbing
            for i in arg:
                operand = values[i]
                if operand is absorbing:
                    value = absorbing
                    break
                if operand is None:
                    value = None
        values.append(value)
    return value


# A right over at most this many atoms keeps its truth table, at most 2**16
# bits (8 KB); a pair with a wider side takes the split search.
TRUTH_TABLE_ATOMS = 16


class Program(NamedTuple):
    """A right expression compiled once: its `_steps`, its atoms, sorted,
    and its truth table over them, or None over more than TRUTH_TABLE_ATOMS."""
    steps: list[Step]
    atoms: tuple[str, ...]
    table: Optional[int]


def _compile(steps: list[Step]) -> Program:
    atoms = tuple(sorted({arg for kind, arg in steps if kind == "atom"}))
    if len(atoms) > TRUTH_TABLE_ATOMS:
        return Program(steps, atoms, None)
    full = (1 << (1 << len(atoms))) - 1
    return Program(steps, atoms, _table(steps, dict(zip(atoms, _columns(len(atoms)))), full))


@lru_cache(maxsize=None)
def _columns(n: int) -> tuple[int, ...]:
    """The truth-table columns of n atoms, one int of 2**n bits each: bit j
    of column i is bit i of j, so bit j of a table is its value under the
    j-th assignment."""
    full = (1 << (1 << n)) - 1
    columns = []
    for i in range(n):
        width = 1 << i
        block = ((1 << width) - 1) << width  # `width` zeros, then `width` ones
        columns.append(block * (full // ((1 << 2 * width) - 1)))
    return tuple(columns)


def _table(steps: list[Step], column: dict[str, int], full: int) -> int:
    """The truth table of `steps`, given each atom's column and the all-ones
    table `full`."""
    values: list[int] = []
    for kind, arg in steps:
        if kind == "atom":
            value = column[arg]
        elif kind == "not":
            value = values[arg] ^ full
        elif kind == "and":
            value = full
            for i in arg:
                value &= values[i]
        else:
            value = 0
            for i in arg:
                value |= values[i]
        values.append(value)
    return values[-1]


def _split_search(programs: tuple[Program, ...], atoms: list[str]) -> bool:
    """Can every program hold at once? Splits on `atoms` in order and drops
    a branch once the partial assignment makes some program false; pending
    branches live in a list, not on the call stack."""
    pending: list[dict[str, bool]] = [{}]
    while pending:
        fixed = pending.pop()
        values = [_value(p.steps, fixed) for p in programs]
        if False in values:
            continue
        if None not in values:
            return True
        atom = atoms[len(fixed)]
        pending += [{**fixed, atom: False}, {**fixed, atom: True}]
    return False


def _jointly_satisfiable(p1: Program, p2: Program) -> bool:
    t1, t2 = p1.table, p2.table
    if t1 is None or t2 is None:
        return _split_search((p1, p2), sorted(set(p1.atoms).union(p2.atoms)))
    if not (t1 and t2):
        return False
    a1, a2 = p1.atoms, p2.atoms
    if a1 == a2:  # the same columns
        return t1 & t2 != 0
    # r1 & r2 holds iff some assignment to the shared atoms leaves each
    # satisfiable: split on those alone, restricting both tables to the
    # branch, and drop a branch once either table is 0
    c1, c2 = _columns(len(a1)), _columns(len(a2))
    shared = [(c1[i], c2[a2.index(atom)]) for i, atom in enumerate(a1) if atom in a2]
    pending = [(0, t1, t2)]
    while pending:
        depth, t1, t2 = pending.pop()
        if depth == len(shared):
            return True
        k1, k2 = shared[depth]
        u1, u2 = t1 & k1, t2 & k2  # the atom true
        if u1 and u2:
            pending.append((depth + 1, u1, u2))
        u1, u2 = t1 ^ u1, t2 ^ u2  # the atom false
        if u1 and u2:
            pending.append((depth + 1, u1, u2))
    return False


def jointly_satisfiable(e1: RightExpr, e2: RightExpr) -> bool:
    """Can both expressions hold at once? Exact either way: when each is
    over at most TRUTH_TABLE_ATOMS atoms, their own truth tables are split
    on the atoms they share; else a split search runs over the joint atoms
    in sorted order, with no atom cap."""
    return _jointly_satisfiable(_compile(_steps(e1)), _compile(_steps(e2)))


class CompiledKB:
    """What a knowledge base compiles to: its scenarios by id (the first
    declaration wins), each known scenario's asserts desugared into rules,
    its declared right ids, and each defined right's steps and program,
    each worked out the first time it is asked for and then kept. Only
    `expand` builds an expression tree.

    A console call builds one and hands it to both `validate_kb` and its
    Engine; given a plain KnowledgeBase, each builds its own. It is never
    kept on the KnowledgeBase: a script may change a KB between two runs,
    and a kept compile would then answer for the old one."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.scenarios: dict[str, Scenario] = {}
        for s in kb.scenarios:
            self.scenarios.setdefault(s.id, s)
        self.basics = {b.id for b in kb.basic_rights}
        self.defs = {r.id: r.definition for r in kb.rights}  # the last one wins
        self.known = self.basics.union(self.defs)
        self._asserts: dict[str, list[Rule]] = {}
        self._opened: dict[str, tuple[list[Step], list[str]]] = {}
        self._programs: dict[str, Optional[Program]] = {}

    @cached_property
    def asserted(self) -> dict[str, list[int]]:
        """Each known scenario's asserts' positions in `kb.assertions`. An assert
        over an unknown scenario is skipped (validate_kb reports it), but keeps its number."""
        asserted: dict[str, list[int]] = {}
        for i, a in enumerate(self.kb.assertions):
            if a.scenario in self.scenarios:
                asserted.setdefault(a.scenario, []).append(i)
        return asserted

    def desugar(self, sid: str, positions: Iterable[int]) -> list[Rule]:
        """The asserts at `positions`, all over `sid`, as rules sharing its sorted features."""
        body = tuple(sorted(self.scenarios[sid].features))
        assertions = self.kb.assertions
        return [Rule(f"assert#{i}@{sid}", body, assertions[i].head) for i in positions]

    def asserts(self, sid: str) -> list[Rule]:
        """`desugar` over each assert of the known scenario `sid`; then kept."""
        if sid not in self._asserts:
            self._asserts[sid] = self.desugar(sid, self.asserted.get(sid, ()))
        return self._asserts[sid]

    @cached_property
    def rules(self) -> list[Rule]:
        """The explicit rules, then the `asserts` in declaration order."""
        return list(self.kb.rules) + [r for _, r in sorted(
            pair for sid in self.asserted for pair in zip(self.asserted[sid], self.asserts(sid)))]

    def open(self, expr: RightExpr) -> tuple[list[Step], list[str]]:
        """The steps of `expr`, and the names in it that are not basic
        rights, left to right."""
        steps = _steps(expr)
        return steps, [arg for kind, arg in steps if kind == "atom" and arg not in self.basics]

    def definition(self, right_id: str) -> tuple[list[Step], list[str]]:
        """`open` over the definition of the defined right `right_id`, on
        first ask; then kept."""
        if right_id not in self._opened:
            self._opened[right_id] = self.open(self.defs[right_id])
        return self._opened[right_id]

    def walk(self, right_id: str, finished: set[str]) -> list[str]:
        """The defined names outside `finished` that `right_id`'s expansion
        reaches, each after those its definition uses and then added to
        `finished`; basic rights are leaves. Raises ModelError at a cycle."""
        defs = self.defs
        if right_id in finished or defs.get(right_id) is None:
            return []
        # depth first: the open names on `path`, an iterator over the
        # references each has left unvisited on `stack`
        order: list[str] = []
        path, on_path = [right_id], {right_id}
        stack = [iter(self.definition(right_id)[1])]
        while stack:
            ref = next(stack[-1], None)
            if ref is None:
                stack.pop()
                name = path.pop()
                on_path.discard(name)
                finished.add(name)
                order.append(name)
            elif ref not in finished and defs.get(ref) is not None:
                if ref in on_path:
                    cycle = " -> ".join(path + [ref])
                    raise ModelError(f"recursive right definition: {cycle}")
                path.append(ref)
                on_path.add(ref)
                stack.append(iter(self.definition(ref)[1]))
        return order

    def _splice(self, names: list[str]) -> list[Step]:
        """The steps of each of `names`' definitions in turn, as one list in
        which a use of a name spliced before reads that name's last step."""
        steps: list[Step] = []
        last: dict[str, int] = {}
        for name in names:
            at: list[int] = []  # each definition step's position in `steps`
            for kind, arg in self.definition(name)[0]:
                if kind == "atom":
                    if arg in last:
                        at.append(last[arg])
                        continue
                elif kind == "not":
                    arg = at[arg]
                else:
                    arg = tuple([at[i] for i in arg])
                at.append(len(steps))
                steps.append((kind, arg))
            last[name] = at[-1]
        return steps

    def steps(self, right_id: str) -> list[Step]:
        """The steps of `right_id` expanded down to basic rights and atomic
        rights, each defined name it reaches spliced in once, however often
        used. Raises KeyError if unknown, ModelError at a cycle."""
        if right_id not in self.known:
            raise KeyError(f"unknown right {right_id!r}")
        names = self.walk(right_id, set())
        return self._splice(names) if names else [("atom", right_id)]

    def expand(self, right_id: str) -> RightExpr:
        """`steps` as an expression tree, the uses of a name sharing one node."""
        built: list[RightExpr] = []
        for kind, arg in self.steps(right_id):
            if kind == "atom":
                node: RightExpr = RightRef(arg)
            elif kind == "not":
                node = NotExpr(built[arg])
            else:
                node = (AndExpr if kind == "and" else OrExpr)(tuple(built[i] for i in arg))
            built.append(node)
        return built[-1]

    def program(self, right_id: str) -> Optional[Program]:
        """`steps` compiled, or None for a right that does not expand
        (unknown, or defined through a cycle)."""
        if right_id not in self._programs:
            try:
                self._programs[right_id] = _compile(self.steps(right_id))
            except (KeyError, ModelError):
                self._programs[right_id] = None
        return self._programs[right_id]


def expand_right(kb: KnowledgeBase, right_id: str) -> RightExpr:
    """`CompiledKB.expand` over a fresh compile of `kb`."""
    return CompiledKB(kb).expand(right_id)


def logically_incompatible(compiled: CompiledKB, r1: str, r2: str) -> bool:
    """True iff the expanded definitions of r1 and r2 can never hold
    together (see `jointly_satisfiable`). A right that does not expand is
    compatible with every right; `compiled` keeps what this call compiles."""
    p1, p2 = compiled.program(r1), compiled.program(r2)
    return p1 is not None and p2 is not None and not _jointly_satisfiable(p1, p2)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _dup_diags(kind: str, ids: list[str]) -> list[Diagnostic]:
    if len(set(ids)) == len(ids):
        return []
    seen: set[str] = set()
    out = []
    for i in ids:
        if i in seen:
            out.append(Diagnostic("error", "duplicate-id",
                                  f"duplicate {kind} {i!r}"))
        seen.add(i)
    return out


_atom = itemgetter(0)  # FeatureLiteral.atom, read in C


def _polarity_diags(where: str, lits: Iterable[FeatureLiteral]) -> list[Diagnostic]:
    atoms: dict[str, set[bool]] = {}
    for lit in lits:
        atoms.setdefault(lit.atom, set()).add(lit.positive)
    return [Diagnostic("error", "polarity-conflict",
                       f"{where}: atom {a!r} appears with both polarities")
            for a, pols in sorted(atoms.items()) if len(pols) == 2]


def _head_diags(where: str, head: Head, declared_rights: set[str]) -> list[Diagnostic]:
    chain = head.kind == "chain"
    in_chain = " in chain" if chain else ""
    out = [Diagnostic("error", "unknown-right", f"{where}: unknown right {rid!r}{in_chain}")
           for rid in head.rights if rid not in declared_rights]
    if len(set(head.rights)) != len(head.rights):
        code, text = (("duplicate-chain-right", "chain repeats a right") if chain
                      else ("self-collision", f"{head.kind} needs two distinct rights"))
        out.append(Diagnostic("error", code, f"{where}: {text}"))
    return out


def validate_kb(kb: KnowledgeBase | CompiledKB) -> list[Diagnostic]:
    """All referential, duplicate, polarity, and range violations.

    Returns an empty list iff the knowledge base is well-formed. Never
    raises: diagnostics are the output. Each id list, scenario, rule body
    and head is first screened by a cheap exact test, which passes iff its
    detailed check would find nothing. Only a record that fails its screen
    gets its location text built and its detailed check run, so a valid
    scenario, rule or assert costs no string. Given a `CompiledKB`, the
    definitions its checks open stay in it for an Engine to reuse.
    """
    compiled = kb if isinstance(kb, CompiledKB) else CompiledKB(kb)
    kb = compiled.kb
    diags: list[Diagnostic] = []
    diags += _dup_diags("basic right", [b.id for b in kb.basic_rights])
    diags += _dup_diags("right", [r.id for r in kb.rights])
    diags += _dup_diags("scenario", [s.id for s in kb.scenarios])
    diags += _dup_diags("domain", [d.id for d in kb.domains])
    diags += _dup_diags("purpose", [p.id for p in kb.purposes])
    diags += _dup_diags("obligation", [o.id for o in kb.obligations])
    diags += _dup_diags("rule", [r.id for r in kb.rules])

    declared_rights = compiled.known
    scen_ids = compiled.scenarios
    dom_ids = {d.id for d in kb.domains}

    for b in kb.basic_rights:
        if not b.id:
            diags.append(Diagnostic("error", "empty-id", "basic right with empty id"))

    # A repeated right id keeps its last definition in `compiled`; each
    # earlier one is opened here on its own. The cycle check walks each name
    # once over all rights: `finished` holds those that reach no cycle.
    finished: set[str] = set()
    for r in kb.rights:
        if r.definition is None:
            continue
        _, refs = (compiled.definition(r.id) if compiled.defs[r.id] is r.definition
                   else compiled.open(r.definition))
        if not declared_rights.issuperset(refs):
            for atom in sorted({ref for ref in refs if ref not in declared_rights}):
                diags.append(Diagnostic(
                    "error", "unknown-right",
                    f"right {r.id!r}: definition references undeclared right {atom!r}"))
        try:
            compiled.walk(r.id, finished)
        except ModelError as exc:
            diags.append(Diagnostic("error", "recursive-definition", str(exc)))

    # The literals of a feature set are distinct, so it has fewer atoms than
    # literals iff some atom comes with both polarities. A body may repeat a
    # literal (`x & x`); the screen then fails and the detailed check finds
    # nothing, as it should.
    for s in kb.scenarios:
        features = s.features
        if not features:
            diags.append(Diagnostic("error", "empty-scenario",
                                    f"scenario {s.id!r} has no features"))
        elif len(set(map(_atom, features))) < len(features):
            diags += _polarity_diags(f"scenario {s.id!r}", features)

    for d in kb.domains:
        for sid in d.scenarios:
            if sid not in scen_ids:
                diags.append(Diagnostic("error", "unknown-scenario",
                                        f"domain {d.id!r} references unknown scenario {sid!r}"))
        diags += _dup_diags(f"scenario in domain {d.id!r}", list(d.scenarios))

    for p in kb.purposes:
        for did in p.domains:
            if did not in dom_ids:
                diags.append(Diagnostic("error", "unknown-domain",
                                        f"purpose {p.id!r} references unknown domain {did!r}"))
        diags += _dup_diags(f"domain in purpose {p.id!r}", list(p.domains))

    for o in kb.obligations:
        if o.applies_to not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"obligation {o.id!r} applies to unknown scenario {o.applies_to!r}"))

    # A head passes when it names only declared rights, none twice.
    for a in kb.assertions:
        if a.scenario not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"assert references unknown scenario {a.scenario!r}"))
        named = a.head.rights
        if not declared_rights.issuperset(named) or len(named) > 1 and len(set(named)) < len(named):
            diags += _head_diags(f"assert in {a.scenario!r}", a.head, declared_rights)

    for rule in kb.rules:
        body = rule.body
        if len(set(map(_atom, body))) < len(body):
            diags += _polarity_diags(f"rule {rule.id!r} body", body)
        named = rule.head.rights
        if not declared_rights.issuperset(named) or len(named) > 1 and len(set(named)) < len(named):
            diags += _head_diags(f"rule {rule.id!r}", rule.head, declared_rights)

    for ann in kb.risk_annotations:
        if ann.scenario not in scen_ids:
            diags.append(Diagnostic("error", "unknown-scenario",
                                    f"risk annotation for unknown scenario {ann.scenario!r}"))
        for name in RiskAnnotation.FIELDS:
            value = getattr(ann, name)
            if value is None:
                diags.append(Diagnostic("error", "missing-risk-field",
                                        f"risk {ann.scenario!r}: missing field {name!r}"))
            elif not isinstance(value, int):
                diags.append(Diagnostic("error", "risk-range",
                                        f"risk {ann.scenario!r}: {name} = {value!r} is not an integer"))
            elif not 1 <= value <= 5:
                diags.append(Diagnostic("error", "risk-range",
                                        f"risk {ann.scenario!r}: {name} = {value} outside 1..5"))
    diags += _dup_diags("risk annotation", [a.scenario for a in kb.risk_annotations])

    return diags
