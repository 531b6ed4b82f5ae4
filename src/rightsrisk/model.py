"""Core domain types: rights, scenarios, rules, chains, and the knowledge base.

Everything here is an immutable value except the KnowledgeBase container
itself, which is assembled once by the parser and then treated as
read-only. The records built per literal, scenario, rule and head are
named tuples: an analysis builds and hashes thousands of them,
and a tuple is built and hashed in C, where a frozen dataclass sets each
field through `object.__setattr__`. The records built once per run stay
frozen dataclasses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Union


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


@dataclass(frozen=True)
class RiskAnnotation:
    scenario: str
    hazard: Optional[int] = None
    response: Optional[int] = None
    intensity: Optional[int] = None
    sensitivity: Optional[int] = None
    vulnerability: Optional[int] = None

    FIELDS = ("hazard", "response", "intensity", "sensitivity", "vulnerability")


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

    def scenarios_by_id(self) -> dict[str, Scenario]:
        """Scenario by id; the first declaration wins."""
        by_id: dict[str, Scenario] = {}
        for s in self.scenarios:
            by_id.setdefault(s.id, s)
        return by_id

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

    def right_ids(self) -> set[str]:
        return {r.id for r in self.rights}

    def basic_ids(self) -> set[str]:
        return {b.id for b in self.basic_rights}

    def all_rules(self) -> list[Rule]:
        """Explicit rules plus one desugared rule per assert statement.

        An assert's rule body is exactly the named scenario's feature
        conjunction, in sorted order so the expansion is deterministic.
        """
        scenarios = self.scenarios_by_id()
        bodies: dict[str, tuple[FeatureLiteral, ...]] = {}
        rules = list(self.rules)
        for i, a in enumerate(self.assertions):
            body = bodies.get(a.scenario)
            if body is None:
                scen = scenarios.get(a.scenario)
                if scen is None:
                    continue  # reported by validate_kb
                body = bodies[a.scenario] = tuple(sorted(scen.features))
            rules.append(Rule(f"assert#{i}@{a.scenario}", body, a.head))
        return rules


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


def _expander(kb: KnowledgeBase) -> Callable[[str], RightExpr]:
    """`expand_right` over `kb`, keeping each defined name's expansion across
    calls. A kept name reaches no cycle, so skipping it changes no cycle
    message."""
    defs = {r.id: r.definition for r in kb.rights}
    basics = kb.basic_ids()
    done: dict[str, RightExpr] = {}
    compiled: dict[str, tuple[list[Step], list[str]]] = {}

    def open_name(name: str) -> tuple[list[Step], Iterator[str]]:
        """The steps of `name`'s definition, and the defined names it
        refers to, left to right."""
        if name not in compiled:
            steps = _steps(defs[name])
            compiled[name] = steps, [arg for kind, arg in steps
                                     if kind == "atom" and arg not in basics]
        steps, refs = compiled[name]
        return steps, iter(refs)

    def substitute(steps: list[Step]) -> RightExpr:
        built: list[RightExpr] = []
        for kind, arg in steps:
            if kind == "atom":
                node = done[arg] if arg in done and arg not in basics else RightRef(arg)
            elif kind == "not":
                node = NotExpr(built[arg])
            elif kind == "and":
                node = AndExpr(tuple(built[i] for i in arg))
            else:
                node = OrExpr(tuple(built[i] for i in arg))
            built.append(node)
        return built[-1]

    def expand(right_id: str) -> RightExpr:
        if right_id not in defs and right_id not in basics:
            raise KeyError(f"unknown right {right_id!r}")
        if defs.get(right_id) is None:
            return RightRef(right_id)
        # depth first over names: the open ones on `path`, their steps and
        # unvisited references on `stack`
        path = [right_id]
        on_path = {right_id}
        stack = [open_name(right_id)]
        while stack:
            ref = next(stack[-1][1], None)
            if ref is None:
                name = path.pop()
                on_path.discard(name)
                done[name] = substitute(stack.pop()[0])
            elif ref not in done and defs.get(ref) is not None:
                if ref in on_path:
                    cycle = " -> ".join(path + [ref])
                    raise ModelError(f"recursive right definition: {cycle}")
                path.append(ref)
                on_path.add(ref)
                stack.append(open_name(ref))
        return done[right_id]

    return expand


def expand_right(kb: KnowledgeBase, right_id: str) -> RightExpr:
    """Definitional expansion of a fundamental right down to basic-right
    leaves. Atomic rights (no definition) expand to a single self leaf. A
    name used more than once is expanded once, and its uses share the result."""
    return _expander(kb)(right_id)


def expr_atoms(expr: RightExpr) -> set[str]:
    return {arg for kind, arg in _steps(expr) if kind == "atom"}


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


# Pairs over at most this many atoms are decided by a truth table of 2**16
# bits, 8 KB per value; wider pairs take the split search.
TRUTH_TABLE_ATOMS = 16


class Program(NamedTuple):
    """A right expression compiled once: its `_steps` and its atoms, sorted."""
    steps: list[Step]
    atoms: tuple[str, ...]


def _compile(expr: RightExpr) -> Program:
    steps = _steps(expr)
    return Program(steps, tuple(sorted({arg for kind, arg in steps if kind == "atom"})))


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
    atoms = sorted(set(p1.atoms).union(p2.atoms))
    if len(atoms) > TRUTH_TABLE_ATOMS:
        return _split_search((p1, p2), atoms)
    full = (1 << (1 << len(atoms))) - 1
    column = dict(zip(atoms, _columns(len(atoms))))
    return _table(p1.steps, column, full) & _table(p2.steps, column, full) != 0


def jointly_satisfiable(e1: RightExpr, e2: RightExpr) -> bool:
    """Can both expressions hold at once? Exact either way: over at most
    TRUTH_TABLE_ATOMS joint atoms the two truth tables are ANDed, over more
    a split search runs over the atoms in sorted order, with no atom cap."""
    return _jointly_satisfiable(_compile(e1), _compile(e2))


class CompiledRights:
    """The rights of one knowledge base, each expanded and compiled the first
    time it is asked for and then kept, all through one expander. A right
    that does not expand (unknown, or defined through a cycle) is kept as
    None."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._programs: dict[str, Optional[Program]] = {}

    @cached_property
    def _expand(self) -> Callable[[str], RightExpr]:
        return _expander(self.kb)

    def program(self, right_id: str) -> Optional[Program]:
        if right_id not in self._programs:
            try:
                self._programs[right_id] = _compile(self._expand(right_id))
            except (KeyError, ModelError):
                self._programs[right_id] = None
        return self._programs[right_id]


def logically_incompatible(rights: CompiledRights, r1: str, r2: str) -> bool:
    """True iff the expanded definitions of r1 and r2 can never hold
    together (see `jointly_satisfiable`). A right that does not expand is
    compatible with every right; `rights` keeps what this call compiles."""
    p1, p2 = rights.program(r1), rights.program(r2)
    return p1 is not None and p2 is not None and not _jointly_satisfiable(p1, p2)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _dup_diags(kind: str, ids: list[str]) -> list[Diagnostic]:
    seen: set[str] = set()
    out = []
    for i in ids:
        if i in seen:
            out.append(Diagnostic("error", "duplicate-id",
                                  f"duplicate {kind} {i!r}"))
        seen.add(i)
    return out


def _polarity_diags(where: str, lits: Iterable[FeatureLiteral]) -> list[Diagnostic]:
    atoms: dict[str, set[bool]] = {}
    for lit in lits:
        atoms.setdefault(lit.atom, set()).add(lit.positive)
    return [Diagnostic("error", "polarity-conflict",
                       f"{where}: atom {a!r} appears with both polarities")
            for a, pols in sorted(atoms.items()) if len(pols) == 2]


def validate_kb(kb: KnowledgeBase) -> list[Diagnostic]:
    """All referential, duplicate, polarity, and range violations.

    Returns an empty list iff the knowledge base is well-formed. Never
    raises: diagnostics are the output.
    """
    diags: list[Diagnostic] = []
    diags += _dup_diags("basic right", [b.id for b in kb.basic_rights])
    diags += _dup_diags("right", [r.id for r in kb.rights])
    diags += _dup_diags("scenario", [s.id for s in kb.scenarios])
    diags += _dup_diags("domain", [d.id for d in kb.domains])
    diags += _dup_diags("purpose", [p.id for p in kb.purposes])
    diags += _dup_diags("obligation", [o.id for o in kb.obligations])
    diags += _dup_diags("rule", [r.id for r in kb.rules])

    basics = kb.basic_ids()
    rights = kb.right_ids()
    declared_rights = basics | rights
    scen_ids = {s.id for s in kb.scenarios}
    dom_ids = {d.id for d in kb.domains}

    for b in kb.basic_rights:
        if not b.id:
            diags.append(Diagnostic("error", "empty-id", "basic right with empty id"))

    expand = _expander(kb)
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
        diags += _polarity_diags(f"scenario {s.id!r}", s.features)

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
        diags += _polarity_diags(f"rule {rule.id!r} body", rule.body)
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
    diags += _dup_diags("risk annotation", [a.scenario for a in kb.risk_annotations])

    return diags
