"""Defeasible forward-chaining over one deployment scenario.

Fires every rule whose body the scenario's features satisfy, resolves
promotion/demotion conflicts by rule strength with ambiguity blocking,
derives contextual and logical collisions, and walks each fired chain
rule's priority sequence with the generalized adoption rule.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .model import (BINARY_PREDS, UNARY_PREDS, CompiledRights, Diagnostic,
                    FeatureLiteral, KnowledgeBase, Rule, Scenario,
                    logically_incompatible)

if TYPE_CHECKING:
    from .scoring import DegreeBreakdown

SINGLETON = "singleton"


class Status(Enum):
    PROMOTED = "Promoted"
    DEMOTED = "Demoted"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class EngineConfig:
    derived_collision: bool = True       # Promoted x Demoted pairs collide
    monotonicity_check: bool = True


class Occurrence(NamedTuple):
    """A right at position x of a length-y chain (or a singleton, x = y = 1)."""
    right: str
    chain: str
    position: int
    length: int

    def __str__(self) -> str:
        return f"{self.right}<{self.position},{self.length}>"


@dataclass
class ScenarioFindings:
    scenario: str
    statuses: dict[str, Status]
    collisions: frozenset[frozenset[str]]
    fired_chains: list[Rule]  # the fired rules with a chain head
    adopted: frozenset[Occurrence]
    demoted_occurrences: frozenset[Occurrence]
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class DerivationTrace:
    conclusion: str
    rule: Optional[str]
    premises: tuple["DerivationTrace", ...] = ()

    def render(self, indent: int = 0) -> str:
        via = f"  [{self.rule}]" if self.rule else ""
        lines = ["  " * indent + self.conclusion + via]
        for p in self.premises:
            lines.append(p.render(indent + 1))
        return "\n".join(lines)


@dataclass
class Explanation:
    derivable: bool
    trace: Optional[DerivationTrace] = None
    blocked: Optional[str] = None


def _containment(bodies: list) -> Callable[[frozenset], list[int]]:
    """A search giving the positions of the literal sets in `bodies` that a
    feature set contains, each once, in no set order. Each body is filed
    under its rarest literal, counted over all bodies, so a feature set's
    candidates are its literals' buckets plus the empty bodies."""
    counts = Counter(lit for body in bodies for lit in body)
    buckets: dict[FeatureLiteral, list[int]] = {}
    always: list[int] = []
    for i, body in enumerate(bodies):
        if body:
            buckets.setdefault(min(body, key=counts.__getitem__), []).append(i)
        else:
            always.append(i)

    def contained(features: frozenset[FeatureLiteral]) -> list[int]:
        candidates = list(always)
        for lit in features:
            candidates += buckets.get(lit, ())
        return [i for i in candidates if features.issuperset(bodies[i])]
    return contained


def _strongest(fired: list[Rule], kinds: tuple[str, ...]) -> dict[tuple[str, frozenset[str]], int]:
    """The strongest strength of each fired conclusion of the given kinds,
    keyed by (kind, rights), in first-fired order."""
    best: dict[tuple[str, frozenset[str]], int] = {}
    for f in fired:
        if f.head.kind in kinds:
            key = (f.head.kind, frozenset(f.head.rights))
            best[key] = max(best.get(key, f.strength), f.strength)
    return best


def _concluding(rules: list[Rule], kind: str, rights: frozenset[str]) -> list[Rule]:
    """The rules concluding `kind` over exactly these rights, in order."""
    return [r for r in rules if r.head.kind == kind and frozenset(r.head.rights) == rights]


class Engine:
    """Reasoner over an immutable knowledge base that keeps what it works
    out: each scenario's firings and findings, each right pair's check, the
    compiled rights and their atom index, the score table, the rule index."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig = EngineConfig()):
        self.kb = kb
        self.config = config
        self._rules = kb.all_rules()
        self._cache: dict[str, ScenarioFindings] = {}
        self._fired: dict[str, list[Rule]] = {}
        self._incompat: dict[frozenset[str], bool] = {}
        self._linked: dict[str, set[str]] = {}  # the atom index of `_link`
        self._by_atom: dict[str, set[str]] = {}
        self._unsat: set[str] = set()
        self._compiled = CompiledRights(kb)  # compiles each right on first use
        # the score table, filled by `scoring.scenario_breakdown`
        self.breakdowns: dict[str, DegreeBreakdown] = {}

    # -- rule firing --------------------------------------------------------

    @cached_property
    def _scenarios(self) -> dict[str, Scenario]:
        return self.kb.scenarios_by_id()

    def _scenario(self, scenario_id: str) -> Scenario:
        try:
            return self._scenarios[scenario_id]
        except KeyError:
            raise KeyError(f"unknown scenario {scenario_id!r}") from None

    @cached_property
    def _rule_index(self) -> tuple[Callable[[frozenset], list[int]], list[list[int]]]:
        """A containment search over each distinct rule body, filed once,
        with the positions of the rules that share each body. The asserts
        of a scenario all share one body tuple, so a KB has far fewer
        distinct bodies than rules."""
        groups: dict[tuple[FeatureLiteral, ...], list[int]] = {}
        for i, rule in enumerate(self._rules):
            groups.setdefault(rule.body, []).append(i)
        return _containment(list(groups)), list(groups.values())

    def fire_rules(self, scenario_id: str) -> list[Rule]:
        """The rules whose bodies hold in the scenario, in `all_rules` order."""
        features = self._scenario(scenario_id).features
        contained, groups = self._rule_index
        positions = [i for body in contained(features) for i in groups[body]]
        positions.sort()
        return [self._rules[i] for i in positions]

    def _firings(self, scenario_id: str) -> list[Rule]:
        """`fire_rules`, computed once per scenario and then kept."""
        if scenario_id not in self._fired:
            self._fired[scenario_id] = self.fire_rules(scenario_id)
        return self._fired[scenario_id]

    # -- status resolution --------------------------------------------------

    @staticmethod
    def resolve_statuses(fired: list[Rule]) -> tuple[dict[str, Status], list[Diagnostic]]:
        """Strength comparison with ambiguity blocking on ties; a
        `not_demotes` head blocks demotions of equal or lower strength."""
        best = _strongest(fired, UNARY_PREDS)
        statuses: dict[str, Status] = {}
        diags: list[Diagnostic] = []
        for key in dict.fromkeys(rights for _, rights in best):
            pmax = best.get(("promotes", key))
            dmax = best.get(("demotes", key))
            bar = best.get(("not_demotes", key))
            if bar is not None and dmax is not None and dmax <= bar:
                dmax = None
            (right,) = key
            statuses[right] = Status.UNDEFINED
            if pmax == dmax:
                if pmax is not None:
                    diags.append(Diagnostic(
                        "warning", "ambiguity",
                        f"right {right!r}: promote and demote conclusions tie "
                        f"at strength {pmax}; status undefined"))
            elif dmax is None or (pmax is not None and pmax > dmax):
                statuses[right] = Status.PROMOTED
            else:
                statuses[right] = Status.DEMOTED
        return statuses, diags

    # -- collisions ---------------------------------------------------------

    def _pair_incompatible(self, r1: str, r2: str) -> bool:
        key = frozenset((r1, r2))
        if key not in self._incompat:
            self._incompat[key] = logically_incompatible(self._compiled, r1, r2)
        return self._incompat[key]

    def _link(self, right: str) -> None:
        """Index `right`: link it both ways to each right indexed so far that
        may be logically incompatible with it. Formulas over disjoint atoms
        hold together iff each holds alone, so these share an atom with it,
        or are expandable while one of the two is unsatisfiable alone."""
        program = self._compiled.program(right)
        links = self._linked[right] = set()
        if program is None:
            return
        links |= self._unsat
        if self._pair_incompatible(right, right):
            links.update(*self._by_atom.values())
            self._unsat.add(right)
        for atom in program.atoms:
            links |= self._by_atom.setdefault(atom, set())
            self._by_atom[atom].add(right)
        for other in links:
            self._linked[other].add(right)

    def derive_collisions(self, statuses: dict[str, Status],
                          fired: list[Rule]) -> frozenset[frozenset[str]]:
        best = _strongest(fired, BINARY_PREDS)
        candidates = {pair: s for (kind, pair), s in best.items() if kind == "collides"}
        rights = sorted(statuses)
        for r in rights:
            if r not in self._linked:
                self._link(r)
        pairs = [frozenset((r, o)) for r in rights for o in self._linked[r]
                 if r < o and o in statuses and self._pair_incompatible(r, o)]
        if self.config.derived_collision:
            promoted, demoted = ([r for r in rights if statuses[r] is status]
                                 for status in (Status.PROMOTED, Status.DEMOTED))
            pairs += [frozenset((p, d)) for p in promoted for d in demoted]
        for pair in pairs:
            candidates[pair] = max(candidates.get(pair, 0), 0)
        # a not_collides of equal or greater strength removes the pair
        return frozenset(pair for pair, strength in candidates.items()
                         if best.get(("not_collides", pair), strength - 1) < strength)

    # -- adoption -----------------------------------------------------------

    @staticmethod
    def adopt(chain_id: str, rights: tuple[str, ...], statuses: dict[str, Status],
              collisions: frozenset[frozenset[str]]) -> list[Occurrence]:
        """Generalized right adoption over `rights`, preferred first: position
        x is adopted iff its right is not demoted and does not collide with an
        already-adopted element. The first non-demoted element is always adopted."""
        length = len(rights)
        adopted: list[Occurrence] = []
        for x, right in enumerate(rights, start=1):
            if statuses.get(right) == Status.DEMOTED:
                continue
            if any(frozenset((right, prev.right)) in collisions for prev in adopted):
                continue
            adopted.append(Occurrence(right, chain_id, x, length))
        return adopted

    # -- scenario assessment ------------------------------------------------

    def assess(self, scenario_id: str) -> ScenarioFindings:
        if scenario_id in self._cache:
            return self._cache[scenario_id]
        fired = self._firings(scenario_id)
        statuses, diags = self.resolve_statuses(fired)

        # rights in scope: everything the fired conclusions mention (an
        # assert's rule always fires in its own scenario)
        for f in fired:
            for right in f.head.rights:
                statuses.setdefault(right, Status.UNDEFINED)

        collisions = self.derive_collisions(statuses, fired)

        fired_chains = [f for f in fired if f.head.kind == "chain"]

        adopted: list[Occurrence] = []
        demoted: list[Occurrence] = []
        chained_rights: set[str] = set()
        for chain in fired_chains:
            rights = chain.head.rights
            chained_rights.update(rights)
            adopted.extend(self.adopt(chain.id, rights, statuses, collisions))
            for x, right in enumerate(rights, start=1):
                if statuses.get(right) == Status.DEMOTED:
                    demoted.append(Occurrence(right, chain.id, x, len(rights)))

        # singleton convention: chainless rights count as length-1 chains
        for right in sorted(statuses.keys() - chained_rights):
            if statuses[right] == Status.PROMOTED:
                adopted.append(Occurrence(right, SINGLETON, 1, 1))
            elif statuses[right] == Status.DEMOTED:
                demoted.append(Occurrence(right, SINGLETON, 1, 1))

        findings = ScenarioFindings(
            scenario=scenario_id,
            statuses=statuses,
            collisions=collisions,
            fired_chains=fired_chains,
            adopted=frozenset(adopted),
            demoted_occurrences=frozenset(demoted),
            diagnostics=diags,
        )
        self._cache[scenario_id] = findings
        return findings

    # -- monotonicity -------------------------------------------------------

    def check_monotonicity(self) -> list[Diagnostic]:
        """Warn when a scenario promotes a right that a feature-subset
        scenario demotes (or vice versa). Warnings only; disabled entirely
        when the toggle is off. The feature-subset pairs are found first, so
        only the scenarios in some pair are fired."""
        if not self.config.monotonicity_check:
            return []
        # (X, Y) by position: features(X) <= features(Y), X the weaker one
        scenarios = self.kb.scenarios
        subsets = _containment([s.features for s in scenarios])
        pairs = sorted((x, y) for y, sup in enumerate(scenarios)
                       for x in subsets(sup.features) if scenarios[x].id != sup.id)
        paired = dict.fromkeys(scenarios[i].id for pair in pairs for i in pair)
        raw = {sid: {kind: {f.head.rights[0] for f in self._firings(sid)
                            if f.head.kind == kind}
                     for kind in ("promotes", "demotes")}
               for sid in paired}
        diags: list[Diagnostic] = []
        for x, y in pairs:
            sub, sup = scenarios[x].id, scenarios[y].id
            for sup_kind, sub_kind in (("promotes", "demotes"), ("demotes", "promotes")):
                for right in sorted(raw[sup][sup_kind] & raw[sub][sub_kind]):
                    diags.append(Diagnostic(
                        "warning", "monotonicity",
                        f"{sup!r} {sup_kind} {right!r} while feature-subset "
                        f"scenario {sub!r} {sub_kind} it"))
        return diags

    # -- explanation --------------------------------------------------------

    _CONCLUSION_RE = re.compile(r"^\s*(\w+)\s*\(\s*([^()]*?)\s*\)\s*$")

    def explain(self, scenario_id: str, conclusion: str) -> Explanation:
        """Derivation trace for a conclusion, or a structured answer naming
        the closest blocked step."""
        known = self.kb.right_ids() | self.kb.basic_ids()
        kind, args = self._parse_conclusion(scenario_id, conclusion, known)
        self._scenario(scenario_id)  # KeyError for unknown scenario
        for right in args:
            if right not in known:
                raise KeyError(f"unknown right {right!r}")

        if kind in UNARY_PREDS:
            return self._explain_pred(scenario_id, kind, args[0])
        if kind in BINARY_PREDS:
            return self._explain_collision(scenario_id, kind, frozenset(args))
        return self._explain_choice(scenario_id, args[0])

    def _parse_conclusion(self, scenario_id: str, conclusion: str,
                          rights: set[str]) -> tuple[str, list[str]]:
        m = self._CONCLUSION_RE.match(conclusion)
        if not m:
            raise ValueError(f"malformed conclusion {conclusion!r}; "
                             "expected kind(arg, ...)")
        kind = m.group(1).lower()
        want = 1 if kind in UNARY_PREDS + ("choice",) else 2 if kind in BINARY_PREDS else 0
        if not want:
            raise ValueError(f"unknown conclusion kind {kind!r}")
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        # a leading scenario id is dropped, unless it may be the right meant;
        # it must be the scenario explained
        if args and (args[0] == scenario_id or args[0] in self._scenarios) \
                and (args[0] not in rights or len(args) > want):
            if args[0] != scenario_id:
                raise ValueError(f"conclusion {conclusion!r} names scenario "
                                 f"{args[0]!r}, not {scenario_id!r}")
            args = args[1:]
        if not args:
            raise ValueError(f"conclusion {conclusion!r} names no right")
        if not len(args) == len(set(args)) == want:
            rights = "one right" if want == 1 else "two distinct rights"
            raise ValueError(f"conclusion {conclusion!r}: {kind} takes {rights}, "
                             f"got {', '.join(args)}")
        return kind, args

    def _pred_trace(self, scenario_id: str, rule: Rule) -> DerivationTrace:
        leaves = tuple(DerivationTrace(f"feature {lit} holds in {scenario_id}", None)
                       for lit in rule.body)
        return DerivationTrace(f"{rule.head}", rule.id, leaves)

    def _explain_pred(self, scenario_id: str, kind: str, right: str) -> Explanation:
        rights = frozenset((right,))
        hits = _concluding(self._firings(scenario_id), kind, rights)
        if hits:
            best = max(hits, key=lambda f: f.strength)
            return Explanation(True, self._pred_trace(scenario_id, best))
        return Explanation(False, blocked=self._nearest_blocked(
            scenario_id, kind, rights, f"{kind}({right})"))

    def _explain_collision(self, scenario_id: str, kind: str,
                           pair: frozenset[str]) -> Explanation:
        in_collision = pair in self.assess(scenario_id).collisions
        r1, r2 = sorted(pair)
        if kind == "not_collides":
            if not in_collision:
                return Explanation(True, DerivationTrace(
                    f"no collision between {r1} and {r2} in {scenario_id}", None))
            return Explanation(False, blocked=f"{r1} and {r2} collide in {scenario_id}")
        if in_collision:
            explicit = _concluding(self._firings(scenario_id), "collides", pair)
            if explicit:
                return Explanation(True, self._pred_trace(scenario_id, explicit[0]))
            if self._pair_incompatible(r1, r2):
                reason = "logically incompatible definitions"
            else:
                reason = "one right promoted and the other demoted in the same scenario"
            return Explanation(True, DerivationTrace(
                f"collides({r1}, {r2})", reason))
        return Explanation(False, blocked=self._nearest_blocked(
            scenario_id, "collides", pair, f"collides({sorted(pair)})"))

    def _explain_choice(self, scenario_id: str, right: str) -> Explanation:
        findings = self.assess(scenario_id)
        occ = next((o for o in sorted(findings.adopted,
                                      key=lambda o: (o.chain, o.position))
                    if o.right == right), None)
        if occ is None:
            status = findings.statuses.get(right)
            if status == Status.DEMOTED:
                blocked = f"{right!r} is demoted in {scenario_id}"
            elif status is None:
                blocked = f"{right!r} is not in scope of {scenario_id}"
            else:
                blocked = (f"{right!r} has status {status.value} in {scenario_id} "
                           "and no fired chain or promotion adopts it")
            return Explanation(False, blocked=blocked)

        if occ.chain == SINGLETON:
            sub = self._explain_pred(scenario_id, "promotes", right)
            return Explanation(True, DerivationTrace(
                f"choice({scenario_id}, {right})", "singleton_adoption",
                (sub.trace,) if sub.trace else ()))

        chain = next(c for c in findings.fired_chains if c.id == occ.chain)
        premises = [DerivationTrace(f"chain {chain.head} fired", chain.id)]
        predecessors_demoted = True
        for prev in chain.head.rights[:occ.position - 1]:
            if findings.statuses.get(prev) == Status.DEMOTED:
                sub = self._explain_pred(scenario_id, "demotes", prev)
                if sub.trace:
                    premises.append(sub.trace)
            else:
                predecessors_demoted = False
        if occ.position == 1:
            rule = "right_adoption_1"
        elif occ.position == 2 and predecessors_demoted:
            rule = "right_adoption_2"
        else:
            rule = "right_adoption_3"
        return Explanation(True, DerivationTrace(
            f"choice({scenario_id}, {right})", rule, tuple(premises)))

    def _nearest_blocked(self, scenario_id: str, kind: str, rights: frozenset[str],
                         label: str) -> str:
        scen = self._scenario(scenario_id)
        candidates = _concluding(self._rules, kind, rights)
        if not candidates:
            return f"not derivable: no rule concludes {label}"
        best = min(candidates,
                   key=lambda r: sum(1 for lit in r.body if lit not in scen.features))
        missing = [str(lit) for lit in best.body if lit not in scen.features]
        return (f"not derivable: rule {best.id!r} concludes {label} but "
                f"requires {{{', '.join(missing)}}} not present in {scenario_id}")
