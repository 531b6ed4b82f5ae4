"""Defeasible forward-chaining over one deployment scenario.

Fires every rule whose body the scenario's features satisfy, each assert
through its own scenario; resolves promotion/demotion conflicts by rule
strength with ambiguity blocking; derives contextual and logical collisions;
and walks each fired chain's priority sequence with generalized adoption.

Each scenario's firing is read once into its deciders: the first-fired
strongest rule of each conclusion other than a chain, keyed by its kind and
its right id (`promotes`, `demotes`, `not_demotes`) or unordered pair
(`collides`, `not_collides`). Statuses, collisions, the monotonicity check
and `explain` all read that one table. Only the in-scope rights that have
links in the atom index are paired for logical collisions, and adoption
tests a pair only when the scenario has collisions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

from .model import (BINARY_PREDS, UNARY_PREDS, CompiledKB, Diagnostic,
                    FeatureLiteral, KnowledgeBase, Rule, Scenario, _new,
                    logically_incompatible)

if TYPE_CHECKING:
    from .scoring import DegreeBreakdown

SINGLETON = "singleton"


class Status(Enum):
    PROMOTED = "Promoted"
    DEMOTED = "Demoted"
    UNDEFINED = "Undefined"


# the members under plain names: each `Status.X` is a lookup through the
# enum class, several times dearer than a global one
PROMOTED, DEMOTED, UNDEFINED = Status.PROMOTED, Status.DEMOTED, Status.UNDEFINED


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


def _key(head) -> str | frozenset[str]:
    """A conclusion's key within its kind: a unary conclusion's right id, or
    the unordered pair of a `collides`/`not_collides` one."""
    return frozenset(head.rights) if head.kind in BINARY_PREDS else head.rights[0]


# a scenario's deciders: a rule per conclusion, by (kind, `_key`)
_Deciders = dict[tuple[str, str | frozenset[str]], Rule]


def _deciders(fired: list[Rule]) -> _Deciders:
    """The first-fired strongest rule of each fired conclusion other than a
    chain, keyed by (kind, `_key`), in first-fired order."""
    best: _Deciders = {}
    for f in fired:
        kind = f.head.kind
        if kind != "chain":
            key = (kind, _key(f.head))
            rule = best.get(key)
            if rule is None or f.strength > rule.strength:
                best[key] = f
    return best


class Engine:
    """Reasoner over an immutable knowledge base, compiled once into a
    `CompiledKB` (the one given, or its own over a plain KB), that keeps what
    it works out: each scenario's firings, deciders and findings, each right
    pair's check, the compiled rights and their atom index, the scenario and
    domain score tables, and one containment table, built on the first
    firing, that firing and monotonicity both read."""

    def __init__(self, kb: KnowledgeBase | CompiledKB, config: EngineConfig = EngineConfig()):
        # compiles each right on first use
        self._compiled = compiled = kb if isinstance(kb, CompiledKB) else CompiledKB(kb)
        self.kb = compiled.kb
        self.config = config
        self._scenarios = compiled.scenarios
        self._cache: dict[str, ScenarioFindings] = {}
        self._fired: dict[str, tuple[list[Rule], _Deciders]] = {}
        self._incompat: dict[frozenset[str], bool] = {}
        self._linked: dict[str, set[str]] = {}  # the atom index of `_link`
        self._by_atom: dict[str, set[str]] = {}
        self._unsat: set[str] = set()
        # the score tables, filled by `scoring.scenario_breakdown` and `degree_domain`
        self.breakdowns: dict[str, DegreeBreakdown] = {}
        self.domain_breakdowns: dict[str, DegreeBreakdown] = {}

    # -- rule firing --------------------------------------------------------

    def _scenario(self, scenario_id: str) -> Scenario:
        try:
            return self._scenarios[scenario_id]
        except KeyError:
            raise KeyError(f"unknown scenario {scenario_id!r}") from None

    @cached_property
    def _containment(self) -> tuple[list[list[int]], list[list[int]], dict[str, int], dict[int, str]]:
        """The containment table, by `kb.scenarios` position j: `rules_in[j]`,
        the `kb.rules` positions whose bodies j's features contain, and
        `within[j]`, the scenario positions whose features j's contain, j
        among them, each ascending; then each id's first position, and each
        asserted id by its first position. A literal set's mask, the AND of
        its literals' `holders`, has bit j set when scenario j contains it."""
        scenarios = self.kb.scenarios
        holders: dict[FeatureLiteral, int] = {}
        for j, s in enumerate(scenarios):
            bit = 1 << j
            for lit in s.features:
                holders[lit] = holders.get(lit, 0) | bit
        everyone = (1 << len(scenarios)) - 1  # an empty body's mask
        groups: dict[tuple[FeatureLiteral, ...], list[int]] = {}
        for i, rule in enumerate(self.kb.rules):
            groups.setdefault(rule.body, []).append(i)
        rules_in: list[list[int]] = [[] for _ in scenarios]
        for body, group in groups.items():  # each body's bits once, for all its rules
            mask = everyone
            for lit in body:
                mask &= holders.get(lit, 0)
            while mask:
                j = mask.bit_length() - 1
                rules_in[j] += group
                mask ^= 1 << j
        for positions in rules_in:
            positions.sort()
        within: list[list[int]] = [[] for _ in scenarios]
        for x, s in enumerate(scenarios):  # in order, so each list grows ascending
            mask = everyone
            for lit in s.features:
                mask &= holders[lit]
            while mask:
                j = mask.bit_length() - 1
                within[j].append(x)
                mask ^= 1 << j
        first = {s.id: p for p, s in reversed(list(enumerate(scenarios)))}
        owners = {first[sid]: sid for sid in self._compiled.asserted}
        return rules_in, within, first, owners

    def fire_rules(self, scenario_id: str) -> list[Rule]:
        """The rules whose bodies hold in the scenario, in `CompiledKB.rules`
        order: explicit rules, then the contained scenarios' asserts by
        number, read from the containment table at the id's first position."""
        self._scenario(scenario_id)  # KeyError for an unknown id
        rules_in, within, first, owners = self._containment
        j, compiled, rules = first[scenario_id], self._compiled, self.kb.rules
        fired = [rules[i] for i in rules_in[j]]
        sids = [owners[p] for p in within[j] if p in owners]
        if len(sids) == 1:  # the common case: no merge by number
            return fired + compiled.asserts(sids[0])
        return fired + [r for _, r in sorted([pair for sid in sids for pair in
                                              zip(compiled.asserted[sid], compiled.asserts(sid))])]

    def _firings(self, scenario_id: str) -> tuple[list[Rule], _Deciders]:
        """`fire_rules` and its `_deciders`, computed once per scenario and
        then kept."""
        if scenario_id not in self._fired:
            fired = self.fire_rules(scenario_id)
            self._fired[scenario_id] = fired, _deciders(fired)
        return self._fired[scenario_id]

    # -- status resolution --------------------------------------------------

    @staticmethod
    def resolve_statuses(table: _Deciders) -> tuple[dict[str, Status], list[Diagnostic]]:
        """Strength comparison of a scenario's deciders, with ambiguity
        blocking on ties; a `not_demotes` head blocks demotions of equal or
        lower strength."""
        statuses: dict[str, Status] = {}
        diags: list[Diagnostic] = []
        for kind, right in table:
            if kind in BINARY_PREDS or right in statuses:
                continue
            p = table.get(("promotes", right))
            d = table.get(("demotes", right))
            bar = table.get(("not_demotes", right))
            if d and bar and d.strength <= bar.strength:
                d = None
            if p and d and p.strength == d.strength:
                statuses[right] = UNDEFINED
                diags.append(Diagnostic(
                    "warning", "ambiguity",
                    f"right {right!r}: promote and demote conclusions tie "
                    f"at strength {p.strength}; status undefined"))
            elif d and (not p or d.strength > p.strength):
                statuses[right] = DEMOTED
            else:
                statuses[right] = PROMOTED if p else UNDEFINED
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
                          table: _Deciders) -> frozenset[frozenset[str]]:
        best = {key: rule.strength for key, rule in table.items() if key[0] in BINARY_PREDS}
        candidates = {pair: s for (kind, pair), s in best.items() if kind == "collides"}
        linked = self._linked
        for r in statuses:
            if r not in linked:
                self._link(r)
        # linking a right may give links to one linked before it; a scenario
        # has fewer rights in scope than a right has links, so walk the scope
        in_scope = sorted(r for r in statuses if linked[r])  # links go both ways
        pairs = [frozenset((r, o)) for i, r in enumerate(in_scope) for o in in_scope[i + 1:]
                 if o in linked[r] and self._pair_incompatible(r, o)]
        if self.config.derived_collision:
            promoted: list[str] = []
            demoted: list[str] = []
            for r, status in statuses.items():
                if status is PROMOTED:
                    promoted.append(r)
                elif status is DEMOTED:
                    demoted.append(r)
            if promoted and demoted:
                promoted.sort()
                demoted.sort()
                pairs += [frozenset((p, d)) for p in promoted for d in demoted]
        if not best:  # no collides or not_collides fired
            return frozenset(pairs)
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
            if statuses.get(right) is DEMOTED:
                continue
            if collisions:  # else no pair can block
                for prev in adopted:
                    if frozenset((right, prev.right)) in collisions:
                        break
                else:
                    adopted.append(_new(Occurrence, (right, chain_id, x, length)))
            else:
                adopted.append(_new(Occurrence, (right, chain_id, x, length)))
        return adopted

    # -- scenario assessment ------------------------------------------------

    def assess(self, scenario_id: str) -> ScenarioFindings:
        if scenario_id in self._cache:
            return self._cache[scenario_id]
        fired, table = self._firings(scenario_id)
        statuses, diags = self.resolve_statuses(table)

        # rights in scope: everything the fired conclusions mention (an
        # assert's rule always fires in its own scenario)
        fired_chains: list[Rule] = []
        for f in fired:
            if f.head.kind == "chain":
                fired_chains.append(f)
            for right in f.head.rights:
                if right not in statuses:
                    statuses[right] = UNDEFINED

        collisions = self.derive_collisions(statuses, table)

        adopted: list[Occurrence] = []
        demoted: list[Occurrence] = []
        chained_rights: set[str] = set()
        for chain in fired_chains:
            rights = chain.head.rights
            chained_rights.update(rights)
            adopted += self.adopt(chain.id, rights, statuses, collisions)
            for x, right in enumerate(rights, start=1):
                if statuses[right] is DEMOTED:
                    demoted.append(_new(Occurrence, (right, chain.id, x, len(rights))))

        # singleton convention: chainless rights count as length-1 chains
        singles = [r for r, status in statuses.items()
                   if status is not UNDEFINED and r not in chained_rights]
        singles.sort()
        for right in singles:
            side = adopted if statuses[right] is PROMOTED else demoted
            side.append(_new(Occurrence, (right, SINGLETON, 1, 1)))

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
        when the toggle is off. The feature-subset pairs come from the
        containment table, so only the scenarios in some pair are fired."""
        if not self.config.monotonicity_check:
            return []
        # (X, Y) by position: features(X) <= features(Y), X the weaker one;
        # the table lists them by Y, the warnings go by X
        scenarios = self.kb.scenarios
        pairs = sorted((x, y) for y, xs in enumerate(self._containment[1]) for x in xs
                       if scenarios[x].id != scenarios[y].id)
        diags: list[Diagnostic] = []
        for x, y in pairs:
            sub, sup = scenarios[x].id, scenarios[y].id
            sub_table, sup_table = self._firings(sub)[1], self._firings(sup)[1]
            for sup_kind, sub_kind in (("promotes", "demotes"), ("demotes", "promotes")):
                for right in sorted(r for kind, r in sup_table
                                    if kind == sup_kind and (sub_kind, r) in sub_table):
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
        known = self._compiled.known
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
        best = self._firings(scenario_id)[1].get((kind, right))
        if best:
            return Explanation(True, self._pred_trace(scenario_id, best))
        return Explanation(False, blocked=self._nearest_blocked(
            scenario_id, kind, right, f"{kind}({right})"))

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
            explicit = next((f for f in self._firings(scenario_id)[0]
                             if f.head.kind == "collides" and _key(f.head) == pair), None)
            if explicit:
                return Explanation(True, self._pred_trace(scenario_id, explicit))
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
            if status is DEMOTED:
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
            if findings.statuses.get(prev) is DEMOTED:
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

    def _nearest_blocked(self, scenario_id: str, kind: str, key: str | frozenset[str],
                         label: str) -> str:
        scen = self._scenario(scenario_id)
        candidates = [r for r in self.kb.rules if r.head.kind == kind and _key(r.head) == key] + [
            self._compiled.desugar(a.scenario, (i,))[0] for i, a in enumerate(self.kb.assertions)
            if a.head.kind == kind and a.scenario in self._scenarios and _key(a.head) == key]
        if not candidates:
            return f"not derivable: no rule concludes {label}"
        best = min(candidates,
                   key=lambda r: sum(1 for lit in r.body if lit not in scen.features))
        missing = [str(lit) for lit in best.body if lit not in scen.features]
        return (f"not derivable: rule {best.id!r} concludes {label} but "
                f"requires {{{', '.join(missing)}}} not present in {scenario_id}")
