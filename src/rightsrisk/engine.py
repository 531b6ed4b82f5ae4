"""Defeasible forward-chaining over one deployment scenario.

Fires every rule whose body the scenario's features satisfy, resolves
promotion/demotion conflicts by rule strength with ambiguity blocking,
derives contextual and logical collisions, and walks each fired priority
chain with the generalized adoption rule.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .model import (BINARY_PREDS, UNARY_PREDS, ChainHead, CompiledRights,
                    Diagnostic, FeatureLiteral, KnowledgeBase, PredHead,
                    PriorityChain, Rule, Scenario, logically_incompatible,
                    satisfies)

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


@dataclass(frozen=True)
class Occurrence:
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
    fired_chains: list[PriorityChain]
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


class Engine:
    """Stateless reasoner over an immutable knowledge base; firings,
    assessment results and degree breakdowns are cached per scenario, and
    the rule index is built on the first firing."""

    def __init__(self, kb: KnowledgeBase, config: EngineConfig = EngineConfig()):
        self.kb = kb
        self.config = config
        self._rules = kb.all_rules()
        self._cache: dict[str, ScenarioFindings] = {}
        self._fired: dict[str, list[Rule]] = {}
        self._incompat: dict[frozenset[str], bool] = {}
        self._compiled = CompiledRights(kb)  # compiles each right on first use
        # the score table, filled by `scoring.scenario_breakdown`
        self.breakdowns: dict[str, DegreeBreakdown] = {}
        # `validate_kb(kb)`'s diagnostics once a caller has run it;
        # `report.build_bundle` validates again only while this is None
        self.validation: Optional[list[Diagnostic]] = None

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
    def _rule_index(self) -> tuple[dict[FeatureLiteral, list[int]], list[int]]:
        """Rule positions keyed by each body's rarest literal (counted over
        all rule bodies), and the positions of the empty-bodied rules. A rule
        can fire only where its key literal holds, so a scenario's candidates
        are its features' buckets plus the empty bodies."""
        counts = Counter(lit for r in self._rules for lit in r.body)
        buckets: dict[FeatureLiteral, list[int]] = {}
        always: list[int] = []
        for i, r in enumerate(self._rules):
            if r.body:
                buckets.setdefault(min(r.body, key=counts.__getitem__), []).append(i)
            else:
                always.append(i)
        return buckets, always

    def fire_rules(self, scenario_id: str) -> list[Rule]:
        """The rules whose bodies hold in the scenario, in `all_rules` order."""
        features = self._scenario(scenario_id).features
        buckets, always = self._rule_index
        candidates = list(always)
        for lit in features:
            candidates += buckets.get(lit, ())
        rules = self._rules
        return [rules[i] for i in sorted(candidates)
                if satisfies(features, rules[i].body)]

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

    # -- collisions ---------------------------------------------------------

    def _pair_incompatible(self, r1: str, r2: str) -> bool:
        key = frozenset((r1, r2))
        if key not in self._incompat:
            self._incompat[key] = logically_incompatible(self.kb, r1, r2,
                                                         self._compiled)
        return self._incompat[key]

    def derive_collisions(self, statuses: dict[str, Status],
                          fired: list[Rule]) -> frozenset[frozenset[str]]:
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
                if self._pair_incompatible(r1, r2):
                    candidates[pair] = max(candidates.get(pair, 0), 0)
                elif (self.config.derived_collision
                      and {statuses[r1], statuses[r2]} == {Status.PROMOTED, Status.DEMOTED}):
                    candidates[pair] = max(candidates.get(pair, 0), 0)

        result = {pair for pair, strength in candidates.items()
                  if not (pair in blocks and blocks[pair] >= strength)}
        return frozenset(result)

    # -- adoption -----------------------------------------------------------

    @staticmethod
    def adopt(chain: PriorityChain, statuses: dict[str, Status],
              collisions: frozenset[frozenset[str]]) -> list[Occurrence]:
        """Generalized right adoption: position x is adopted iff its right is
        not demoted and does not collide with an already-adopted element of
        the same chain. The first non-demoted element is always adopted."""
        length = len(chain.rights)
        adopted: list[Occurrence] = []
        for x, right in enumerate(chain.rights, start=1):
            if statuses.get(right) == Status.DEMOTED:
                continue
            if any(frozenset((right, prev.right)) in collisions for prev in adopted):
                continue
            adopted.append(Occurrence(right, chain.id, x, length))
        return adopted

    # -- scenario assessment ------------------------------------------------

    def assess(self, scenario_id: str) -> ScenarioFindings:
        if scenario_id in self._cache:
            return self._cache[scenario_id]
        fired = self._firings(scenario_id)
        statuses, diags = self.resolve_statuses(fired)

        # rights in scope: everything the fired conclusions mention (an
        # assert's rule always fires in its own scenario)
        scope: set[str] = set(statuses)
        for f in fired:
            scope.update(f.head.rights)
        for right in scope:
            statuses.setdefault(right, Status.UNDEFINED)

        collisions = self.derive_collisions(statuses, fired)

        fired_chains = [PriorityChain(f.id, f.head.rights, f.body)
                        for f in fired if isinstance(f.head, ChainHead)]

        adopted: list[Occurrence] = []
        demoted: list[Occurrence] = []
        chained_rights: set[str] = set()
        for chain in fired_chains:
            chained_rights.update(chain.rights)
            adopted.extend(self.adopt(chain, statuses, collisions))
            for x, right in enumerate(chain.rights, start=1):
                if statuses.get(right) == Status.DEMOTED:
                    demoted.append(Occurrence(right, chain.id, x, len(chain.rights)))

        # singleton convention: chainless rights count as length-1 chains
        for right in sorted(scope - chained_rights):
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
        when the toggle is off."""
        if not self.config.monotonicity_check:
            return []
        raw: dict[str, tuple[set[str], set[str]]] = {}
        for scen in self.kb.scenarios:
            promotes: set[str] = set()
            demotes: set[str] = set()
            for f in self._firings(scen.id):
                if isinstance(f.head, PredHead):
                    if f.head.kind == "promotes":
                        promotes.add(f.head.rights[0])
                    elif f.head.kind == "demotes":
                        demotes.add(f.head.rights[0])
            raw[scen.id] = (promotes, demotes)

        diags: list[Diagnostic] = []
        for sub in self.kb.scenarios:       # X: the weaker description
            for sup in self.kb.scenarios:   # Y: features(Y) >= features(X)
                if sub.id == sup.id or not sub.features <= sup.features:
                    continue
                sup_p, sup_d = raw[sup.id]
                sub_p, sub_d = raw[sub.id]
                for right in sorted(sup_p & sub_d):
                    diags.append(Diagnostic(
                        "warning", "monotonicity",
                        f"{sup.id!r} promotes {right!r} while feature-subset "
                        f"scenario {sub.id!r} demotes it"))
                for right in sorted(sup_d & sub_p):
                    diags.append(Diagnostic(
                        "warning", "monotonicity",
                        f"{sup.id!r} demotes {right!r} while feature-subset "
                        f"scenario {sub.id!r} promotes it"))
        return diags

    # -- explanation --------------------------------------------------------

    _CONCLUSION_RE = re.compile(r"^\s*(\w+)\s*\(\s*([^()]*?)\s*\)\s*$")

    def explain(self, scenario_id: str, conclusion: str) -> Explanation:
        """Derivation trace for a conclusion, or a structured answer naming
        the closest blocked step."""
        kind, args = self._parse_conclusion(scenario_id, conclusion)
        self._scenario(scenario_id)  # KeyError for unknown scenario
        known = self.kb.right_ids() | self.kb.basic_ids()
        for right in args:
            if right not in known:
                raise KeyError(f"unknown right {right!r}")

        if kind in UNARY_PREDS:
            return self._explain_pred(scenario_id, kind, args[0])
        if kind in BINARY_PREDS:
            return self._explain_collision(scenario_id, kind, frozenset(args))
        return self._explain_choice(scenario_id, args[0])

    def _parse_conclusion(self, scenario_id: str, conclusion: str) -> tuple[str, list[str]]:
        m = self._CONCLUSION_RE.match(conclusion)
        if not m:
            raise ValueError(f"malformed conclusion {conclusion!r}; "
                             "expected kind(arg, ...)")
        kind = m.group(1).lower()
        want = 1 if kind in UNARY_PREDS + ("choice",) else 2 if kind in BINARY_PREDS else 0
        if not want:
            raise ValueError(f"unknown conclusion kind {kind!r}")
        args = [a.strip() for a in m.group(2).split(",") if a.strip()]
        scen_ids = {s.id for s in self.kb.scenarios}
        if args and (args[0] == scenario_id or args[0] in scen_ids):
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
        fired = self._firings(scenario_id)
        hits = [f for f in fired
                if isinstance(f.head, PredHead) and f.head.kind == kind
                and f.head.rights[0] == right]
        if hits:
            best = max(hits, key=lambda f: f.strength)
            return Explanation(True, self._pred_trace(scenario_id, best))
        return Explanation(False, blocked=self._nearest_blocked(
            scenario_id, lambda r: isinstance(r.head, PredHead)
            and r.head.kind == kind and r.head.rights[0] == right,
            f"{kind}({right})"))

    def _explain_collision(self, scenario_id: str, kind: str,
                           pair: frozenset[str]) -> Explanation:
        findings = self.assess(scenario_id)
        in_collision = pair in findings.collisions
        if kind == "not_collides":
            if not in_collision:
                r1, r2 = sorted(pair)
                return Explanation(True, DerivationTrace(
                    f"no collision between {r1} and {r2} in {scenario_id}", None))
            return Explanation(False, blocked=f"{sorted(pair)} collide in {scenario_id}")
        if in_collision:
            r1, r2 = sorted(pair)
            fired = self._firings(scenario_id)
            explicit = [f for f in fired
                        if isinstance(f.head, PredHead) and f.head.kind == "collides"
                        and frozenset(f.head.rights) == pair]
            if explicit:
                return Explanation(True, self._pred_trace(scenario_id, explicit[0]))
            if self._pair_incompatible(r1, r2):
                reason = "logically incompatible definitions"
            else:
                reason = "one right promoted and the other demoted in the same scenario"
            return Explanation(True, DerivationTrace(
                f"collides({r1}, {r2})", reason))
        return Explanation(False, blocked=self._nearest_blocked(
            scenario_id, lambda r: isinstance(r.head, PredHead)
            and r.head.kind == "collides" and frozenset(r.head.rights) == pair,
            f"collides({sorted(pair)})"))

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
        premises = [DerivationTrace(f"chain {ChainHead(chain.rights)} fired", chain.id)]
        predecessors_demoted = True
        for prev in chain.rights[:occ.position - 1]:
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

    def _nearest_blocked(self, scenario_id: str, match, label: str) -> str:
        scen = self._scenario(scenario_id)
        candidates = [r for r in self._rules if match(r)]
        if not candidates:
            return f"not derivable: no rule concludes {label}"
        best = min(candidates,
                   key=lambda r: sum(1 for lit in r.body if lit not in scen.features))
        missing = [str(lit) for lit in best.body if lit not in scen.features]
        return (f"not derivable: rule {best.id!r} concludes {label} but "
                f"requires {{{', '.join(missing)}}} not present in {scenario_id}")
