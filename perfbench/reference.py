"""Independent reference evaluator for the benchmark's output checks.

Written from the semantics stated in the README: rules fire when the
scenario lists every body literal, promote/demote conflicts are settled by
strength with ties blocking both, `not_demotes` bars demotions of equal or
lower strength, chains adopt each position whose right is not demoted and
does not collide with an already-adopted element, and position x of a
length-y chain weighs y/x. It reads the parsed knowledge base but shares
no code with `rightsrisk.engine`, `rightsrisk.scoring` or
`rightsrisk.minimizer`, and decides logical incompatibility with its own
Shannon-expansion satisfiability test instead of a truth table.

The expected output texts (rule ids such as `assert#3@s7`, diagnostic
wording, the canonical maximizer order) follow what the CLI documents on
its output, so that a disagreement names the first field that differs.
"""
from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

PROMOTED, DEMOTED, UNDEFINED = "Promoted", "Demoted", "Undefined"
SINGLETON = "singleton"
MAXIMIZER_CAP = 64
BANDS = ((4, "Low"), (9, "Moderate"), (14, "High"), (25, "Critical"))
CHECKLIST_ITEMS = 11


@dataclass(frozen=True)
class RefRule:
    id: str
    body: frozenset
    kind: str          # promotes | demotes | not_demotes | collides | not_collides | chain
    rights: tuple
    strength: int

    def head_text(self) -> str:
        if self.kind == "chain":
            return " > ".join(self.rights)
        return f"{self.kind}({', '.join(self.rights)})"


@dataclass
class Findings:
    scenario: str
    statuses: dict          # right -> Promoted/Demoted/Undefined
    collisions: set         # frozenset pairs
    chains: list            # fired chain rules, in firing order
    adopted: list           # (right, chain id, x, y)
    demoted: list           # (right, chain id, x, y)
    diagnostics: list       # ambiguity warnings, in the order rights were first concluded
    fired: list

    @property
    def xi(self) -> Fraction:
        return sum((Fraction(y, x) for _, _, x, y in self.adopted), Fraction(0))

    @property
    def delta(self) -> Fraction:
        return sum((Fraction(y, x) for _, _, x, y in self.demoted), Fraction(0))

    @property
    def degree(self) -> Fraction:
        return self.xi - self.delta


def frac(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 \
        else f"{value.numerator}/{value.denominator}"


def label(occ) -> str:
    right, _, x, y = occ
    return f"{right}<{x},{y}>"


# ---------------------------------------------------------------------------
# Satisfiability by Shannon expansion
# ---------------------------------------------------------------------------

class _Cycle(Exception):
    pass


def _to_formula(expr):
    """Right expression -> nested tuples: atom name, ('!', f), ('&', fs), ('|', fs)."""
    kind = type(expr).__name__
    if kind == "RightRef":
        return expr.name
    if kind == "NotExpr":
        return ("!", _to_formula(expr.operand))
    return ("&" if kind == "AndExpr" else "|",
            tuple(_to_formula(e) for e in expr.operands))


def _first_atom(f):
    while not isinstance(f, str):
        f = f[1] if f[0] == "!" else f[1][0]
    return f


def _assign(f, atom: str, value: bool):
    """Substitute `value` for `atom` and simplify; returns a bool or a formula."""
    if isinstance(f, str):
        return value if f == atom else f
    if f[0] == "!":
        inner = _assign(f[1], atom, value)
        return (not inner) if isinstance(inner, bool) else ("!", inner)
    absorbing = f[0] == "|"          # True absorbs an or, False an and
    rest = []
    for part in f[1]:
        part = _assign(part, atom, value)
        if isinstance(part, bool):
            if part == absorbing:
                return absorbing
            continue
        rest.append(part)
    if not rest:
        return not absorbing
    return rest[0] if len(rest) == 1 else (f[0], tuple(rest))


def satisfiable(f) -> bool:
    if isinstance(f, bool):
        return f
    atom = _first_atom(f)
    return satisfiable(_assign(f, atom, True)) or satisfiable(_assign(f, atom, False))


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class Reference:
    def __init__(self, kb):
        self.kb = kb
        self.scenarios = {s.id: s for s in kb.scenarios}
        self.domains = {d.id: d for d in kb.domains}
        self.definitions = {r.id: r.definition for r in kb.rights}
        self.basics = {b.id for b in kb.basic_rights}
        self.annotations = {a.scenario: a for a in kb.risk_annotations}
        rules = [self._rule(r.id, r.body, r.head, r.strength) for r in kb.rules]
        for i, a in enumerate(kb.assertions):
            body = self.scenarios[a.scenario].features
            rules.append(self._rule(f"assert#{i}@{a.scenario}", body, a.head, 0))
        self.rules = rules
        self._findings: dict[str, Findings] = {}
        self._incompatible: dict[frozenset, bool] = {}
        self._expanded: dict[str, object] = {}

    @staticmethod
    def _rule(rid, body, head, strength) -> RefRule:
        kind = getattr(head, "kind", "chain")
        return RefRule(rid, frozenset(body), kind, tuple(head.rights), strength)

    # -- logic ---------------------------------------------------------------

    def _expand(self, right: str, stack=()):
        if right in stack:
            raise _Cycle(right)
        definition = self.definitions.get(right)
        if definition is None:
            return right
        return self._expand_formula(_to_formula(definition), stack + (right,))

    def _expand_formula(self, f, stack):
        if isinstance(f, str):
            return f if f in self.basics else self._expand(f, stack)
        if f[0] == "!":
            return ("!", self._expand_formula(f[1], stack))
        return (f[0], tuple(self._expand_formula(p, stack) for p in f[1]))

    def expansion(self, right: str):
        if right not in self._expanded:
            known = right in self.definitions or right in self.basics
            try:
                self._expanded[right] = self._expand(right) if known else None
            except _Cycle:
                self._expanded[right] = None
        return self._expanded[right]

    def incompatible(self, r1: str, r2: str) -> bool:
        key = frozenset((r1, r2))
        if key not in self._incompatible:
            e1, e2 = self.expansion(r1), self.expansion(r2)
            self._incompatible[key] = (e1 is not None and e2 is not None
                                       and not satisfiable(("&", (e1, e2))))
        return self._incompatible[key]

    def checked_pairs(self) -> list:
        """The right pairs whose compatibility the assessments so far needed."""
        return [tuple(sorted(p)) for p in self._incompatible]

    def atoms(self, right: str) -> set:
        out, todo = set(), [self.expansion(right)]
        while todo:
            f = todo.pop()
            if isinstance(f, str):
                out.add(f)
            elif f is not None:
                todo.extend([f[1]] if f[0] == "!" else f[1])
        return out

    # -- one scenario ----------------------------------------------------------

    def fired(self, sid: str) -> list:
        features = self.scenarios[sid].features
        return [r for r in self.rules if r.body <= features]

    def assess(self, sid: str) -> Findings:
        if sid in self._findings:
            return self._findings[sid]
        fired = self.fired(sid)
        conclusions: dict[str, dict[str, list]] = {}
        for r in fired:
            if r.kind in ("promotes", "demotes", "not_demotes"):
                conclusions.setdefault(r.rights[0], {}).setdefault(r.kind, []).append(r.strength)
        statuses, diagnostics = {}, []
        for right, heads in conclusions.items():
            bar = max(heads.get("not_demotes", []), default=None)
            demotes = [s for s in heads.get("demotes", []) if bar is None or s > bar]
            p = max(heads.get("promotes", []), default=None)
            d = max(demotes, default=None)
            if p is not None and d is not None and p == d:
                statuses[right] = UNDEFINED
                diagnostics.append(
                    f"warning[ambiguity]: right {right!r}: promote and demote "
                    f"conclusions tie at strength {p}; status undefined")
            elif p is None and d is None:
                statuses[right] = UNDEFINED
            elif d is None or (p is not None and p > d):
                statuses[right] = PROMOTED
            else:
                statuses[right] = DEMOTED
        for r in fired:
            for right in r.rights:
                statuses.setdefault(right, UNDEFINED)

        explicit, blocks = {}, {}
        for r in fired:
            if r.kind in ("collides", "not_collides"):
                target = explicit if r.kind == "collides" else blocks
                pair = frozenset(r.rights)
                target[pair] = max(target.get(pair, r.strength), r.strength)
        candidates = dict(explicit)
        for r1, r2 in itertools.combinations(sorted(statuses), 2):
            derived = {statuses[r1], statuses[r2]} == {PROMOTED, DEMOTED}
            if self.incompatible(r1, r2) or derived:
                pair = frozenset((r1, r2))
                candidates[pair] = max(candidates.get(pair, 0), 0)
        collisions = {pair for pair, s in candidates.items()
                      if not (pair in blocks and blocks[pair] >= s)}

        chains = [r for r in fired if r.kind == "chain"]
        adopted, demoted, chained = [], [], set()
        for chain in chains:
            y = len(chain.rights)
            taken = []
            for x, right in enumerate(chain.rights, start=1):
                chained.add(right)
                if statuses[right] == DEMOTED:
                    demoted.append((right, chain.id, x, y))
                elif all(frozenset((right, t)) not in collisions for t in taken):
                    taken.append(right)
                    adopted.append((right, chain.id, x, y))
        for right in sorted(set(statuses) - chained):
            if statuses[right] == PROMOTED:
                adopted.append((right, SINGLETON, 1, 1))
            elif statuses[right] == DEMOTED:
                demoted.append((right, SINGLETON, 1, 1))

        found = Findings(sid, statuses, collisions, chains, adopted, demoted,
                         diagnostics, fired)
        self._findings[sid] = found
        return found

    # -- whole knowledge base --------------------------------------------------

    def monotonicity(self) -> list:
        raw = {}
        for s in self.kb.scenarios:
            fired = self.fired(s.id)
            raw[s.id] = ({r.rights[0] for r in fired if r.kind == "promotes"},
                         {r.rights[0] for r in fired if r.kind == "demotes"})
        out = []
        for sub in self.kb.scenarios:
            for sup in self.kb.scenarios:
                if sub.id == sup.id or not sub.features <= sup.features:
                    continue
                (sup_p, sup_d), (sub_p, sub_d) = raw[sup.id], raw[sub.id]
                out += [f"warning[monotonicity]: {sup.id!r} promotes {r!r} while "
                        f"feature-subset scenario {sub.id!r} demotes it"
                        for r in sorted(sup_p & sub_d)]
                out += [f"warning[monotonicity]: {sup.id!r} demotes {r!r} while "
                        f"feature-subset scenario {sub.id!r} promotes it"
                        for r in sorted(sup_d & sub_p)]
        return out

    def domain_degree(self, did: str) -> Fraction:
        return sum((self.assess(s).degree for s in self.domains[did].scenarios), Fraction(0))

    def units(self, purpose_id=None, domain_id=None) -> dict:
        """Degree per minimization unit: the domain's scenarios, or the purpose's domains."""
        if purpose_id is not None:
            purpose = next(p for p in self.kb.purposes if p.id == purpose_id)
            return {d: self.domain_degree(d) for d in purpose.domains}
        return {s: self.assess(s).degree for s in self.domains[domain_id].scenarios}

    def band(self, sid: str):
        a = self.annotations.get(sid)
        if a is None:
            return None
        likelihood = max(1, min(5, a.hazard - a.response + 3))
        total = a.intensity + a.sensitivity + a.vulnerability
        severity = int(Fraction(total, 3) + Fraction(1, 2))
        product = likelihood * severity
        return next(name for upper, name in BANDS if product <= upper)

    # -- explain ---------------------------------------------------------------

    def explain(self, sid: str, kind: str, rights: tuple) -> dict:
        """What `explain` should answer: {"code": 0, "line": first output line}
        if the conclusion is derivable; else {"code": 1, "line": the blocked
        step}, or, where a rule could conclude it but its body does not hold,
        {"code": 1, "label": ..., "nearest": {rule id: missing literals}} for
        every candidate rule with the fewest missing literals."""
        found = self.assess(sid)
        if kind in ("promotes", "demotes", "not_demotes"):
            hits = [r for r in found.fired if r.kind == kind and r.rights[0] == rights[0]]
            if hits:
                best = max(hits, key=lambda r: r.strength)   # first of the strongest
                return {"code": 0, "line": f"{best.head_text()}  [{best.id}]"}
            return self._nearest(sid, f"{kind}({rights[0]})",
                                 lambda r: r.kind == kind and r.rights[0] == rights[0])
        if kind == "collides":
            pair = frozenset(rights)
            if pair not in found.collisions:
                return self._nearest(sid, f"collides({sorted(pair)})",
                                     lambda r: r.kind == "collides" and frozenset(r.rights) == pair)
            explicit = [r for r in found.fired
                        if r.kind == "collides" and frozenset(r.rights) == pair]
            if explicit:
                return {"code": 0, "line": f"{explicit[0].head_text()}  [{explicit[0].id}]"}
            r1, r2 = sorted(pair)
            reason = ("logically incompatible definitions" if self.incompatible(r1, r2)
                      else "one right promoted and the other demoted in the same scenario")
            return {"code": 0, "line": f"collides({r1}, {r2})  [{reason}]"}
        if kind == "choice":
            right = rights[0]
            occs = sorted((o for o in found.adopted if o[0] == right),
                          key=lambda o: (o[1], o[2]))
            if not occs:
                status = found.statuses.get(right)
                if status == DEMOTED:
                    line = f"{right!r} is demoted in {sid}"
                elif status is None:
                    line = f"{right!r} is not in scope of {sid}"
                else:
                    line = (f"{right!r} has status {status} in {sid} "
                            "and no fired chain or promotion adopts it")
                return {"code": 1, "line": line}
            _, chain_id, x, _ = occs[0]
            if chain_id == SINGLETON:
                rule = "singleton_adoption"
            elif x == 1:
                rule = "right_adoption_1"
            else:
                chain = next(c for c in found.chains if c.id == chain_id)
                before = chain.rights[:x - 1]
                all_demoted = all(found.statuses.get(r) == DEMOTED for r in before)
                rule = "right_adoption_2" if x == 2 and all_demoted else "right_adoption_3"
            return {"code": 0, "line": f"choice({sid}, {right})  [{rule}]"}
        raise ValueError(kind)

    def _nearest(self, sid: str, label_text: str, match) -> dict:
        features = self.scenarios[sid].features
        missing = {r.id: sorted(str(lit) for lit in r.body - features)
                   for r in self.rules if match(r)}
        if not missing:
            return {"code": 1, "line": f"not derivable: no rule concludes {label_text}"}
        fewest = min(len(m) for m in missing.values())
        return {"code": 1, "label": label_text,
                "nearest": {rid: m for rid, m in missing.items() if len(m) == fewest}}

    # -- expected CLI outputs --------------------------------------------------

    def scenario_json(self, sid: str) -> dict:
        f = self.assess(sid)
        return {
            "scenario": sid,
            "statuses": dict(sorted(f.statuses.items())),
            "collisions": sorted(sorted(p) for p in f.collisions),
            "adopted": sorted(label(o) for o in f.adopted),
            "demoted": sorted(label(o) for o in f.demoted),
            "degree": frac(f.degree), "xi": frac(f.xi), "delta": frac(f.delta),
            "diagnostics": list(f.diagnostics),
        }

    def scenario_text(self, sid: str) -> list:
        f = self.assess(sid)
        statuses = " ".join(f"{r}={s}" for r, s in sorted(f.statuses.items()))
        lines = [f"scenario {sid}:", f"  statuses: {statuses or '(none)'}"]
        if f.collisions:
            pairs = sorted(sorted(p) for p in f.collisions)
            lines.append("  collisions: " + "; ".join("(" + ", ".join(p) + ")" for p in pairs))
        adopted = " ".join(sorted(label(o) for o in f.adopted))
        demoted = " ".join(sorted(label(o) for o in f.demoted))
        lines.append(f"  adopted: {adopted or '(none)'}")
        lines.append(f"  demoted: {demoted or '(none)'}")
        lines.append(f"  degree: {frac(f.degree)} (xi={frac(f.xi)}, delta={frac(f.delta)})")
        lines += [f"  {d}" for d in f.diagnostics]
        return lines + self.monotonicity()

    def maximizers(self, units: dict):
        """(optimum, first MAXIMIZER_CAP maximizers in canonical order, count)."""
        positives = sorted(u for u, d in units.items() if d > 0)
        zeros = sorted(u for u, d in units.items() if d == 0)
        if not positives and not zeros:
            best = max(units.values())
            family = [(u,) for u in sorted(units) if units[u] == best]
            return best, family[:MAXIMIZER_CAP], len(family)
        optimum = sum((units[u] for u in positives), Fraction(0))
        count = 2 ** len(zeros) - (0 if positives else 1)
        family = []
        for dropped in range(len(zeros) + 1):       # largest subsets first
            level = sorted(tuple(sorted(positives + list(kept)))
                           for kept in itertools.combinations(zeros, len(zeros) - dropped))
            family += [s for s in level if s]
            if len(family) >= MAXIMIZER_CAP:
                break
        return optimum, family[:MAXIMIZER_CAP], count

    def fria(self, fixed_time: str, domain_id=None, purpose_id=None) -> dict:
        """The report `fria --format json` should print, as parsed JSON."""
        from rightsrisk.dsl import print_kb   # the canonical form the hash covers
        selector = domain_id or purpose_id
        if purpose_id is not None:
            purpose = next(p for p in self.kb.purposes if p.id == purpose_id)
            order = [s for d in purpose.domains for s in self.domains[d].scenarios]
        else:
            order = list(self.domains[domain_id].scenarios)
        units = self.units(purpose_id=purpose_id, domain_id=domain_id)
        optimum, family, count = self.maximizers(units)
        # A purpose sums its domains, so a scenario in two domains counts twice.
        xi = sum((self.assess(s).xi for s in order), Fraction(0))
        delta = sum((self.assess(s).delta for s in order), Fraction(0))
        diagnostics = self.monotonicity()
        for sid in dict.fromkeys(order):
            diagnostics += self.assess(sid).diagnostics
        obligations = {}
        for o in self.kb.obligations:
            obligations.setdefault(o.applies_to, []).append(o.id)
        scenarios = []
        for sid in sorted(set(order)):
            f = self.assess(sid)
            scenarios.append({
                "scenario": sid,
                "statuses": dict(sorted(f.statuses.items())),
                "demoted": sorted({o[0] for o in f.demoted}),
                "collisions": sorted(sorted(p) for p in f.collisions),
                "adopted": sorted(label(o) for o in f.adopted),
                "degree": frac(f.degree),
                "band": self.band(sid),
                "obligations": obligations.get(sid, []),
            })
        return {
            "meta": {
                "title": f"Fundamental rights impact assessment: {selector}",
                "generated_at": fixed_time,
                "kb_hash": hashlib.sha256(print_kb(self.kb).encode("utf-8")).hexdigest(),
                "selector": selector,
                "kind": "purpose" if purpose_id is not None else "domain",
            },
            "process": "",
            "scenarios": scenarios,
            "oversight": "",
            "mitigation": {"text": "", "recommended_subset": list(family[0]),
                           "optimal_degree": frac(optimum)},
            "degrees": {
                "per_scenario": {s["scenario"]: s["degree"] for s in scenarios},
                "xi": frac(xi), "delta": frac(delta), "total": frac(xi - delta),
            },
            "minimization": {
                "optimal_degree": frac(optimum),
                "maximizers": [list(m) for m in family],
                "maximizer_count": count,
                "canonical": list(family[0]),
                "method": "fast-path",
            },
            "checklist": None,            # checked for shape only
            "diagnostics": diagnostics,
        }


def first_difference(expected, actual, path="$"):
    """Path and values of the first field where two JSON values differ, or None."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                return f"{path}.{key}: present in only one side"
            diff = first_difference(expected[key], actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, expected {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            diff = first_difference(e, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if expected != actual:
        return f"{path}: got {actual!r}, expected {expected!r}"
    return None


def check_fria(expected: dict, actual: dict):
    """First disagreement between the reference and a parsed `fria` report, or None."""
    checklist = actual.get("checklist")
    if (not isinstance(checklist, list) or len(checklist) != CHECKLIST_ITEMS
            or any(c.get("status") != "unaddressed" or not c.get("item") for c in checklist)):
        return "$.checklist: expected eleven unaddressed Art. 26 items"
    return first_difference(expected, dict(actual, checklist=None))


BLOCKED_RE = re.compile(r"^not derivable: rule '([^']*)' concludes (.*) but "
                        r"requires \{(.*)\} not present in (\S+)$")


def check_explain(expected: dict, sid: str, code: int, out: str, err: str):
    """First disagreement between the reference and an `explain` call, or None.
    A blocked answer must be printed on stdout with nothing on stderr, so a
    call that fails with an error message does not pass for one."""
    first = (out.splitlines() or [""])[0]
    if code != expected["code"] or err:
        return f"exit {code}, stderr {err.strip()[:80]!r}; expected exit {expected['code']}"
    if "line" in expected:
        return None if first == expected["line"] else \
            f"first line {first!r}, expected {expected['line']!r}"
    m = BLOCKED_RE.match(first)
    if (not m or m.group(2) != expected["label"] or m.group(4) != sid
            or m.group(1) not in expected["nearest"]
            or sorted(filter(None, m.group(3).split(", "))) != expected["nearest"][m.group(1)]):
        return (f"first line {first!r}, expected the nearest rule to {expected['label']} "
                f"among {sorted(expected['nearest'])}")
    return None
