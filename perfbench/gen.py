"""Seeded generator of `.rights` knowledge bases at benchmark scale.

Scales up the ideas of `tests/kb_random.py`: atomic and defined rights,
scenarios over shared feature atoms, per-scenario asserts (a priority
chain plus promote/demote/collide statements), guarded rules with
strengths, refinement scenarios whose feature sets contain an earlier
scenario's (so that scenario's asserts fire in them too), obligations and
risk annotations.

The number of zero-degree minimization units is exact, because the subset
search costs 2^z in it. Zero-degree scenarios promote one right and demote
another over feature atoms no rule reads. Any other unit that comes out at
degree 0 gets one more `promotes` of a fresh right, checked with the
reference evaluator, until none does.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from reference import Reference

FEATURES = 5          # feature literals per scenario
POOL = 40             # shared feature atoms
ANNOTATED = 0.25      # share of scenarios with a risk annotation
OBLIGATED = 0.1       # share of scenarios with an obligation


@dataclass(frozen=True)
class Shape:
    scenarios: int                # S
    rights: int                   # atomic fundamental rights
    defined: int = 0              # rights defined over basic rights
    basics: int = 0               # uncontested basic rights definitions draw from
    contested: int = 0            # basic rights definitions take with either sign
    def_atoms: int = 0            # basic-right leaves per definition
    asserts: int = 2              # predicate asserts per scenario, besides its chain
    chain: int = 3                # length of the chain asserted in each scenario (>= 2)
    rules: int = 0                # explicit guarded rules
    refine: float = 0.0           # share of scenarios refining an earlier one
    zeros: int = 0                # zero-degree units (domains if domains > 1)
    domains: int = 1              # > 1: one purpose over this many domains


PRED_WEIGHTS = (("promotes", 8), ("demotes", 7), ("not_demotes", 2),
                ("collides", 2), ("not_collides", 1))


@dataclass
class Generated:
    text: str
    selector: tuple          # ("--domain", id) or ("--purpose", id)
    pads: int                # promotes added to keep non-zero units non-zero


def _pick_kind(rng: random.Random) -> str:
    kinds, weights = zip(*PRED_WEIGHTS)
    return rng.choices(kinds, weights)[0]


def _definition(rng: random.Random, shape: Shape) -> str:
    """A conjunction of positive basic rights and one contested basic right
    of random polarity: two definitions that take a contested right with
    opposite signs can never hold together."""
    leaves = [f"b{a}" for a in sorted(rng.sample(range(shape.basics), shape.def_atoms - 1))]
    leaves.append(("!" if rng.random() < 0.5 else "") + f"v{rng.randrange(shape.contested)}")
    return " & ".join(leaves)


class _Builder:
    def __init__(self, shape: Shape, rng: random.Random):
        self.shape, self.rng = shape, rng
        self.rights = [f"r{i}" for i in range(shape.rights)] + \
                      [f"d{i}" for i in range(shape.defined)]
        self.features: dict[str, list[str]] = {}
        self.asserts: list[tuple[str, str]] = []      # (head, scenario)

    def literals(self, prefix: str, n: int) -> list[str]:
        atoms = self.rng.sample(range(POOL), n)
        return [("!" if self.rng.random() < 0.5 else "") + f"{prefix}{a}" for a in atoms]

    def pred(self, sid: str, right: str, scope: list[str]) -> None:
        kind = _pick_kind(self.rng)
        if kind in ("collides", "not_collides"):
            other = self.rng.choice([r for r in scope if r != right])
            self.asserts.append((f"{kind}({right}, {other})", sid))
        else:
            self.asserts.append((f"{kind}({right})", sid))

    def scenario(self, sid: str, base: str | None) -> None:
        shape, rng = self.shape, self.rng
        if base is None:
            lits = [f"t{sid}"] + self.literals("f", FEATURES - 1)
        else:
            taken = {l.lstrip("!") for l in self.features[base]}
            extra = next(l for l in self.literals("f", FEATURES)
                         if l.lstrip("!") not in taken)
            lits = self.features[base] + [f"t{sid}", extra]
        self.features[sid] = lits
        # The asserts name a fixed number of distinct rights, so the right
        # pairs each scenario checks, and their cost, vary little by seed:
        # one assert on a chain member, one on each other right.
        others = shape.asserts - 1
        scope = rng.sample(self.rights, shape.chain + others)
        chain = scope[:shape.chain]
        self.asserts.append((" > ".join(chain), sid))
        for right in [rng.choice(chain)] + scope[shape.chain:]:
            self.pred(sid, right, scope)

    def zero_scenario(self, sid: str) -> None:
        # features from a pool no rule body reads; +1 - 1 = 0
        self.features[sid] = [f"t{sid}"] + self.literals("g", FEATURES - 1)
        up, down = self.rng.sample(self.rights, 2)
        self.asserts += [(f"promotes({up})", sid), (f"demotes({down})", sid)]

    def explicit_rules(self) -> list[str]:
        # heads name atomic rights only, so the defined-right pairs a scenario
        # checks come from its own asserts and their number varies little by seed
        atomic = [f"r{i}" for i in range(self.shape.rights)]
        out = []
        for k in range(self.shape.rules):
            body = " & ".join(self.literals("f", self.rng.randint(1, 2)))
            if self.rng.random() < 0.15:
                head = " > ".join(self.rng.sample(atomic, self.rng.randint(2, 3)))
            else:
                kind = _pick_kind(self.rng)
                n = 2 if kind in ("collides", "not_collides") else 1
                head = f"{kind}({', '.join(self.rng.sample(atomic, n))})"
            strength = self.rng.choice((-1, 0, 1, 2))
            tag = f" [{strength}]" if strength else ""
            out.append(f"rule x{k}{tag}: {body} => {head};")
        return out


def generate(workload: str, shape: Shape, seed: int, parse_kb) -> Generated:
    """The workload's knowledge base for this seed; same seed, same text.
    `parse_kb` is the program's parser, used to check units with the reference."""
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(shape, rng)
    ids = [f"s{i}" for i in range(shape.scenarios)]
    purpose_mode = shape.domains > 1

    if purpose_mode:
        per = shape.scenarios // shape.domains
        groups = [ids[i * per:(i + 1) * per] for i in range(shape.domains)]
        groups[-1] += ids[shape.domains * per:]
        zero_domains = set(rng.sample(range(shape.domains), shape.zeros))
        zero_ids = {s for i in zero_domains for s in groups[i]}
        domains = [(f"D{i}", g) for i, g in enumerate(groups)]
    else:
        zero_ids = set(rng.sample(ids, shape.zeros))
        domains = [("D", ids)]

    bases: list[str] = []
    for sid in ids:
        if sid in zero_ids:
            b.zero_scenario(sid)
            continue
        base = rng.choice(bases) if bases and rng.random() < shape.refine else None
        b.scenario(sid, base)
        if base is None:
            bases.append(sid)

    basics = [f"b{i}" for i in range(shape.basics)] + [f"v{i}" for i in range(shape.contested)]
    decls = [f"basic {', '.join(basics)};"] if basics else []
    decls += [f"right r{i};" for i in range(shape.rights)]
    decls += [f"right d{k} := {_definition(rng, shape)};" for k in range(shape.defined)]
    body = [f"scenario {sid} {{ {', '.join(b.features[sid])} }}" for sid in ids]
    body += [f"domain {did} {{ {', '.join(members)} }}" for did, members in domains]
    if purpose_mode:
        body.append(f"purpose P {{ {', '.join(did for did, _ in domains)} }}")
    for sid in ids:
        if rng.random() < OBLIGATED:
            body.append(f'obligation o_{sid} "Review the deployment in {sid}" applies {sid};')
    rules = b.explicit_rules()
    risks = []
    for sid in ids:
        if rng.random() < ANNOTATED:
            values = [rng.randint(1, 5) for _ in range(5)]
            risks.append("risk {} {{ hazard: {}, response: {}, intensity: {}, "
                         "sensitivity: {}, vulnerability: {} }}".format(sid, *values))
    selector = ("--purpose", "P") if purpose_mode else ("--domain", "D")

    def render(pads: list[tuple[str, str]]) -> str:
        lines = decls + [f"right {p};" for p, _ in pads] + body
        lines += [f"assert {h} in {s};" for h, s in b.asserts]
        lines += [f"assert promotes({p}) in {s};" for p, s in pads]
        return "\n".join(lines + rules + risks) + "\n"

    zero_units = {domains[i][0] for i in zero_domains} if purpose_mode else zero_ids
    members = dict(domains)
    pads: list[tuple[str, str]] = []
    for _ in range(8):
        text = render(pads)
        ref = Reference(parse_kb(text))
        units = ref.units(purpose_id="P") if purpose_mode else ref.units(domain_id="D")
        stuck = [members[u][0] if purpose_mode else u for u, degree in sorted(units.items())
                 if degree == 0 and u not in zero_units]
        if not stuck:
            return Generated(text, selector, len(pads))
        pads += [(f"pad{len(pads) + i}", sid) for i, sid in enumerate(stuck)]
    raise RuntimeError(f"{workload}: could not keep non-zero units away from 0")
