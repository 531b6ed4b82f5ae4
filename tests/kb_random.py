"""Seeded random knowledge-base generator for round-trip and oracle tests."""
import random

from rightsrisk.model import (AndExpr, AssertStmt, BasicRight, ChainHead,
                              DeploymentDomain, FeatureLiteral,
                              FundamentalRight, KnowledgeBase, NotExpr,
                              Obligation, OrExpr, PredHead, Purpose, RightRef,
                              RiskAnnotation, Rule, Scenario)

ATOM_POOL = [f"f{i}" for i in range(10)]


def _features(rng: random.Random, lo=1, hi=4) -> frozenset:
    atoms = rng.sample(ATOM_POOL, rng.randint(lo, hi))
    return frozenset(FeatureLiteral(a, rng.random() < 0.7) for a in atoms)


def _right_expr(rng: random.Random, basics, depth=0):
    if depth >= 2 or rng.random() < 0.5:
        return RightRef(rng.choice(basics))
    roll = rng.random()
    if roll < 0.4:
        return AndExpr(tuple(_right_expr(rng, basics, depth + 1)
                             for _ in range(rng.randint(2, 3))))
    if roll < 0.8:
        return OrExpr(tuple(_right_expr(rng, basics, depth + 1)
                            for _ in range(rng.randint(2, 3))))
    return NotExpr(_right_expr(rng, basics, depth + 1))


def random_kb(rng: random.Random, max_scenarios=12, max_chain=4,
              with_extras=False) -> KnowledgeBase:
    """A structurally valid kb: consistent polarities, declared references,
    no duplicate ids. `with_extras` adds definitions, obligations,
    purposes, and risk annotations (for round-trip coverage)."""
    kb = KnowledgeBase()

    n_basic = rng.randint(0, 3) if with_extras else 0
    kb.basic_rights = [BasicRight(f"b{i}") for i in range(n_basic)]
    basics = [b.id for b in kb.basic_rights]

    n_rights = rng.randint(2, 6)
    for i in range(n_rights):
        definition = None
        if basics and with_extras and rng.random() < 0.4:
            definition = _right_expr(rng, basics)
        kb.rights.append(FundamentalRight(f"r{i}", definition))
    rights = [r.id for r in kb.rights]

    n_scen = rng.randint(1, max_scenarios)
    for i in range(n_scen):
        kb.scenarios.append(Scenario(f"S{i}", _features(rng)))
    scen_ids = [s.id for s in kb.scenarios]

    kb.domains.append(DeploymentDomain("D", tuple(scen_ids)))
    if with_extras and rng.random() < 0.5 and n_scen >= 2:
        cut = rng.randint(1, n_scen - 1)
        kb.domains.append(DeploymentDomain("D_a", tuple(scen_ids[:cut])))
        kb.domains.append(DeploymentDomain("D_b", tuple(scen_ids[cut:])))
        kb.purposes.append(Purpose("P", ("D_a", "D_b")))

    for sid in scen_ids:
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(["promotes", "demotes", "promotes", "not_demotes"])
            kb.assertions.append(AssertStmt(sid, PredHead(kind, (rng.choice(rights),))))
        if len(rights) >= 2 and rng.random() < 0.3:
            kind = rng.choice(["collides", "not_collides"])
            pair = tuple(rng.sample(rights, 2))
            kb.assertions.append(AssertStmt(sid, PredHead(kind, pair)))

    for i in range(rng.randint(0, 4)):
        body = tuple(sorted(_features(rng, 1, 2),
                            key=lambda l: (l.atom, l.positive)))
        if len(rights) >= 2 and rng.random() < 0.5:
            length = rng.randint(2, min(max_chain, len(rights)))
            head = ChainHead(tuple(rng.sample(rights, length)))
        else:
            kind = rng.choice(["promotes", "demotes", "not_demotes"])
            head = PredHead(kind, (rng.choice(rights),))
        kb.rules.append(Rule(f"rule{i}", body, head, rng.randint(-2, 2)))

    if with_extras:
        for i, sid in enumerate(scen_ids):
            if rng.random() < 0.3:
                kb.obligations.append(Obligation(f"o{i}", f'duty "{i}"\nline', sid))
            if rng.random() < 0.3:
                kb.risk_annotations.append(RiskAnnotation(
                    sid, *[rng.randint(1, 5) for _ in range(5)]))

    return kb


def with_refinements(kb, rng):
    """`kb` plus scenarios that add one literal to an existing scenario's
    features, so a base scenario's asserts fire in its refinements."""
    for scen in list(kb.scenarios):
        atom = rng.choice([f"g{i}" for i in range(3)])
        if rng.random() < 0.5 and atom not in {lit.atom for lit in scen.features}:
            kb.scenarios.append(Scenario(f"{scen.id}_{atom}", scen.features
                                         | {FeatureLiteral(atom, rng.random() < 0.5)}))
    return kb


def with_collision_rules(kb, rng):
    """`kb` plus rules concluding collides, not_collides, promotes, demotes
    and not_demotes at strengths -3..3, with bodies drawn from the
    scenarios' literals so that they fire. The heads share at most three
    rights, so that explicit, blocked and implied collisions meet."""
    rights = rng.sample([r.id for r in kb.rights], min(3, len(kb.rights)))
    for i in range(rng.randint(2, 8)):
        features = sorted(rng.choice(kb.scenarios).features,
                          key=lambda l: (l.atom, l.positive))
        body = tuple(rng.sample(features, rng.randint(0, min(2, len(features)))))
        kind = rng.choice(["collides", "not_collides", "collides", "not_collides",
                           "promotes", "demotes", "not_demotes"])
        head = PredHead(kind, tuple(rng.sample(rights, 2 if "collides" in kind else 1)))
        kb.rules.append(Rule(f"extra{i}", body, head, rng.randint(-3, 3)))
    return kb
