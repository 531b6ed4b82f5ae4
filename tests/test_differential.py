"""Whole-pipeline differential oracle. On seeded random KBs, the CLI's
`fria --format json`, `explain` and `minimize --json` answers are compared
with the benchmark's independent evaluator (`perfbench/reference.py`),
which shares no code with the engine, scoring or minimizer. A disagreement
names the KB's seed, the call and the first differing path."""
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from kb_random import random_kb
from rightsrisk import cli
from rightsrisk.dsl import parse_kb, print_kb

ROOT = Path(__file__).resolve().parent.parent
FIXED_TIME = "2026-01-01T00:00:00+00:00"
KBS = 100
EXPLAIN_SAMPLE = 12   # explain calls per scenario
MINIMIZATION = ("optimal_degree", "maximizers", "maximizer_count", "canonical",
                "method")


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = load_reference()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def selections(kb):
    """(CLI flag, reference keyword, id) for every domain and purpose."""
    return ([("--domain", "domain_id", d.id) for d in kb.domains]
            + [("--purpose", "purpose_id", p.id) for p in kb.purposes])


def explain_sample(rng, ref, sid):
    """At most EXPLAIN_SAMPLE (kind, rights, conclusion) triples for `sid`,
    one of each kind first; `choice` and `collides` ask about an adopted
    right or a collision when there is one. Half the conclusions name the
    scenario first."""
    rights = sorted(r.id for r in ref.kb.rights)
    candidates = {kind: [(r,) for r in rights]
                  for kind in ("promotes", "demotes", "not_demotes", "choice")}
    candidates["collides"] = list(itertools.combinations(rights, 2))
    found = ref.assess(sid)
    favoured = {"choice": [(r,) for r in sorted({o[0] for o in found.adopted})],
                "collides": sorted(tuple(sorted(p)) for p in found.collisions)}
    picked = [(kind, rng.choice(favoured.get(kind) or args))
              for kind, args in candidates.items()]
    rest = [(kind, a) for kind, args in candidates.items() for a in args
            if (kind, a) not in picked]
    picked += rng.sample(rest, min(EXPLAIN_SAMPLE - len(picked), len(rest)))
    for kind, args in picked:
        named = (sid,) + args if rng.random() < 0.5 else args
        yield kind, args, f"{kind}({', '.join(named)})"


@pytest.mark.parametrize("block", range(4))
def test_cli_agrees_with_the_reference(capsys, monkeypatch, tmp_path, block):
    # one argument parser for all calls: building it is half of a small call
    monkeypatch.setattr(cli, "build_arg_parser", lambda parser=cli.build_arg_parser(): parser)
    for seed in range(block * KBS // 4, (block + 1) * KBS // 4):
        rng = random.Random(seed)
        text = print_kb(random_kb(rng, with_extras=True))
        path = tmp_path / f"kb{seed}.rights"
        path.write_text(text, encoding="utf-8")
        kb = parse_kb(text)
        ref = reference.Reference(kb)
        for flag, keyword, selected in selections(kb):
            code, out, err = run(capsys, "fria", str(path), flag, selected,
                                 "--format", "json", "--fixed-time", FIXED_TIME)
            assert (code, err) == (0, ""), f"seed {seed} fria {flag} {selected}: {err}"
            report = json.loads(out)
            diff = reference.check_fria(ref.fria(FIXED_TIME, **{keyword: selected}), report)
            assert diff is None, f"seed {seed} fria {flag} {selected}: {diff}"

            code, out, err = run(capsys, "minimize", str(path), flag, selected, "--json")
            assert (code, err) == (0, ""), f"seed {seed} minimize {flag} {selected}: {err}"
            shared = {k: v for k, v in json.loads(out).items() if k in MINIMIZATION}
            diff = reference.first_difference(report["minimization"], shared)
            assert diff is None, f"seed {seed} minimize {flag} {selected}: {diff}"

        for sid in sorted(ref.scenarios):
            for kind, args, conclusion in explain_sample(rng, ref, sid):
                code, out, err = run(capsys, "explain", str(path), sid, conclusion)
                diff = reference.check_explain(ref.explain(sid, kind, args),
                                               sid, code, out, err)
                assert diff is None, f"seed {seed} explain {sid} {conclusion!r}: {diff}"
