"""Whole-pipeline differential oracle. On seeded random KBs, the CLI's
`fria --format json`, `explain`, `minimize --json` and `assess --scenario`
(JSON and text) answers are compared with the benchmark's independent
evaluator (`perfbench/reference.py`), which shares no code with the
engine, scoring or minimizer. A second set of KBs adds refinement
scenarios, so that monotonicity warnings are compared too, and small
versions of the benchmark's workload shapes add many rights defined over
shared basic rights. A disagreement names the KB's seed, the call and the
first differing path."""
import dataclasses
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from kb_random import random_kb, with_refinements
from rightsrisk import cli
from rightsrisk.dsl import parse_kb, print_kb

ROOT = Path(__file__).resolve().parent.parent
FIXED_TIME = "2026-01-01T00:00:00+00:00"
KBS = 100
EXPLAIN_SAMPLE = 12   # explain calls per scenario
MINIMIZATION = ("optimal_degree", "maximizers", "maximizer_count", "canonical",
                "method")


def load_perfbench(name):
    """`perfbench/<name>.py`, imported by path under its own name, by which
    the benchmark's modules import each other."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


reference = load_perfbench("reference")
gen = load_perfbench("gen")


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


def write_kb(tmp_path, name, kb):
    """`kb` printed to `tmp_path / name`: its path, and the KB parsed back."""
    text = print_kb(kb)
    path = tmp_path / f"{name}.rights"
    path.write_text(text, encoding="utf-8")
    return str(path), parse_kb(text)


def check_reports(capsys, label, path, ref):
    """`fria --format json` and `minimize --json` for every domain and
    purpose, against the reference; the parsed reports."""
    reports = []
    for flag, keyword, selected in selections(ref.kb):
        code, out, err = run(capsys, "fria", path, flag, selected,
                             "--format", "json", "--fixed-time", FIXED_TIME)
        assert (code, err) == (0, ""), f"{label} fria {flag} {selected}: {err}"
        report = json.loads(out)
        diff = reference.check_fria(ref.fria(FIXED_TIME, **{keyword: selected}), report)
        assert diff is None, f"{label} fria {flag} {selected}: {diff}"

        code, out, err = run(capsys, "minimize", path, flag, selected, "--json")
        assert (code, err) == (0, ""), f"{label} minimize {flag} {selected}: {err}"
        shared = {k: v for k, v in json.loads(out).items() if k in MINIMIZATION}
        diff = reference.first_difference(report["minimization"], shared)
        assert diff is None, f"{label} minimize {flag} {selected}: {diff}"
        reports.append(report)
    return reports


def check_scenarios(capsys, label, path, ref):
    """`assess --scenario --json` and text `assess --scenario` for every
    scenario, against the reference; the number of monotonicity lines in
    the text answers."""
    warnings = 0
    for sid in sorted(ref.scenarios):
        call = f"{label} assess --scenario {sid}"
        code, out, err = run(capsys, "assess", path, "--scenario", sid, "--json")
        assert (code, err) == (0, ""), f"{call} --json: {err}"
        diff = reference.first_difference(ref.scenario_json(sid), json.loads(out))
        assert diff is None, f"{call} --json: {diff}"

        code, out, err = run(capsys, "assess", path, "--scenario", sid)
        assert (code, err) == (0, ""), f"{call}: {err}"
        diff = reference.first_difference(ref.scenario_text(sid), out.splitlines())
        assert diff is None, f"{call}: {diff}"
        warnings += out.count("[monotonicity]")
    return warnings


@pytest.mark.parametrize("block", range(4))
def test_cli_agrees_with_the_reference(capsys, tmp_path, block):
    for seed in range(block * KBS // 4, (block + 1) * KBS // 4):
        rng = random.Random(seed)
        path, kb = write_kb(tmp_path, f"kb{seed}", random_kb(rng, with_extras=True))
        ref = reference.Reference(kb)
        check_reports(capsys, f"seed {seed}", path, ref)
        for sid in sorted(ref.scenarios):
            for kind, args, conclusion in explain_sample(rng, ref, sid):
                code, out, err = run(capsys, "explain", path, sid, conclusion)
                diff = reference.check_explain(ref.explain(sid, kind, args),
                                               sid, code, out, err)
                assert diff is None, f"seed {seed} explain {sid} {conclusion!r}: {diff}"


def test_refinements_agree_with_the_reference(capsys, tmp_path):
    """KBs whose refinement scenarios add a literal to a base scenario, so
    that monotonicity warnings occur and are compared."""
    warnings = 0
    for seed in range(KBS):
        rng = random.Random(seed)
        kb = with_refinements(random_kb(rng, with_extras=True), rng)
        path, kb = write_kb(tmp_path, f"refined{seed}", kb)
        for report in check_reports(capsys, f"refined seed {seed}", path,
                                    reference.Reference(kb)):
            warnings += sum("[monotonicity]" in d for d in report["diagnostics"])
    assert warnings > 0


@pytest.mark.parametrize("refined", [False, True], ids=["random", "refined"])
def test_assess_scenario_agrees_with_the_reference(capsys, tmp_path, refined):
    """Every scenario of the KBs above, in both forms of `assess --scenario`;
    the text form ends with the KB's monotonicity warnings."""
    warnings = 0
    for seed in range(KBS):
        rng = random.Random(seed)
        kb = random_kb(rng, with_extras=True)
        if refined:
            kb = with_refinements(kb, rng)
        label = f"{'refined ' if refined else ''}seed {seed}"
        path, kb = write_kb(tmp_path, f"kb{seed}", kb)
        warnings += check_scenarios(capsys, label, path, reference.Reference(kb))
    assert warnings > 0 or not refined


def small_shapes():
    """Each benchmark workload's shape, cut to 12 scenarios, 4 domains and 2
    zero-degree units. `perfbench/run.py` puts its own directory on
    `sys.path`; that entry is taken out again."""
    saved = list(sys.path)
    try:
        workloads = load_perfbench("run").WORKLOADS
    finally:
        sys.path[:] = saved
    return {name: dataclasses.replace(w.shape, scenarios=12, domains=min(w.shape.domains, 4),
                                      zeros=min(w.shape.zeros, 2))
            for name, w in workloads.items()}


SHAPES = small_shapes()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_benchmark_shapes_agree_with_the_reference(capsys, tmp_path, name):
    """The benchmark generator's KBs, at seeds 0-4: many rights defined over
    shared contested basic rights, so many right pairs share an atom."""
    for seed in range(5):
        text = gen.generate(name, SHAPES[name], seed, parse_kb).text
        path = tmp_path / f"{name}{seed}.rights"
        path.write_text(text, encoding="utf-8")
        ref = reference.Reference(parse_kb(text))
        label = f"{name} seed {seed}"
        check_reports(capsys, label, str(path), ref)
        check_scenarios(capsys, label, str(path), ref)
