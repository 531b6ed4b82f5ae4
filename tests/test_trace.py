"""The benchmark's span tracer (`perfbench/spans.py`) patches the program
where its callers look functions up. One traced `fria` checks that every
such lookup site still exists, and that a run validates once and scores
each scenario once."""
import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from rightsrisk import cli, dsl, engine, minimizer, report, scoring

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every (owner, name) that `Tracer.installed` replaces
SITES = [(dsl, "tokenize"), (cli, "parse_kb"), (cli, "validate_kb"),
         (report, "validate_kb"), (engine, "logically_incompatible")]
SITES += [(engine.Engine, m) for m in (
    "__init__", "fire_rules", "resolve_statuses", "derive_collisions", "adopt",
    "assess", "check_monotonicity", "explain")]
SITES += [(m, "degree_scenario") for m in (cli, report, scoring, minimizer)]
SITES += [(m, "degree_domain") for m in (report, minimizer, scoring)]
SITES += [(report, "degree_purpose"), (report, "minimize_domain"),
          (report, "minimize_purpose"), (report, "assess_annotation"),
          (report, "kb_hash"), (cli, "build_bundle"), (cli, "build_report"),
          (cli, "render")]


@contextlib.contextmanager
def counting_degree_scenario(scored: Counter):
    """Count `degree_scenario` calls by scenario at each of its lookup sites."""
    owners = (cli, report, scoring, minimizer)
    saved = [owner.degree_scenario for owner in owners]

    def counted(fn):
        def call(findings):
            scored[findings.scenario] += 1
            return fn(findings)
        return call
    try:
        for owner, fn in zip(owners, saved):
            owner.degree_scenario = counted(fn)
        yield
    finally:
        for owner, fn in zip(owners, saved):
            owner.degree_scenario = fn


@pytest.mark.parametrize("selector, scenarios", [
    (("--purpose", "P_triage"), {"S_routine", "S_emergency", "S_outbreak"}),
    (("--domain", "D_clinic"), {"S_routine", "S_emergency"}),
])
def test_one_traced_fria(selector, scenarios):
    program = SimpleNamespace(cli=cli, dsl=dsl, engine=engine, report=report,
                              scoring=scoring, minimizer=minimizer)
    tracer = load_spans().Tracer()
    scored = Counter()
    out = io.StringIO()
    unpatched = [vars(owner)[name] for owner, name in SITES]
    with tracer.installed(program):
        for (owner, name), fn in zip(SITES, unpatched):
            assert vars(owner)[name] is not fn, (owner, name)
        tracer.begin_op()
        with counting_degree_scenario(scored), contextlib.redirect_stdout(out):
            code = cli.main(["fria", str(ROOT / "fixtures" / "triage.rights"), *selector,
                             "--format", "json", "--fixed-time", "2026-01-01T00:00:00Z"])
    assert code == 0 and '"kb_hash"' in out.getvalue()
    assert [vars(owner)[name] for owner, name in SITES] == unpatched
    assert scored == Counter(scenarios)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["model.validate"] == 1
    assert calls["report.build_bundle"] == 1
