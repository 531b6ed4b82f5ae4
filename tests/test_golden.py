"""Golden outputs: exit code, stdout and stderr of CLI calls on every fixture,
each `fixtures/*.rights` file.

Each `tests/golden/<fixture>.json` holds one fixture's cases; each case is
one `rightsrisk` call run in-process from the repository root.
`tests/golden/scripts.json` holds the stdout of the demo scripts. The
test replays every stored case and compares byte for byte.

To re-record after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `tests/golden/`.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = tuple(sorted(path.stem for path in (ROOT / "fixtures").glob("*.rights")))
FIXED_TIME = "2026-01-01T00:00:00Z"
# assess, minimize, explain and fria run once per variant, except that only
# assess and fria, which print monotonicity warnings, take that toggle
FLAG_VARIANTS = ((), ("--no-derived-collision",), ("--no-monotonicity-check",))
EXPLAIN_KINDS = ("promotes", "demotes", "not_demotes", "collides",
                 "not_collides", "choice")


def run_cli(argv: list[str]) -> dict:
    from rightsrisk.cli import main
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n")}


def run_script(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return {"argv": argv, "exit": proc.returncode,
            "stdout": proc.stdout.split("\n"), "stderr": proc.stderr.split("\n")}


# ---------------------------------------------------------------------------
# Recording: which calls make up the golden set
# ---------------------------------------------------------------------------

def _explain_conclusions(kb) -> list[tuple[str, str]]:
    """(scenario, conclusion) pairs: for each conclusion kind, the first
    derivable one and the first blocked one found over the scenarios."""
    from rightsrisk.engine import Engine
    engine = Engine(kb)
    picked: dict[tuple[str, bool], tuple[str, str]] = {}
    for scen in kb.scenarios:
        sid = scen.id
        findings = engine.assess(sid)
        heads = {str(f.head) for f in engine.fire_rules(sid)}
        scope = sorted(findings.statuses)
        pairs = [tuple(p) for p in itertools.combinations(scope, 2)]
        adopted = {o.right for o in findings.adopted}
        candidates = []
        for right in scope:
            for kind in ("promotes", "demotes", "not_demotes"):
                candidates.append((kind, f"{kind}({right})",
                                   f"{kind}({right})" in heads))
            candidates.append(("choice", f"choice({sid}, {right})", right in adopted))
        for a, b in pairs:
            collides = frozenset((a, b)) in findings.collisions
            candidates.append(("collides", f"collides({a}, {b})", collides))
            candidates.append(("not_collides", f"not_collides({a}, {b})", not collides))
        for kind, conclusion, derivable in candidates:
            picked.setdefault((kind, derivable), (sid, conclusion))
    return [picked[kind, derivable] for kind in EXPLAIN_KINDS
            for derivable in (True, False) if (kind, derivable) in picked]


def fixture_calls(name: str) -> list[list[str]]:
    from rightsrisk.dsl import parse_kb
    path = f"fixtures/{name}.rights"
    kb = parse_kb((ROOT / path).read_text(), file=path)
    domains = [d.id for d in kb.domains]
    has_purpose = bool(kb.purposes)

    calls = [["check", path], ["check", path, "--json"]]
    variant_calls = []
    # selection: the implicit pick (may fail), each domain, an unknown one
    for selector in [[]] + [["--domain", d] for d in domains] + [["--domain", "nope"]]:
        variant_calls += [
            ["assess", path, *selector],
            ["minimize", path, *selector],
            ["minimize", path, *selector, "--json"],
            ["fria", path, *selector, "--fixed-time", FIXED_TIME],
            ["fria", path, *selector, "--fixed-time", FIXED_TIME, "--format", "json"],
        ]
    purpose_selectors = [["--purpose", p.id] for p in kb.purposes]
    if has_purpose:
        variant_calls.append(["assess", path, "--purpose", kb.purposes[0].id])
    for selector in [["--gpai"]] + purpose_selectors + [["--purpose", "nope"]]:
        variant_calls += [
            ["minimize", path, *selector],
            ["minimize", path, *selector, "--json"],
            ["fria", path, *selector, "--fixed-time", FIXED_TIME],
            ["fria", path, *selector, "--fixed-time", FIXED_TIME, "--format", "json"],
        ]
    for scen in kb.scenarios:
        variant_calls += [["assess", path, "--scenario", scen.id],
                          ["assess", path, "--scenario", scen.id, "--json"]]
    variant_calls.append(["assess", path, "--scenario", "nope"])
    for sid, conclusion in _explain_conclusions(kb):
        variant_calls.append(["explain", path, sid, conclusion])
    if kb.scenarios:
        variant_calls.append(["explain", path, kb.scenarios[0].id, "choice["])

    for flags in FLAG_VARIANTS:
        calls += [argv + list(flags) for argv in variant_calls
                  if argv[0] in ("assess", "fria") or "--no-monotonicity-check" not in flags]
    return calls


def script_calls() -> list[list[str]]:
    calls = [["scripts/run_assessment.py"]]
    calls += [["scripts/run_assessment.py", f"fixtures/{name}.rights"] for name in FIXTURES]
    calls.append(["scripts/toggle_sweep.py"])
    return calls


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    groups = {name: [run_cli(argv) for argv in fixture_calls(name)] for name in FIXTURES}
    groups["scripts"] = [run_script(argv) for argv in script_calls()]
    for name, cases in groups.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(cases, indent=1) + "\n",
                                             encoding="utf-8")
        print(f"{name}: {len(cases)} cases")


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _stored() -> list:
    cases = []
    for name in FIXTURES + ("scripts",):
        path = GOLDEN / f"{name}.json"
        if not path.exists():
            continue
        for case in json.loads(path.read_text(encoding="utf-8")):
            shown = [a for a in case["argv"] if a != f"fixtures/{name}.rights"]
            cases.append(pytest.param(name, case, id=f"{name}:{' '.join(shown)}"))
    return cases


def test_every_fixture_has_goldens():
    for name in FIXTURES + ("scripts",):
        assert (GOLDEN / f"{name}.json").exists(), name


@pytest.mark.parametrize("group, case", _stored())
def test_golden(group, case):
    runner = run_script if group == "scripts" else run_cli
    assert runner(case["argv"]) == case


def _assess_json_selections() -> list:
    """Each `assess … --json` call without `--scenario` that the golden set
    once held (each domain, none, an unknown one and the first purpose, in
    every toggle variant), with the stored `fria … --format json` call for
    the same file, selector and toggles, which printed the same report."""
    from rightsrisk.dsl import parse_kb
    cases = []
    for name in FIXTURES:
        path = f"fixtures/{name}.rights"
        kb = parse_kb((ROOT / path).read_text(), file=path)
        selectors = [[]] + [["--domain", d.id] for d in kb.domains] + [["--domain", "nope"]]
        selectors += [["--purpose", p.id] for p in kb.purposes[:1]]
        for selector in selectors:
            for flags in FLAG_VARIANTS:
                assess = ["assess", path, *selector, "--json", *flags]
                fria = ["fria", path, *selector, "--fixed-time", FIXED_TIME,
                        "--format", "json", *flags]
                shown = " ".join(a for a in assess if a != path)
                cases.append(pytest.param(name, assess, fria, id=f"{name}:{shown}"))
    return cases


@pytest.mark.parametrize("group, assess, fria", _assess_json_selections())
def test_assess_json_names_the_stored_fria_call(group, assess, fria):
    assert run_cli(assess) == {
        "argv": assess, "exit": 2, "stdout": [""],
        "stderr": ["assess --json needs --scenario; for a domain or purpose "
                   "use fria --format json", ""]}
    stored = json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))
    assert fria in [case["argv"] for case in stored]


def _monotonicity_toggle_calls() -> list:
    """Each `minimize` or `explain` call that the golden set once held with
    `--no-monotonicity-check`: a stored call without a toggle, with the
    flag added. Each printed the same as the stored call."""
    cases = []
    for name in FIXTURES:
        path = GOLDEN / f"{name}.json"
        if not path.exists():  # test_every_fixture_has_goldens names it
            continue
        for case in json.loads(path.read_text(encoding="utf-8")):
            argv = case["argv"]
            if argv[0] in ("minimize", "explain") and "--no-derived-collision" not in argv:
                shown = " ".join(a for a in argv if a != f"fixtures/{name}.rights")
                cases.append(pytest.param(argv + ["--no-monotonicity-check"],
                                          id=f"{name}:{shown}"))
    return cases


@pytest.mark.parametrize("argv", _monotonicity_toggle_calls())
def test_minimize_and_explain_refuse_the_monotonicity_toggle(argv):
    result = run_cli(argv)
    assert (result["exit"], result["stdout"]) == (2, [""])
    assert result["stderr"][-2:] == [
        "rightsrisk: error: unrecognized arguments: --no-monotonicity-check", ""]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    record()
