import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from conftest import FIXTURES, load_fixture
from kb_random import random_kb
from rightsrisk import cli, model
from rightsrisk.cli import build_arg_parser, main
from rightsrisk.dsl import print_kb
from rightsrisk.report import parse_report
from test_lexer_oracle import mutants
from test_model import BANGS_TEXT, CHAIN_TEXT, SRC, shared_chain
from test_report import WARNINGS, WARNINGS_TEXT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestCheck:
    def test_clean_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "check", fx(fixtures_dir, "scholarship.rights"))
        assert code == 0
        assert "ok" in out

    def test_semantic_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_text("right a;\nassert promotes(unknown) in nowhere;\n"
                       "scenario S { x }\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "unknown" in out

    def test_json_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_text("right a;\nassert promotes(unknown) in nowhere;\n"
                       "scenario S { x }\n")
        code, out, err = run(capsys, "check", str(bad), "--json")
        assert (code, err) == (1, "")
        expected = [
            {"code": "unknown-scenario", "severity": "error",
             "message": "assert references unknown scenario 'nowhere'"},
            {"code": "unknown-right", "severity": "error",
             "message": "assert in 'nowhere': unknown right 'unknown'"}]
        assert json.loads(out) == expected
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "/does/not/exist.rights")
        assert code == 2

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_text("scenario { }")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_non_utf8_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_bytes(b"basic \xff;")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("argv", [["check"], ["assess", "--scenario", "S_emergency"]],
                             ids=["check", "assess"])
    def test_byte_order_mark_is_skipped(self, capsys, fixtures_dir, tmp_path, argv):
        original = fixtures_dir / "triage.rights"
        bom = tmp_path / "triage.rights"
        bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        want = run(capsys, argv[0], str(original), *argv[1:])
        assert want[0] == 0
        assert run(capsys, argv[0], str(bom), *argv[1:]) == want

    @pytest.mark.parametrize("text, col", [
        ("rule r [{}]: f => promotes(a);", 9),
        ("risk S {{ hazard: {} }}", 18)], ids=["strength", "risk_field"])
    def test_too_long_integer_exits_two(self, capsys, tmp_path, text, col):
        bad = tmp_path / "bad.rights"
        bad.write_text("right a;\n" + text.format("9" * 5000) + "\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err == f"parse error: {bad}:2:{col}: integer literal too long\n"

    def test_non_ascii_digit_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_text("right a;\nrule r [²]: => promotes(a);\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err == f"parse error: {bad}:2:9: illegal character '²'\n"

    @pytest.mark.parametrize("expr", ["!" * 3000 + "a",
                                      "(" * 400 + "a" + ")" * 400],
                             ids=["bangs", "parens"])
    def test_deep_nesting_exits_two(self, capsys, tmp_path, expr):
        bad = tmp_path / "deep.rights"
        bad.write_text(f"basic a;\nright r := {expr};\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err.startswith(f"parse error: {bad}:2:")
        assert "nested deeper than" in err


def promoted_in_s(text, right):
    """`text` plus one scenario S that promotes `right` and `y` (`!x`)."""
    return (text + "scenario S { f }\ndomain D { S }\n"
            f"assert promotes({right}) in S;\nassert promotes(y) in S;\n")


class TestOneCompile:
    """A console call compiles its KB once: validation and the Engine read
    the same `CompiledKB`, so each definition is opened once. Validation
    walks names and splices nothing; each program splices each defined
    name it reaches once, however often the name is used."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"compiles": 0, "opened": Counter(), "spliced": []}
        init, open_expr, splice = (model.CompiledKB.__init__, model.CompiledKB.open,
                                   model.CompiledKB._splice)

        def counted_init(self, kb):
            counts["compiles"] += 1
            init(self, kb)

        def counted_open(self, expr):
            counts["opened"][next(r.id for r in self.kb.rights if r.definition is expr)] += 1
            return open_expr(self, expr)

        def counted_splice(self, names):
            counts["spliced"].append(list(names))
            return splice(self, names)
        monkeypatch.setattr(model.CompiledKB, "__init__", counted_init)
        monkeypatch.setattr(model.CompiledKB, "open", counted_open)
        monkeypatch.setattr(model.CompiledKB, "_splice", counted_splice)
        return counts

    # protection := privacy & (informed | oversight) reaches informed twice,
    # once through privacy := informed & minimisation
    DEFINITIONS_PROGRAMS = [["informed", "minimisation", "privacy"],
                            ["informed", "minimisation", "privacy", "protection"],
                            ["security"], ["transparency"],
                            ["informed", "uninformed_consent"]]

    @pytest.mark.parametrize("argv, spliced", [
        (("fria", "triage.rights", "--gpai", "--fixed-time", "2026-01-01T00:00:00Z"),
         [["privacy"]]),
        (("assess", "triage.rights", "--purpose", "P_triage"), [["privacy"]]),
        (("explain", "triage.rights", "S_emergency", "choice(S_emergency, privacy)"),
         [["privacy"]]),
        (("check", "triage.rights"), []),
        (("fria", "definitions.rights", "--fixed-time", "2026-01-01T00:00:00Z"),
         DEFINITIONS_PROGRAMS),
        (("assess", "definitions.rights", "--scenario", "S_review"),
         DEFINITIONS_PROGRAMS[:2] + [["transparency"]]),
        (("explain", "definitions.rights", "S_optin", "collides(dignity, uninformed_consent)"),
         DEFINITIONS_PROGRAMS[-1:]),
        (("check", "definitions.rights"), []),
    ], ids=["fria", "assess", "explain", "check", "definitions-fria",
            "definitions-assess", "definitions-explain", "definitions-check"])
    def test_fixture_calls(self, capsys, fixtures_dir, counts, argv, spliced):
        path = fx(fixtures_dir, argv[1])
        code, _, err = run(capsys, argv[0], path, *argv[2:])
        assert (code, err) == (0, "")
        assert counts["compiles"] == 1
        defined = [r.id for r in load_fixture(argv[1]).rights if r.definition is not None]
        assert counts["opened"] == Counter(defined)
        assert sorted(counts["spliced"]) == sorted(spliced)

    def test_shared_chain(self, capsys, tmp_path, counts):
        path = tmp_path / "shared.rights"
        path.write_text(promoted_in_s(shared_chain(30), "r0"))
        code, out, _ = run(capsys, "assess", str(path), "--scenario", "S")
        assert code == 0 and "collisions: (r0, y)" in out
        assert counts["compiles"] == 1
        assert counts["opened"] == Counter([f"r{i}" for i in range(31)] + ["y"])
        assert sorted(counts["spliced"]) == [[f"r{i}" for i in range(30, -1, -1)], ["y"]]


class TestArgumentParser:
    """One parser serves every call in a process."""

    def test_built_once(self):
        assert build_arg_parser() is build_arg_parser()

    def test_usage_error_then_good_call(self, capsys, fixtures_dir):
        kb, triage = fx(fixtures_dir, "scholarship.rights"), fx(fixtures_dir, "triage.rights")
        before = run(capsys, "assess", kb)
        for bad in (["assess", kb, "--json", "--mode", "bogus"], ["fria", kb, "--bogus"],
                    ["explain", kb], ["nonsense"], [], ["fria", kb, "--json"],
                    ["explain", kb, "S_d", "promotes(S_d, merit)", "--json"],
                    ["explain", kb, "S_d", "promotes(S_d, merit)", "--mode", "exhaustive"],
                    ["minimize", kb, "--mode", "exhaustive"],
                    ["assess", kb, "--mode", "exhaustive"],
                    ["assess", kb, "--fixed-time", "2026-01-01T00:00:00Z"],
                    ["assess", kb, "--scenario", "S_d", "--json", "--fixed-time", "T"],
                    ["minimize", kb, "--no-monotonicity-check"],
                    ["explain", kb, "S_d", "promotes(S_d, merit)", "--no-monotonicity-check"],
                    ["fria", kb, "--mode", "exhaustive"],
                    ["fria", triage, "--domain", "D_clinic", "--purpose", "P_triage"],
                    ["minimize", triage, "--gpai", "--domain", "D_clinic"],
                    ["assess", triage, "--scenario", "S_routine", "--domain", "nope"]):
            code, out, err = run(capsys, *bad)
            assert (code, out) == (2, "") and "usage: rightsrisk" in err, bad
            assert run(capsys, "assess", kb) == before

    def test_help_exits_zero(self, capsys, fixtures_dir):
        for argv in (["--help"], ["fria", "--help"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and out.startswith("usage: rightsrisk")
        code, out, _ = run(capsys, "check", fx(fixtures_dir, "scholarship.rights"))
        assert (code, out) == (0, "ok\n")

    def test_options_do_not_carry_over(self, capsys, fixtures_dir):
        kb = fx(fixtures_dir, "scholarship.rights")
        code, out, _ = run(capsys, "assess", kb, "--scenario", "S_d", "--json")
        assert code == 0 and json.loads(out)
        code, out, _ = run(capsys, "assess", kb)
        assert code == 0 and out.startswith("scenario ")


class TestDeepDefinitions:
    """Chains of definitions far deeper than Python's recursion limit."""

    @pytest.mark.parametrize("text", [promoted_in_s(CHAIN_TEXT, "r0"),
                                      promoted_in_s(BANGS_TEXT, "d11")],
                             ids=["chain", "bangs"])
    @pytest.mark.parametrize("command", [["check"], ["fria", "--format", "json"],
                                         ["assess", "--scenario", "S"]],
                             ids=["check", "fria", "assess"])
    def test_no_traceback(self, capsys, tmp_path, text, command):
        path = tmp_path / "deep.rights"
        path.write_text(text)
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, err) == (0, "")
        if command[0] == "assess":
            assert "collisions: (" in out  # x against !x, through every link

    def test_shared_definitions_assess_quickly(self, capsys, tmp_path):
        path = tmp_path / "shared.rights"
        path.write_text(promoted_in_s(shared_chain(60), "r0"))
        start = time.perf_counter()
        code, out, err = run(capsys, "assess", str(path), "--scenario", "S")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert "collisions: (r0, y)" in out


class TestAssess:
    def test_pandemic_scenario(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "assess", fx(fixtures_dir, "pandemic.rights"),
                           "--scenario", "S")
        assert code == 0
        assert "public_health<2,2>" in out
        assert "degree: -1" in out

    def test_scholarship_domain(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "assess", fx(fixtures_dir, "scholarship.rights"))
        assert code == 0
        assert out.count("scenario S_") == 3
        assert "domain D_scholarship degree: 3" in out

    def test_unknown_scenario_exits_one(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "assess", fx(fixtures_dir, "pandemic.rights"),
                           "--scenario", "nope")
        assert code == 1
        assert "unknown scenario" in err

    def test_empty_scenario_id_is_unknown(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "assess", fx(fixtures_dir, "pandemic.rights"),
                             "--scenario", "")
        assert (code, out, err) == (1, "", "unknown scenario ''\n")

    def test_json_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "assess", fx(fixtures_dir, "pandemic.rights"),
                           "--scenario", "S", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == "-1"
        assert data["statuses"]["privacy"] == "Demoted"

    def test_byte_identical_runs(self, capsys, fixtures_dir):
        for select in (("--purpose", "P_triage"), ("--scenario", "S_outbreak", "--json")):
            _, first, _ = run(capsys, "assess", fx(fixtures_dir, "triage.rights"), *select)
            _, second, _ = run(capsys, "assess", fx(fixtures_dir, "triage.rights"), *select)
            assert first == second

    @pytest.mark.parametrize("name, select", [
        ("scholarship.rights", ()), ("scholarship.rights", ("--domain", "D_scholarship")),
        ("triage.rights", ("--purpose", "P_triage"))])
    def test_json_needs_a_scenario(self, capsys, fixtures_dir, name, select):
        code, out, err = run(capsys, "assess", fx(fixtures_dir, name), *select, "--json")
        assert (code, out) == (2, "")
        assert err == ("assess --json needs --scenario; for a domain or purpose "
                       "use fria --format json\n")

    def test_closed_stdout_exits_two_without_traceback(self, tmp_path):
        # 300 scenarios in which 200 rights are promoted: about 1.4 MB of text
        n_rights, n_scenarios = 200, 300
        lines = [f"right r{i};" for i in range(n_rights)]
        lines += [f"scenario S{i} {{ f{i} }}" for i in range(n_scenarios)]
        lines.append("domain D { " + ", ".join(f"S{i}" for i in range(n_scenarios)) + " }")
        lines += [f"rule p{i}: => promotes(r{i});" for i in range(n_rights)]
        path = tmp_path / "wide.rights"
        path.write_text("\n".join(lines) + "\n")
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen([sys.executable, "-m", "rightsrisk", "assess", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"scenario S0:\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err, err

    def test_ambiguous_purpose(self, capsys, tmp_path):
        kb = tmp_path / "two.rights"
        kb.write_text("right a;\nscenario S { x }\ndomain D { S }\n"
                      "purpose P1 { D }\npurpose P2 { D }\n")
        code, _, err = run(capsys, "fria", str(kb), "--gpai")
        assert code == 1
        assert err == "ambiguous purpose: pass --purpose (candidates: P1, P2)\n"


class TestMinimize:
    def test_scholarship(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "minimize",
                           fx(fixtures_dir, "scholarship.rights"))
        assert code == 0
        assert "optimal degree 3" in out
        assert "maximizers (4):" in out
        assert "canonical: {S_d, S_e, S_r}" in out

    def test_gpai_single_negative_domain(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "minimize", fx(fixtures_dir, "triage.rights"),
                           "--gpai")
        assert code == 0
        assert "canonical: {D_clinic}" in out

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "minimize",
                           fx(fixtures_dir, "scholarship.rights"), "--json")
        data = json.loads(out)
        assert data["optimal_degree"] == "3"
        assert data["maximizer_count"] == 4

    def test_more_maximizers_than_shown(self, capsys, tmp_path):
        # seven scenarios of degree 0: 2^7 - 1 non-empty subsets maximize
        ids = [f"S{i}" for i in range(7)]
        path = tmp_path / "zeros.rights"
        path.write_text("right a;\n" + "".join(f"scenario {s} {{ f{s} }}\n" for s in ids)
                        + "domain D { " + ", ".join(ids) + " }\n")
        code, out, _ = run(capsys, "minimize", str(path))
        lines = out.splitlines()
        assert code == 0
        assert lines[:3] == ["domain D: optimal degree 0 (fast-path)", "maximizers (127):",
                             "  {" + ", ".join(ids) + "}"]
        assert lines[-2:] == ["  ... 63 more", "canonical: {" + ", ".join(ids) + "}"]
        assert len(lines) == 2 + 64 + 2


class TestExplain:
    def test_pandemic_choice(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                           "S", "choice(S, public_health)")
        assert code == 0
        assert "right_adoption_2" in out
        assert len(out.strip().splitlines()) >= 3

    def test_underivable(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "explain",
                           fx(fixtures_dir, "scholarship.rights"),
                           "S_d", "promotes(S_d, merit)")
        assert code == 1
        assert "not derivable" in out

    @pytest.mark.parametrize("conclusion", ["promotes(merit)", "promotes(nope, merit)"])
    def test_unknown_scenario_exits_one(self, capsys, fixtures_dir, conclusion):
        code, out, err = run(capsys, "explain", fx(fixtures_dir, "scholarship.rights"),
                             "nope", conclusion)
        assert (code, out, err) == (1, "", "unknown scenario 'nope'\n")

    def test_malformed_conclusion(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                           "S", "choice[")
        assert code == 2

    @pytest.mark.parametrize("conclusion, expects", [
        ("not_collides(privacy)", "not_collides takes two distinct rights"),
        ("not_collides(S, privacy)", "not_collides takes two distinct rights"),
        ("collides(privacy, privacy)", "collides takes two distinct rights"),
        ("not_collides(S, privacy, public_health, privacy)",
         "not_collides takes two distinct rights"),
        ("collides(privacy, public_health, privacy)", "collides takes two distinct rights"),
        ("promotes(privacy, public_health)", "promotes takes one right"),
        ("demotes(S, privacy, public_health)", "demotes takes one right"),
        ("not_demotes(privacy, privacy)", "not_demotes takes one right"),
        ("choice(S, privacy, public_health)", "choice takes one right"),
        ("choice(S)", "names no right"),
    ])
    def test_wrong_arity_exits_two(self, capsys, fixtures_dir, conclusion, expects):
        code, out, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                             "S", conclusion)
        assert code == 2
        assert expects in err and "Traceback" not in err and out == ""

    @pytest.mark.parametrize("conclusion", [
        "promotes(S2)", "choice(S2)", "choice(S, S2)"])
    def test_right_named_like_a_scenario(self, capsys, tmp_path, conclusion):
        kb = tmp_path / "kb.rights"
        kb.write_text("right S2;\nright b;\nscenario S { f }\nscenario S2 { g }\n"
                      "assert promotes(S2) in S;\n")
        code, out, err = run(capsys, "explain", str(kb), "S", conclusion)
        assert (code, err) == (0, "")
        assert "S2" in out

    def test_conclusion_naming_another_scenario_exits_two(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "explain", fx(fixtures_dir, "scholarship.rights"),
                             "S_d", "demotes(S_r, privacy)")
        assert (code, out) == (2, "")
        assert err == "conclusion 'demotes(S_r, privacy)' names scenario 'S_r', not 'S_d'\n"

    def test_not_collides_answer_names_the_pair(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                             "S", "not_collides(public_health, privacy)")
        assert (code, out, err) == (1, "privacy and public_health collide in S\n", "")

    @pytest.mark.parametrize("conclusion", ["bogus(nope)", "bogus(privacy)"])
    def test_unknown_kind_exits_two_whatever_its_rights(self, capsys, fixtures_dir,
                                                        conclusion):
        code, out, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                             "S", conclusion)
        assert code == 2
        assert err == "unknown conclusion kind 'bogus'\n" and out == ""

    @pytest.mark.parametrize("conclusion", [
        "promotes(public_health)", "demotes(S, privacy)", "not_demotes(privacy)",
        "choice(S, public_health)", "collides(S, privacy, public_health)",
        "not_collides(privacy, public_health)"])
    def test_right_arity_answers(self, capsys, fixtures_dir, conclusion):
        code, _, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                           "S", conclusion)
        assert code in (0, 1) and err == ""


class TestFria:
    def test_writes_markdown(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "r.md"
        code, out, _ = run(capsys, "fria",
                           fx(fixtures_dir, "scholarship.rights"),
                           "--out", str(out_path),
                           "--fixed-time", "2026-01-01T00:00:00Z")
        assert code == 0
        assert out_path.exists()
        assert "Art. 27(d)" in out_path.read_text()

    def test_json_round_trips(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "fria", fx(fixtures_dir, "scholarship.rights"),
                         "--format", "json", "--out", str(out_path),
                         "--fixed-time", "2026-01-01T00:00:00Z")
        assert code == 0
        report = parse_report(out_path.read_text())
        assert report.meta["generated_at"] == "2026-01-01T00:00:00Z"
        assert len(report.checklist) == 11

    def test_ambiguous_domain(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "fria", fx(fixtures_dir, "triage.rights"))
        assert code == 1
        assert "ambiguous domain" in err

    @pytest.mark.parametrize("flag, message", [("--domain", "unknown domain 'nope'\n"),
                                               ("--purpose", "unknown purpose 'nope'\n")],
                             ids=["domain", "purpose"])
    def test_unknown_selector_unquoted(self, capsys, fixtures_dir, flag, message):
        code, out, err = run(capsys, "fria", fx(fixtures_dir, "triage.rights"), flag, "nope")
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", ["fria", "minimize"])
    @pytest.mark.parametrize("flag", ["--domain", "--purpose"])
    def test_empty_selector_is_unknown(self, capsys, fixtures_dir, command, flag):
        code, out, err = run(capsys, command, fx(fixtures_dir, "scholarship.rights"), flag, "")
        assert (code, out, err) == (1, "", f"unknown {flag[2:]} ''\n")

    def test_empty_out_path_cannot_be_written(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "fria", fx(fixtures_dir, "scholarship.rights"),
                             "--out", "")
        assert (code, out) == (2, "") and err.startswith("cannot write : ")

    def test_fixed_time_is_deterministic(self, capsys, fixtures_dir, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(capsys, "fria", fx(fixtures_dir, "pandemic.rights"),
                "--format", "json", "--out", str(p),
                "--fixed-time", "2026-01-01T00:00:00Z")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_fixed_time_is_pinned(self, capsys, fixtures_dir):
        argv = ["fria", fx(fixtures_dir, "scholarship.rights"), "--format", "json",
                "--fixed-time", ""]
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second
        assert first[0] == 0 and json.loads(first[1])["meta"]["generated_at"] == ""

    def test_out_into_missing_directory_exits_two(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "missing" / "r.md"
        code, out, err = run(capsys, "fria", fx(fixtures_dir, "scholarship.rights"),
                             "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"cannot write {target}: ")
        assert not target.parent.exists()


class TestWarnings:
    """A KB whose domain has a monotonicity warning and two ambiguity
    warnings, which no fixture has."""

    @pytest.fixture()
    def kb(self, tmp_path):
        path = tmp_path / "warnings.rights"
        path.write_text(WARNINGS_TEXT)
        return str(path)

    def test_assess_domain_prints_the_monotonicity_warning_last(self, capsys, kb):
        code, out, _ = run(capsys, "assess", kb, "--domain", "D")
        assert code == 0
        assert out.endswith("domain D degree: -1 (xi=0, delta=1)\n" + WARNINGS[0] + "\n")

    def test_markdown_report_lists_the_diagnostics(self, capsys, kb):
        code, out, _ = run(capsys, "fria", kb, "--fixed-time", "T")
        assert code == 0
        assert out.endswith("## Diagnostics\n\n"
                            + "".join(f"- {w}\n" for w in WARNINGS))

    @pytest.mark.parametrize("argv", [
        ["assess", "--domain", "D"], ["assess", "--scenario", "Y"],
        ["fria", "--fixed-time", "T"], ["fria", "--fixed-time", "T", "--format", "json"]],
        ids=["assess-domain", "assess-scenario", "fria-markdown", "fria-json"])
    def test_toggle_removes_exactly_the_monotonicity_lines(self, capsys, kb, argv):
        code, out, _ = run(capsys, argv[0], kb, *argv[1:])
        assert code == 0 and "monotonicity" in out
        code, quiet, _ = run(capsys, argv[0], kb, *argv[1:], "--no-monotonicity-check")
        assert code == 0
        lines = out.splitlines(keepends=True)
        kept = [line for line in lines if "[monotonicity]" not in line]
        assert len(kept) == len(lines) - 1
        assert quiet == "".join(kept)


def kb_file(tmp_path, text):
    path = tmp_path / "case.rights"
    path.write_text(text)
    return str(path)


def open_item(reason):
    """Strict, so a fix that lands must also drop the mark; only a failed
    assertion counts as the expected failure."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


class TestOpenDefects:
    """Hand cases of open ROADMAP items, each asserting the answer that its
    item specifies."""

    @open_item("ROADMAP item 2: a chain counts once for each rule that concludes it")
    def test_a_repeated_chain_counts_once(self, capsys, tmp_path):
        kb = kb_file(tmp_path, "right a;\nright b;\nscenario S { x }\n"
                               "scenario T { x, y }\nassert a > b in S;\n"
                               "assert a > b in T;\n")
        code, out, _ = run(capsys, "assess", kb, "--scenario", "T")
        assert code == 0
        assert "  adopted: a<1,2> b<2,2>\n" in out
        assert "  degree: 3 (" in out

    @open_item("ROADMAP item 6: explain answers whether a rule fired, "
               "not what assess concluded")
    def test_explain_refuses_a_beaten_promotion(self, capsys, tmp_path):
        kb = kb_file(tmp_path, "right a;\nscenario S { x }\n"
                               "rule p [1]: x => promotes(a);\n"
                               "rule d [2]: x => demotes(a);\n")
        code, _, _ = run(capsys, "explain", kb, "S", "promotes(a)")
        assert code == 1

    @open_item("ROADMAP item 6: a removed pair is blamed on an empty "
               "requirement, under a list label")
    def test_explain_names_a_removed_collision_plainly(self, capsys, tmp_path):
        kb = kb_file(tmp_path, "right a;\nright b;\nscenario S { x }\n"
                               "rule c [1]: x => collides(a, b);\n"
                               "rule n [2]: x => not_collides(a, b);\n")
        _, out, _ = run(capsys, "explain", kb, "S", "collides(a, b)")
        assert "requires {}" not in out
        assert "collides(['a', 'b'])" not in out

    @open_item("ROADMAP item 6: a demotion that a not_demotes rule cancels "
               "is explained as derivable")
    def test_explain_refuses_a_cancelled_demotion(self, capsys, fixtures_dir):
        code, _, _ = run(capsys, "explain", fx(fixtures_dir, "triage.rights"),
                         "S_emergency", "demotes(privacy)")
        assert code == 1

    @open_item("ROADMAP item 9: the warning compares fired rules, "
               "not resolved statuses")
    def test_no_monotonicity_warning_where_statuses_agree(self, capsys, tmp_path):
        kb = kb_file(tmp_path, "right a;\nscenario S { x }\nscenario T { x, y }\n"
                               "rule p [1]: x => promotes(a);\n"
                               "rule d [2]: x & y => demotes(a);\n"
                               "rule q [3]: x & y => promotes(a);\n")
        code, out, _ = run(capsys, "assess", kb, "--scenario", "T")
        assert code == 0
        assert "warning[monotonicity]" not in out


class TestFuzz:
    """Mutated fixtures never crash the CLI: each run exits 0, 1 or 2 and
    prints no traceback."""

    @pytest.mark.parametrize("argv", [["check"],
                                      ["fria", "--fixed-time", "2026-01-01T00:00:00+00:00"]],
                             ids=["check", "fria"])
    def test_mutated_fixtures(self, capsys, tmp_path, argv):
        codes = set()
        for n, text in enumerate(mutants(31, 200)):
            # a new file each time: truncating one can wait on a flush
            path = tmp_path / f"mutant{n}.rights"
            path.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code in (0, 1, 2) and "Traceback" not in err, (n, text, err)
            codes.add(code)
        assert codes >= {0, 2}, codes


def command_argvs(path, kb):
    """Every command over the KB at `path`, with no selector and with each
    selector it declares; `assess` also per scenario, in text and JSON."""
    selectors = [[]] + [["--domain", d.id] for d in kb.domains] \
        + [["--purpose", p.id] for p in kb.purposes]
    argvs = [["check", path], ["check", path, "--json"]]
    for select in selectors + [["--gpai"]]:
        argvs += [["minimize", path, *select], ["minimize", path, *select, "--json"],
                  ["fria", path, *select, "--fixed-time", "T"],
                  ["fria", path, *select, "--format", "json"]]
    for select in selectors:
        argvs.append(["assess", path, *select])
    for s in kb.scenarios:
        argvs += [["assess", path, "--scenario", s.id],
                  ["assess", path, "--scenario", s.id, "--json"]]
    return argvs


class TestCollectorPause:
    """`main` runs each command with the cyclic collector paused, which is
    sound only while a command builds no reference cycles: with the
    collector off, nothing a run leaves behind is for `gc.collect()`."""

    @pytest.fixture()
    def cycles(self, capsys, fixtures_dir):
        """Run `main(argv)` with the collector off: (exit code, objects that
        `gc.collect()` then finds)."""
        # argparse makes the process's only cycles, once, in its cached parser
        main(["check", fx(fixtures_dir, "scholarship.rights")])
        enabled = gc.isenabled()
        gc.disable()

        def cycles(*argv):
            gc.collect()
            code = main(list(argv))
            found = gc.collect()
            capsys.readouterr()
            return code, found
        yield cycles
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.rights")))
    def test_every_command_on_each_fixture(self, cycles, fixtures_dir, tmp_path, name):
        path = fx(fixtures_dir, name)
        argvs = command_argvs(path, load_fixture(name))
        argvs.append(["fria", path, "--gpai", "--out", str(tmp_path / "report.md")])
        codes = Counter()
        for argv in argvs:
            code, found = cycles(*argv)
            assert found == 0, argv
            codes[code] += 1
        assert codes[0]

    @pytest.mark.parametrize("argv, expected", [
        (["pandemic.rights", "S", "choice(S, public_health)"], 0),
        (["scholarship.rights", "S_d", "promotes(merit)"], 1),
        (["pandemic.rights", "S", "collides(S, privacy, public_health)"], 0),
        (["triage.rights", "S_emergency", "choice(S_emergency, privacy)"], 0),
    ], ids=["derivable", "blocked", "collision", "triage"])
    def test_explain(self, cycles, fixtures_dir, argv, expected):
        assert cycles("explain", fx(fixtures_dir, argv[0]), *argv[1:]) == (expected, 0)

    def test_error_exits(self, cycles, fixtures_dir, tmp_path):
        kb = fx(fixtures_dir, "scholarship.rights")
        bad = tmp_path / "bad.rights"
        bad.write_text("right a;\nscenario S { x }\nassert promotes(ghost) in S;\n")
        broken = tmp_path / "broken.rights"
        broken.write_text("right a;\nscenario S {\n")
        for argv, code in [
                (["assess", kb, "--scenario", "nope"], 1),
                (["explain", kb, "nope", "promotes(merit)"], 1),
                (["fria", fx(fixtures_dir, "triage.rights")], 1),
                (["fria", kb, "--purpose", ""], 1),
                (["assess", str(bad)], 1), (["check", str(bad)], 1),
                (["fria", str(tmp_path / "missing.rights")], 2),
                (["check", str(broken)], 2), (["fria", str(broken)], 2),
                (["assess", kb, "--json"], 2),
                (["explain", kb, "S_d", "promotes(S_d"], 2),
                (["fria", kb, "--out", str(tmp_path / "missing" / "r.md")], 2)]:
            assert cycles(*argv) == (code, 0), argv

    def test_random_kbs(self, cycles, tmp_path):
        for seed in range(40):
            kb = random_kb(random.Random(seed), with_extras=True)
            path = tmp_path / f"kb{seed}.rights"
            path.write_text(print_kb(kb))
            path = str(path)
            for argv in (["fria", path, "--domain", "D", "--format", "json"],
                         ["fria", path, "--domain", "D", "--fixed-time", "T"],
                         ["assess", path, "--domain", "D"],
                         ["explain", path, "S0", "promotes(S0, r0)"]):
                code, found = cycles(*argv)
                assert found == 0, (seed, argv)
                assert code in (0, 1), (seed, argv)

    @pytest.mark.parametrize("argv", [
        ["check", "{kb}"], ["assess", "{kb}", "--scenario", "nope"],
        ["assess", "{kb}", "--json"], ["check", "{missing}"], ["fria", "{kb}", "--json"]],
        ids=["success", "exit-1", "exit-2", "missing-file", "usage"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_caller_state_is_restored(self, capsys, fixtures_dir, tmp_path, argv, enabled):
        argv = [a.format(kb=fx(fixtures_dir, "scholarship.rights"),
                         missing=tmp_path / "missing.rights") for a in argv]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            main(argv)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_no_collection_during_fria(self, capsys, fixtures_dir, monkeypatch):
        """With a young collection due at almost every new container, some
        start while the arguments are parsed and none once the command runs."""
        starts, begun = [], []
        load = cli._load_engine
        monkeypatch.setattr(cli, "_load_engine",
                            lambda args: begun.append(len(starts)) or load(args))

        def counted(phase, info):
            if phase == "start":
                starts.append(info["generation"])
        was, thresholds = gc.isenabled(), gc.get_threshold()
        gc.enable()
        gc.callbacks.append(counted)
        gc.set_threshold(1)
        try:
            code = main(["fria", fx(fixtures_dir, "triage.rights"), "--gpai"])
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(counted)
            (gc.enable if was else gc.disable)()
        assert code == 0
        assert starts and begun == [len(starts)]
        capsys.readouterr()
