import json

import pytest

from rightsrisk.cli import main
from rightsrisk.report import parse_report


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

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "/does/not/exist.rights")
        assert code == 2

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rights"
        bad.write_text("scenario { }")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "parse error" in err


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

    def test_json_output(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "assess", fx(fixtures_dir, "pandemic.rights"),
                           "--scenario", "S", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == "-1"
        assert data["statuses"]["privacy"] == "Demoted"

    def test_byte_identical_runs(self, capsys, fixtures_dir):
        for extra in ((), ("--json",)):
            _, first, _ = run(capsys, "assess", fx(fixtures_dir, "triage.rights"),
                              "--purpose", "P_triage", *extra)
            _, second, _ = run(capsys, "assess", fx(fixtures_dir, "triage.rights"),
                               "--purpose", "P_triage", *extra)
            assert first == second

    def test_exhaustive_size_error(self, capsys, tmp_path):
        big = tmp_path / "big.rights"
        big.write_text("right a;\n"
                       + "".join(f"scenario S{i} {{ x{i} }}\n" for i in range(30))
                       + "domain D { " + ", ".join(f"S{i}" for i in range(30)) + " }\n")
        code, _, err = run(capsys, "assess", str(big), "--mode", "exhaustive")
        assert code == 1
        assert "fast mode" in err

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
                           fx(fixtures_dir, "scholarship.rights"),
                           "--mode", "exhaustive")
        assert code == 0
        assert "optimal degree 3" in out
        assert "maximizers (4):" in out
        assert "canonical: {S_d, S_e, S_r}" in out

    def test_gpai_single_negative_domain(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "minimize", fx(fixtures_dir, "triage.rights"),
                           "--gpai")
        assert code == 0
        assert "canonical: {D_clinic}" in out

    def test_exhaustive_size_error(self, capsys, tmp_path):
        lines = ["right a;"]
        lines += [f"scenario S{i} {{ x{i} }}" for i in range(30)]
        lines.append("domain D { " + ", ".join(f"S{i}" for i in range(30)) + " }")
        big = tmp_path / "big.rights"
        big.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "minimize", str(big), "--mode", "exhaustive")
        assert code == 1
        assert "fast mode" in err

    def test_json(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "minimize",
                           fx(fixtures_dir, "scholarship.rights"), "--json")
        data = json.loads(out)
        assert data["optimal_degree"] == "3"
        assert data["maximizer_count"] == 4


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

    def test_malformed_conclusion(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "explain", fx(fixtures_dir, "pandemic.rights"),
                           "S", "choice[")
        assert code == 2


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

    def test_fixed_time_is_deterministic(self, capsys, fixtures_dir, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(capsys, "fria", fx(fixtures_dir, "pandemic.rights"),
                "--format", "json", "--out", str(p),
                "--fixed-time", "2026-01-01T00:00:00Z")
        assert paths[0].read_bytes() == paths[1].read_bytes()
