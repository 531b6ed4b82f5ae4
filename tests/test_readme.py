"""The README's examples stay valid: every `.rights` block parses and
validates, and the scripting example runs."""
import re
from pathlib import Path

import pytest

from rightsrisk import parse_kb, validate_kb

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _ids(lang):
    return [f"{lang}{i}" for i in range(len(_blocks(lang)))]


def test_readme_has_examples():
    assert _blocks("text") and _blocks("python")


@pytest.mark.parametrize("block", _blocks("text"), ids=_ids("text"))
def test_rights_block_parses_and_validates(block):
    errors = [str(d) for d in validate_kb(parse_kb(block, file="README.md"))
              if d.severity == "error"]
    assert errors == []


@pytest.mark.parametrize("block", _blocks("python"), ids=_ids("python"))
def test_python_block_runs(block, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
