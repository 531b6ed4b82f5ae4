"""The README's examples stay valid: every `.rights` block parses, with
the declaration matcher alone, and validates, the scripting example runs,
and every `rightsrisk` command of the shell blocks exits 0."""
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from rightsrisk import dsl, parse_kb, validate_kb
from rightsrisk.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _ids(lang):
    return [f"{lang}{i}" for i in range(len(_blocks(lang)))]


def _commands():
    return [line for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("rightsrisk ")]


def test_readme_has_examples():
    assert _blocks("text") and _blocks("python") and _commands()


@pytest.mark.parametrize("block", _blocks("text"), ids=_ids("text"))
def test_rights_block_parses_and_validates(block):
    with mock.patch.object(dsl, "_parsed_before", True), \
            mock.patch.object(dsl, "tokenize", wraps=dsl.tokenize) as fallback:
        kb = parse_kb(block, file="README.md")
    assert not fallback.called
    errors = [str(d) for d in validate_kb(kb) if d.severity == "error"]
    assert errors == []


@pytest.mark.parametrize("block", _blocks("python"), ids=_ids("python"))
def test_python_block_runs(block, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", _commands())
def test_shell_command_runs(line, monkeypatch, tmp_path, capsys):
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0, capsys.readouterr().err
