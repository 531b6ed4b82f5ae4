"""Differential test of the front end: on seeded mutations of the fixtures,
`rightsrisk.dsl` must give the same tokens (kind, value and span), the same
ParseError (message, span and expected) and the same knowledge base as the
reference lexer and parser in `dsl_reference.py`; on generated texts from
an alphabet of the lexer's awkward characters, the same tokens and
ParseError as the reference lexer.

`dsl.parse_kb` reads valid text with its declaration matcher and hands any
other text to `tokenize` and the token parser; a process's first call skips
the matcher, but here every call runs it. A spy on `dsl.tokenize` shows
which path read a text: the tests check that both paths run, that valid
fixtures, README examples and benchmark KBs need no fallback, that a
console call never compiles the matcher, and that hostile inputs end in
linear time."""
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import dsl_reference as reference
from rightsrisk import dsl
from rightsrisk.dsl import ParseError, print_kb

from kb_random import random_kb, with_collision_rules

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.rights"))
FIXTURE_TEXTS = {p.name: p.read_text(encoding="utf-8") for p in FIXTURES}

# characters that end strings, start comments, escape, break lines, are illegal,
# or are the lexer's two-character punctuation
INSERTS = ['"', "\\", "\r", "\n", "//", "²", "§", ":=", "=>"]


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits: delete, duplicate or swap short slices, or insert
    one of INSERTS."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 12))
        k = min(len(text), j + rng.randint(1, 12))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 2:
            text = text[:i] + text[j:k] + text[i:j] + text[k:]
        else:
            text = text[:i] + rng.choice(INSERTS) + text[i:]
    return text


def mutants(seed: int, count: int, texts=FIXTURE_TEXTS.values()) -> list[str]:
    rng = random.Random(seed)
    texts = list(texts)
    return [mutate(rng, rng.choice(texts)) for _ in range(count)]


def failure(exc: ParseError):
    return ("ParseError", str(exc), exc.span, exc.expected)


def lexed(tokenize, text):
    try:
        return list(tokenize(text, "m.rights"))
    except ParseError as exc:
        return failure(exc)


def parsed(parse_kb, text):
    """The KB `parse_kb` reads, its print, and each scenario's features in
    iteration order; or its ParseError."""
    try:
        kb = parse_kb(text, "m.rights")
    except ParseError as exc:
        return failure(exc)
    return "KB", print_kb(kb), kb, [list(s.features) for s in kb.scenarios]


@pytest.fixture(autouse=True, scope="module")
def matcher_at_every_call():
    with mock.patch.object(dsl, "_parsed_before", True):
        yield


def fallback_spy():
    """A spy on `dsl.tokenize`, which `parse_kb` calls only when its
    declaration matcher does not take the text."""
    return mock.patch.object(dsl, "tokenize", wraps=dsl.tokenize)


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
def test_mutants_match_reference(name):
    seed = 20261018 + sorted(FIXTURE_TEXTS).index(name)
    parses = matched = 0
    tokenize = dsl.tokenize
    for n, text in enumerate(mutants(seed, 500, [FIXTURE_TEXTS[name]])):
        assert lexed(tokenize, text) == lexed(reference.tokenize, text), (n, text)
        with fallback_spy() as spy:
            got = parsed(dsl.parse_kb, text)
        assert got == parsed(reference.parse_kb, text), (n, text)
        parses += got[0] == "KB"
        matched += not spy.called
    # both the knowledge-base path and the error path were exercised, and
    # both the matcher and its fallback read some of the mutants
    assert 50 <= matched <= parses <= 450, (matched, parses)


@pytest.mark.parametrize("text", [
    "", "\n", "basic a", '"ab\\\ncd"', 'x "ab\r\ncd"', "a\r\n\"", "//\n//x",
    "rule r [²]: => promotes(a);", "right r := !(a | b) & c;\n\n  §",
    'obligation o "a\\"b" applies S;', "risk S { hazard: 3, bogus: 1 }",
    "rule r: => promotes(a, b);", "rule r: => collides(a);", "scenario { }",
    "risk S { hazard: 1, hazard: 5, response: 2, intensity: 3, sensitivity: 4, vulnerability: 5 }",
    # more digits than int() takes from a string by default
    "rule r [" + "7" * 5000 + "]: => promotes(a);", "risk S { hazard: " + "7" * 5000 + " }",
])
def test_edge_inputs_match_reference(text):
    assert lexed(dsl.tokenize, text) == lexed(reference.tokenize, text)
    assert parsed(dsl.parse_kb, text) == parsed(reference.parse_kb, text)


# every declaration kind, with a comment in every gap between two words
EVERY_GAP = (
    'basic a , b ; right r := ! ( a & b ) | a ; right q ; scenario S { x , ! y } '
    'scenario E { } domain D { S , E } purpose P { D } obligation o "x//y" applies S ; '
    'assert promotes ( r ) in S ; assert collides ( r , q ) in S ; assert r > q in S ; '
    'rule k [ -2 ] : x & ! y => r > q ; rule u : => demotes ( r ) ; '
    'risk S { hazard : 1 , response : 2 } ').replace(" ", " // ; } => in\n")


@pytest.mark.parametrize("text, matched", [
    ("assert a > bin S;", False),           # not `a > b in S;`: words end at a non-word
    ("rulex: => a;", False),                # nor `rule x: => a;`
    ("right in;", False),                   # a keyword is no identifier,
    ("scenario S { x, !in }", False),       # nor a literal's atom
    ("rule r: x & rule => a;", False),
    ("domain D { S, domain }", False),
    ("assert promotes > a in S;", True),    # a predicate name can head a chain
    ("assert promotes(a, b) in S;", False),
    ("scenario S { }", True),
    ("rule r [ -0 ]: => a;", True),
    ("rule r :=> a;", False),               # `:=` then `>`, as tokenize reads it
    ("rule r [1]:=> a;", False),
    ("rule r :\n=> a;", True),
    ("basic a;\fright b;", False),           # \f and \v are no whitespace
    ("basic a;\vright b;", False),
    ("risk S { hazard: 1, hazard: 5 }", False),
    ("risk S { Hazard: 1 }", False),        # a field name is one of RiskAnnotation.FIELDS,
    ("risk S { hazards: 1 }", False),       # checked when the record is built
    ("assert promotes(a);", False),         # an assert ends in `in`,
    ("assert a > b;", False),
    ("rule r: x => promotes(a) in S;", False),  # and a rule does not
    ("domain D { S } purpose P { D, E }", True),
    ("right r := (a;", False),              # _rexpr rejects the definition
    ("right r := a b;", False),             # or stops before its end
    (EVERY_GAP, True),
    ("basic a;\r\nright b := !a;\r\nscenario S { x }\r\n", True),
    ('basic a,b;right r:=!(a&b)|a;scenario S{x,!y}obligation o"x"applies S;'
     "rule k[-2]:x&!y=>r>q;assert promotes(r)in S;risk S{hazard:1}", True),
], ids=lambda v: v if isinstance(v, bool) else repr(v[:40]))
def test_hand_cases_take_the_expected_path(text, matched):
    with fallback_spy() as spy:
        got = parsed(dsl.parse_kb, text)
    assert got == parsed(reference.parse_kb, text)
    assert spy.called is not matched


def test_first_parse_in_a_process_skips_the_matcher():
    with mock.patch.object(dsl, "_parsed_before", False), fallback_spy() as spy:
        first = dsl.parse_kb("basic a;")
        assert spy.call_count == 1
        assert dsl.parse_kb("basic a;") == first
        assert spy.call_count == 1


# one console call in a fresh interpreter, after which the matcher's pattern
# must still be uncompiled
CONSOLE_CALL = """
import sys
from rightsrisk import cli, dsl
code = cli.main(sys.argv[1:])
assert dsl._decl_re.cache_info().currsize == 0
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [["check"], ["fria", "--gpai"]], ids=["check", "fria"])
def test_a_console_call_never_compiles_the_matcher(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CONSOLE_CALL, argv[0],
                           str(ROOT / "fixtures" / "triage.rights"), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def benchmark_workloads():
    """The benchmark's `run.WORKLOADS`, imported as `scripts/scaling.py` does,
    with `perfbench/` on `sys.path`; that entry is taken out again."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from run import WORKLOADS
        from gen import generate
    finally:
        sys.path[:] = saved
    return WORKLOADS, generate


WORKLOADS, generate = benchmark_workloads()


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS) + sorted(WORKLOADS))
def test_valid_kbs_need_no_fallback(name):
    """Each fixture, and seeds 1-5 of each benchmark workload's KB."""
    texts = [FIXTURE_TEXTS[name]] if name in FIXTURE_TEXTS else [
        generate(name, WORKLOADS[name].shape, seed, dsl.parse_kb).text
        for seed in range(1, 6)]
    for text in texts:
        with fallback_spy() as spy:
            got = parsed(dsl.parse_kb, text)
        assert not spy.called
        assert got == parsed(reference.parse_kb, text)


# whitespace and comments, each comment ending its line
GAPS = [" ", "\t", "\n", "\r\n", "  \n\t", "// c\n", " //;}=>in//\n", "//\n//\n"]


def raw_words(text):
    """The words of `text` as written: strings keep their quotes and escapes."""
    return [m.group() for m in reference._TOKEN_RE.finditer(text)
            if m.lastgroup not in ("skip", "newline")]


@given(st.randoms(use_true_random=False))
def test_printed_kbs_with_any_gaps_need_no_fallback(rng):
    kb = random_kb(rng, with_extras=True)
    text = "".join(rng.choice(GAPS) + w for w in raw_words(print_kb(kb)))
    with fallback_spy() as spy:
        got = parsed(dsl.parse_kb, text)
    assert not spy.called
    assert got == parsed(reference.parse_kb, text)
    assert got[2] == kb


def word_char(c):
    return c.isalnum() or c == "_"


@given(st.randoms(use_true_random=False))
def test_printed_kbs_with_tight_gaps_match_reference(rng):
    """Gaps left empty wherever two words stay apart without one, so that
    punctuation meets punctuation (`:` and `=>` lex as `:=` and `>`); the
    text is read as the reference reads it, by either path."""
    kb = with_collision_rules(random_kb(rng, with_extras=True), rng)
    text = ""
    for w in raw_words(print_kb(kb)):
        gap = rng.choice(["", *GAPS])
        if not gap and word_char(text[-1:] or " ") and (word_char(w[0]) or w[0] == "-"):
            gap = " "
        text += gap + w
    assert parsed(dsl.parse_kb, text) == parsed(reference.parse_kb, text)


# about 200 KB each, where a matcher that backtracks through every split of
# a gap or a list would not end
HOSTILE = {
    "gap_run_in_open_scenario": "scenario S {" + " \n\t// x // y ; }\r\n" * 11_000,
    "scenario_ending_in_comma":
        "scenario S { " + ", ".join(f"f{i:06d}" for i in range(20_000)) + ",}",
    "chain_without_in": "assert " + " > ".join(f"right{i:010d}" for i in range(10_000)) + " S;",
    "body_without_arrow": "rule r: " + " & ".join(f"!f{i:06d}" for i in range(20_000)) + " a;",
    # a quote that does not start a string must not start a scan of its line
    "escaped_quotes_left_open": 'basic a; // b\nobligation o "' + '\\"' * 100_000,
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_inputs_end_in_linear_time(name):
    text = HOSTILE[name]
    assert 150_000 < len(text) < 250_000
    start = time.perf_counter()
    got = parsed(dsl.parse_kb, text)
    assert time.perf_counter() - start < 1
    assert got == parsed(reference.parse_kb, text)


def test_tokens_are_a_sequence():
    tokens = dsl.tokenize("basic a;\nright b;")
    want = reference.tokenize("basic a;\nright b;")
    assert len(tokens) == len(want) == 7
    assert list(tokens) == want and tokens[-2] == want[-2]
    assert tokens.index(want[3]) == 3 and want[4] in tokens


# quotes, escapes, the starts of ints and comments, two-character punctuation,
# line breaks, digits and a non-ASCII letter, with a few ordinary words
AWKWARD = ['"', "\\", '\\"', "-", "/", "//", ":", "=", ":=", "=>", ">", "\r", "\n",
           "0", "7", "é", " ", "a", "_b", "{", ";"]


@given(st.lists(st.sampled_from(AWKWARD), max_size=24).map("".join))
@example("-")
@example("-7")
@example('x "ab\\"\ny')
@example('"')
@example('a "b // c" d')
@example(":=>")
def test_awkward_texts_lex_like_reference(text):
    assert lexed(dsl.tokenize, text) == lexed(reference.tokenize, text)
