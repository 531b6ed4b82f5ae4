"""Differential test of the front end: on seeded mutations of the fixtures,
`rightsrisk.dsl` must give the same tokens (kind, value and span), the same
ParseError (message, span and expected) and the same knowledge base as the
reference lexer and parser in `dsl_reference.py`; on generated texts from
an alphabet of the lexer's awkward characters, the same tokens and
ParseError as the reference lexer."""
import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dsl_reference as reference
from rightsrisk import dsl
from rightsrisk.dsl import ParseError, print_kb

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.rights"))
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
    try:
        return print_kb(parse_kb(text, "m.rights"))
    except ParseError as exc:
        return failure(exc)


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
def test_mutants_match_reference(name):
    seed = 20261018 + sorted(FIXTURE_TEXTS).index(name)
    parses = 0
    for n, text in enumerate(mutants(seed, 500, [FIXTURE_TEXTS[name]])):
        assert lexed(dsl.tokenize, text) == lexed(reference.tokenize, text), (n, text)
        got = parsed(dsl.parse_kb, text)
        assert got == parsed(reference.parse_kb, text), (n, text)
        parses += isinstance(got, str)
    # both the knowledge-base path and the error path were exercised
    assert 50 <= parses <= 450, parses


@pytest.mark.parametrize("text", [
    "", "\n", "basic a", '"ab\\\ncd"', 'x "ab\r\ncd"', "a\r\n\"", "//\n//x",
    "rule r [²]: => promotes(a);", "right r := !(a | b) & c;\n\n  §",
    'obligation o "a\\"b" applies S;', "risk S { hazard: 3, bogus: 1 }",
    "rule r: => promotes(a, b);", "rule r: => collides(a);", "scenario { }",
])
def test_edge_inputs_match_reference(text):
    assert lexed(dsl.tokenize, text) == lexed(reference.tokenize, text)
    assert parsed(dsl.parse_kb, text) == parsed(reference.parse_kb, text)


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
