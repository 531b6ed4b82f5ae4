import random

import pytest

from rightsrisk import dsl
from rightsrisk.dsl import MAX_NESTING, ParseError, parse_kb, print_kb, tokenize
from rightsrisk.model import ChainHead, PredHead, RiskAnnotation

from kb_random import random_kb


class TestTokenize:
    def test_scenario_decl(self):
        kinds = [t.kind for t in tokenize("scenario S_d { student_consent }")]
        assert kinds == ["kw_scenario", "ident", "lbrace", "ident", "rbrace", "eof"]

    def test_chain_tokens(self):
        kinds = [t.kind for t in tokenize("privacy > public_health")]
        assert kinds == ["ident", "gt", "ident", "eof"]

    def test_illegal_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("§")
        assert exc.value.span.start_line == 1
        assert exc.value.span.start_col == 1

    def test_comments_skipped(self):
        kinds = [t.kind for t in tokenize("// note\nbasic a; // tail")]
        assert kinds == ["kw_basic", "ident", "semi", "eof"]

    def test_spans_inside_input(self):
        toks = tokenize("basic a;\nbasic b;")
        assert toks[3].span.start_line == 2


def lexed(text):
    return [(t.kind, t.value, t.span.start_line, t.span.start_col)
            for t in tokenize(text)]


class TestTokenSpans:
    def test_crlf_and_tabs(self):
        assert lexed("basic a;\r\n\tright b;\r\n") == [
            ("kw_basic", "basic", 1, 1), ("ident", "a", 1, 7), ("semi", ";", 1, 8),
            ("kw_right", "right", 2, 2), ("ident", "b", 2, 8), ("semi", ";", 2, 9),
            ("eof", "", 3, 1)]

    def test_string_escapes(self):
        assert lexed(r'obligation o "a\tb\nc\"d\\e\q" applies S;') == [
            ("kw_obligation", "obligation", 1, 1), ("ident", "o", 1, 12),
            ("string", 'a\tb\nc"d\\eq', 1, 14), ("kw_applies", "applies", 1, 32),
            ("ident", "S", 1, 40), ("semi", ";", 1, 41), ("eof", "", 1, 42)]

    def test_string_spans_end_after_closing_quote(self):
        tok = tokenize(r'"a\"b"')[0]
        assert (tok.span.start_col, tok.span.end_col) == (1, 7)

    def test_newline_ends_a_string(self):
        for text in ('"ab\ncd"', '"ab\\\ncd"', '"ab'):
            with pytest.raises(ParseError, match="unterminated string literal") as exc:
                tokenize("x " + text)
            assert (exc.value.span.start_line, exc.value.span.start_col) == (1, 3)

    def test_negative_ints(self):
        assert lexed("[-3] [42] -07") == [
            ("lbracket", "[", 1, 1), ("int", "-3", 1, 2), ("rbracket", "]", 1, 4),
            ("lbracket", "[", 1, 6), ("int", "42", 1, 7), ("rbracket", "]", 1, 9),
            ("int", "-07", 1, 11), ("eof", "", 1, 14)]

    def test_lone_minus_is_illegal(self):
        with pytest.raises(ParseError, match="illegal character '-'"):
            tokenize("[- 3]")

    def test_adjacent_colon_punctuation(self):
        assert lexed(":==>::=:") == [
            ("assign", ":=", 1, 1), ("arrow", "=>", 1, 3), ("colon", ":", 1, 5),
            ("assign", ":=", 1, 6), ("colon", ":", 1, 8), ("eof", "", 1, 9)]

    def test_input_ending_in_comment(self):
        assert lexed("basic a // note") == [
            ("kw_basic", "basic", 1, 1), ("ident", "a", 1, 7), ("eof", "", 1, 16)]

    def test_eof_after_comment_in_error(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("basic a // note")
        assert str(exc.value).startswith("<input>:1:16: unexpected eof")

    @pytest.mark.parametrize("digit", ["²", "٣", "１"])
    def test_non_ascii_digit_is_illegal(self, digit):
        with pytest.raises(ParseError, match=f"illegal character '{digit}'") as exc:
            tokenize(f"rule r [{digit}]: => promotes(a);")
        assert exc.value.span.start_col == 9


class TestParse:
    def test_scholarship_counts(self, scholarship_kb):
        assert len(scholarship_kb.scenarios) == 3
        assert len(scholarship_kb.rights) == 5
        assert len(scholarship_kb.assertions) == 7

    def test_empty_file(self):
        kb = parse_kb("")
        assert kb.scenarios == [] and kb.rules == []

    def test_pandemic_counts(self, pandemic_kb):
        chains = [a for a in pandemic_kb.assertions
                  if isinstance(a.head, ChainHead)]
        preds = [a for a in pandemic_kb.assertions
                 if isinstance(a.head, PredHead)]
        assert len(pandemic_kb.scenarios) == 1
        assert len(chains) == 1
        assert len(preds) == 2

    def test_rule_strength(self, triage_kb):
        rule = next(r for r in triage_kb.rules if r.id == "r_mass")
        assert rule.strength == 2

    def test_syntax_error_has_span_and_expected(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("scenario { }")
        assert exc.value.expected
        assert exc.value.span.start_line == 1

    def test_negative_strength(self):
        kb = parse_kb("right a;\nrule r [-3]: => promotes(a);")
        assert kb.rules[0].strength == -3

    @pytest.mark.parametrize("text, literal, col", [
        ("rule r [{}]: => promotes(a);", "-" + "9" * 5000, 9),
        ("risk S {{ response: 1, hazard: {} }}", "9" * 5000, 31)],
        ids=["strength", "risk_field"])
    def test_too_long_integer_is_a_parse_error(self, text, literal, col):
        with pytest.raises(ParseError) as exc:
            parse_kb("right a;\n" + text.format(literal))
        span = exc.value.span
        assert exc.value.message == "integer literal too long"
        assert (span.start_line, span.start_col) == (2, col)
        assert (span.end_line, span.end_col) == (2, col + len(literal))

    @pytest.mark.parametrize("expr", ["!" * 3000 + "a",
                                      "(" * 400 + "a" + ")" * 400],
                             ids=["bangs", "parens"])
    def test_deep_nesting_rejected(self, expr):
        with pytest.raises(ParseError, match="nested deeper than") as exc:
            parse_kb(f"basic a;\nright r := {expr};")
        assert (exc.value.span.start_line, exc.value.span.start_col) == (2, 12 + MAX_NESTING)

    def test_nesting_limit_is_inclusive(self):
        deepest = "!" * (MAX_NESTING - 2) + "(" + "a" + ")"
        kb = parse_kb(f"basic a;\nright r := {deepest};")
        assert parse_kb(print_kb(kb)) == kb
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_kb(f"basic a;\nright r := !{deepest};")

    def test_nesting_depth_resets_between_factors(self):
        wide = " & ".join(["!" * (MAX_NESTING - 1) + "a"] * 5)
        assert len(parse_kb(f"basic a;\nright r := {wide};").rights) == 1

    def test_risk_fields(self):
        # fields omitted, on both paths: the declaration matcher's and the
        # token parser's
        text = "risk S { response: -1, hazard: 4 }"
        for kb in (parse_kb(text), dsl._Matcher().match_kb(text),
                   dsl._Parser(tokenize(text)).parse_kb()):
            ann, = kb.risk_annotations
            assert (ann.hazard, ann.response, ann.intensity) == (4, -1, None)
            assert type(ann) is RiskAnnotation
            assert ann == RiskAnnotation("S", response=-1, hazard=4)

    def test_repeated_risk_field(self):
        with pytest.raises(ParseError) as exc:
            parse_kb("risk S { hazard: 1, response: 2,\n  hazard: 5, intensity: 3 }")
        span = exc.value.span
        assert exc.value.message == "duplicate risk field 'hazard'"
        assert exc.value.expected == ()
        assert (span.start_line, span.start_col, span.end_col) == (2, 3, 9)

    def test_equal_literals_share_one_object(self):
        # `!y` spelled three ways, on both paths: the declaration matcher's
        # and the token parser's
        text = ("right a;\nscenario S { x, !y }\nscenario T { ! y , x }\n"
                "rule r: x & !\n y & y => promotes(a);\nrule q: y&! y => demotes(a);")
        kbs = [parse_kb(text), dsl._Matcher().match_kb(text),
               dsl._Parser(tokenize(text)).parse_kb()]
        for kb in kbs:
            x, not_y, y = kb.rules[0].body
            assert {id(lit) for lit in kb.scenarios[0].features} == {id(x), id(not_y)}
            assert {id(lit) for lit in kb.scenarios[1].features} == {id(x), id(not_y)}
            assert kb.rules[1].body[0] is y and kb.rules[1].body[1] is not_y
            assert y is not not_y and y != not_y


class TestPrint:
    def test_round_trip_fixtures(self, pandemic_kb, scholarship_kb,
                                 privacy_kb, triage_kb):
        for kb in (pandemic_kb, scholarship_kb, privacy_kb, triage_kb):
            assert parse_kb(print_kb(kb)) == kb

    def test_empty_kb_prints_empty(self):
        assert print_kb(parse_kb("")) == ""

    def test_chain_canonical_form(self):
        kb = parse_kb("right A; right B; right C;\nrule r: => A > B > C;")
        assert "rule r: => A > B > C;" in print_kb(kb)

    def test_round_trip_randomized(self):
        rng = random.Random(20260825)
        for _ in range(50):
            kb = random_kb(rng, with_extras=True)
            assert parse_kb(print_kb(kb)) == kb
