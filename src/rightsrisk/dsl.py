"""Lexer, parser, and canonical printer for the `.rights` specification
language.

Grammar (EBNF):

    kb        = { stmt } ;
    stmt      = basicDecl | rightDecl | scenDecl | domDecl | purpDecl
              | oblDecl | assertStmt | ruleStmt | riskDecl ;
    basicDecl = "basic" ident { "," ident } ";" ;
    rightDecl = "right" ident [ ":=" rexpr ] ";" ;
    rexpr     = rterm { "|" rterm } ;
    rterm     = rfactor { "&" rfactor } ;
    rfactor   = [ "!" ] ( ident | "(" rexpr ")" ) ;
    scenDecl  = "scenario" ident "{" [ lit { "," lit } ] "}" ;
    domDecl   = "domain" ident "{" ident { "," ident } "}" ;
    purpDecl  = "purpose" ident "{" ident { "," ident } "}" ;
    oblDecl   = "obligation" ident string "applies" ident ";" ;
    assertStmt= "assert" head "in" ident ";" ;
    ruleStmt  = "rule" ident [ "[" int "]" ] ":" [ body ] "=>" head ";" ;
    body      = lit { "&" lit } ;
    head      = pred "(" ident [ "," ident ] ")" | chain ;
    pred      = "promotes" | "demotes" | "not_demotes"
              | "collides" | "not_collides" ;
    chain     = ident ">" ident { ">" ident } ;
    riskDecl  = "risk" ident "{" riskField { "," riskField } "}" ;
    riskField = ("hazard"|"response"|"intensity"|"sensitivity"
                |"vulnerability") ":" int ;
    lit       = [ "!" ] ident ;

Comments run from `//` to end of line. Identifiers are
[A-Za-z_][A-Za-z0-9_]*, case-sensitive. Integers are -?[0-9]+, ASCII
digits only. Strings stay on one line; `\\n` and `\\t` are escapes, and a
backslash before any other character stands for that character. Right
expressions nest at most MAX_NESTING `!`s and parentheses deep.

parse_kb reads a KB one declaration per match of one regular expression,
after taking out the comments, and builds each declaration's records from
the parts the match captured. At the first text that expression does not
take, or at a declaration _Parser would reject (a keyword as an
identifier, a repeated or unknown risk field, an integer too long for
int(), a right definition _rexpr refuses), the whole text goes to
tokenize and _Parser instead, and only that path raises ParseError. Warm,
the matcher takes 44-54% less time than they do on the seed-1 benchmark
KBs (16-28 KB). Compiling its expression takes 3-5 ms in a fresh process
(Python 3.11.7, 2-core VM), so a cold first parse of a fixture takes 3-5
ms on the matcher against 0.2-0.7 ms on the token path; on the benchmark
KBs neither path leads by more than 1-3 ms. So a process's first parse_kb
leaves the matcher out: a program that parses one file, as each
`rightsrisk` command does, never compiles it; one that parses many pays
the compile once.

Tokens are stored as a kind and a value only; a token's offset and
line:col are found on demand, for a ParseError or a Token read from
tokenize's result.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property

from .model import (AndExpr, AssertStmt, BasicRight, ChainHead,
                    DeploymentDomain, FeatureLiteral, FundamentalRight, Head,
                    KnowledgeBase, NotExpr, Obligation, OrExpr, PredHead,
                    Purpose, RightExpr, RightRef, RiskAnnotation, Rule,
                    Scenario, PRED_KINDS, BINARY_PREDS, _new)

# deep enough for any real definition; shallow enough that parsing and the
# recursive walks over the expression stay well inside Python's stack limit
MAX_NESTING = 100

KEYWORDS = {"basic", "right", "scenario", "domain", "purpose", "obligation",
            "assert", "rule", "risk", "in", "applies"}

_PUNCT = {
    "{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen",
    "[": "lbracket", "]": "rbracket", ",": "comma", ";": "semi",
    ">": "gt", "|": "pipe", "&": "amp", "!": "bang",
    ":=": "assign", "=>": "arrow", ":": "colon",
}

_STRING = r'"(?:[^"\\\n]|\\.)*"'
_STRING_RE = re.compile(_STRING)

# Whitespace and comments, then one group of word alternatives, tried in
# order at the current offset; longer punctuation comes first so `:=` is not
# read as `:`. The last alternative takes a string left open to the end of
# its line, or any other character. Without re.DOTALL no token crosses a
# newline. `findall` gives each word, and '' for whitespace and comments;
# `finditer` gives the words' offsets, only when a span is needed.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]+ | //[^\n]*
  | ( [A-Za-z_][A-Za-z0-9_]* | -?[0-9]+ | %s | %s | "[^\n]* | . )
""" % (_STRING, "|".join(re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True))),
    re.VERBOSE)

# the kind of a keyword or punctuation word, and of a lone `-` (the last
# alternative's one character); any other word is classed by its first one
_WORD_KINDS = {**{k: "kw_" + k for k in KEYWORDS}, **_PUNCT, "-": "bad"}
_FIRST_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("0123456789-", "int"), '"': "string"}

_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(frozen=True)
class SourceSpan:
    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: SourceSpan


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str,
                 expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = expected
        detail = message
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(f"{span}: {detail}")


def _span(text: str, file: str, start: int) -> SourceSpan:
    """The span of the token at offset `start` (empty for eof), found by
    counting newlines."""
    m = _TOKEN_RE.match(text, start)
    width = m.end() - start if m else 0
    line = text.count("\n", 0, start) + 1
    col = start - text.rfind("\n", 0, start)
    return SourceSpan(file, line, col, line, col + width)


class Tokens(Sequence):
    """tokenize's result: parallel kind and value lists, ending with `eof`.
    Each Token, with its line:col, is built when an item is read; the first
    read finds every token's offset by lexing the text again."""

    def __init__(self, text: str, file: str, kinds: list, values: list):
        self.text, self.file = text, file
        self.kinds, self.values = kinds, values

    @cached_property
    def offsets(self) -> list[int]:
        return [m.start() for m in _TOKEN_RE.finditer(self.text)
                if m.lastindex] + [len(self.text)]

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.values[i],
                     _span(self.text, self.file, self.offsets[i]))


def tokenize(text: str, file: str = "<input>") -> Tokens:
    """Tokens of `text`, whitespace and `//` comments skipped. Each token is
    kept as a kind and a value; its offset and line:col are worked out only
    for an error or an item read from the result."""
    values = list(filter(None, _TOKEN_RE.findall(text)))
    kinds = [_WORD_KINDS.get(w) or _FIRST_KINDS.get(w[0], "bad") for w in values]
    tokens = Tokens(text, file, kinds, values)
    i = -1
    for _ in range(kinds.count("string")):
        i = kinds.index("string", i + 1)
        if _STRING_RE.fullmatch(values[i]):
            values[i] = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), values[i][1:-1])
        else:  # an open string, which runs to the end of its line
            kinds[i] = "bad"
    if "bad" in kinds:
        bad = tokens[kinds.index("bad")]
        raise ParseError(bad.span, "unterminated string literal" if bad.value[0] == '"'
                         else f"illegal character {bad.value!r}")
    kinds.append("eof")
    values.append("")
    return tokens


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens, self.kinds, self.values = tokens, tokens.kinds, tokens.values
        # one object per distinct literal: set and dict lookups of literals
        # (rule firing, subset checks) then match by identity, without
        # comparing the literals' fields
        self.lits: dict[tuple[bool, str], FeatureLiteral] = {}
        # a token is consumed only once its kind is checked, and no check asks
        # for eof, so pos (and _head's lookahead past an ident) stays in range
        self.pos = 0
        self.depth = 0  # right-expression nesting, checked in _rfactor

    def error(self, pos: int, message: str | None = None,
              expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at token `pos`; by default "unexpected <token>"."""
        tok = self.tokens[pos]
        return ParseError(tok.span, message or f"unexpected {tok.kind} {tok.value!r}",
                          expected)

    def accept(self, kind: str) -> bool:
        hit = self.kinds[self.pos] == kind
        self.pos += hit
        return hit

    def expect(self, kind: str, what: str | None = None) -> str:
        """Consume a `kind` token and return its value."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.error(pos, expected=(what or kind,))
        self.pos = pos + 1
        return self.values[pos]

    def ident(self) -> str:
        return self.expect("ident", "identifier")

    def integer(self) -> int:
        try:
            return int(self.expect("int", "integer"))
        except ValueError:  # more digits than `sys.get_int_max_str_digits()`
            raise self.error(self.pos - 1, "integer literal too long") from None

    def sep_list(self, item, sep: str) -> list:
        """`item { sep item }`"""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    # -- statements ---------------------------------------------------------

    def parse_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        dispatch = {
            "kw_basic": self._basic_decl,
            "kw_right": self._right_decl,
            "kw_scenario": self._scen_decl,
            "kw_domain": self._dom_decl,
            "kw_purpose": self._purp_decl,
            "kw_obligation": self._obl_decl,
            "kw_assert": self._assert_stmt,
            "kw_rule": self._rule_stmt,
            "kw_risk": self._risk_decl,
        }
        kinds = self.kinds
        while kinds[self.pos] != "eof":
            handler = dispatch.get(kinds[self.pos])
            if handler is None:
                raise self.error(self.pos, expected=tuple(sorted(k[3:] for k in dispatch)))
            self.pos += 1  # handlers start after their keyword
            handler(kb)
        return kb

    def _basic_decl(self, kb: KnowledgeBase) -> None:
        kb.basic_rights.extend(BasicRight(b) for b in self.sep_list(self.ident, "comma"))
        self.expect("semi")

    def _right_decl(self, kb: KnowledgeBase) -> None:
        rid = self.ident()
        definition = self._rexpr() if self.accept("assign") else None
        self.expect("semi")
        kb.rights.append(FundamentalRight(rid, definition))

    def _rexpr(self) -> RightExpr:
        terms = self.sep_list(self._rterm, "pipe")
        return terms[0] if len(terms) == 1 else OrExpr(tuple(terms))

    def _rterm(self) -> RightExpr:
        factors = self.sep_list(self._rfactor, "amp")
        return factors[0] if len(factors) == 1 else AndExpr(tuple(factors))

    def _rfactor(self) -> RightExpr:
        # a ParseError abandons the whole parse, so depth is only restored
        # on the way out of a successful factor
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(self.pos, "right expression nested "
                             f"deeper than {MAX_NESTING} levels")
        if self.accept("bang"):
            expr = NotExpr(self._rfactor())
        elif self.accept("lparen"):
            expr = self._rexpr()
            self.expect("rparen")
        else:
            expr = RightRef(self.ident())
        self.depth -= 1
        return expr

    def _lit(self) -> FeatureLiteral:
        key = (not self.accept("bang"), self.ident())
        lit = self.lits.get(key)
        if lit is None:
            lit = self.lits[key] = FeatureLiteral(key[1], key[0])
        return lit

    def _scen_decl(self, kb: KnowledgeBase) -> None:
        sid = self.ident()
        self.expect("lbrace")
        lits = [] if self.kinds[self.pos] == "rbrace" else self.sep_list(self._lit, "comma")
        self.expect("rbrace")
        kb.scenarios.append(Scenario(sid, frozenset(lits)))

    def _braced(self, item) -> list:
        """`"{" item { "," item } "}"`"""
        self.expect("lbrace")
        items = self.sep_list(item, "comma")
        self.expect("rbrace")
        return items

    def _dom_decl(self, kb: KnowledgeBase) -> None:
        did = self.ident()
        kb.domains.append(DeploymentDomain(did, tuple(self._braced(self.ident))))

    def _purp_decl(self, kb: KnowledgeBase) -> None:
        pid = self.ident()
        kb.purposes.append(Purpose(pid, tuple(self._braced(self.ident))))

    def _obl_decl(self, kb: KnowledgeBase) -> None:
        oid = self.ident()
        text = self.expect("string", "string")
        self.expect("kw_applies")
        sid = self.ident()
        self.expect("semi")
        kb.obligations.append(Obligation(oid, text, sid))

    def _head(self) -> Head:
        pos = self.pos
        kind = self.values[pos]
        if (self.kinds[pos] == "ident" and kind in PRED_KINDS
                and self.kinds[pos + 1] == "lparen"):
            self.pos = pos + 2
            rights = [self.ident()]
            if self.accept("comma"):
                rights.append(self.ident())
            self.expect("rparen")
            if kind in BINARY_PREDS and len(rights) != 2:
                raise self.error(pos, f"{kind} takes two rights")
            if kind not in BINARY_PREDS and len(rights) != 1:
                raise self.error(pos, f"{kind} takes one right")
            return PredHead(kind, tuple(rights))
        return ChainHead(tuple(self.sep_list(self.ident, "gt")))

    def _assert_stmt(self, kb: KnowledgeBase) -> None:
        head = self._head()
        self.expect("kw_in")
        sid = self.ident()
        self.expect("semi")
        kb.assertions.append(AssertStmt(sid, head))

    def _rule_stmt(self, kb: KnowledgeBase) -> None:
        rid = self.ident()
        strength = 0
        if self.accept("lbracket"):
            strength = self.integer()
            self.expect("rbracket")
        self.expect("colon")
        body = [] if self.kinds[self.pos] == "arrow" else self.sep_list(self._lit, "amp")
        self.expect("arrow")
        head = self._head()
        self.expect("semi")
        kb.rules.append(Rule(rid, tuple(body), head, strength))

    def _risk_decl(self, kb: KnowledgeBase) -> None:
        sid = self.ident()
        fields: dict[str, int] = {}
        self._braced(lambda: self._risk_field(fields))
        kb.risk_annotations.append(RiskAnnotation(sid, **fields))

    def _risk_field(self, fields: dict[str, int]) -> None:
        name = self.expect("ident", "risk field")
        if name not in RiskAnnotation.FIELDS:
            raise self.error(self.pos - 1, f"unknown risk field {name!r}",
                             RiskAnnotation.FIELDS)
        if name in fields:
            raise self.error(self.pos - 1, f"duplicate risk field {name!r}")
        self.expect("colon")
        fields[name] = self.integer()


# -- declaration matcher ------------------------------------------------------
# parse_kb first reads the text one declaration per match of _decl_re(), from
# the whitespace before a keyword to the declaration's `;` or `}`, with its
# parts captured. The matcher may refuse text the grammar allows (that costs
# only speed), but it never accepts text that _Parser rejects.
# - Comments are dropped first, by a pass that skips strings as tokenize
#   does, so a gap between two words is whitespace only.
# - Python 3.10 has no possessive quantifiers or atomic groups, so each
#   repeat is unambiguous instead: a word or an int ends at a word boundary
#   (re.ASCII: not before [A-Za-z0-9_]), and no two gaps meet. A failing
#   match then gives back each character a bounded number of times, and ends
#   in time linear in the text.
# - An identifier is matched as any word and checked against KEYWORDS when
#   its record is built: a lookahead for the keywords at each of the
#   pattern's identifiers would more than double the time it takes to
#   compile.

# group 1, a string or one left open to the end of its line as in _TOKEN_RE,
# is kept whole, so that no quote inside it starts another
_COMMENT_RE = re.compile(rf'({_STRING}|"[^\n]*)|//[^\n]*')
_GAP_RE = re.compile(r"[ \t\r\n]*")  # the whitespace of _TOKEN_RE
_ID = r"[A-Za-z_]\w*\b"  # under re.ASCII


def _fill(template: str, **parts: str) -> str:
    """`template` with each `~` made a gap and each name in `parts` replaced
    by its pattern."""
    parts["~"] = _GAP_RE.pattern
    return re.sub("|".join(parts), lambda m: parts[m[0]], template)


@cache
def _decl_re() -> re.Pattern:
    """The declaration matcher's pattern, compiled at the first match_kb:
    compiling takes a few milliseconds, which a program that parses at most
    once need not spend.

    A keyword is always followed by an identifier, so the gap after it cannot
    be empty. Each alternative starts with its keyword, so one that fails
    fails on its first character, and its groups are named for its kind,
    which the last group it matched gives (see _builders). `domain` and
    `purpose` share one alternative, and `assert` and `rule` one head, after
    which only an assert has `in`. A right definition is matched as a run of
    its words and then read by _rexpr, and a risk field's name is checked
    when its record is built."""
    return re.compile(_fill(r"""~ (?:
    basic\b ~ (?P<basic_ids> ID (?: ~,~ ID )* ) ~;
  | right\b ~ (?P<right_id> ID ) ~ (?: :=~ (?P<right_def> RWORD (?: ~RWORD )* ) ~ )? ;
  | scenario\b ~ (?P<scenario_id> ID ) ~\{~ (?: (?P<scenario_lits> LIT (?: ~,~ LIT )* ) ~ )? \}
  | (?P<grouping_kw> domain | purpose )\b ~ (?P<grouping_id> ID ) ~\{~
        (?P<grouping_ids> ID (?: ~,~ ID )* ) ~\}
  | obligation\b ~ (?P<obligation_id> ID ) ~ (?P<obligation_text> STRING )
        ~ applies\b~ (?P<obligation_for> ID ) ~;
  | (?: (?P<assert_kw> assert )\b
      | rule\b ~ (?P<rule_id> ID ) ~ (?: \[~ (?P<rule_strength> INT ) ~\]~ )? :(?!=)~
        (?: (?P<rule_body> LIT (?: ~&~ LIT )* ) ~ )? => )
    ~ (?: (?P<head_pred> PRED ) ~\(~ (?P<head_first> ID ) (?: ~,~ (?P<head_second> ID ) )? ~\)
        | (?P<head_chain> ID (?: ~>~ ID )* ) )
    ~ (?(assert_kw) in\b~ (?P<assert_in> ID ) ~ ) ;
  | risk\b ~ (?P<risk_id> ID ) ~\{~ (?P<risk_fields> FIELD (?: ~,~ FIELD )* ) ~\}
)""", ID=_ID, INT=r"-?[0-9]+\b", LIT=_fill("(?:!~)?ID", ID=_ID),
        RWORD=rf"(?:[!()&|]|{_ID})", STRING=_STRING, PRED="|".join(PRED_KINDS),
        FIELD=_fill(r"[a-z]+~:~-?[0-9]+\b")), re.VERBOSE | re.ASCII)


def _ident(name: str) -> str:
    if name in KEYWORDS:
        raise ValueError(f"keyword {name!r} as an identifier")
    return name


def _words(text: str, sep: str) -> list[str]:
    """The words of a list that _decl_re() matched, `sep` apart, none of them
    a keyword: only [ \\t\\r\\n] stands between them, so they are the
    list's pieces once its whitespace is taken out."""
    words = "".join(text.split()).split(sep)
    if not KEYWORDS.isdisjoint(words):
        raise ValueError("a keyword as an identifier")
    return words


class _Matcher:
    """Builds a KB from _decl_re()'s matches, record for record as _Parser
    does. A builder raises ValueError where _Parser would raise."""

    def __init__(self):
        self.kb = KnowledgeBase()
        self.lits: dict[str, FeatureLiteral] = {}  # as in _Parser, keyed by "!atom" or "atom"

    def match_kb(self, text: str) -> KnowledgeBase | None:
        """The KB of `text`, or None at the first text _decl_re() does not
        take or the first declaration _Parser would reject."""
        if "//" in text:
            text = _COMMENT_RE.sub(r"\1", text)
        match, build, pos = _decl_re().match, _builders(), 0
        try:
            while m := match(text, pos):
                build[m.lastindex](self, m)
                pos = m.end()
        except (ParseError, ValueError):  # a declaration _Parser would reject
            return None
        return self.kb if _GAP_RE.fullmatch(text, pos) else None

    def _lits(self, text: str | None, sep: str) -> list[FeatureLiteral]:
        lits = self.lits
        return [lits.get(word) or self._lit(word) for word in _words(text, sep)] if text else []

    def _lit(self, word: str) -> FeatureLiteral:
        lit = self.lits[word] = _new(FeatureLiteral, (_ident(word.lstrip("!")), word[0] != "!"))
        return lit

    def _basic(self, m: re.Match) -> None:
        self.kb.basic_rights.extend(map(BasicRight, _words(m["basic_ids"], ",")))

    def _right(self, m: re.Match) -> None:
        rid, text = m.group("right_id", "right_def")
        definition = None
        if text is not None:
            values = list(filter(None, _TOKEN_RE.findall(text)))  # punctuation and words
            parser = _Parser(Tokens(text, "", [_WORD_KINDS.get(w, "ident") for w in values]
                                    + ["eof"], values + [""]))
            definition = parser._rexpr()
            parser.expect("eof")
        self.kb.rights.append(FundamentalRight(_ident(rid), definition))

    def _scenario(self, m: re.Match) -> None:
        sid, lits = m.group("scenario_id", "scenario_lits")
        self.kb.scenarios.append(_new(Scenario, (_ident(sid), frozenset(self._lits(lits, ",")))))

    def _grouping(self, m: re.Match) -> None:
        keyword, gid, ids = m.group("grouping_kw", "grouping_id", "grouping_ids")
        records, kind = ((self.kb.domains, DeploymentDomain) if keyword == "domain"
                         else (self.kb.purposes, Purpose))
        records.append(kind(_ident(gid), tuple(_words(ids, ","))))

    def _obligation(self, m: re.Match) -> None:
        oid, text, sid = m.group("obligation_id", "obligation_text", "obligation_for")
        text = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1])
        self.kb.obligations.append(Obligation(_ident(oid), text, _ident(sid)))

    def _stmt(self, m: re.Match) -> None:
        pred, first, second, chain, assert_kw, name = m.group(
            "head_pred", "head_first", "head_second", "head_chain", "assert_kw", "assert_in")
        if pred is None:
            head = _new(ChainHead, (tuple(_words(chain, ">")),))
        elif (second is None) == (pred in BINARY_PREDS):
            raise ValueError(f"{pred} with the wrong number of rights")  # _Parser names it
        else:
            head = _new(PredHead, (pred, (first,) if second is None else (first, second)))
        if assert_kw:
            self.kb.assertions.append(_new(AssertStmt, (name, head)))
        else:
            name, strength, body = m.group("rule_id", "rule_strength", "rule_body")
            self.kb.rules.append(_new(Rule, (name, tuple(self._lits(body, "&")), head,
                                             0 if strength is None else int(strength))))
        # the head's rights, and the assert's scenario or the rule's id
        if first in KEYWORDS or second in KEYWORDS or name in KEYWORDS:
            raise ValueError("a keyword as an identifier")

    def _risk(self, m: re.Match) -> None:
        fields = [field.split(":") for field in _words(m["risk_fields"], ",")]
        values = {name: int(value) for name, value in fields}
        if len(values) < len(fields) or values.keys() - RiskAnnotation.FIELDS:
            raise ValueError("a repeated or unknown risk field")  # _Parser names it
        get = values.get  # spelt out: unpacking a map into the tuple is slower
        self.kb.risk_annotations.append(_new(RiskAnnotation, (
            _ident(m["risk_id"]), get("hazard"), get("response"), get("intensity"),
            get("sensitivity"), get("vulnerability"))))


@cache
def _builders() -> tuple:
    """The _Matcher builder at each of _decl_re()'s group indexes, so that a
    match's `lastindex` picks one: a group's name starts with its kind, and
    an assert's and a rule's groups go to _stmt."""
    table = [None] * (_decl_re().groups + 1)
    for name, index in _decl_re().groupindex.items():
        kind = name.split("_")[0]
        table[index] = getattr(_Matcher, "_stmt" if kind in ("assert", "rule", "head")
                               else "_" + kind)
    return tuple(table)


_parsed_before = False  # whether this process has called parse_kb


def parse_kb(text: str, file: str = "<input>") -> KnowledgeBase:
    """Parse one `.rights` specification. Raises ParseError on the first
    syntax error; semantic problems are left to validate_kb.

    The declaration matcher reads valid text; at the first text it does not
    take, the whole text goes to tokenize and _Parser, which alone raise.
    A process's first call goes to them straight away, so that a program
    that parses once does not compile the matcher's pattern."""
    global _parsed_before
    kb = _Matcher().match_kb(text) if _parsed_before else None
    _parsed_before = True
    return kb if kb is not None else _Parser(tokenize(text, file)).parse_kb()


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

def _print_expr(expr: RightExpr, parent: str = "top") -> str:
    if isinstance(expr, RightRef):
        return expr.name
    if isinstance(expr, NotExpr):
        inner = _print_expr(expr.operand, "not")
        return "!" + inner
    # same-operator nesting keeps its parentheses so parsing restores the
    # exact tree
    if isinstance(expr, AndExpr):
        s = " & ".join(_print_expr(e, "and") for e in expr.operands)
        return f"({s})" if parent in ("not", "and") else s
    s = " | ".join(_print_expr(e, "or") for e in expr.operands)
    return f"({s})" if parent in ("and", "not", "or") else s


def _print_lits(lits) -> str:
    return ", ".join(str(l) for l in sorted(lits, key=lambda l: (l.atom, not l.positive)))


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def print_kb(kb: KnowledgeBase) -> str:
    """Canonical rendering; parse_kb(print_kb(kb)) is structurally equal
    to kb."""
    out: list[str] = []
    if kb.basic_rights:
        out.append("basic " + ", ".join(b.id for b in kb.basic_rights) + ";")
    for r in kb.rights:
        if r.definition is None:
            out.append(f"right {r.id};")
        else:
            out.append(f"right {r.id} := {_print_expr(r.definition)};")
    for s in kb.scenarios:
        out.append(f"scenario {s.id} {{ {_print_lits(s.features)} }}")
    for d in kb.domains:
        out.append(f"domain {d.id} {{ {', '.join(d.scenarios)} }}")
    for p in kb.purposes:
        out.append(f"purpose {p.id} {{ {', '.join(p.domains)} }}")
    for o in kb.obligations:
        out.append(f'obligation {o.id} "{_escape(o.text)}" applies {o.applies_to};')
    for a in kb.assertions:
        out.append(f"assert {a.head} in {a.scenario};")
    for rule in kb.rules:
        strength = f" [{rule.strength}]" if rule.strength != 0 else ""
        body = " & ".join(str(l) for l in rule.body)
        sep = " " if body else ""
        out.append(f"rule {rule.id}{strength}: {body}{sep}=> {rule.head};")
    for ann in kb.risk_annotations:
        fields = ", ".join(f"{name}: {getattr(ann, name)}"
                           for name in RiskAnnotation.FIELDS
                           if getattr(ann, name) is not None)
        out.append(f"risk {ann.scenario} {{ {fields} }}")
    return "\n".join(out) + ("\n" if out else "")
