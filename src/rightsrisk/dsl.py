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
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (AndExpr, AssertStmt, BasicRight, ChainHead,
                    DeploymentDomain, FeatureLiteral, FundamentalRight, Head,
                    KnowledgeBase, NotExpr, Obligation, OrExpr, PredHead,
                    Purpose, RightExpr, RightRef, RiskAnnotation, Rule,
                    Scenario, PRED_KINDS, BINARY_PREDS)

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

# One alternative per token class, tried in order at the current offset;
# longer punctuation comes first so `:=` is not read as `:`.
_TOKEN_RE = re.compile(r"""
    (?P<skip>    [ \t\r]+ | //[^\n]* )
  | (?P<newline> \n )
  | (?P<ident>   [A-Za-z_][A-Za-z0-9_]* )
  | (?P<int>     -?[0-9]+ )
  | (?P<string>  " (?: [^"\\\n] | \\. )* " )
  | (?P<punct>   %s )
""" % "|".join(re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True)),
    re.VERBOSE)

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


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    """Tokens with spans; whitespace and `//` comments skipped."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        col = pos - line_start + 1
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos] == '"':
                eol = text.find("\n", pos)
                eol = len(text) if eol < 0 else eol
                raise ParseError(SourceSpan(file, line, col, line, col + eol - pos),
                                 "unterminated string literal")
            raise ParseError(SourceSpan(file, line, col, line, col + 1),
                             f"illegal character {text[pos]!r}")
        kind, word, pos = m.lastgroup, m.group(), m.end()
        if kind == "newline":
            line, line_start = line + 1, pos
        elif kind != "skip":
            value = word
            if kind == "ident" and word in KEYWORDS:
                kind = "kw_" + word
            elif kind == "string":
                value = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), word[1:-1])
            elif kind == "punct":
                kind = _PUNCT[word]
            span = SourceSpan(file, line, col, line, col + len(word))
            tokens.append(Token(kind, value, span))
    col = len(text) - line_start + 1
    tokens.append(Token("eof", "", SourceSpan(file, line, col, line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        # one object per distinct literal: set and dict lookups of literals
        # (rule firing, subset checks) then match by identity, without
        # calling the dataclass `__eq__`
        self.lits: dict[FeatureLiteral, FeatureLiteral] = {}
        self.pos = 0
        self.depth = 0  # right-expression nesting, checked in _rfactor

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span,
                             f"unexpected {tok.kind} {tok.value!r}",
                             expected=(what or kind,))
        return self.next()

    def ident(self) -> str:
        return self.expect("ident", "identifier").value

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
        while self.peek().kind != "eof":
            tok = self.peek()
            handler = dispatch.get(tok.kind)
            if handler is None:
                raise ParseError(tok.span,
                                 f"unexpected {tok.kind} {tok.value!r}",
                                 expected=tuple(sorted(k[3:] for k in dispatch)))
            self.next()  # handlers start after their keyword
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
            raise ParseError(self.peek().span, "right expression nested "
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
        positive = not self.accept("bang")
        lit = FeatureLiteral(self.ident(), positive)
        return self.lits.setdefault(lit, lit)

    def _scen_decl(self, kb: KnowledgeBase) -> None:
        sid = self.ident()
        self.expect("lbrace")
        lits = [] if self.peek().kind == "rbrace" else self.sep_list(self._lit, "comma")
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
        text = self.expect("string", "string").value
        self.expect("kw_applies")
        sid = self.ident()
        self.expect("semi")
        kb.obligations.append(Obligation(oid, text, sid))

    def _head(self) -> Head:
        tok = self.peek()
        if (tok.kind == "ident" and tok.value in PRED_KINDS
                and self.peek(1).kind == "lparen"):
            kind = self.next().value
            self.expect("lparen")
            rights = [self.ident()]
            if self.accept("comma"):
                rights.append(self.ident())
            self.expect("rparen")
            if kind in BINARY_PREDS and len(rights) != 2:
                raise ParseError(tok.span, f"{kind} takes two rights")
            if kind not in BINARY_PREDS and len(rights) != 1:
                raise ParseError(tok.span, f"{kind} takes one right")
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
            strength = int(self.expect("int", "integer").value)
            self.expect("rbracket")
        self.expect("colon")
        body = [] if self.peek().kind == "arrow" else self.sep_list(self._lit, "amp")
        self.expect("arrow")
        head = self._head()
        self.expect("semi")
        kb.rules.append(Rule(rid, tuple(body), head, strength))

    def _risk_decl(self, kb: KnowledgeBase) -> None:
        sid = self.ident()
        fields = dict(self._braced(self._risk_field))
        kb.risk_annotations.append(RiskAnnotation(sid, **fields))

    def _risk_field(self) -> tuple[str, int]:
        tok = self.expect("ident", "risk field")
        if tok.value not in RiskAnnotation.FIELDS:
            raise ParseError(tok.span, f"unknown risk field {tok.value!r}",
                             expected=RiskAnnotation.FIELDS)
        self.expect("colon")
        return tok.value, int(self.expect("int", "integer").value)


def parse_kb(text: str, file: str = "<input>") -> KnowledgeBase:
    """Parse one `.rights` specification. Raises ParseError on the first
    syntax error; semantic problems are left to validate_kb."""
    return _Parser(tokenize(text, file)).parse_kb()


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
