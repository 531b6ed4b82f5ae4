"""Reference front end for the lexer and parser oracle tests: the
match-at-offset `tokenize`, which builds a SourceSpan and a Token for every
token as it goes, and the recursive-descent parser that reads those Tokens
through `peek`/`next`. `tests/test_lexer_oracle.py` checks that
`rightsrisk.dsl` gives the same tokens, spans, errors and knowledge bases."""
from __future__ import annotations

import re

from rightsrisk.dsl import (_ESCAPE_RE, _ESCAPES, _PUNCT, KEYWORDS, MAX_NESTING,
                            ParseError, SourceSpan, Token)
from rightsrisk.model import (AndExpr, AssertStmt, BasicRight, ChainHead,
                              DeploymentDomain, FeatureLiteral, FundamentalRight,
                              Head, KnowledgeBase, NotExpr, Obligation, OrExpr,
                              PredHead, Purpose, RightExpr, RightRef,
                              RiskAnnotation, Rule, Scenario, PRED_KINDS,
                              BINARY_PREDS)

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
        # comparing the literals' fields
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
        seen: list[str] = []
        fields = self._braced(lambda: self._risk_field(seen))
        kb.risk_annotations.append(RiskAnnotation(sid, **dict(fields)))

    def _risk_field(self, seen: list[str]) -> tuple[str, int]:
        tok = self.expect("ident", "risk field")
        if tok.value not in RiskAnnotation.FIELDS:
            raise ParseError(tok.span, f"unknown risk field {tok.value!r}",
                             expected=RiskAnnotation.FIELDS)
        if tok.value in seen:
            raise ParseError(tok.span, f"duplicate risk field {tok.value!r}")
        seen.append(tok.value)
        self.expect("colon")
        return tok.value, int(self.expect("int", "integer").value)


def parse_kb(text: str, file: str = "<input>") -> KnowledgeBase:
    """Parse one `.rights` specification. Raises ParseError on the first
    syntax error; semantic problems are left to validate_kb."""
    return _Parser(tokenize(text, file)).parse_kb()

