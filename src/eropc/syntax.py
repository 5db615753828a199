"""Syntax analysis: recursive-descent parsing of the token stream into an AST.

Grammar for ``.erop`` files (normative for this compiler):

    contract        := decl+ rule+
    decl            := "roleplayer" identList ";"
                     | "businessoperation" identList ";"
                     | "compoblig" IDENT "(" identList ")" [";"]
    identList       := IDENT ("," IDENT)*
    rule            := "rule" STRING "when" eventMatch constraint* "then" action+ "end"
    eventMatch      := IDENT "matches" "(" field ("," field)* ")"
    field           := IDENT "==" IDENT
    constraint      := ropMembership | outcomeCheck | timeDirect | timePartial | historical
    ropMembership   := IDENT "in" IDENT "." ropset
    ropset          := "rights" | "obligs" | "prohibs"
    outcomeCheck    := IDENT "." "BizFail" "==" bool
    timeDirect      := IDENT "." "timestamp" ("==" | "<" | ">") STRING
    timePartial     := IDENT "." timeUnit "in" "[" INT "," INT "]"
    timeUnit        := "hour" | "minute" | "day" | "month" | "year"
    historical      := ["not"] "happened" "(" field ("," field)* ")"
    action          := ropManip | outcomeSet | resetStmt | ifStmt
    ropManip        := IDENT "." ropset ("+=" | "-=") IDENT "(" actualList ")"
    actualList      := actual ("," actual)*
    actual          := IDENT | STRING
    outcomeSet      := IDENT "." "BizFail" "==" bool
    resetStmt       := "reset" IDENT | IDENT "reset"
    ifStmt          := "if" "(" constraint ("," constraint)* ")" "then" action+ ["else" action+] "endif"
    bool            := IDENT    -- must be "true" or "false" (checked in sema)

Field names such as ``botype`` or ``BizFail``, ROP-set names, and time units
are contextual identifiers recognised positionally, not reserved words.

An identifier in the AST is its IDENT token itself; positions are character
offsets, which ``lexer.positions`` turns into line and column when one is shown.
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import Token, TokenKind, string_value

ROP_SETS = ("rights", "obligs", "prohibs")
TIME_UNITS = ("hour", "minute", "day", "month", "year")
EVENT_FIELDS = ("botype", "originator", "responder", "outcome")


class EventField(NamedTuple):
    name: Token
    value: Token


# --- declarations ---

ROLE_PLAYER = "role player"
BUSINESS_OP = "business operation"
COMP_OBLIG = "composite obligation"


class Decl(NamedTuple):
    """A declaration of ``kind`` (one of the three constants above).

    A composite obligation has one name and its member list; the other two
    kinds have ``members=[]``.
    """

    kind: str
    names: list[Token]
    members: list[Token]


# --- constraints ---


class RopMembership(NamedTuple):
    """``BO in player.rights`` (membership of a ROP set)."""

    bo: Token
    player: Token
    rop_set: str


class OutcomeCheck(NamedTuple):
    """``BO.BizFail == true|false`` in a left-hand side."""

    bo: Token
    value: Token


class TimeDirect(NamedTuple):
    event_var: Token
    op: str  # "==", "<" or ">"
    timestamp: str


class TimePartial(NamedTuple):
    event_var: Token
    unit: str
    lo: int
    hi: int


class Historical(NamedTuple):
    happened: bool
    fields: list[EventField]


ConstraintAst = RopMembership | OutcomeCheck | TimeDirect | TimePartial | Historical


# --- actions ---


class RopManip(NamedTuple):
    """``player.rights += BO(args...)`` or the ``-=`` form."""

    player: Token
    rop_set: str
    op: str  # "add" or "remove"
    bo: Token
    args: list[Token]
    deadlines: list[str]

    @property
    def deadline(self) -> str | None:
        return self.deadlines[0] if self.deadlines else None


class OutcomeSetAct(NamedTuple):
    """``BO.BizFail == true|false`` in a right-hand side (a setter)."""

    bo: Token
    value: Token


class ResetAct(NamedTuple):
    player: Token


class IfAct(NamedTuple):
    cond: list[ConstraintAst]
    then_actions: list["ActionAst"]
    else_actions: list["ActionAst"] | None
    pos: int


ActionAst = RopManip | OutcomeSetAct | ResetAct | IfAct


class RuleAst(NamedTuple):
    name: str
    name_pos: int
    event_var: Token
    event_fields: list[EventField]
    constraints: list[ConstraintAst]
    actions: list[ActionAst]


class ContractAst(NamedTuple):
    decls: list[Decl]
    rules: list[RuleAst]


class ParseError(Exception):
    """Syntax error naming the expected construct and the offending token's offset."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos


_DECL_KINDS = {
    TokenKind.ROLEPLAYER: ROLE_PLAYER,
    TokenKind.BUSINESSOPERATION: BUSINESS_OP,
    TokenKind.COMPOBLIG: COMP_OBLIG,
}


def parse_contract(tokens: list[Token]) -> ContractAst:
    """Parse a full contract (declarations followed by rules)."""
    return _Parser(tokens).contract()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0

    # token bookkeeping

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]
        return self.tokens[self.i]  # advance never moves past EOF

    def at(self, kind: TokenKind) -> bool:
        return self.tokens[self.i].kind is kind

    def at_ident(self, name: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == TokenKind.IDENT and tok.lexeme == name

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind is not kind:
            raise ParseError(f"expected {what} but found {self._show(tok)}", tok.offset)
        return self.advance()

    def ident(self, what: str = "an identifier") -> Token:
        return self.expect(TokenKind.IDENT, what)

    @staticmethod
    def _show(tok: Token) -> str:
        if tok.kind is TokenKind.EOF:
            return "end of input"
        return f"'{tok.lexeme}'"

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message} but found {self._show(tok)}", tok.offset)

    # grammar productions

    def contract(self) -> ContractAst:
        decls: list[Decl] = []
        while self.peek().kind in _DECL_KINDS:
            decls.append(self.decl())
        if not decls:
            raise self.fail("expected a declaration (roleplayer, businessoperation or compoblig)")

        rules: list[RuleAst] = []
        while self.at(TokenKind.RULE):
            rules.append(self.rule())
        if not rules:
            raise self.fail("expected 'rule'")
        if self.peek().kind in _DECL_KINDS:
            raise ParseError("declarations must precede the first rule", self.peek().offset)
        self.expect(TokenKind.EOF, "'rule' or end of input")
        return ContractAst(decls, rules)

    def decl(self) -> Decl:
        kind = _DECL_KINDS[self.advance().kind]
        if kind != COMP_OBLIG:
            names = self.ident_list(f"a {kind} name")
            self.expect(TokenKind.SEMI, "';'")
            return Decl(kind, names, [])
        name = self.ident(f"a {kind} name")
        self.expect(TokenKind.LPAREN, "'('")
        members = self.ident_list("a member business operation")
        self.expect(TokenKind.RPAREN, "')'")
        if self.at(TokenKind.SEMI):  # trailing ';' is optional here
            self.advance()
        return Decl(kind, [name], members)

    def ident_list(self, what: str) -> list[Token]:
        names = [self.ident(what)]
        while self.at(TokenKind.COMMA):
            self.advance()
            names.append(self.ident(what))
        return names

    def rule(self) -> RuleAst:
        self.expect(TokenKind.RULE, "'rule'")
        name_tok = self.expect(TokenKind.STRING, "a rule name string")
        self.expect(TokenKind.WHEN, "'when'")
        event_var = self.ident("an event variable")
        self.expect(TokenKind.MATCHES, "'matches'")
        fields = self.event_fields()

        constraints: list[ConstraintAst] = []
        while not self.at(TokenKind.THEN):
            if self.peek().kind is not TokenKind.IDENT:
                raise self.fail("expected a constraint or 'then'")
            constraints.append(self.constraint())
        self.expect(TokenKind.THEN, "'then'")

        actions = self.action_block((TokenKind.END,), inside_if=False)
        self.expect(TokenKind.END, "'end'")
        return RuleAst(
            name=string_value(name_tok),
            name_pos=name_tok.offset,
            event_var=event_var,
            event_fields=fields,
            constraints=constraints,
            actions=actions,
        )

    def event_fields(self) -> list[EventField]:
        self.expect(TokenKind.LPAREN, "'('")
        fields = [self.event_field()]
        while self.at(TokenKind.COMMA):
            self.advance()
            fields.append(self.event_field())
        self.expect(TokenKind.RPAREN, "')'")
        return fields

    def event_field(self) -> EventField:
        name = self.ident("an event field name")
        self.expect(TokenKind.EQ, "'=='")
        value = self.ident("an event field value")
        return EventField(name, value)

    def constraint(self) -> ConstraintAst:
        tok = self.peek()
        if tok.kind is not TokenKind.IDENT:
            raise self.fail("expected a constraint")

        if self.at_ident("not") and self.at_ident("happened", 1):
            self.advance()
            self.advance()
            return Historical(happened=False, fields=self.event_fields())
        if self.at_ident("happened") and self.peek(1).kind is TokenKind.LPAREN:
            self.advance()
            return Historical(happened=True, fields=self.event_fields())

        subject = self.ident()
        if self.at(TokenKind.IN):
            self.advance()
            player = self.ident("a role player name")
            self.expect(TokenKind.DOT, "'.'")
            rop_set = self.ropset()
            return RopMembership(bo=subject, player=player, rop_set=rop_set)

        self.expect(TokenKind.DOT, "'in' or '.'")
        selector = self.ident("'BizFail', 'timestamp' or a time unit")
        if selector.lexeme == "BizFail":
            self.expect(TokenKind.EQ, "'=='")
            value = self.ident("'true' or 'false'")
            return OutcomeCheck(bo=subject, value=value)
        if selector.lexeme == "timestamp":
            op_tok = self.peek()
            if op_tok.kind not in (TokenKind.EQ, TokenKind.LT, TokenKind.GT):
                raise self.fail("expected '==', '<' or '>'")
            self.advance()
            ts = self.expect(TokenKind.STRING, "a timestamp string")
            return TimeDirect(subject, op_tok.lexeme, string_value(ts))
        if selector.lexeme in TIME_UNITS:
            self.expect(TokenKind.IN, "'in'")
            self.expect(TokenKind.LBRACKET, "'['")
            lo = self.expect(TokenKind.INT, "an integer")
            self.expect(TokenKind.COMMA, "','")
            hi = self.expect(TokenKind.INT, "an integer")
            self.expect(TokenKind.RBRACKET, "']'")
            return TimePartial(subject, selector.lexeme, int(lo.lexeme), int(hi.lexeme))
        raise ParseError(
            "expected 'BizFail', 'timestamp' or a time unit after '.' "
            f"but found '{selector.lexeme}'",
            selector.offset,
        )

    def ropset(self) -> str:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT and tok.lexeme in ROP_SETS:
            self.advance()
            return tok.lexeme
        raise self.fail("expected 'rights', 'obligs' or 'prohibs'")

    def action_block(self, stop: tuple[TokenKind, ...], inside_if: bool) -> list[ActionAst]:
        actions = [self.action(inside_if)]
        while self.peek().kind not in stop and not self.at(TokenKind.EOF):
            actions.append(self.action(inside_if))
        return actions

    def action(self, inside_if: bool) -> ActionAst:
        tok = self.peek()
        if tok.kind is TokenKind.RESET:
            self.advance()
            return ResetAct(self.ident("a role player name"))
        if tok.kind is TokenKind.IF:
            if inside_if:
                raise ParseError("nested 'if' actions are not supported", tok.offset)
            return self.if_action()
        if tok.kind is not TokenKind.IDENT:
            raise self.fail("expected an action")

        subject = self.ident()
        if self.at(TokenKind.RESET):
            self.advance()
            return ResetAct(subject)

        self.expect(TokenKind.DOT, "'.'")
        selector = self.ident("a ROP set or 'BizFail'")
        if selector.lexeme == "BizFail":
            self.expect(TokenKind.EQ, "'=='")
            value = self.ident("'true' or 'false'")
            return OutcomeSetAct(bo=subject, value=value)
        if selector.lexeme not in ROP_SETS:
            raise ParseError(
                "expected 'rights', 'obligs', 'prohibs' or 'BizFail' "
                f"but found '{selector.lexeme}'",
                selector.offset,
            )
        op_tok = self.peek()
        if op_tok.kind is TokenKind.PLUSEQ:
            op = "add"
        elif op_tok.kind is TokenKind.MINUSEQ:
            op = "remove"
        else:
            raise self.fail("expected '+=' or '-='")
        self.advance()
        bo = self.ident("a business operation name")
        self.expect(TokenKind.LPAREN, "'('")
        args: list[Token] = []
        deadlines: list[str] = []
        self.actual(args, deadlines)
        while self.at(TokenKind.COMMA):
            self.advance()
            self.actual(args, deadlines)
        self.expect(TokenKind.RPAREN, "')'")
        return RopManip(
            player=subject, rop_set=selector.lexeme, op=op, bo=bo, args=args, deadlines=deadlines
        )

    def actual(self, args: list[Token], deadlines: list[str]) -> None:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            args.append(self.ident())
        elif tok.kind is TokenKind.STRING:
            self.advance()
            deadlines.append(string_value(tok))
        else:
            raise self.fail("expected an argument (identifier or string)")

    def if_action(self) -> IfAct:
        if_tok = self.expect(TokenKind.IF, "'if'")
        self.expect(TokenKind.LPAREN, "'('")
        cond = [self.constraint()]
        while not self.at(TokenKind.RPAREN):
            if self.at(TokenKind.COMMA):  # separators are optional between conditions
                self.advance()
            cond.append(self.constraint())
        self.expect(TokenKind.RPAREN, "')'")
        self.expect(TokenKind.THEN, "'then'")
        then_actions = self.action_block((TokenKind.ELSE, TokenKind.ENDIF), inside_if=True)
        else_actions = None
        if self.at(TokenKind.ELSE):
            self.advance()
            else_actions = self.action_block((TokenKind.ENDIF,), inside_if=True)
        self.expect(TokenKind.ENDIF, "'endif'")
        return IfAct(cond, then_actions, else_actions, if_tok.offset)
