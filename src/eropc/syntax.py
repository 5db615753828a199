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
    constraint      := ropMembership | outcome | timeDirect | timePartial | historical
    ropMembership   := IDENT "in" IDENT "." ropset
    ropset          := "rights" | "obligs" | "prohibs"
    outcome         := IDENT "." "BizFail" "==" bool   -- a check here, a setter as an action
    timeDirect      := IDENT "." "timestamp" ("==" | "<" | ">") STRING
    timePartial     := IDENT "." timeUnit "in" "[" INT "," INT "]"
    timeUnit        := "hour" | "minute" | "day" | "month" | "year"
    historical      := ["not"] "happened" "(" field ("," field)* ")"
    action          := ropManip | outcome | resetStmt | ifStmt
    ropManip        := IDENT "." ropset ("+=" | "-=") IDENT "(" actualList ")"
    actualList      := actual ("," actual)*
    actual          := IDENT | STRING
    resetStmt       := "reset" IDENT | IDENT "reset"
    ifStmt          := "if" "(" constraint ("," constraint)* ")" "then" action+ ["else" action+] "endif"
    bool            := IDENT    -- must be "true" or "false" (checked in sema)

Field names such as ``botype`` or ``BizFail``, ROP-set names, and time units
are contextual identifiers recognised positionally, not reserved words.

An identifier in the AST is a Token of its kind, lexeme and token index.  Every
position, a lexical or syntax error's too, is a token index, which one call of
``lexer.positions`` turns into line and column; ``sema.split`` gives RuleAsts.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple, TypeVar

from .lexer import FrontEndError, Token, TokenKind, TokenStream, string_value

INT_MAX = 2**31 - 1  # a window bound is emitted into a Java int comparison
ROP_SETS = ("rights", "obligs", "prohibs")
TIME_UNITS = ("hour", "minute", "day", "month", "year")
EVENT_FIELDS = ("botype", "originator", "responder", "outcome")
T = TypeVar("T")


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


class Outcome(NamedTuple):
    """``BO.BizFail == true|false``: a check as a constraint, a setter as an action."""

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


ConstraintAst = RopMembership | Outcome | TimeDirect | TimePartial | Historical


class NegatedConjunction(NamedTuple):
    """The negation of an if-condition: ``sema.split`` guards an else branch with it."""

    items: list[ConstraintAst]


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


class ResetAct(NamedTuple):
    player: Token


class IfAct(NamedTuple):
    cond: list[ConstraintAst]
    then_actions: list["ActionAst"]
    else_actions: list["ActionAst"] | None
    pos: int


ActionAst = RopManip | Outcome | ResetAct | IfAct


class RuleAst(NamedTuple):
    name: str
    name_pos: int
    event_var: Token
    event_fields: list[EventField]
    constraints: list[ConstraintAst | NegatedConjunction]
    actions: list[ActionAst]


class ContractAst(NamedTuple):
    decls: list[Decl]
    rules: list[RuleAst]


class ParseError(FrontEndError):
    """Syntax error naming the expected construct, at the offending token."""

    code = "E-PARSE"


_DECL_KINDS = {
    TokenKind.ROLEPLAYER: ROLE_PLAYER,
    TokenKind.BUSINESSOPERATION: BUSINESS_OP,
    TokenKind.COMPOBLIG: COMP_OBLIG,
}
_MANIP_OPS = {TokenKind.PLUSEQ: "add", TokenKind.MINUSEQ: "remove"}

# Token is a NamedTuple, whose generated __new__ is Python code; this skips it.
_new = tuple.__new__


def parse_contract(tokens: TokenStream) -> ContractAst:
    """Parse a full contract (declarations followed by rules)."""
    return _Parser(tokens).contract()


class _Parser:
    def __init__(self, tokens: TokenStream) -> None:
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.i = 0

    # token bookkeeping by index; a Token is built only for the AST.  Every step
    # past a token follows a kind test, and only expect(EOF) passes EOF.

    def at(self, kind: str) -> bool:
        return self.kinds[self.i] is kind

    def at_ident(self, name: str, ahead: int = 0) -> bool:
        i = self.i + ahead
        return self.kinds[i] is TokenKind.IDENT and self.lexemes[i] == name

    def expect(self, kind: str, what: str) -> str:
        """Step past a token of ``kind`` and return its lexeme."""
        i = self.i
        if self.kinds[i] is not kind:
            raise self.fail(f"expected {what}")
        self.i = i + 1
        return self.lexemes[i]

    def ident(self, what: str = "an identifier") -> Token:
        i = self.i
        if self.kinds[i] is not TokenKind.IDENT:
            raise self.fail(f"expected {what}")
        self.i = i + 1
        return _new(Token, (TokenKind.IDENT, self.lexemes[i], i))

    def fail(self, message: str) -> ParseError:
        i = self.i
        found = "end of input" if self.kinds[i] is TokenKind.EOF else f"'{self.lexemes[i]}'"
        return ParseError(f"{message} but found {found}", i)

    # grammar productions

    def contract(self) -> ContractAst:
        decls: list[Decl] = []
        while self.kinds[self.i] in _DECL_KINDS:
            decls.append(self.decl())
        if not decls:
            raise self.fail("expected a declaration (roleplayer, businessoperation or compoblig)")

        rules: list[RuleAst] = []
        while self.at(TokenKind.RULE):
            rules.append(self.rule())
        if not rules:
            raise self.fail("expected 'rule'")
        if self.kinds[self.i] in _DECL_KINDS:
            raise ParseError("declarations must precede the first rule", self.i)
        self.expect(TokenKind.EOF, "'rule' or end of input")
        return ContractAst(decls, rules)

    def decl(self) -> Decl:
        kind = _DECL_KINDS[self.kinds[self.i]]
        self.i += 1
        if kind != COMP_OBLIG:
            names = self.comma_list(self.ident, f"a {kind} name")
            self.expect(TokenKind.SEMI, "';'")
            return Decl(kind, names, [])
        name = self.ident(f"a {kind} name")
        self.expect(TokenKind.LPAREN, "'('")
        members = self.comma_list(self.ident, "a member business operation")
        self.expect(TokenKind.RPAREN, "')'")
        if self.at(TokenKind.SEMI):  # trailing ';' is optional here
            self.i += 1
        return Decl(kind, [name], members)

    def comma_list(self, item: Callable[..., T], *args: str) -> list[T]:
        """``item ("," item)*``, each item parsed by ``item(*args)``."""
        items = [item(*args)]
        while self.at(TokenKind.COMMA):
            self.i += 1
            items.append(item(*args))
        return items

    def rule(self) -> RuleAst:
        self.expect(TokenKind.RULE, "'rule'")
        name_pos = self.i
        name = string_value(self.expect(TokenKind.STRING, "a rule name string"))
        self.expect(TokenKind.WHEN, "'when'")
        event_var = self.ident("an event variable")
        self.expect(TokenKind.MATCHES, "'matches'")
        fields = self.event_fields()

        constraints: list[ConstraintAst] = []
        while not self.at(TokenKind.THEN):
            if not self.at(TokenKind.IDENT):
                raise self.fail("expected a constraint or 'then'")
            constraints.append(self.constraint())
        self.expect(TokenKind.THEN, "'then'")

        actions = self.action_block((TokenKind.END,), inside_if=False)
        self.expect(TokenKind.END, "'end'")
        return RuleAst(
            name=name,
            name_pos=name_pos,
            event_var=event_var,
            event_fields=fields,
            constraints=constraints,
            actions=actions,
        )

    def event_fields(self) -> list[EventField]:
        self.expect(TokenKind.LPAREN, "'('")
        fields = self.comma_list(self.event_field)
        self.expect(TokenKind.RPAREN, "')'")
        return fields

    def event_field(self) -> EventField:
        name = self.ident("an event field name")
        self.expect(TokenKind.EQ, "'=='")
        value = self.ident("an event field value")
        return EventField(name, value)

    def constraint(self) -> ConstraintAst:
        if not self.at(TokenKind.IDENT):
            raise self.fail("expected a constraint")

        if self.at_ident("not") and self.at_ident("happened", 1):
            self.i += 2
            return Historical(happened=False, fields=self.event_fields())
        if self.at_ident("happened") and self.kinds[self.i + 1] is TokenKind.LPAREN:
            self.i += 1
            return Historical(happened=True, fields=self.event_fields())

        subject = self.ident()
        if self.at(TokenKind.IN):
            self.i += 1
            player = self.ident("a role player name")
            self.expect(TokenKind.DOT, "'.'")
            rop_set = self.ropset()
            return RopMembership(bo=subject, player=player, rop_set=rop_set)

        self.expect(TokenKind.DOT, "'in' or '.'")
        selector = self.expect(TokenKind.IDENT, "'BizFail', 'timestamp' or a time unit")
        if selector == "BizFail":
            return self.outcome(subject)
        if selector == "timestamp":
            op = self.kinds[self.i]  # an operator's kind is its lexeme
            if op not in (TokenKind.EQ, TokenKind.LT, TokenKind.GT):
                raise self.fail("expected '==', '<' or '>'")
            self.i += 1
            ts = self.expect(TokenKind.STRING, "a timestamp string")
            return TimeDirect(subject, op, string_value(ts))
        if selector in TIME_UNITS:
            self.expect(TokenKind.IN, "'in'")
            self.expect(TokenKind.LBRACKET, "'['")
            lo = self.int_bound()
            self.expect(TokenKind.COMMA, "','")
            hi = self.int_bound()
            self.expect(TokenKind.RBRACKET, "']'")
            return TimePartial(subject, selector, lo, hi)
        raise ParseError(
            f"expected 'BizFail', 'timestamp' or a time unit after '.' but found '{selector}'",
            self.i - 1,
        )

    def int_bound(self) -> int:
        lexeme = self.expect(TokenKind.INT, "an integer")
        # measured before int(), which refuses a string of more than a few thousand digits
        if len(lexeme.lstrip("0")) > len(str(INT_MAX)) or int(lexeme) > INT_MAX:
            raise ParseError(f"integer out of range (at most {INT_MAX})", self.i - 1)
        return int(lexeme)

    def ropset(self) -> str:
        lexeme = self.lexemes[self.i]
        if self.at(TokenKind.IDENT) and lexeme in ROP_SETS:
            self.i += 1
            return lexeme
        raise self.fail("expected 'rights', 'obligs' or 'prohibs'")

    def action_block(self, stop: tuple[str, ...], inside_if: bool) -> list[ActionAst]:
        actions = [self.action(inside_if)]
        while self.kinds[self.i] not in stop and not self.at(TokenKind.EOF):
            actions.append(self.action(inside_if))
        return actions

    def action(self, inside_if: bool) -> ActionAst:
        kind = self.kinds[self.i]
        if kind is TokenKind.RESET:
            self.i += 1
            return ResetAct(self.ident("a role player name"))
        if kind is TokenKind.IF:
            if inside_if:
                raise ParseError("nested 'if' actions are not supported", self.i)
            return self.if_action()
        if kind is not TokenKind.IDENT:
            raise self.fail("expected an action")

        subject = self.ident()
        if self.at(TokenKind.RESET):
            self.i += 1
            return ResetAct(subject)

        self.expect(TokenKind.DOT, "'.'")
        selector = self.expect(TokenKind.IDENT, "a ROP set or 'BizFail'")
        if selector == "BizFail":
            return self.outcome(subject)
        if selector not in ROP_SETS:
            raise ParseError(
                f"expected 'rights', 'obligs', 'prohibs' or 'BizFail' but found '{selector}'",
                self.i - 1,
            )
        op = _MANIP_OPS.get(self.kinds[self.i])
        if op is None:
            raise self.fail("expected '+=' or '-='")
        self.i += 1
        bo = self.ident("a business operation name")
        self.expect(TokenKind.LPAREN, "'('")
        actuals = self.comma_list(self.actual)
        self.expect(TokenKind.RPAREN, "')'")
        args = [tok for tok in actuals if tok.kind is TokenKind.IDENT]
        deadlines = [string_value(tok.lexeme) for tok in actuals if tok.kind is TokenKind.STRING]
        return RopManip(
            player=subject, rop_set=selector, op=op, bo=bo, args=args, deadlines=deadlines
        )

    def actual(self) -> Token:
        i = self.i
        kind = self.kinds[i]
        if kind is not TokenKind.IDENT and kind is not TokenKind.STRING:
            raise self.fail("expected an argument (identifier or string)")
        self.i = i + 1
        return _new(Token, (kind, self.lexemes[i], i))

    def outcome(self, bo: Token) -> Outcome:
        """The rest of ``BO.BizFail == value``, once ``BO . BizFail`` is read."""
        self.expect(TokenKind.EQ, "'=='")
        return Outcome(bo, self.ident("'true' or 'false'"))

    def if_action(self) -> IfAct:
        pos = self.i
        self.expect(TokenKind.IF, "'if'")
        self.expect(TokenKind.LPAREN, "'('")
        cond = [self.constraint()]
        while not self.at(TokenKind.RPAREN):
            if self.at(TokenKind.COMMA):  # separators are optional between conditions
                self.i += 1
            cond.append(self.constraint())
        self.expect(TokenKind.RPAREN, "')'")
        self.expect(TokenKind.THEN, "'then'")
        then_actions = self.action_block((TokenKind.ELSE, TokenKind.ENDIF), inside_if=True)
        else_actions = None
        if self.at(TokenKind.ELSE):
            self.i += 1
            else_actions = self.action_block((TokenKind.ENDIF,), inside_if=True)
        self.expect(TokenKind.ENDIF, "'endif'")
        return IfAct(cond, then_actions, else_actions, pos)
