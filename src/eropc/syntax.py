"""Syntax analysis: recursive-descent parsing of the token stream into an AST.

Grammar for ``.erop`` files (normative for this compiler):

    contract        := decl+ rule+
    decl            := "roleplayer" identList ";"
                     | "businessoperation" identList ";"
                     | "compoblig" IDENT "(" identList ")" [";"]
    identList       := IDENT ("," IDENT)*
    rule            := "rule" STRING "when" eventMatch constraint* "then" (action | ifStmt)+ "end"
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
    action          := ropManip | outcome | resetStmt
    ropManip        := IDENT "." ropset ("+=" | "-=") IDENT "(" actualList ")"
    actualList      := actual ("," actual)*
    actual          := IDENT | STRING
    resetStmt       := "reset" IDENT | IDENT "reset"
    ifStmt          := "if" "(" constraint ("," constraint)* ")" "then" action+ ["else" action+] "endif"
    bool            := IDENT    -- must be "true" or "false" (checked in sema)

Field names such as ``botype`` or ``BizFail``, ROP-set names, and time units
are contextual identifiers recognised positionally, not reserved words.

An identifier in the AST is its lexeme, the very string the token stream holds.  A
record that holds identifiers keeps one token index, ``pos``, and each identifier's
index follows from its fixed place in the production, which the record states.  Every
position, a lexical or syntax error's too, is a token index, which one call of
``lexer.positions`` turns into line and column; ``sema.split`` gives RuleAsts.
The parser tests token kinds by index and builds every record positionally, each sequence
as a tuple, and one EventField, which holds no position, for each distinct field of a parse.
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import FrontEndError, TokenKind, TokenStream, _new, string_value

INT_MAX = 2**31 - 1  # a window bound is emitted into a Java int comparison
ROP_SETS = ("rights", "obligs", "prohibs")
TIME_UNITS = ("hour", "minute", "day", "month", "year")
EVENT_FIELDS = ("botype", "originator", "responder", "outcome")


class EventField(NamedTuple):
    name: str
    value: str


def field_pos(lparen: int, j: int) -> tuple[int, int]:
    """The token indexes of the name and value of field j of a list whose "(" is at ``lparen``."""
    return lparen + 1 + 4 * j, lparen + 3 + 4 * j


# --- declarations ---

ROLE_PLAYER = "role player"
BUSINESS_OP = "business operation"
COMP_OBLIG = "composite obligation"


class Decl(NamedTuple):
    """A declaration of ``kind`` (one of the three constants above).

    A composite obligation has one name and its member list; the other two
    kinds have ``members=()``.  ``pos`` is the first name's token index.
    """

    kind: str
    names: tuple[str, ...]
    members: tuple[str, ...]
    pos: int

    def name_pos(self, j: int) -> int:
        return self.pos + 2 * j  # names are separated by commas

    def member_pos(self, j: int) -> int:
        return self.pos + 2 + 2 * j  # after the one name and its "("


# --- constraints ---


class RopMembership(NamedTuple):
    """``BO in player.rights`` (membership of a ROP set)."""

    bo: str
    player: str
    rop_set: str
    pos: int

    player_pos = property(lambda self: self.pos + 2)


class Outcome(NamedTuple):
    """``BO.BizFail == true|false``: a check as a constraint, a setter as an action."""

    bo: str
    value: str
    pos: int

    value_pos = property(lambda self: self.pos + 4)


class TimeDirect(NamedTuple):
    event_var: str
    op: str  # "==", "<" or ">"
    timestamp: str  # the STRING lexeme, quotes included
    pos: int


class TimePartial(NamedTuple):
    event_var: str
    unit: str
    lo: int
    hi: int
    pos: int


class Historical(NamedTuple):
    """``[not] happened (fields)``, its ``(`` at token ``pos``."""

    happened: bool
    fields: tuple[EventField, ...]
    pos: int


ConstraintAst = RopMembership | Outcome | TimeDirect | TimePartial | Historical


class NegatedConjunction(NamedTuple):
    """The negation of an if-condition: ``sema.split`` guards an else branch with it."""

    items: tuple[ConstraintAst, ...]


# --- actions ---


class RopManip(NamedTuple):
    """``player.rights += BO(actuals...)`` or the ``-=`` form; each actual is
    an identifier or a STRING lexeme (quotes included), in source order."""

    player: str
    rop_set: str
    op: str  # "add" or "remove"
    bo: str
    actuals: tuple[str, ...]
    pos: int

    bo_pos = property(lambda self: self.pos + 4)

    def actual_pos(self, j: int) -> int:
        return self.pos + 6 + 2 * j  # after "BO (", separated by commas


class ResetAct(NamedTuple):
    """``reset player`` or ``player reset``, the player at token ``pos``."""

    player: str
    pos: int


class IfAct(NamedTuple):
    cond: tuple[ConstraintAst, ...]
    then_actions: tuple["ActionAst", ...]
    else_actions: tuple["ActionAst", ...] | None
    pos: int


ActionAst = RopManip | Outcome | ResetAct | IfAct


class RuleAst(NamedTuple):
    name: str
    name_pos: int
    event_var: str
    event_fields: tuple[EventField, ...]
    constraints: tuple[ConstraintAst | NegatedConjunction, ...]
    actions: tuple[ActionAst, ...]

    event_var_pos = property(lambda self: self.name_pos + 2)  # after "when"
    fields_pos = property(lambda self: self.name_pos + 4)  # the event match's "("


class ContractAst(NamedTuple):
    decls: tuple[Decl, ...]
    rules: tuple[RuleAst, ...]


class ParseError(FrontEndError):
    """Syntax error naming the expected construct, at the offending token."""

    code = "E-PARSE"


_DECL_KINDS = {
    TokenKind.ROLEPLAYER: ROLE_PLAYER,
    TokenKind.BUSINESSOPERATION: BUSINESS_OP,
    TokenKind.COMPOBLIG: COMP_OBLIG,
}
_MANIP_OPS = {TokenKind.PLUSEQ: "add", TokenKind.MINUSEQ: "remove"}
# the kinds that end an action block; EOF ends each, and the caller reports what is missing
_RULE_END = (TokenKind.END, TokenKind.EOF)
_THEN_END = (TokenKind.ELSE, TokenKind.ENDIF, TokenKind.EOF)
_ELSE_END = (TokenKind.ENDIF, TokenKind.EOF)


def parse_contract(tokens: TokenStream) -> ContractAst:
    """Parse a full contract (declarations followed by rules)."""
    return _Parser(tokens).contract()


class _Parser:
    """A production tests kinds by token index, from its first token on, and
    raises at the first that fails, so no test reads past EOF; then it moves
    the cursor ``i`` past what it read."""

    def __init__(self, tokens: TokenStream) -> None:
        self.kinds = tokens.kinds
        self.lexemes = tokens.lexemes
        self.i = 0
        self.fields: dict[EventField, EventField] = {}  # each distinct field, its own key

    def at(self, kind: int) -> bool:
        return self.kinds[self.i] is kind

    def expect(self, kind: int, what: str) -> str:
        """Step past a token of ``kind`` and return its lexeme."""
        i = self.i
        if self.kinds[i] is not kind:
            raise self.fail(f"expected {what}")
        self.i = i + 1
        return self.lexemes[i]

    def fail(self, message: str, i: int | None = None) -> ParseError:
        """The error ``message`` at token ``i``, the cursor's by default."""
        if i is None:
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
        return _new(ContractAst, (tuple(decls), tuple(rules)))

    def decl(self) -> Decl:
        kind = _DECL_KINDS[self.kinds[self.i]]
        self.i += 1
        pos = self.i
        if kind != COMP_OBLIG:
            names = self.idents(f"a {kind} name")
            self.expect(TokenKind.SEMI, "';'")
            return _new(Decl, (kind, names, (), pos))
        name = self.expect(TokenKind.IDENT, f"a {kind} name")
        self.expect(TokenKind.LPAREN, "'('")
        members = self.idents(f"a member {BUSINESS_OP}")
        self.expect(TokenKind.RPAREN, "')'")
        if self.at(TokenKind.SEMI):  # trailing ';' is optional here
            self.i += 1
        return _new(Decl, (kind, (name,), members, pos))

    def idents(self, what: str) -> tuple[str, ...]:
        """``IDENT ("," IDENT)*``, each IDENT ``what``."""
        kinds = self.kinds
        i = first = self.i
        while True:
            if kinds[i] is not TokenKind.IDENT:
                raise self.fail(f"expected {what}", i)
            if kinds[i + 1] is not TokenKind.COMMA:
                break
            i += 2
        self.i = i + 1
        return tuple(self.lexemes[first:i + 1:2])

    def rule(self) -> RuleAst:
        """The rule at its ``rule`` keyword, which the caller tested."""
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i + 1
        if kinds[i] is not TokenKind.STRING:
            raise self.fail("expected a rule name string", i)
        if kinds[i + 1] is not TokenKind.WHEN:
            raise self.fail("expected 'when'", i + 1)
        if kinds[i + 2] is not TokenKind.IDENT:
            raise self.fail("expected an event variable", i + 2)
        if kinds[i + 3] is not TokenKind.MATCHES:
            raise self.fail("expected 'matches'", i + 3)
        self.i = i + 4
        fields = self.event_fields()

        constraints: list[ConstraintAst] = []
        while kinds[self.i] is not TokenKind.THEN:
            if kinds[self.i] is not TokenKind.IDENT:
                raise self.fail("expected a constraint or 'then'")
            constraints.append(self.constraint())
        self.i += 1

        actions = self.action_block(_RULE_END, inside_if=False)
        if kinds[self.i] is not TokenKind.END:
            raise self.fail("expected 'end'")
        self.i += 1
        rule = (string_value(lexemes[i]), i, lexemes[i + 2], fields, tuple(constraints), actions)
        return _new(RuleAst, rule)

    def event_fields(self) -> tuple[EventField, ...]:
        """``"(" IDENT "==" IDENT ("," IDENT "==" IDENT)* ")"``"""
        kinds, lexemes, shared = self.kinds, self.lexemes, self.fields
        i = self.i
        if kinds[i] is not TokenKind.LPAREN:
            raise self.fail("expected '('", i)
        fields = []
        while True:
            i += 1
            if kinds[i] is not TokenKind.IDENT:
                raise self.fail("expected an event field name", i)
            if kinds[i + 1] is not TokenKind.EQ:
                raise self.fail("expected '=='", i + 1)
            if kinds[i + 2] is not TokenKind.IDENT:
                raise self.fail("expected an event field value", i + 2)
            pair = lexemes[i], lexemes[i + 2]
            field = shared.get(pair)  # a pair equals, and hashes as, the record that holds it
            if field is None:
                field = shared[field] = _new(EventField, pair)  # the record is its own key
            fields.append(field)
            i += 3
            if kinds[i] is not TokenKind.COMMA:
                break
        if kinds[i] is not TokenKind.RPAREN:
            raise self.fail("expected ')'", i)
        self.i = i + 1
        return tuple(fields)

    def constraint(self) -> ConstraintAst:
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i
        if kinds[i] is not TokenKind.IDENT:
            raise self.fail("expected a constraint", i)
        first = lexemes[i]
        if first == "not" and kinds[i + 1] is TokenKind.IDENT and lexemes[i + 1] == "happened":
            self.i = i + 2
            return _new(Historical, (False, self.event_fields(), i + 2))
        if first == "happened" and kinds[i + 1] is TokenKind.LPAREN:
            self.i = i + 1
            return _new(Historical, (True, self.event_fields(), i + 1))

        if kinds[i + 1] is TokenKind.IN:
            if kinds[i + 2] is not TokenKind.IDENT:
                raise self.fail(f"expected a {ROLE_PLAYER} name", i + 2)
            if kinds[i + 3] is not TokenKind.DOT:
                raise self.fail("expected '.'", i + 3)
            rop_set = lexemes[i + 4]
            if kinds[i + 4] is not TokenKind.IDENT or rop_set not in ROP_SETS:
                raise self.fail("expected 'rights', 'obligs' or 'prohibs'", i + 4)
            self.i = i + 5
            return _new(RopMembership, (first, lexemes[i + 2], rop_set, i))

        if kinds[i + 1] is not TokenKind.DOT:
            raise self.fail("expected 'in' or '.'", i + 1)
        if kinds[i + 2] is not TokenKind.IDENT:
            raise self.fail("expected 'BizFail', 'timestamp' or a time unit", i + 2)
        selector = lexemes[i + 2]
        if selector == "BizFail":
            return self.outcome(i)
        if selector == "timestamp":
            op = kinds[i + 3]
            if op is not TokenKind.EQ and op is not TokenKind.LT and op is not TokenKind.GT:
                raise self.fail("expected '==', '<' or '>'", i + 3)
            if kinds[i + 4] is not TokenKind.STRING:
                raise self.fail("expected a timestamp string", i + 4)
            self.i = i + 5
            return _new(TimeDirect, (first, lexemes[i + 3], lexemes[i + 4], i))
        if selector in TIME_UNITS:
            if kinds[i + 3] is not TokenKind.IN:
                raise self.fail("expected 'in'", i + 3)
            if kinds[i + 4] is not TokenKind.LBRACKET:
                raise self.fail("expected '['", i + 4)
            lo = self.int_bound(i + 5)
            if kinds[i + 6] is not TokenKind.COMMA:
                raise self.fail("expected ','", i + 6)
            hi = self.int_bound(i + 7)
            if kinds[i + 8] is not TokenKind.RBRACKET:
                raise self.fail("expected ']'", i + 8)
            self.i = i + 9
            return _new(TimePartial, (first, selector, lo, hi, i))
        raise self.fail("expected 'BizFail', 'timestamp' or a time unit after '.'", i + 2)

    def int_bound(self, i: int) -> int:
        """The window bound at token ``i``."""
        if self.kinds[i] is not TokenKind.INT:
            raise self.fail("expected an integer", i)
        lexeme = self.lexemes[i]
        # measured before int(), which refuses a string of more than a few thousand digits
        if len(lexeme.lstrip("0")) > len(str(INT_MAX)) or int(lexeme) > INT_MAX:
            raise ParseError(f"integer out of range (at most {INT_MAX})", i)
        return int(lexeme)

    def action_block(self, stop: tuple[int, ...], inside_if: bool) -> tuple[ActionAst, ...]:
        actions = [self.action(inside_if)]
        while self.kinds[self.i] not in stop:
            actions.append(self.action(inside_if))
        return tuple(actions)

    def action(self, inside_if: bool) -> ActionAst:
        kinds, lexemes = self.kinds, self.lexemes
        i = self.i
        kind = kinds[i]
        if kind is TokenKind.RESET:
            if kinds[i + 1] is not TokenKind.IDENT:
                raise self.fail(f"expected a {ROLE_PLAYER} name", i + 1)
            self.i = i + 2
            return _new(ResetAct, (lexemes[i + 1], i + 1))
        if kind is TokenKind.IF:
            if inside_if:
                raise ParseError("nested 'if' actions are not supported", i)
            return self.if_action()
        if kind is not TokenKind.IDENT:
            raise self.fail("expected an action", i)

        if kinds[i + 1] is TokenKind.RESET:
            self.i = i + 2
            return _new(ResetAct, (lexemes[i], i))
        if kinds[i + 1] is not TokenKind.DOT:
            raise self.fail("expected '.'", i + 1)
        if kinds[i + 2] is not TokenKind.IDENT:
            raise self.fail("expected a ROP set or 'BizFail'", i + 2)
        selector = lexemes[i + 2]
        if selector == "BizFail":
            return self.outcome(i)
        if selector not in ROP_SETS:
            raise self.fail("expected 'rights', 'obligs', 'prohibs' or 'BizFail'", i + 2)
        op = _MANIP_OPS.get(kinds[i + 3])
        if op is None:
            raise self.fail("expected '+=' or '-='", i + 3)
        if kinds[i + 4] is not TokenKind.IDENT:
            raise self.fail(f"expected a {BUSINESS_OP} name", i + 4)
        if kinds[i + 5] is not TokenKind.LPAREN:
            raise self.fail("expected '('", i + 5)
        j = i + 6
        while True:
            kind = kinds[j]
            if kind is not TokenKind.IDENT and kind is not TokenKind.STRING:
                raise self.fail("expected an argument (identifier or string)", j)
            if kinds[j + 1] is not TokenKind.COMMA:
                break
            j += 2
        if kinds[j + 1] is not TokenKind.RPAREN:
            raise self.fail("expected ')'", j + 1)
        self.i = j + 2
        actuals = tuple(lexemes[i + 6:j + 1:2])
        return _new(RopManip, (lexemes[i], selector, op, lexemes[i + 4], actuals, i))

    def outcome(self, pos: int) -> Outcome:
        """``BO.BizFail == value``, its ``BO.BizFail`` at ``pos``, which the caller tested."""
        i = pos + 3
        if self.kinds[i] is not TokenKind.EQ:
            raise self.fail("expected '=='", i)
        if self.kinds[i + 1] is not TokenKind.IDENT:
            raise self.fail("expected 'true' or 'false'", i + 1)
        self.i = i + 2
        return _new(Outcome, (self.lexemes[pos], self.lexemes[i + 1], pos))

    def if_action(self) -> IfAct:
        """The action at its ``if`` keyword, which the caller tested."""
        pos = self.i
        self.i += 1
        self.expect(TokenKind.LPAREN, "'('")
        cond = [self.constraint()]
        while self.at(TokenKind.COMMA):
            self.i += 1
            cond.append(self.constraint())
        self.expect(TokenKind.RPAREN, "')'")
        self.expect(TokenKind.THEN, "'then'")
        then_actions = self.action_block(_THEN_END, inside_if=True)
        else_actions = None
        if self.at(TokenKind.ELSE):
            self.i += 1
            else_actions = self.action_block(_ELSE_END, inside_if=True)
        self.expect(TokenKind.ENDIF, "'endif'")
        return _new(IfAct, (tuple(cond), then_actions, else_actions, pos))
