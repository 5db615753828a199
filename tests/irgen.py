"""Hypothesis strategies for random source rules, shared by the property suites.

The splitting laws compare the emitted rules with the source rule's own
constraints rendered one by one, an expectation that lowering did not produce.
"""

from hypothesis import strategies as st

from eropc.codegen import DEFAULT_LOOKUP, constraint_expr, emit_rule
from eropc.ir import IrRule, lower_contract
from eropc.lexer import Token, TokenKind
from eropc.sema import SymbolTable, emitted_rule_names
from eropc.syntax import (
    ContractAst,
    EventField,
    Historical,
    IfAct,
    OutcomeCheck,
    OutcomeSetAct,
    ResetAct,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
)

POS = 0  # the laws compare rendered text, which holds no offsets, so one dummy serves all

players = st.sampled_from(("buyer", "seller", "store", "broker"))
ops = st.sampled_from(("BuyRequest", "Payment", "Cancellation", "Shipment"))
rop_sets = st.sampled_from(("rights", "obligs", "prohibs"))


def ident(name: str) -> Token:
    return Token(TokenKind.IDENT, name, POS)


def _fields(pairs) -> list[EventField]:
    return [EventField(ident(name), ident(value)) for name, value in pairs]


constraints = st.one_of(
    st.builds(lambda player, rop_set, bo: RopMembership(ident(bo), ident(player), rop_set),
              players, rop_sets, ops),
    st.builds(lambda bo, value: OutcomeCheck(ident(bo), ident(value)),
              ops, st.sampled_from(("true", "false"))),
    st.builds(
        lambda op, timestamp: TimeDirect(ident("e"), op, timestamp),
        st.sampled_from(("==", "<", ">")),
        st.sampled_from(("01-01-2016 12:00:00", "31-12-2020 23:59:59")),
    ),
    st.builds(
        lambda unit, lo, hi: TimePartial(ident("e"), unit, lo, hi),
        st.sampled_from(("hour", "minute", "day", "month", "year")),
        st.integers(0, 30),
        st.integers(0, 59),
    ),
    st.builds(
        lambda happened, fields: Historical(happened, _fields(fields)),
        st.booleans(),
        st.sampled_from((
            (("botype", "BUYREQ"),),
            (("botype", "BUYPAY"), ("originator", "buyer")),
            (("originator", "seller"), ("responder", "buyer"), ("outcome", "success")),
        )),
    ),
)


def _rop_manip(player, rop_set, op, bo, beneficiary, deadline):
    deadlines = [] if deadline is None else [deadline]
    return RopManip(ident(player), rop_set, op, ident(bo), [ident(beneficiary)], deadlines)


simple_actions = st.one_of(
    st.builds(
        _rop_manip,
        players,
        rop_sets,
        st.sampled_from(("add", "remove")),
        ops,
        players,
        st.none() | st.just("01-01-2016 12:00:00"),
    ),
    st.builds(lambda bo, value: OutcomeSetAct(ident(bo), ident(value)),
              ops, st.sampled_from(("true", "false"))),
    st.builds(lambda player: ResetAct(ident(player)), players),
)


@st.composite
def source_rules(draw) -> RuleAst:
    event = _fields((
        ("botype", draw(st.sampled_from(("BUYREQ", "BUYPAY", "BUYCONF")))),
        ("originator", draw(players)),
        ("responder", draw(players)),
        ("outcome", draw(st.sampled_from(("success", "tecFail", "bizFail")))),
    ))
    own = draw(st.lists(constraints, max_size=3))
    shape = draw(st.sampled_from(("plain", "if", "ifelse")))
    if shape == "plain":
        actions = draw(st.lists(simple_actions, min_size=1, max_size=3))
    else:
        cond = draw(st.lists(constraints, min_size=1, max_size=3))
        then_acts = draw(st.lists(simple_actions, min_size=1, max_size=3))
        else_acts = (
            draw(st.lists(simple_actions, min_size=1, max_size=2)) if shape == "ifelse" else None
        )
        actions = [IfAct(cond, then_acts, else_acts, POS)]
    return RuleAst(draw(ops), POS, ident("e"), event, own, actions)


def expected_piece_count(rule: RuleAst) -> int:
    conditional = rule.actions[0]
    return 2 if isinstance(conditional, IfAct) and conditional.else_actions is not None else 1


def lower_rule(rule: RuleAst) -> tuple[IrRule, ...]:
    """The target rules lower_contract makes of one source rule."""
    (pieces,) = lower_contract(ContractAst([], [rule]), SymbolTable(), "P").rules
    return pieces


def assert_split_laws(rule: RuleAst) -> None:
    """Rule-count, naming, constraint-preservation and negation laws for one rule."""
    lookup = DEFAULT_LOOKUP
    pieces = lower_rule(rule)
    assert len(pieces) == expected_piece_count(rule)
    assert [piece.name for piece in pieces] == emitted_rule_names(rule)

    emitted = [emit_rule(piece, lookup, SymbolTable()) for piece in pieces]
    for constraint in rule.constraints:
        line = f"eval({constraint_expr(constraint, lookup)})"
        for ad_rule in emitted:
            assert line in ad_rule.when_lines

    conditional = rule.actions[0]
    if isinstance(conditional, IfAct):
        then_rule = emitted[0]
        extras = [f"eval({constraint_expr(c, lookup)})" for c in conditional.cond]
        assert then_rule.when_lines[1 : 1 + len(extras)] == extras
    if len(emitted) == 2:
        else_rule = emitted[1]
        conjunction = " && ".join(constraint_expr(c, lookup) for c in conditional.cond)
        assert else_rule.when_lines[1] == f"eval(!({conjunction}))"
