"""Hypothesis strategies for random source rules, shared by the property suites.

Every generated constraint comes paired with the IR constraint it lowers to,
so the splitting laws compare lowering's output with an expectation that
lowering did not produce.
"""

from typing import NamedTuple

from hypothesis import strategies as st

from eropc.codegen import DEFAULT_LOOKUP, constraint_expr, emit_rule
from eropc.ir import (
    HistoricalConstraint,
    IrConstraint,
    IrRule,
    OutcomeConstraint,
    RopConstraint,
    TimeDirectComparison,
    TimePartialComparison,
    lower_contract,
)
from eropc.lexer import SourcePos
from eropc.sema import SymbolTable, emitted_rule_names
from eropc.syntax import (
    ContractAst,
    EventField,
    Historical,
    Ident,
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

POS = SourcePos(1, 1, 0)  # lowering drops positions, so one dummy serves all

players = st.sampled_from(("buyer", "seller", "store", "broker"))
ops = st.sampled_from(("BuyRequest", "Payment", "Cancellation", "Shipment"))
rop_sets = st.sampled_from(("rights", "obligs", "prohibs"))


def ident(name: str) -> Ident:
    return Ident(name, POS)


def _fields(pairs) -> list[EventField]:
    return [EventField(ident(name), ident(value)) for name, value in pairs]


def _rop(player, rop_set, bo):
    return RopMembership(ident(bo), ident(player), rop_set), RopConstraint(player, rop_set, bo)


def _outcome(bo, expected):
    value = ident("true" if expected else "false")
    return OutcomeCheck(ident(bo), value), OutcomeConstraint(bo, expected)


def _time_direct(op, timestamp):
    return TimeDirect(ident("e"), op, timestamp), TimeDirectComparison(op, timestamp)


def _time_partial(unit, lo, hi):
    return TimePartial(ident("e"), unit, lo, hi), TimePartialComparison(unit, lo, hi)


def _historical(happened, fields):
    return Historical(happened, _fields(fields)), HistoricalConstraint(happened, fields)


# (source constraint, the IR constraint it lowers to)
constraints = st.one_of(
    st.builds(_rop, players, rop_sets, ops),
    st.builds(_outcome, ops, st.booleans()),
    st.builds(
        _time_direct,
        st.sampled_from(("==", "<", ">")),
        st.sampled_from(("01-01-2016 12:00:00", "31-12-2020 23:59:59")),
    ),
    st.builds(
        _time_partial,
        st.sampled_from(("hour", "minute", "day", "month", "year")),
        st.integers(0, 30),
        st.integers(0, 59),
    ),
    st.builds(
        _historical,
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


class GeneratedRule(NamedTuple):
    ast: RuleAst
    own: tuple[IrConstraint, ...]  # what the rule's own constraints lower to
    cond: tuple[IrConstraint, ...]  # what its if-condition lowers to; () without an if


@st.composite
def source_rules(draw) -> GeneratedRule:
    event = _fields((
        ("botype", draw(st.sampled_from(("BUYREQ", "BUYPAY", "BUYCONF")))),
        ("originator", draw(players)),
        ("responder", draw(players)),
        ("outcome", draw(st.sampled_from(("success", "tecFail", "bizFail")))),
    ))
    own = draw(st.lists(constraints, max_size=3))
    shape = draw(st.sampled_from(("plain", "if", "ifelse")))
    cond = []
    if shape == "plain":
        actions = draw(st.lists(simple_actions, min_size=1, max_size=3))
    else:
        cond = draw(st.lists(constraints, min_size=1, max_size=3))
        then_acts = draw(st.lists(simple_actions, min_size=1, max_size=3))
        else_acts = (
            draw(st.lists(simple_actions, min_size=1, max_size=2)) if shape == "ifelse" else None
        )
        actions = [IfAct([c for c, _ in cond], then_acts, else_acts, POS)]
    rule = RuleAst(draw(ops), POS, ident("e"), event, [c for c, _ in own], actions)
    return GeneratedRule(rule, tuple(ir for _, ir in own), tuple(ir for _, ir in cond))


def expected_piece_count(rule: RuleAst) -> int:
    conditional = rule.actions[0]
    return 2 if isinstance(conditional, IfAct) and conditional.else_actions is not None else 1


def lower_rule(rule: RuleAst) -> tuple[IrRule, ...]:
    """The target rules lower_contract makes of one source rule."""
    (pieces,) = lower_contract(ContractAst([], [rule]), SymbolTable(), "P").rules
    return pieces


def assert_split_laws(case: GeneratedRule) -> None:
    """Rule-count, naming, constraint-preservation and negation laws for one rule."""
    lookup = DEFAULT_LOOKUP
    pieces = lower_rule(case.ast)
    assert len(pieces) == expected_piece_count(case.ast)
    assert [piece.name for piece in pieces] == emitted_rule_names(case.ast)

    emitted = [emit_rule(piece, lookup, SymbolTable()) for piece in pieces]
    for constraint in case.own:
        line = f"eval({constraint_expr(constraint, lookup)})"
        for ad_rule in emitted:
            assert line in ad_rule.when_lines

    if case.cond:
        then_rule = emitted[0]
        extras = [f"eval({constraint_expr(c, lookup)})" for c in case.cond]
        assert then_rule.when_lines[1 : 1 + len(extras)] == extras
    if len(emitted) == 2:
        else_rule = emitted[1]
        conjunction = " && ".join(constraint_expr(c, lookup) for c in case.cond)
        assert else_rule.when_lines[1] == f"eval(!({conjunction}))"
