"""Emission-oriented intermediate representation and the AST lowering step.

The IR mirrors the rule structure of the target language: an event match
condition, a flat list of constraints, and a list of right-hand-side
actions.  Lowering also splits each source rule into its target rules.
Source positions are dropped here; every user-facing error is reported
before lowering.
"""

from __future__ import annotations

from typing import NamedTuple

from . import syntax
from .sema import SymbolTable, emitted_rule_names
from .syntax import ContractAst, EVENT_FIELDS


class EventMatchCondition(NamedTuple):
    botype: str
    originator: str
    responder: str
    outcome: str


# --- constraints ---


class RopConstraint(NamedTuple):
    player: str
    rop_set: str
    bo: str


class HistoricalConstraint(NamedTuple):
    happened: bool
    fields: tuple[tuple[str, str], ...]  # (field name, value) in canonical order


class TimeDirectComparison(NamedTuple):
    op: str
    timestamp: str


class TimePartialComparison(NamedTuple):
    unit: str
    lo: int
    hi: int


class OutcomeConstraint(NamedTuple):
    bo: str
    expected: bool


class NegatedConjunction(NamedTuple):
    """The negation of an if-condition, guarding the rule for its else branch."""

    items: tuple["IrConstraint", ...]


IrConstraint = (
    RopConstraint
    | HistoricalConstraint
    | TimeDirectComparison
    | TimePartialComparison
    | OutcomeConstraint
    | NegatedConjunction
)


# --- actions ---


class AddOrRemAction(NamedTuple):
    player: str
    rop_set: str
    op: str  # "add" or "remove"
    bo: str
    beneficiary: str
    deadline: str | None = None


class OutcomeSet(NamedTuple):
    bo: str
    value: bool


class ResetAction(NamedTuple):
    player: str


IrAction = AddOrRemAction | OutcomeSet | ResetAction


class IrRule(NamedTuple):
    name: str
    event: EventMatchCondition
    constraints: tuple[IrConstraint, ...]
    actions: tuple[IrAction, ...]


class IrContract(NamedTuple):
    symbols: SymbolTable
    rules: list[tuple[IrRule, ...]]  # per source rule, the target rules it compiles to
    package_name: str


def lower_contract(ast: ContractAst, tab: SymbolTable, package_name: str) -> IrContract:
    """Lower a sema-clean AST; total on valid input, never fails on it."""
    rules = [_lower_rule(rule) for rule in ast.rules]
    return IrContract(symbols=tab, rules=rules, package_name=package_name)


def _lower_rule(rule: syntax.RuleAst) -> tuple[IrRule, ...]:
    """The target rules named by emitted_rule_names.

    For an ``if``, its condition (negated for the ``else`` branch) comes
    before the rule's own constraints.
    """
    fields = {f.name.lexeme: f.value.lexeme for f in rule.event_fields}
    event = EventMatchCondition(
        botype=fields["botype"],
        originator=fields["originator"],
        responder=fields["responder"],
        outcome=fields["outcome"],
    )
    constraints = tuple(_lower_constraint(c) for c in rule.constraints)
    names = emitted_rule_names(rule)
    conditional = rule.actions[0]
    if not isinstance(conditional, syntax.IfAct):
        return (IrRule(names[0], event, constraints, tuple(map(_lower_action, rule.actions))),)
    cond = tuple(_lower_constraint(c) for c in conditional.cond)
    branches = (
        (cond, conditional.then_actions),
        ((NegatedConjunction(cond),), conditional.else_actions),
    )
    return tuple(
        IrRule(name, event, guard + constraints, tuple(map(_lower_action, actions)))
        for name, (guard, actions) in zip(names, branches)
    )


def _lower_constraint(c: syntax.ConstraintAst) -> IrConstraint:
    if isinstance(c, syntax.RopMembership):
        return RopConstraint(player=c.player.lexeme, rop_set=c.rop_set, bo=c.bo.lexeme)
    if isinstance(c, syntax.OutcomeCheck):
        return OutcomeConstraint(bo=c.bo.lexeme, expected=c.value.lexeme == "true")
    if isinstance(c, syntax.TimeDirect):
        return TimeDirectComparison(op=c.op, timestamp=c.timestamp)
    if isinstance(c, syntax.TimePartial):
        return TimePartialComparison(unit=c.unit, lo=c.lo, hi=c.hi)
    assert isinstance(c, syntax.Historical)
    provided = {f.name.lexeme: f.value.lexeme for f in c.fields}
    ordered = tuple((name, provided[name]) for name in EVENT_FIELDS if name in provided)
    return HistoricalConstraint(happened=c.happened, fields=ordered)


def _lower_action(a: syntax.ActionAst) -> IrAction:
    if isinstance(a, syntax.RopManip):
        return AddOrRemAction(
            player=a.player.lexeme,
            rop_set=a.rop_set,
            op=a.op,
            bo=a.bo.lexeme,
            beneficiary=a.args[0].lexeme,
            deadline=a.deadline,
        )
    if isinstance(a, syntax.OutcomeSetAct):
        return OutcomeSet(bo=a.bo.lexeme, value=a.value.lexeme == "true")
    assert isinstance(a, syntax.ResetAct)  # _lower_rule takes the 'if' (E010: no siblings)
    return ResetAction(player=a.player.lexeme)


def dump_rule(rule: IrRule) -> str:
    """One-line debug rendering of a rule; the format is not stable."""
    ev = rule.event
    return (
        f"rule {rule.name!r} event=({ev.botype}, {ev.originator}, {ev.responder}, "
        f"{ev.outcome}) constraints={list(rule.constraints)!r} actions={list(rule.actions)!r}"
    )


def dump_contract(contract: IrContract) -> str:
    """One dump_rule line per target rule."""
    return "\n".join(dump_rule(rule) for group in contract.rules for rule in group)
