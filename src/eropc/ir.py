"""Emission-oriented intermediate representation and the AST lowering step.

The IR mirrors the rule structure of the target language: an event match
condition, a flat list of constraints, and a list of right-hand-side
actions.  Source positions are dropped here; every user-facing error is
reported before lowering.
"""

from __future__ import annotations

from typing import NamedTuple

from . import syntax
from .sema import SymbolTable
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
    """Marker wrapping an if-condition, used by the conditional split."""

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


class IfStatement(NamedTuple):
    cond: tuple[IrConstraint, ...]
    then_actions: tuple["IrAction", ...]
    else_actions: tuple["IrAction", ...] | None


IrAction = AddOrRemAction | OutcomeSet | ResetAction | IfStatement


class IrRule(NamedTuple):
    name: str
    event: EventMatchCondition
    constraints: tuple[IrConstraint, ...]
    actions: tuple[IrAction, ...]


class IrContract(NamedTuple):
    symbols: SymbolTable
    rules: list[IrRule]
    package_name: str


def lower_contract(ast: ContractAst, tab: SymbolTable, package_name: str) -> IrContract:
    """Lower a sema-clean AST; total on valid input, never fails on it."""
    rules = [_lower_rule(rule) for rule in ast.rules]
    return IrContract(symbols=tab, rules=rules, package_name=package_name)


def _lower_rule(rule: syntax.RuleAst) -> IrRule:
    fields = {f.name.name: f.value.name for f in rule.event_fields}
    event = EventMatchCondition(
        botype=fields["botype"],
        originator=fields["originator"],
        responder=fields["responder"],
        outcome=fields["outcome"],
    )
    constraints = tuple(_lower_constraint(c) for c in rule.constraints)
    actions = tuple(_lower_action(a) for a in rule.actions)
    return IrRule(name=rule.name, event=event, constraints=constraints, actions=actions)


def _lower_constraint(c: syntax.ConstraintAst) -> IrConstraint:
    if isinstance(c, syntax.RopMembership):
        return RopConstraint(player=c.player.name, rop_set=c.rop_set, bo=c.bo.name)
    if isinstance(c, syntax.OutcomeCheck):
        return OutcomeConstraint(bo=c.bo.name, expected=c.value.name == "true")
    if isinstance(c, syntax.TimeDirect):
        return TimeDirectComparison(op=c.op, timestamp=c.timestamp)
    if isinstance(c, syntax.TimePartial):
        return TimePartialComparison(unit=c.unit, lo=c.lo, hi=c.hi)
    assert isinstance(c, syntax.Historical)
    provided = {f.name.name: f.value.name for f in c.fields}
    ordered = tuple((name, provided[name]) for name in EVENT_FIELDS if name in provided)
    return HistoricalConstraint(happened=c.happened, fields=ordered)


def _lower_action(a: syntax.ActionAst) -> IrAction:
    if isinstance(a, syntax.RopManip):
        return AddOrRemAction(
            player=a.player.name,
            rop_set=a.rop_set,
            op=a.op,
            bo=a.bo.name,
            beneficiary=a.args[0].name,
            deadline=a.deadline,
        )
    if isinstance(a, syntax.OutcomeSetAct):
        return OutcomeSet(bo=a.bo.name, value=a.value.name == "true")
    if isinstance(a, syntax.ResetAct):
        return ResetAction(player=a.player.name)
    assert isinstance(a, syntax.IfAct)
    return IfStatement(
        cond=tuple(_lower_constraint(c) for c in a.cond),
        then_actions=tuple(_lower_action(s) for s in a.then_actions),
        else_actions=(
            tuple(_lower_action(s) for s in a.else_actions)
            if a.else_actions is not None
            else None
        ),
    )


def dump_rule(rule: IrRule) -> str:
    """One-line debug rendering of a rule; the format is not stable."""
    ev = rule.event
    return (
        f"rule {rule.name!r} event=({ev.botype}, {ev.originator}, {ev.responder}, "
        f"{ev.outcome}) constraints={list(rule.constraints)!r} actions={list(rule.actions)!r}"
    )


def dump_contract(contract: IrContract) -> str:
    return "\n".join(dump_rule(rule) for rule in contract.rules)
