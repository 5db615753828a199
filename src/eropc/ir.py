"""The target rules of a contract, and lowering, the step that makes them.

A target rule mirrors the rule structure of the target language: an event
match condition, a flat list of constraints, and a list of right-hand-side
actions.  The constraints and actions are the source rule's own ``syntax``
nodes, tokens and positions included; lowering only splits each source rule
into its target rules.  Every user-facing error is reported before lowering.
"""

from __future__ import annotations

from typing import NamedTuple

from . import syntax
from .sema import SymbolTable, emitted_rule_names
from .syntax import ActionAst, ConstraintAst, ContractAst


class EventMatchCondition(NamedTuple):
    botype: str
    originator: str
    responder: str
    outcome: str


class NegatedConjunction(NamedTuple):
    """The negation of an if-condition, guarding the rule for its else branch."""

    items: tuple[ConstraintAst, ...]


class IrRule(NamedTuple):
    name: str
    event: EventMatchCondition
    constraints: tuple[ConstraintAst | NegatedConjunction, ...]
    actions: tuple[ActionAst, ...]  # never an IfAct


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
    # sema (E006) leaves exactly the four fields, each once
    event = EventMatchCondition(**{f.name.lexeme: f.value.lexeme for f in rule.event_fields})
    constraints = tuple(rule.constraints)
    names = emitted_rule_names(rule)
    conditional = rule.actions[0]
    if not isinstance(conditional, syntax.IfAct):  # E010: an 'if' has no siblings
        return (IrRule(names[0], event, constraints, tuple(rule.actions)),)
    cond = tuple(conditional.cond)
    branches = (
        (cond, conditional.then_actions),
        ((NegatedConjunction(cond),), conditional.else_actions),
    )
    return tuple(
        IrRule(name, event, guard + constraints, tuple(actions))
        for name, (guard, actions) in zip(names, branches)
    )


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
