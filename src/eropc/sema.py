"""Semantic analysis: symbol table construction and contract validation.

Error codes:
    E001 duplicate declaration            E006 bad event-field set
    E002 unknown compoblig member         E007 duplicate rule name
    E003 name casing violation            E008 bad boolean literal
    E004 undeclared identifier            E009 bad ROP-manipulation arguments
    E005 identifier of the wrong kind     E010 'if' with sibling actions
         (a compoblig outside obligs      E011 empty or out-of-range time window
         or with BizFail too)
    E012 declared name clashes in AD (codegen.check_globals reports it)
Warnings:
    W001 declared but unused              W002 unexpected outcome value
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import SourcePos
from .syntax import (
    BUSINESS_OP,
    COMP_OBLIG,
    ROLE_PLAYER,
    ActionAst,
    ConstraintAst,
    ContractAst,
    Decl,
    Historical,
    IfAct,
    NegatedConjunction,
    Outcome,
    ResetAct,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
    EVENT_FIELDS,
    field_pos,
)

OUTCOME_VALUES = ("success", "tecfail", "bizfail")  # compared case-insensitively
UNIT_MAX = {"hour": 23, "minute": 59}  # the other units' renderings are unconfirmed


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    code: str
    message: str
    pos: SourcePos | int  # a token index, as every stage records it; codegen.analyze resolves it

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


class SymbolTable:
    """Declared names, in declaration order; the namespaces are disjoint.

    ``kinds`` maps each name that build_symbol_table declared to its kind,
    and ``declared`` to the token index of its accepted (first) declaration; the
    per-kind collections keep declaration order for code generation.
    """

    def __init__(self) -> None:
        self.role_players: list[str] = []
        self.business_ops: list[str] = []
        self.comp_obligs: dict[str, tuple[str, ...]] = {}  # members as declared
        self.kinds: dict[str, str] = {}
        self.declared: dict[str, int] = {}


def build_symbol_table(ast: ContractAst) -> tuple[SymbolTable, list[Diagnostic]]:
    """Collect declarations; of duplicates the first is kept (E001) and its case checked (E003)."""
    tab = SymbolTable()
    diags: list[Diagnostic] = []

    comp_decls: list[Decl] = []
    for decl in ast.decls:
        for j, name in enumerate(decl.names):
            index = decl.name_pos(j)
            if name in tab.kinds:
                message = f"duplicate declaration of '{name}'"
                diags.append(Diagnostic("error", "E001", message, index))
                continue
            tab.kinds[name] = decl.kind
            tab.declared[name] = index
            lower = decl.kind == ROLE_PLAYER
            if name[0].islower() != lower:  # names start with an ASCII letter
                case = "a lower-case" if lower else "an upper-case"
                message = f"{decl.kind} '{name}' must begin with {case} letter"
                diags.append(Diagnostic("error", "E003", message, index))
            if decl.kind == ROLE_PLAYER:
                tab.role_players.append(name)
            elif decl.kind == BUSINESS_OP:
                tab.business_ops.append(name)
            else:
                tab.comp_obligs[name] = decl.members
                comp_decls.append(decl)

    # member lookup is order-insensitive within the declaration section
    for decl in comp_decls:
        for j, member in enumerate(decl.members):
            if tab.kinds.get(member) != BUSINESS_OP:
                message = f"{COMP_OBLIG} member '{member}' is not a declared {BUSINESS_OP}"
                diags.append(Diagnostic("error", "E002", message, decl.member_pos(j)))
    return tab, diags


def check_contract(rules: list[RuleAst], tab: SymbolTable) -> list[Diagnostic]:
    """Check every rule, then report the declared names never used (W001); in discovery order."""
    checker = _Checker(tab)
    for members in tab.comp_obligs.values():  # an accepted declaration's members
        for member in members:  # are uses, declared or not (E002)
            checker.unused.pop(member, None)
    seen_source: set[str] = set()
    seen_emitted: set[str] = set()
    for rule in rules:
        conditional, names = branches(rule)
        clash = next((name for name in names if name in seen_emitted), None)
        if rule.name in seen_source:
            checker.error("E007", f'duplicate rule name "{rule.name}"', rule.name_pos)
        elif clash is not None:
            why = "collides with a rule produced by conditional splitting"
            checker.error("E007", f'rule name "{clash}" {why}', rule.name_pos)
        seen_source.add(rule.name)
        seen_emitted.update(names)
        checker.check_rule(rule, conditional)
    checker.report_unused()
    return checker.diags


def branches(rule: RuleAst) -> tuple[IfAct | None, tuple[str, ...]]:
    """The rule's first ``if`` action, or None, and the names of the AD rules ``split``
    gives the rule: its own name, or one per branch of that ``if``."""
    conditional = next((a for a in rule.actions if isinstance(a, IfAct)), None)
    if conditional is None:
        return None, (rule.name,)
    names = rule.name + "IfThen", rule.name + "IfElse"
    return conditional, names[: 1 if conditional.else_actions is None else 2]


def split(rule: RuleAst) -> tuple[RuleAst, ...]:
    """The AD rules a source rule compiles to, in output order: without an ``if``, the rule
    itself; with one, a piece guarded by its condition and, for an ``else``, one guarded by
    the negation, named by ``branches``.  The rule's own constraints follow each guard, and
    each piece keeps the rule's name position and event match."""
    conditional, names = branches(rule)
    if conditional is None:
        return (rule,)
    _, name_pos, event_var, fields, own, _ = rule
    cond, then_actions, else_actions, _ = conditional
    then_rule = RuleAst(names[0], name_pos, event_var, fields, cond + own, then_actions)
    if else_actions is None:
        return (then_rule,)
    guard = (NegatedConjunction(cond), *own)
    return then_rule, RuleAst(names[1], name_pos, event_var, fields, guard, else_actions)


class _Checker:
    def __init__(self, tab: SymbolTable) -> None:
        self.tab = tab
        self.diags: list[Diagnostic] = []
        self.unused = dict(tab.declared)  # each declared name not used yet, and its index

    # rules

    def check_rule(self, rule: RuleAst, conditional: IfAct | None) -> None:
        self.check_event_fields(rule)
        for constraint in rule.constraints:
            self.check_constraint(constraint, rule)
        if conditional is not None and len(rule.actions) > 1:
            message = "an 'if' action must be the only action of its rule"
            self.error("E010", message, conditional.pos)
        for action in rule.actions:
            self.check_action(action, rule)

    def check_event_fields(self, rule: RuleAst) -> None:
        names = self.check_fields(rule.event_fields, rule.fields_pos, once=False)
        if sorted(names) != sorted(EVENT_FIELDS):
            each = "botype, originator, responder and outcome"
            self.error("E006", f"event match must specify {each} exactly once", rule.event_var_pos)

    def check_fields(self, fields: tuple[str, ...], lparen: int, once: bool) -> list[str]:
        """Check a ``(field == value, ...)`` list, its ``(`` at token ``lparen``;
        returns its known field names in order."""
        names: list[str] = []
        for j, (name, value) in enumerate(zip(fields[::2], fields[1::2])):  # name, then value
            name_pos, value_pos = field_pos(lparen, j)
            if name not in EVENT_FIELDS:
                self.error("E006", f"unknown event field '{name}'", name_pos)
                continue
            if once and name in names:  # an event match leaves repeats to its four-field rule
                self.error("E006", f"repeated event field '{name}'", name_pos)
            names.append(name)
            if name in ("originator", "responder"):
                self.expect_role_player(value, value_pos)
            elif name == "outcome" and value.lower() not in OUTCOME_VALUES:
                expected = "(expected success, tecFail or bizFail)"
                self.warn("W002", f"unexpected outcome value '{value}' {expected}", value_pos)
            # botype values are free-form identifiers
        return names

    def check_constraint(self, constraint: ConstraintAst, rule: RuleAst) -> None:
        if isinstance(constraint, RopMembership):
            self.expect_operation(constraint.bo, constraint.pos, constraint.rop_set)
            self.expect_role_player(constraint.player, constraint.player_pos)
        elif isinstance(constraint, Outcome):
            self.check_outcome(constraint, "outcome check")
        elif isinstance(constraint, (TimeDirect, TimePartial)):
            var = constraint.event_var
            if var != rule.event_var:
                self.error("E004", f"'{var}' is not declared", constraint.pos)
            if isinstance(constraint, TimePartial):
                unit, lo, hi = constraint.unit, constraint.lo, constraint.hi
                if lo > hi or hi > UNIT_MAX.get(unit, hi):
                    message = f"empty or out-of-range {unit} window [{lo}, {hi}]"
                    self.error("E011", message, constraint.pos)
        elif isinstance(constraint, Historical):
            self.check_fields(constraint.fields, constraint.pos, once=True)

    def check_action(self, action: ActionAst, rule: RuleAst) -> None:
        if isinstance(action, RopManip):
            self.expect_role_player(action.player, action.pos)
            self.expect_operation(action.bo, action.bo_pos, action.rop_set)
            args = [j for j, actual in enumerate(action.actuals) if actual[0] != '"']
            if len(args) != 1 or len(action.actuals) > 2:  # the strings are deadlines
                why = f"takes one beneficiary {ROLE_PLAYER} and an optional deadline string"
                self.error("E009", f"ROP manipulation {why}", action.bo_pos)
            for j in args:
                self.expect_role_player(action.actuals[j], action.actual_pos(j))
        elif isinstance(action, Outcome):
            self.check_outcome(action, "outcome setter")
        elif isinstance(action, ResetAct):
            self.expect_role_player(action.player, action.pos)
        else:
            for constraint in action.cond:
                self.check_constraint(constraint, rule)
            for sub in action.then_actions:
                self.check_action(sub, rule)
            for sub in action.else_actions or ():
                self.check_action(sub, rule)

    # shared checks

    def expect_role_player(self, name: str, index: int) -> None:
        """The identifier ``name``, at token ``index``, names a role player."""
        self.unused.pop(name, None)
        kind = self.tab.kinds.get(name)
        if kind is None:
            self.error("E004", f"'{name}' is not declared", index)
        elif kind != ROLE_PLAYER:
            self.error("E005", f"'{name}' is not a {ROLE_PLAYER}", index)

    def expect_operation(self, name: str, index: int, rop_set: str | None) -> None:
        """A business operation, or a composite obligation in an obligs set; ``rop_set``
        is None for ``BO.BizFail``, which only a business operation has."""
        self.unused.pop(name, None)
        kind = self.tab.kinds.get(name)
        if kind is None:
            self.error("E004", f"'{name}' is not declared", index)
        elif kind == ROLE_PLAYER:
            message = f"'{name}' is not a {BUSINESS_OP} or {COMP_OBLIG}"
            self.error("E005", message, index)
        elif kind == COMP_OBLIG and rop_set is None:
            message = f"{COMP_OBLIG} '{name}' has no BizFail flag; a {BUSINESS_OP} has one"
            self.error("E005", message, index)
        elif kind == COMP_OBLIG and rop_set != "obligs":
            message = f"{COMP_OBLIG} '{name}' can only be in an obligs set, not {rop_set}"
            self.error("E005", message, index)

    def check_outcome(self, outcome: Outcome, where: str) -> None:
        self.expect_operation(outcome.bo, outcome.pos, None)
        if outcome.value not in ("true", "false"):
            message = f"{where} expects 'true' or 'false', found '{outcome.value}'"
            self.error("E008", message, outcome.value_pos)

    def report_unused(self) -> None:
        for name, index in self.unused.items():  # in declaration order
            kind = self.tab.kinds[name]
            self.warn("W001", f"{kind} '{name}' declared but never used", index)

    def error(self, code: str, message: str, index: int) -> None:
        self.diags.append(Diagnostic("error", code, message, index))

    def warn(self, code: str, message: str, index: int) -> None:
        self.diags.append(Diagnostic("warning", code, message, index))
