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

from .lexer import SourcePos, Token
from .syntax import (
    BUSINESS_OP,
    COMP_OBLIG,
    ROLE_PLAYER,
    ActionAst,
    ConstraintAst,
    ContractAst,
    Decl,
    EventField,
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
)

OUTCOME_VALUES = ("success", "tecfail", "bizfail")  # compared case-insensitively
UNIT_MAX = {"hour": 23, "minute": 59}  # the other units' renderings are unconfirmed
SplitRules = list[tuple[RuleAst, list[RuleAst]]]  # each source rule with its ``split``


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
    and ``declared`` to the token of its accepted (first) declaration; the
    per-kind collections keep declaration order for code generation.
    """

    def __init__(self) -> None:
        self.role_players: list[str] = []
        self.business_ops: list[str] = []
        self.comp_obligs: dict[str, list[str]] = {}
        self.kinds: dict[str, str] = {}
        self.declared: dict[str, Token] = {}


def build_symbol_table(ast: ContractAst) -> tuple[SymbolTable, list[Diagnostic]]:
    """Collect declarations; of duplicates the first is kept (E001) and its case checked (E003)."""
    tab = SymbolTable()
    diags: list[Diagnostic] = []

    comp_decls: list[Decl] = []
    for decl in ast.decls:
        for ident in decl.names:
            name = ident.lexeme
            if name in tab.kinds:
                message = f"duplicate declaration of '{name}'"
                diags.append(Diagnostic("error", "E001", message, ident.index))
                continue
            tab.kinds[name] = decl.kind
            tab.declared[name] = ident
            lower = decl.kind == ROLE_PLAYER
            if name[0].islower() != lower:  # names start with an ASCII letter
                case = "a lower-case" if lower else "an upper-case"
                message = f"{decl.kind} '{name}' must begin with {case} letter"
                diags.append(Diagnostic("error", "E003", message, ident.index))
            if decl.kind == ROLE_PLAYER:
                tab.role_players.append(name)
            elif decl.kind == BUSINESS_OP:
                tab.business_ops.append(name)
            else:
                tab.comp_obligs[name] = []
                comp_decls.append(decl)

    # member lookup is order-insensitive within the declaration section
    for decl in comp_decls:
        members = tab.comp_obligs[decl.names[0].lexeme]
        for member in decl.members:
            if tab.kinds.get(member.lexeme) == BUSINESS_OP:
                members.append(member.lexeme)
            else:
                message = f"{COMP_OBLIG} member '{member.lexeme}' is not a declared {BUSINESS_OP}"
                diags.append(Diagnostic("error", "E002", message, member.index))
    return tab, diags


def check_contract(decls: list[Decl], rules: SplitRules, tab: SymbolTable) -> list[Diagnostic]:
    """Check every rule, then report the declared names never used (W001); in discovery order."""
    checker = _Checker(tab)
    checker.check(decls, rules)
    return checker.diags


def split(rule: RuleAst) -> list[RuleAst]:
    """The AD rules a source rule compiles to, in output order.

    A rule without an ``if`` is its own only AD rule.  An ``if`` gives ``<name>IfThen``,
    guarded by its condition, and an ``else`` gives ``<name>IfElse``, guarded by the
    negation; the rule's own constraints follow, and each piece keeps the rule's name
    position and event match.  Only the actions decide, so a rule is split before it is checked.
    """
    conditional = next((a for a in rule.actions if isinstance(a, IfAct)), None)
    if conditional is None:
        return [rule]
    name, name_pos, event_var, fields, own, _ = rule
    cond, then_actions, else_actions, _ = conditional
    pieces = [RuleAst(name + "IfThen", name_pos, event_var, fields, cond + own, then_actions)]
    if else_actions is not None:
        guard = [NegatedConjunction(cond), *own]
        pieces.append(RuleAst(name + "IfElse", name_pos, event_var, fields, guard, else_actions))
    return pieces


class _Checker:
    def __init__(self, tab: SymbolTable) -> None:
        self.tab = tab
        self.diags: list[Diagnostic] = []
        self.used: set[str] = set()

    def check(self, decls: list[Decl], rules: SplitRules) -> None:
        for decl in decls:  # only an accepted declaration's members count as uses
            if self.tab.declared[decl.names[0].lexeme] is decl.names[0]:
                self.used.update(member.lexeme for member in decl.members)
        seen_source: set[str] = set()
        seen_emitted: set[str] = set()
        for rule, pieces in rules:
            clash = next((p.name for p in pieces if p.name in seen_emitted), None)
            if rule.name in seen_source:
                self.error("E007", f'duplicate rule name "{rule.name}"', rule.name_pos)
            elif clash is not None:
                why = "collides with a rule produced by conditional splitting"
                self.error("E007", f'rule name "{clash}" {why}', rule.name_pos)
            seen_source.add(rule.name)
            seen_emitted.update(p.name for p in pieces)
            self.check_rule(rule)
        self.report_unused()

    # rules

    def check_rule(self, rule: RuleAst) -> None:
        self.check_event_fields(rule)
        for constraint in rule.constraints:
            self.check_constraint(constraint, rule)
        conditional = next((a for a in rule.actions if isinstance(a, IfAct)), None)
        if conditional is not None and len(rule.actions) > 1:
            message = "an 'if' action must be the only action of its rule"
            self.error("E010", message, conditional.pos)
        for action in rule.actions:
            self.check_action(action, rule)

    def check_event_fields(self, rule: RuleAst) -> None:
        if sorted(self.check_fields(rule.event_fields, once=False)) != sorted(EVENT_FIELDS):
            self.error(
                "E006",
                "event match must specify botype, originator, responder and outcome exactly once",
                rule.event_var.index,
            )

    def check_fields(self, fields: list[EventField], once: bool) -> list[str]:
        """Check a ``(field == value, ...)`` list; returns its known field names in order."""
        names: list[str] = []
        for f in fields:
            name = f.name.lexeme
            if name not in EVENT_FIELDS:
                self.error("E006", f"unknown event field '{name}'", f.name.index)
                continue
            if once and name in names:  # an event match leaves repeats to its four-field rule
                self.error("E006", f"repeated event field '{name}'", f.name.index)
            names.append(name)
            if name in ("originator", "responder"):
                self.expect_role_player(f.value)
            elif name == "outcome" and f.value.lexeme.lower() not in OUTCOME_VALUES:
                self.warn(
                    "W002",
                    f"unexpected outcome value '{f.value.lexeme}' "
                    "(expected success, tecFail or bizFail)",
                    f.value.index,
                )
            # botype values are free-form identifiers
        return names

    def check_constraint(self, constraint: ConstraintAst, rule: RuleAst) -> None:
        if isinstance(constraint, RopMembership):
            self.expect_operation(constraint.bo, constraint.rop_set)
            self.expect_role_player(constraint.player)
        elif isinstance(constraint, Outcome):
            self.check_outcome(constraint, "outcome check")
        elif isinstance(constraint, (TimeDirect, TimePartial)):
            var = constraint.event_var
            if var.lexeme != rule.event_var.lexeme:
                self.error("E004", f"'{var.lexeme}' is not declared", var.index)
            if isinstance(constraint, TimePartial):
                unit, lo, hi = constraint.unit, constraint.lo, constraint.hi
                if lo > hi or hi > UNIT_MAX.get(unit, hi):
                    message = f"empty or out-of-range {unit} window [{lo}, {hi}]"
                    self.error("E011", message, var.index)
        elif isinstance(constraint, Historical):
            self.check_fields(constraint.fields, once=True)

    def check_action(self, action: ActionAst, rule: RuleAst) -> None:
        if isinstance(action, RopManip):
            self.expect_role_player(action.player)
            self.expect_operation(action.bo, action.rop_set)
            if len(action.args) != 1 or len(action.deadlines) > 1:
                self.error(
                    "E009",
                    f"ROP manipulation takes one beneficiary {ROLE_PLAYER} and an optional "
                    "deadline string",
                    action.bo.index,
                )
            for arg in action.args:
                self.expect_role_player(arg)
        elif isinstance(action, Outcome):
            self.check_outcome(action, "outcome setter")
        elif isinstance(action, ResetAct):
            self.expect_role_player(action.player)
        else:
            for constraint in action.cond:
                self.check_constraint(constraint, rule)
            for sub in action.then_actions:
                self.check_action(sub, rule)
            for sub in action.else_actions or []:
                self.check_action(sub, rule)

    # shared checks

    def expect_role_player(self, ident: Token) -> None:
        self.used.add(ident.lexeme)
        kind = self.tab.kinds.get(ident.lexeme)
        if kind is None:
            self.error("E004", f"'{ident.lexeme}' is not declared", ident.index)
        elif kind != ROLE_PLAYER:
            self.error("E005", f"'{ident.lexeme}' is not a {ROLE_PLAYER}", ident.index)

    def expect_operation(self, ident: Token, rop_set: str | None) -> None:
        """A business operation, or a composite obligation in an obligs set; ``rop_set``
        is None for ``BO.BizFail``, which only a business operation has."""
        self.used.add(ident.lexeme)
        kind = self.tab.kinds.get(ident.lexeme)
        if kind is None:
            self.error("E004", f"'{ident.lexeme}' is not declared", ident.index)
        elif kind == ROLE_PLAYER:
            message = f"'{ident.lexeme}' is not a {BUSINESS_OP} or {COMP_OBLIG}"
            self.error("E005", message, ident.index)
        elif kind == COMP_OBLIG and rop_set is None:
            message = f"{COMP_OBLIG} '{ident.lexeme}' has no BizFail flag; a {BUSINESS_OP} has one"
            self.error("E005", message, ident.index)
        elif kind == COMP_OBLIG and rop_set != "obligs":
            message = f"{COMP_OBLIG} '{ident.lexeme}' can only be in an obligs set, not {rop_set}"
            self.error("E005", message, ident.index)

    def check_outcome(self, outcome: Outcome, where: str) -> None:
        self.expect_operation(outcome.bo, None)
        value = outcome.value
        if value.lexeme not in ("true", "false"):
            self.error(
                "E008", f"{where} expects 'true' or 'false', found '{value.lexeme}'", value.index
            )

    def report_unused(self) -> None:
        for name, ident in self.tab.declared.items():
            if name not in self.used:
                kind = self.tab.kinds[name]
                self.warn("W001", f"{kind} '{name}' declared but never used", ident.index)

    def error(self, code: str, message: str, index: int) -> None:
        self.diags.append(Diagnostic("error", code, message, index))

    def warn(self, code: str, message: str, index: int) -> None:
        self.diags.append(Diagnostic("warning", code, message, index))
