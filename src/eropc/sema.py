"""Semantic analysis: symbol table construction and contract validation.

Error codes:
    E001 duplicate declaration            E006 bad event-field set
    E002 unknown compoblig member         E007 duplicate rule name
    E003 name casing violation            E008 bad boolean literal
    E004 undeclared identifier            E009 bad ROP-manipulation arguments
    E005 identifier of the wrong kind     E010 'if' with sibling actions
    E011 empty or out-of-range time window
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
    OutcomeCheck,
    OutcomeSetAct,
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


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    code: str
    message: str
    pos: SourcePos | int  # sema records an offset; codegen.analyze resolves it

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


class SymbolTable:
    """Declared names, in declaration order; the namespaces are disjoint.

    ``kinds`` maps each name that build_symbol_table declared to its kind,
    and ``declared`` to the token of its accepted (first) declaration; the
    per-kind collections keep declaration order for code generation.
    """

    def __init__(
        self,
        role_players: list[str] | None = None,
        business_ops: list[str] | None = None,
        comp_obligs: dict[str, list[str]] | None = None,
    ) -> None:
        self.role_players = [] if role_players is None else role_players
        self.business_ops = [] if business_ops is None else business_ops
        self.comp_obligs = {} if comp_obligs is None else comp_obligs
        self.kinds: dict[str, str] = {}
        self.declared: dict[str, Token] = {}


def build_symbol_table(ast: ContractAst) -> tuple[SymbolTable, list[Diagnostic]]:
    """Collect declarations; duplicates keep the first occurrence (E001)."""
    tab = SymbolTable()
    diags: list[Diagnostic] = []

    comp_decls: list[Decl] = []
    for decl in ast.decls:
        for ident in decl.names:
            name = ident.lexeme
            if name in tab.kinds:
                message = f"duplicate declaration of '{name}'"
                diags.append(Diagnostic("error", "E001", message, ident.offset))
                continue
            tab.kinds[name] = decl.kind
            tab.declared[name] = ident
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
                diags.append(Diagnostic("error", "E002", message, member.offset))
    return tab, diags


def check_contract(ast: ContractAst, tab: SymbolTable) -> list[Diagnostic]:
    """Validate every declaration and rule; diagnostics come in discovery order."""
    checker = _Checker(tab)
    checker.check(ast)
    return checker.diags


def emitted_rule_names(rule: RuleAst) -> list[str]:
    """Target-file names of the rules a source rule compiles to, in lowering's order."""
    conditional = next((a for a in rule.actions if isinstance(a, IfAct)), None)
    if conditional is None:
        return [rule.name]
    names = [rule.name + "IfThen"]
    if conditional.else_actions is not None:
        names.append(rule.name + "IfElse")
    return names


class _Checker:
    def __init__(self, tab: SymbolTable) -> None:
        self.tab = tab
        self.diags: list[Diagnostic] = []
        self.used: set[str] = set()

    def check(self, ast: ContractAst) -> None:
        for name, ident in self.tab.declared.items():
            kind = self.tab.kinds[name]
            lower = kind == ROLE_PLAYER
            if name[0].islower() != lower:  # names start with an ASCII letter
                case = "a lower-case" if lower else "an upper-case"
                self.error("E003", f"{kind} '{name}' must begin with {case} letter", ident.offset)
        for decl in ast.decls:
            self.used.update(member.lexeme for member in decl.members)
        seen_source: set[str] = set()
        seen_emitted: set[str] = set()
        for rule in ast.rules:
            names = emitted_rule_names(rule)
            if rule.name in seen_source:
                self.error("E007", f'duplicate rule name "{rule.name}"', rule.name_pos)
            else:
                clash = next((n for n in names if n in seen_emitted), None)
                if clash is not None:
                    self.error(
                        "E007",
                        f'rule name "{clash}" collides with a rule produced by '
                        "conditional splitting",
                        rule.name_pos,
                    )
            seen_source.add(rule.name)
            seen_emitted.update(names)
            self.check_rule(rule)
        self.report_unused()

    # rules

    def check_rule(self, rule: RuleAst) -> None:
        self.check_event_fields(rule)
        for constraint in rule.constraints:
            self.check_constraint(constraint, rule)
        has_if = any(isinstance(a, IfAct) for a in rule.actions)
        if has_if and len(rule.actions) > 1:
            offset = next(a.pos for a in rule.actions if isinstance(a, IfAct))
            self.error("E010", "an 'if' action must be the only action of its rule", offset)
        for action in rule.actions:
            self.check_action(action, rule)

    def check_event_fields(self, rule: RuleAst) -> None:
        counts = {name: 0 for name in EVENT_FIELDS}
        for f in rule.event_fields:
            if f.name.lexeme not in counts:
                self.error("E006", f"unknown event field '{f.name.lexeme}'", f.name.offset)
                continue
            counts[f.name.lexeme] += 1
            self.check_field_value(f)
        if any(n != 1 for n in counts.values()):
            self.error(
                "E006",
                "event match must specify botype, originator, responder and outcome exactly once",
                rule.event_var.offset,
            )

    def check_field_value(self, f: EventField) -> None:
        if f.name.lexeme in ("originator", "responder"):
            self.expect_role_player(f.value)
        elif f.name.lexeme == "outcome":
            if f.value.lexeme.lower() not in OUTCOME_VALUES:
                self.warn(
                    "W002",
                    f"unexpected outcome value '{f.value.lexeme}' "
                    "(expected success, tecFail or bizFail)",
                    f.value.offset,
                )
        # botype values are free-form identifiers

    def check_constraint(self, constraint: ConstraintAst, rule: RuleAst) -> None:
        if isinstance(constraint, RopMembership):
            self.expect_operation(constraint.bo)
            self.expect_role_player(constraint.player)
        elif isinstance(constraint, OutcomeCheck):
            self.expect_operation(constraint.bo)
            self.expect_bool(constraint.value, "outcome check")
        elif isinstance(constraint, (TimeDirect, TimePartial)):
            var = constraint.event_var
            if var.lexeme != rule.event_var.lexeme:
                self.error("E004", f"'{var.lexeme}' is not declared", var.offset)
            if isinstance(constraint, TimePartial):
                unit, lo, hi = constraint.unit, constraint.lo, constraint.hi
                if lo > hi or hi > UNIT_MAX.get(unit, hi):
                    message = f"empty or out-of-range {unit} window [{lo}, {hi}]"
                    self.error("E011", message, var.offset)
        elif isinstance(constraint, Historical):
            seen: set[str] = set()
            for f in constraint.fields:
                if f.name.lexeme not in EVENT_FIELDS:
                    self.error("E006", f"unknown event field '{f.name.lexeme}'", f.name.offset)
                    continue
                if f.name.lexeme in seen:
                    self.error("E006", f"repeated event field '{f.name.lexeme}'", f.name.offset)
                seen.add(f.name.lexeme)
                self.check_field_value(f)

    def check_action(self, action: ActionAst, rule: RuleAst) -> None:
        if isinstance(action, RopManip):
            self.expect_role_player(action.player)
            self.expect_operation(action.bo)
            if len(action.args) != 1 or len(action.deadlines) > 1:
                self.error(
                    "E009",
                    "ROP manipulation takes one beneficiary role player and an optional "
                    "deadline string",
                    action.bo.offset,
                )
            for arg in action.args:
                self.expect_role_player(arg)
        elif isinstance(action, OutcomeSetAct):
            self.expect_operation(action.bo)
            self.expect_bool(action.value, "outcome setter")
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
            self.error("E004", f"'{ident.lexeme}' is not declared", ident.offset)
        elif kind != ROLE_PLAYER:
            self.error("E005", f"'{ident.lexeme}' is not a role player", ident.offset)

    def expect_operation(self, ident: Token) -> None:
        self.used.add(ident.lexeme)
        kind = self.tab.kinds.get(ident.lexeme)
        if kind is None:
            self.error("E004", f"'{ident.lexeme}' is not declared", ident.offset)
        elif kind == ROLE_PLAYER:
            self.error(
                "E005", f"'{ident.lexeme}' is not a business operation or composite obligation",
                ident.offset,
            )

    def expect_bool(self, value: Token, where: str) -> None:
        if value.lexeme not in ("true", "false"):
            self.error(
                "E008", f"{where} expects 'true' or 'false', found '{value.lexeme}'", value.offset
            )

    def report_unused(self) -> None:
        for name, ident in self.tab.declared.items():
            if name not in self.used:
                kind = self.tab.kinds[name]
                self.warn("W001", f"{kind} '{name}' declared but never used", ident.offset)

    def error(self, code: str, message: str, offset: int) -> None:
        self.diags.append(Diagnostic("error", code, message, offset))

    def warn(self, code: str, message: str, offset: int) -> None:
        self.diags.append(Diagnostic("warning", code, message, offset))
