"""Semantic analysis: symbol table construction and contract validation.

Error codes:
    E001 duplicate declaration            E006 bad event-field set
    E002 unknown compoblig member         E007 duplicate rule name
    E003 name casing violation            E008 bad boolean literal
    E004 undeclared identifier            E009 bad ROP-manipulation arguments
    E005 identifier of the wrong kind     E010 'if' with sibling actions
Warnings:
    W001 declared but unused              W002 unexpected outcome value
"""

from __future__ import annotations

from typing import NamedTuple

from .lexer import SourcePos
from .syntax import (
    ActionAst,
    BusinessOpsDecl,
    CompObligDecl,
    ConstraintAst,
    ContractAst,
    EventField,
    Historical,
    Ident,
    IfAct,
    OutcomeCheck,
    OutcomeSetAct,
    ResetAct,
    RolePlayersDecl,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
    EVENT_FIELDS,
)

OUTCOME_VALUES = ("success", "tecfail", "bizfail")  # compared case-insensitively


class Diagnostic(NamedTuple):
    severity: str  # "error" or "warning"
    code: str
    message: str
    pos: SourcePos

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


class SymbolTable:
    """Declared names, in declaration order; the namespaces are disjoint.

    ``kinds`` maps each name that build_symbol_table declared to its kind;
    the per-kind collections keep declaration order for code generation.
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


def build_symbol_table(ast: ContractAst) -> tuple[SymbolTable, list[Diagnostic]]:
    """Collect declarations; duplicates keep the first occurrence (E001)."""
    tab = SymbolTable()
    diags: list[Diagnostic] = []

    def declare(ident: Ident, kind: str) -> bool:
        if ident.name in tab.kinds:
            diags.append(_error("E001", f"duplicate declaration of '{ident.name}'", ident.pos))
            return False
        tab.kinds[ident.name] = kind
        return True

    comp_decls: list[CompObligDecl] = []
    for decl in ast.decls:
        if isinstance(decl, RolePlayersDecl):
            for ident in decl.names:
                if declare(ident, "role player"):
                    tab.role_players.append(ident.name)
        elif isinstance(decl, BusinessOpsDecl):
            for ident in decl.names:
                if declare(ident, "business operation"):
                    tab.business_ops.append(ident.name)
        elif declare(decl.name, "composite obligation"):
            tab.comp_obligs[decl.name.name] = []
            comp_decls.append(decl)

    # member lookup is order-insensitive within the declaration section
    for decl in comp_decls:
        members = tab.comp_obligs[decl.name.name]
        for member in decl.members:
            if tab.kinds.get(member.name) == "business operation":
                members.append(member.name)
            else:
                diags.append(
                    _error(
                        "E002",
                        f"composite obligation member '{member.name}' is not a declared "
                        "business operation",
                        member.pos,
                    )
                )
    return tab, diags


def check_contract(ast: ContractAst, tab: SymbolTable) -> list[Diagnostic]:
    """Validate every declaration and rule; diagnostics come in discovery order."""
    checker = _Checker(tab)
    checker.check(ast)
    return checker.diags


def _error(code: str, message: str, pos: SourcePos) -> Diagnostic:
    return Diagnostic("error", code, message, pos)


def _warning(code: str, message: str, pos: SourcePos) -> Diagnostic:
    return Diagnostic("warning", code, message, pos)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Stable (line, col) ordering, as the rendering contract requires."""
    return sorted(diags, key=lambda d: (d.pos.line, d.pos.col))


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
        for decl in ast.decls:
            self.check_decl_casing(decl)
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
        self.report_unused(ast)

    # declarations

    def check_decl_casing(self, decl) -> None:
        if isinstance(decl, RolePlayersDecl):
            for ident in decl.names:
                if not ident.name[0].islower():
                    self.error(
                        "E003",
                        f"role player '{ident.name}' must begin with a lower-case letter",
                        ident.pos,
                    )
        elif isinstance(decl, BusinessOpsDecl):
            for ident in decl.names:
                if not ident.name[0].isupper():
                    self.error(
                        "E003",
                        f"business operation '{ident.name}' must begin with an upper-case letter",
                        ident.pos,
                    )
        else:
            if not decl.name.name[0].isupper():
                self.error(
                    "E003",
                    f"composite obligation '{decl.name.name}' must begin with an upper-case "
                    "letter",
                    decl.name.pos,
                )
            for member in decl.members:
                self.used.add(member.name)

    # rules

    def check_rule(self, rule: RuleAst) -> None:
        self.check_event_fields(rule)
        for constraint in rule.constraints:
            self.check_constraint(constraint, rule)
        has_if = any(isinstance(a, IfAct) for a in rule.actions)
        if has_if and len(rule.actions) > 1:
            pos = next(a.pos for a in rule.actions if isinstance(a, IfAct))
            self.error("E010", "an 'if' action must be the only action of its rule", pos)
        for action in rule.actions:
            self.check_action(action, rule)

    def check_event_fields(self, rule: RuleAst) -> None:
        counts = {name: 0 for name in EVENT_FIELDS}
        for f in rule.event_fields:
            if f.name.name not in counts:
                self.error("E006", f"unknown event field '{f.name.name}'", f.name.pos)
                continue
            counts[f.name.name] += 1
            self.check_field_value(f)
        if any(n != 1 for n in counts.values()):
            self.error(
                "E006",
                "event match must specify botype, originator, responder and outcome exactly once",
                rule.event_var.pos,
            )

    def check_field_value(self, f: EventField) -> None:
        if f.name.name in ("originator", "responder"):
            self.expect_role_player(f.value)
        elif f.name.name == "outcome":
            if f.value.name.lower() not in OUTCOME_VALUES:
                self.warn(
                    "W002",
                    f"unexpected outcome value '{f.value.name}' "
                    "(expected success, tecFail or bizFail)",
                    f.value.pos,
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
            if constraint.event_var.name != rule.event_var.name:
                self.error(
                    "E004", f"'{constraint.event_var.name}' is not declared", constraint.event_var.pos
                )
        elif isinstance(constraint, Historical):
            seen: set[str] = set()
            for f in constraint.fields:
                if f.name.name not in EVENT_FIELDS:
                    self.error("E006", f"unknown event field '{f.name.name}'", f.name.pos)
                    continue
                if f.name.name in seen:
                    self.error("E006", f"repeated event field '{f.name.name}'", f.name.pos)
                seen.add(f.name.name)
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
                    action.bo.pos,
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

    def expect_role_player(self, ident: Ident) -> None:
        self.used.add(ident.name)
        kind = self.tab.kinds.get(ident.name)
        if kind is None:
            self.error("E004", f"'{ident.name}' is not declared", ident.pos)
        elif kind != "role player":
            self.error("E005", f"'{ident.name}' is not a role player", ident.pos)

    def expect_operation(self, ident: Ident) -> None:
        self.used.add(ident.name)
        kind = self.tab.kinds.get(ident.name)
        if kind is None:
            self.error("E004", f"'{ident.name}' is not declared", ident.pos)
        elif kind == "role player":
            self.error(
                "E005", f"'{ident.name}' is not a business operation or composite obligation",
                ident.pos,
            )

    def expect_bool(self, value: Ident, where: str) -> None:
        if value.name not in ("true", "false"):
            self.error(
                "E008", f"{where} expects 'true' or 'false', found '{value.name}'", value.pos
            )

    def report_unused(self, ast: ContractAst) -> None:
        for decl in ast.decls:
            if isinstance(decl, (RolePlayersDecl, BusinessOpsDecl)):
                names = decl.names
                kind = "role player" if isinstance(decl, RolePlayersDecl) else "business operation"
            else:
                names = [decl.name]
                kind = "composite obligation"
            for ident in names:
                if ident.name not in self.used:
                    self.warn(
                        "W001", f"{kind} '{ident.name}' declared but never used", ident.pos
                    )

    def error(self, code: str, message: str, pos: SourcePos) -> None:
        self.diags.append(_error(code, message, pos))

    def warn(self, code: str, message: str, pos: SourcePos) -> None:
        self.diags.append(_warning(code, message, pos))
