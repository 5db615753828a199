"""Code generation: target rules to Augmented Drools text.

Covers the front end shared by translate() and the CLI's debug modes, the
declaration block, the configurable keyword-to-method lookup, and
deterministic rendering (LF newlines, 4-space indent inside rules).
"""

from __future__ import annotations

import re
import types
from collections.abc import Mapping
from typing import NamedTuple

from .ir import IrContract, IrRule, NegatedConjunction, lower_contract
from .lexer import LexError, positions, tokenize
from .sema import Diagnostic, SymbolTable, build_symbol_table, check_contract
from .syntax import (
    EVENT_FIELDS,
    ConstraintAst,
    ContractAst,
    Historical,
    OutcomeCheck,
    OutcomeSetAct,
    ParseError,
    RopManip,
    RopMembership,
    TimeDirect,
    TimePartial,
    parse_contract,
)

IMPORT_LINES = (
    "import uk.ac.ncl.erop.*;",
    "import uk.ac.ncl.logging.CCCLogger;",
)

# Mapping key -> target method name.  A deployment can rename any target
# method by overriding the value in a lookup file; the key set itself is fixed,
# so every lookup holds every key emit_rule asks for.  Read-only because it is
# the default that every caller shares.
DEFAULT_LOOKUP = types.MappingProxyType({
    "rop.matches.rights": "matchesRights",
    "rop.matches.obligs": "matchesObligations",
    "rop.matches.prohibs": "matchesProhibitions",
    "rop.add.right": "addRight",
    "rop.remove.right": "removeRight",
    "rop.add.oblig": "addObligation",
    "rop.remove.oblig": "removeObligation",
    "rop.add.prohib": "addProhibition",
    "rop.remove.prohib": "removeProhibition",
    "bizfail.get": "getBusinessFailure",
    "bizfail.set": "setBusinessFailure",
    "reset": "reset",
    "historical.happened": "eventHappened",
    "time.stamp": "getTimestamp",
    "time.hour": "getHour",
    "time.minute": "getMinute",
    "time.day": "getDay",
    "time.month": "getMonth",
    "time.year": "getYear",
})

_SET_SINGULAR = {"rights": "right", "obligs": "oblig", "prohibs": "prohib"}

_JAVA_IDENTIFIER = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_JAVA_RESERVED = frozenset(
    "_ abstract assert boolean break byte case catch char class const continue default do "
    "double else enum extends false final finally float for goto if implements import "
    "instanceof int interface long native new null package private protected public return "
    "short static strictfp super switch synchronized this throw throws transient true try "
    "void volatile while".split()
)


def is_java_identifier(name: str) -> bool:
    """An ASCII Java identifier that is not a reserved word."""
    return _JAVA_IDENTIFIER.fullmatch(name) is not None and name not in _JAVA_RESERVED


class ConfigError(Exception):
    """Malformed lookup file."""


def load_lookup(text: str) -> dict[str, str]:
    """Parse a ``key = value`` mapping file and merge it over a copy of the defaults.

    ``#`` starts a comment, blank lines are ignored.  A line without ``=``,
    a key that is not in DEFAULT_LOOKUP or is repeated within the file, or a
    value that is not a Java identifier raises ConfigError.
    """
    entries = dict(DEFAULT_LOOKUP)
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        if key not in DEFAULT_LOOKUP:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if not is_java_identifier(value):
            raise ConfigError(f"line {lineno}: '{value}' is not a Java identifier")
        seen.add(key)
        entries[key] = value
    return entries


def bo_global_name(name: str) -> str:
    """Business-operation global variable: first character lower-cased."""
    return name[0].lower() + name[1:]


def rop_var_name(player: str) -> str:
    """ROP-set global for a role player, e.g. buyer -> ropBuyer."""
    return "rop" + player[0].upper() + player[1:]


class ADRule(NamedTuple):
    name: str
    when_lines: list[str]
    then_lines: list[str]


class ADFile(NamedTuple):
    package_name: str
    globals: list[str]
    rules: list[ADRule]


def global_lines(tab: SymbolTable) -> list[str]:
    lines = ["global RelevanceEngine engine;", "global EventLogger logger;"]
    for player in tab.role_players:
        lines.append(f"global RolePlayer {player};")
        lines.append(f"global ROPSet {rop_var_name(player)};")
    for bo in tab.business_ops:
        lines.append(f"global BusinessOperation {bo_global_name(bo)};")
    return lines


def emit_rule(rule: IrRule, lookup: Mapping[str, str], tab: SymbolTable) -> ADRule:
    """Render one target rule."""
    ev = rule.event
    when_lines = [
        f'$e: Event(type=="{ev.botype}", originator=="{ev.originator}", '
        f'responder=="{ev.responder}", status=="{ev.outcome}")'
    ]
    for constraint in rule.constraints:
        when_lines.append(f"eval({constraint_expr(constraint, lookup)})")

    then_lines: list[str] = []
    arrays = 0
    for action in rule.actions:
        if isinstance(action, RopManip):
            if action.bo.lexeme in tab.comp_obligs:
                if action.op == "add":
                    arrays += 1
                then_lines.extend(_compoblig_lines(action, lookup, tab, arrays))
            else:
                then_lines.append(_plain_manip_line(action, lookup))
        elif isinstance(action, OutcomeSetAct):
            setter = lookup["bizfail.set"]  # sema (E008) leaves the value 'true' or 'false'
            bo, value = action.bo.lexeme, action.value.lexeme
            then_lines.append(f"{bo_global_name(bo)}.{setter}({value});")
        else:  # ResetAct
            then_lines.append(f"{rop_var_name(action.player.lexeme)}.{lookup['reset']}();")
    return ADRule(name=rule.name, when_lines=when_lines, then_lines=then_lines)


def constraint_expr(
    constraint: ConstraintAst | NegatedConjunction, lookup: Mapping[str, str]
) -> str:
    """The parenthesis-free boolean expression a constraint evaluates."""
    if isinstance(constraint, RopMembership):
        method = lookup[f"rop.matches.{constraint.rop_set}"]
        player, bo = constraint.player.lexeme, constraint.bo.lexeme
        return f"{rop_var_name(player)}.{method}({bo_global_name(bo)})"
    if isinstance(constraint, OutcomeCheck):  # sema (E008) leaves 'true' or 'false'
        getter = lookup["bizfail.get"]
        return f"{bo_global_name(constraint.bo.lexeme)}.{getter}() == {constraint.value.lexeme}"
    if isinstance(constraint, TimeDirect):
        accessor = lookup["time.stamp"]
        return f'$e.{accessor}() {constraint.op} "{constraint.timestamp}"'
    if isinstance(constraint, TimePartial):
        accessor = lookup[f"time.{constraint.unit}"]
        return (
            f"$e.{accessor}() >= {constraint.lo} && $e.{accessor}() <= {constraint.hi}"
        )
    if isinstance(constraint, Historical):
        # the values in canonical field order; sema (E006) leaves each field at most once
        method = lookup["historical.happened"]
        provided = {f.name.lexeme: f.value.lexeme for f in constraint.fields}
        args = ", ".join(f'"{provided[name]}"' for name in EVENT_FIELDS if name in provided)
        call = f"engine.{method}({args})"
        return call if constraint.happened else f"!{call}"
    assert isinstance(constraint, NegatedConjunction)
    inner = " && ".join(constraint_expr(item, lookup) for item in constraint.items)
    return f"!({inner})"


def _plain_manip_line(action: RopManip, lookup: Mapping[str, str]) -> str:
    # sema (E009) leaves exactly one beneficiary
    method = lookup[f"rop.{action.op}.{_SET_SINGULAR[action.rop_set]}"]
    args = [bo_global_name(action.bo.lexeme), action.args[0].lexeme]
    if action.deadline is not None:
        args.append(f'"{action.deadline}"')
    return f"{rop_var_name(action.player.lexeme)}.{method}({', '.join(args)});"


def _compoblig_lines(
    action: RopManip, lookup: Mapping[str, str], tab: SymbolTable, index: int
) -> list[str]:
    # Composite obligations travel by name and always go through the
    # obligation methods; adding one also needs the member operations packed
    # into a temporary array.
    method = lookup[f"rop.{action.op}.oblig"]
    rop_var = rop_var_name(action.player.lexeme)
    name, beneficiary = action.bo.lexeme, action.args[0].lexeme
    if action.op == "remove":
        return [f'{rop_var}.{method}("{name}", {beneficiary});']
    members = ", ".join(bo_global_name(m) for m in tab.comp_obligs[name])
    array = "bos" if index == 1 else f"bos{index}"
    args = [f'"{name}"', array, beneficiary]
    if action.deadline is not None:
        args.append(f'"{action.deadline}"')
    return [
        f"BusinessOperation[] {array} = {{{members}}};",
        f"{rop_var}.{method}({', '.join(args)});",
    ]


def build_ad_file(contract: IrContract, lookup: Mapping[str, str]) -> ADFile:
    """Render every target rule of the contract into an ADFile."""
    rules = [
        emit_rule(rule, lookup, contract.symbols) for group in contract.rules for rule in group
    ]
    return ADFile(
        package_name=contract.package_name,
        globals=global_lines(contract.symbols),
        rules=rules,
    )


def render_rule(rule: ADRule) -> str:
    lines = [f'rule "{rule.name}"', "when"]
    lines.extend(f"    {line}" for line in rule.when_lines)
    lines.append("then")
    lines.extend(f"    {line}" for line in rule.then_lines)
    lines.append("end")
    return "\n".join(lines) + "\n"


def render_file(ad_file: ADFile) -> str:
    """The package/import/global header block followed by every rule."""
    header = [f"package {ad_file.package_name}", "", *IMPORT_LINES, "", *ad_file.globals]
    parts = ["\n".join(header) + "\n"]
    parts.extend(render_rule(rule) for rule in ad_file.rules)
    return "\n".join(parts)


def analyze(source: str) -> tuple[ContractAst | None, SymbolTable | None, list[Diagnostic]]:
    """Tokenize, parse, build the symbol table and check; diagnostics in (line, col) order.

    A lexical or syntax error gives ``(None, None, [its E-LEX or E-PARSE])``.
    The stages record offsets; this is the one place that turns them into
    SourcePos, all at once.
    """
    ast = tab = None
    try:
        ast = parse_contract(tokenize(source))
    except LexError as err:
        diags = [Diagnostic("error", "E-LEX", err.message, err.pos)]
    except ParseError as err:
        diags = [Diagnostic("error", "E-PARSE", err.message, err.pos)]
    else:
        tab, diags = build_symbol_table(ast)
        # offset order is (line, col) order; the sort is stable, so ties keep discovery order
        diags = sorted(diags + check_contract(ast, tab), key=lambda d: d.pos)
    found = positions(source, [d.pos for d in diags])
    return ast, tab, [d._replace(pos=pos) for d, pos in zip(diags, found)]


def translate(
    source: str, package_name: str, lookup: Mapping[str, str] = DEFAULT_LOOKUP
) -> tuple[str | None, list[Diagnostic]]:
    """Full pipeline: analyze, then lower (splitting conditionals) and emit.

    Returns ``(text, diagnostics)``; ``text`` is None when any error
    diagnostic was produced, in which case nothing was rendered.
    """
    ast, tab, diags = analyze(source)
    if any(d.is_error for d in diags):
        return None, diags

    ad_file = build_ad_file(lower_contract(ast, tab, package_name), lookup)
    return render_file(ad_file), diags
