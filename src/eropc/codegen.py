"""Code generation: a checked contract to Augmented Drools text.

Covers the front end (analyze) of translate() and the CLI's --check and
--emit-ast, lowering, the declaration block and its name checks (E012), the
configurable keyword-to-method lookup, and deterministic rendering (LF newlines,
4-space indent inside rules).  One function, ``ad_globals``, names a declared
name's AD identifiers; the header prints them and E012 checks them in one walk
over the declarations.  Each AD rule is one RuleAst that ``sema.split`` gives,
rendered straight to its text, and each source rule is dropped once its AD rules are.
"""

from __future__ import annotations

import gc
import re
import types
from collections.abc import Mapping
from typing import NamedTuple

from .lexer import FrontEndError, _new, positions, tokenize
from .sema import (
    Diagnostic,
    SymbolTable,
    build_symbol_table,
    check_contract,
    split,
)
from .syntax import (
    BUSINESS_OP,
    EVENT_FIELDS,
    ROLE_PLAYER,
    ConstraintAst,
    ContractAst,
    Historical,
    NegatedConjunction,
    Outcome,
    RopManip,
    RopMembership,
    RuleAst,
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
# each EROP event field, in canonical order, and its name in the AD event model
_AD_FIELD = dict(zip(EVENT_FIELDS, ("type", "originator", "responder", "status")))

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
        key, _, value = map(str.strip, line.partition("="))
        if not key or not value:  # a line without "=" has an empty value
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


def ad_globals(name: str, kind: str) -> list[tuple[str | None, str]]:
    """A declared name's AD identifiers, as (AD type, identifier) pairs: a role
    player's RolePlayer and ROPSet globals, an operation's BusinessOperation
    global, and the name a membership constraint renders for a composite
    obligation, which the header does not declare (type None)."""
    if kind == ROLE_PLAYER:
        return [("RolePlayer", name), ("ROPSet", rop_var_name(name))]
    return [("BusinessOperation" if kind == BUSINESS_OP else None, bo_global_name(name))]


def header_lines(package_name: str, tab: SymbolTable) -> list[str]:
    """The package, the two imports, the two fixed globals, then the declared names' AD globals:
    each role player's two, then each operation's one, in declaration order."""
    lines = [f"package {package_name}", "", *IMPORT_LINES, ""]
    lines += ["global RelevanceEngine engine;", "global EventLogger logger;"]
    for kind, names in ((ROLE_PLAYER, tab.role_players), (BUSINESS_OP, tab.business_ops)):
        lines += [f"global {t} {ident};" for name in names for t, ident in ad_globals(name, kind)]
    return lines


# the header's own globals; the then-block's composite-obligation arrays are bos, bos2, bos3, ...
_TAKEN_IDENTIFIERS = frozenset(("engine", "logger", "bos"))


def check_globals(tab: SymbolTable) -> list[Diagnostic]:
    """E012 at a declaration whose AD identifier is taken or is no Java identifier.

    The identifiers are those ``ad_globals`` gives each declared name.  The
    names are walked in declaration order, so the first to give an identifier
    owns it and each later one is reported.  A declared name is ASCII
    ``[A-Za-z][A-Za-z0-9_]*``, so each of its AD identifiers has a Java
    identifier's shape and can fail only as a reserved word.
    """
    owners: dict[str, str] = {}  # each identifier's first-declared name
    diags: list[Diagnostic] = []
    for name, index in tab.declared.items():
        kind = tab.kinds[name]
        for _, ident in ad_globals(name, kind):
            owner = owners.setdefault(ident, name)
            if owner != name:
                why = f"and {tab.kinds[owner]} '{owner}' both become '{ident}'"
            elif ident in _TAKEN_IDENTIFIERS or (  # digits above "1": 2 up, no leading zero
                ident[:3] == "bos" and ident[3:].isdigit() and ident[3:] > "1"
            ):
                why = f"becomes '{ident}', a name the AD output already uses"
            elif ident in _JAVA_RESERVED:
                why = f"becomes '{ident}', which is not a Java identifier"
            else:
                continue
            diags.append(Diagnostic("error", "E012", f"{kind} '{name}' {why}", index))
    return diags


def event_line(rule: RuleAst) -> str:
    """The ``$e: Event(...)`` pattern that opens each AD rule of a source rule."""
    # sema (E006) leaves exactly the four fields, each once
    ev = {f.name: f.value for f in rule.event_fields}
    pairs = ", ".join(f'{ad}=="{ev[name]}"' for name, ad in _AD_FIELD.items())
    return f"$e: Event({pairs})"


def emit_rule(rule: RuleAst, event: str, lookup: Mapping[str, str], tab: SymbolTable) -> str:
    """The text of one AD rule of ``split``, under its source rule's event line."""
    when = [event, *(f"eval({constraint_expr(c, lookup)})" for c in rule.constraints)]
    then: list[str] = []  # never empty: the grammar gives every branch an action
    arrays = 0
    for action in rule.actions:
        if isinstance(action, RopManip):
            # sema leaves one beneficiary (E009) and a composite obligation only in obligs (E005)
            method = lookup[f"rop.{action.op}.{_SET_SINGULAR[action.rop_set]}"]
            compoblig = action.bo in tab.comp_obligs  # it travels by name
            args = [f'"{action.bo}"' if compoblig else bo_global_name(action.bo)]
            if compoblig and action.op == "add":  # with its member operations in an array
                arrays += 1
                args.append("bos" if arrays == 1 else f"bos{arrays}")
                members = ", ".join(bo_global_name(m) for m in tab.comp_obligs[action.bo])
                then.append(f"BusinessOperation[] {args[1]} = {{{members}}};")
            # E009 leaves one identifier, the beneficiary, then at most one deadline string
            args += sorted(action.actuals, key=lambda actual: actual[0] == '"')
            then.append(f"{rop_var_name(action.player)}.{method}({', '.join(args)});")
        elif isinstance(action, Outcome):
            setter = lookup["bizfail.set"]  # sema (E008) leaves the value 'true' or 'false'
            then.append(f"{bo_global_name(action.bo)}.{setter}({action.value});")
        else:  # ResetAct
            then.append(f"{rop_var_name(action.player)}.{lookup['reset']}();")
    indent = "\n    ".join
    return f'rule "{rule.name}"\nwhen\n    {indent(when)}\nthen\n    {indent(then)}\nend\n'


def constraint_expr(
    constraint: ConstraintAst | NegatedConjunction, lookup: Mapping[str, str]
) -> str:
    """The parenthesis-free boolean expression a constraint evaluates."""
    if isinstance(constraint, RopMembership):
        method = lookup[f"rop.matches.{constraint.rop_set}"]
        return f"{rop_var_name(constraint.player)}.{method}({bo_global_name(constraint.bo)})"
    if isinstance(constraint, Outcome):  # sema (E008) leaves 'true' or 'false'
        getter = lookup["bizfail.get"]
        return f"{bo_global_name(constraint.bo)}.{getter}() == {constraint.value}"
    if isinstance(constraint, TimeDirect):
        accessor = lookup["time.stamp"]
        return f"$e.{accessor}() {constraint.op} {constraint.timestamp}"
    if isinstance(constraint, TimePartial):
        accessor = lookup[f"time.{constraint.unit}"]
        return (
            f"$e.{accessor}() >= {constraint.lo} && $e.{accessor}() <= {constraint.hi}"
        )
    if isinstance(constraint, Historical):
        # name/value pairs in canonical field order; sema (E006) leaves each field at most once
        method = lookup["historical.happened"]
        provided = {f.name: f.value for f in constraint.fields}
        args = ", ".join(
            f'"{ad}", "{provided[name]}"' for name, ad in _AD_FIELD.items() if name in provided
        )
        call = f"engine.{method}({args})"
        return call if constraint.happened else f"!{call}"
    assert isinstance(constraint, NegatedConjunction)
    inner = " && ".join(constraint_expr(item, lookup) for item in constraint.items)
    return f"!({inner})"


class IrContract(NamedTuple):
    rules: list[tuple[RuleAst, tuple[RuleAst, ...]]]  # each source rule with its split


def lower_contract(ast: ContractAst) -> IrContract:
    """Pair each source rule, checked or not, with its split."""
    return IrContract([(rule, split(rule)) for rule in ast.rules])


class ADFile(NamedTuple):
    header: list[str]
    rules: list[str]  # the text of each AD rule


def build_ad_file(
    contract: IrContract, tab: SymbolTable, package_name: str, lookup: Mapping[str, str]
) -> ADFile:
    """The header and the text of every AD rule of the contract.

    Drains ``contract.rules``: each source rule and its split are dropped once
    rendered, so a caller that holds no other reference to them frees each rule here.
    """
    pairs, rules = contract.rules, []
    pairs.reverse()  # popped from the end, in source order
    while pairs:
        rule, pieces = pairs.pop()
        event = event_line(rule)
        rules.extend(emit_rule(piece, event, lookup, tab) for piece in pieces)
    return ADFile(header_lines(package_name, tab), rules)


def render_file(ad_file: ADFile) -> str:
    """The header block followed by every rule, with a blank line before each rule, in one
    join: the "" after the header ends its last line, and each rule ends in a line break."""
    return "\n".join([*ad_file.header, "", *ad_file.rules])


def analyze(source: str) -> tuple[
    ContractAst | None, SymbolTable | None, IrContract | None, list[Diagnostic]
]:
    """Tokenize, parse, build the symbol table, split and check; diagnostics in (line, col) order.

    A lexical or syntax error gives ``(None, None, None, [its E-LEX or E-PARSE])``.
    Every stage records token indexes; this is the one place that turns them
    into SourcePos, all in one ``positions`` call.
    """
    ast = tab = ir = None
    try:
        ast = parse_contract(tokenize(source))
    except FrontEndError as err:
        diags = [Diagnostic("error", err.code, err.message, err.pos)]
    else:
        tab, diags = build_symbol_table(ast)
        ir = lower_contract(ast)
        diags += check_contract(ast.decls, ir.rules, tab) + check_globals(tab)
        diags.sort(key=lambda d: d.pos)  # (line, col) order; stable, so ties keep discovery order
    found = positions(source, [d.pos for d in diags])
    return ast, tab, ir, [_new(Diagnostic, (*d[:3], pos)) for d, pos in zip(diags, found)]


def translate(
    source: str, package_name: str, lookup: Mapping[str, str] = DEFAULT_LOOKUP
) -> tuple[str | None, list[Diagnostic]]:
    """Full pipeline: analyze, then emit the split rules.

    Returns ``(text, diagnostics)``; ``text`` is None, and nothing is rendered, on any error.

    The cyclic garbage collector is paused for the whole compile, then left as
    the caller had it: a compile builds only acyclic trees, which reference
    counting frees, so the collections its allocations set off free nothing.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ast, tab, ir, diags = analyze(source)
        del ast  # each rule then lives only in ir.rules, which build_ad_file drains
        if any(d.is_error for d in diags):
            return None, diags

        ad_file = build_ad_file(ir, tab, package_name, lookup)
        del tab, ir  # freed before the rule strings are joined
        return render_file(ad_file), diags
    finally:
        if gc_was_enabled:
            gc.enable()
