import gc
import re
import sys
import tracemalloc

import pytest

from conftest import CORPUS, wide_contract
from eropc import codegen, lexer, sema
from eropc.codegen import (
    ADFile,
    ConfigError,
    DEFAULT_LOOKUP,
    bo_global_name,
    build_ad_file,
    constraint_expr,
    emit_rule,
    event_line,
    header_lines,
    load_lookup,
    lower_contract,
    render_file,
    rop_var_name,
    translate,
)
from eropc.lexer import tokenize
from eropc.sema import NegatedConjunction, build_symbol_table, split
from eropc.syntax import ROLE_PLAYER, ContractAst, Decl, RuleAst, parse_contract
from irgen import read_rule

CASE_DECLS = """\
roleplayer buyer, seller, store;
businessoperation BuyRequest, Payment, BuyConfirm, BuyReject, Cancellation;
compoblig ReactToBuyRequest(BuyConfirm, BuyReject)
"""
CASE_TABLE, _ = build_symbol_table(
    parse_contract(tokenize((CORPUS / "buyer_store.erop").read_text(encoding="utf-8")))
)
EVENT_LINE = (
    '$e: Event(type=="BUYREQ", originator=="buyer", responder=="store", status=="success")'
)


def player_table(*names):
    decl = Decl(ROLE_PLAYER, names, (), 0)
    tab, _ = build_symbol_table(ContractAst((decl,), ()))
    return tab


def target_rules(when="", then="    reset buyer\n"):
    """The AD rules of one rule over the case-study declarations, read back."""
    source = CASE_DECLS + f"""\
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
{when}then
{then}end
"""
    (rule,) = parse_contract(tokenize(source)).rules
    event, tab = event_line(rule), CASE_TABLE
    return [read_rule(emit_rule(piece, event, DEFAULT_LOOKUP, tab)) for piece in split(rule)]


def emitted(when="", then="    reset buyer\n"):
    (rule,) = target_rules(when, then)
    return rule


def constraint(text):
    """The syntax node of one left-hand-side constraint."""
    source = CASE_DECLS + f"""\
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    {text}
then
    reset buyer
end
"""
    (node,) = parse_contract(tokenize(source)).rules[0].constraints
    return node


@pytest.mark.parametrize(
    "name,expected",
    [("BuyRequest", "buyRequest"), ("Payment", "payment"), ("X", "x")],
)
def test_bo_global_name(name, expected):
    assert bo_global_name(name) == expected


@pytest.mark.parametrize(
    "player,expected",
    [("buyer", "ropBuyer"), ("seller", "ropSeller"), ("a", "ropA")],
)
def test_rop_var_name(player, expected):
    assert rop_var_name(player) == expected


def test_load_lookup_override():
    table = load_lookup("rop.remove.right = removeRight\n")
    assert table["rop.remove.right"] == "removeRight"
    table = load_lookup("rop.matches.rights = matchesRights")
    assert table["rop.matches.rights"] == "matchesRights"


def test_load_lookup_empty_keeps_defaults():
    table = load_lookup("")
    assert table == DEFAULT_LOOKUP


def test_load_lookup_comments_and_blanks():
    table = load_lookup("# comment\n\nreset = wipe  # trailing\n")
    assert table["reset"] == "wipe"
    assert table["bizfail.get"] == "getBusinessFailure"


@pytest.mark.parametrize(
    "text", ["", "rop.remove.right = revokeRight\n", "# comment\n\nreset = wipe  # trailing\n"]
)
def test_load_lookup_holds_every_default_key(text):
    # emit_rule asks only for DEFAULT_LOOKUP's keys, so no lookup can lack one
    assert load_lookup(text).keys() == DEFAULT_LOOKUP.keys()


def test_load_lookup_leaves_the_defaults_unchanged(case_study_source):
    before = dict(DEFAULT_LOOKUP)
    text, _ = translate(case_study_source, "P", load_lookup("reset = wipe"))
    assert "ropBuyer.wipe();" in text
    assert DEFAULT_LOOKUP == before and DEFAULT_LOOKUP["reset"] == "reset"


def test_default_lookup_is_read_only():
    with pytest.raises(TypeError):
        DEFAULT_LOOKUP["reset"] = "wipe"


def test_load_lookup_malformed_line():
    with pytest.raises(ConfigError):
        load_lookup("reset wipe\n")


def test_load_lookup_duplicate_key():
    with pytest.raises(ConfigError):
        load_lookup("reset = wipe\nreset = clear\n")


def test_load_lookup_unknown_key():
    with pytest.raises(ConfigError) as exc:
        load_lookup("# typo below\nrop.remove.rigth = revokeRight\n")
    assert str(exc.value) == "line 2: unknown key 'rop.remove.rigth'"


@pytest.mark.parametrize("value", ["not a name", "2fast", "revoke-right", "class"])
def test_load_lookup_value_must_be_a_java_identifier(value):
    with pytest.raises(ConfigError) as exc:
        load_lookup(f"reset = {value}\n")
    assert str(exc.value) == f"line 1: '{value}' is not a Java identifier"


# --- declarations ---


def test_case_study_declarations():
    assert render_file(ADFile(header_lines("BuyerStoreContractEx", CASE_TABLE), [])) == """\
package BuyerStoreContractEx

import uk.ac.ncl.erop.*;
import uk.ac.ncl.logging.CCCLogger;

global RelevanceEngine engine;
global EventLogger logger;
global RolePlayer buyer;
global ROPSet ropBuyer;
global RolePlayer seller;
global ROPSet ropSeller;
global RolePlayer store;
global ROPSet ropStore;
global BusinessOperation buyRequest;
global BusinessOperation payment;
global BusinessOperation buyConfirm;
global BusinessOperation buyReject;
global BusinessOperation cancellation;
"""


def test_declarations_one_player_no_ops():
    text = render_file(ADFile(header_lines("P", player_table("alice")), []))
    lines = [line for line in text.splitlines() if line.startswith("global")]
    assert lines == [
        "global RelevanceEngine engine;",
        "global EventLogger logger;",
        "global RolePlayer alice;",
        "global ROPSet ropAlice;",
    ]


def test_declarations_interleave_players_and_rop_sets():
    text = render_file(ADFile(header_lines("P", player_table("a", "b", "c")), []))
    names = [line.split()[-1].rstrip(";") for line in text.splitlines() if "RolePlayer" in line or "ROPSet" in line]
    assert names == ["a", "ropA", "b", "ropB", "c", "ropC"]


def test_header_lists_role_players_then_operations_each_in_declaration_order():
    source = """\
roleplayer buyer;
businessoperation Pay;
roleplayer seller;
rule "R"
when e matches (botype == X, originator == buyer, responder == seller, outcome == success)
then
    buyer.rights -= Pay(seller)
end
"""
    text, diags = translate(source, "P")
    assert diags == []
    assert [line for line in text.splitlines() if line.startswith("global")][2:] == [
        "global RolePlayer buyer;",
        "global ROPSet ropBuyer;",
        "global RolePlayer seller;",
        "global ROPSet ropSeller;",
        "global BusinessOperation pay;",
    ]


# --- rule emission ---


def test_emit_first_case_study_rule():
    out = emitted(
        when="    BuyRequest in buyer.rights\n",
        then='    buyer.rights -= BuyRequest(seller)\n'
        '    seller.obligs += ReactToBuyRequest(buyer, "01-01-2016 12:00:00")\n',
    )
    assert out.when_lines == [EVENT_LINE, "eval(ropBuyer.matchesRights(buyRequest))"]
    assert out.then_lines == [
        "ropBuyer.removeRight(buyRequest, seller);",
        "BusinessOperation[] bos = {buyConfirm, buyReject};",
        'ropSeller.addObligation("ReactToBuyRequest", bos, buyer, "01-01-2016 12:00:00");',
    ]


def test_emit_reset_actions():
    out = emitted(then="    reset buyer\n    seller reset\n")
    assert out.then_lines == ["ropBuyer.reset();", "ropSeller.reset();"]


def test_emit_rule_without_constraints_has_only_event_pattern():
    assert emitted().when_lines == [EVENT_LINE]


def test_emit_outcome_setters():
    out = emitted(then="    BuyRequest.BizFail == true\n    Payment.BizFail == false\n")
    assert out.then_lines == [
        "buyRequest.setBusinessFailure(true);",
        "payment.setBusinessFailure(false);",
    ]


def test_compoblig_removal_travels_by_name():
    out = emitted(then="    seller.obligs -= ReactToBuyRequest(buyer)\n")
    assert out.then_lines == ['ropSeller.removeObligation("ReactToBuyRequest", buyer);']


def test_compoblig_removal_keeps_its_deadline():
    out = emitted(then='    seller.obligs -= ReactToBuyRequest(buyer, "01-01-2016 12:00:00")\n')
    assert out.then_lines == [
        'ropSeller.removeObligation("ReactToBuyRequest", buyer, "01-01-2016 12:00:00");'
    ]


def test_second_compoblig_array_gets_numbered():
    out = emitted(
        then="    seller.obligs += ReactToBuyRequest(buyer)\n"
        "    buyer.obligs += ReactToBuyRequest(seller)\n"
    )
    assert out.then_lines == [
        "BusinessOperation[] bos = {buyConfirm, buyReject};",
        'ropSeller.addObligation("ReactToBuyRequest", bos, buyer);',
        "BusinessOperation[] bos2 = {buyConfirm, buyReject};",
        'ropBuyer.addObligation("ReactToBuyRequest", bos2, seller);',
    ]


def test_compoblig_removal_does_not_consume_an_array_name():
    out = emitted(
        then="    seller.obligs -= ReactToBuyRequest(buyer)\n"
        "    buyer.obligs += ReactToBuyRequest(seller)\n"
    )
    assert out.then_lines[1].startswith("BusinessOperation[] bos = ")


def test_plain_op_with_deadline():
    out = emitted(then='    buyer.rights += Cancellation(seller, "02-02-2016 09:00:00")\n')
    assert out.then_lines == ['ropBuyer.addRight(cancellation, seller, "02-02-2016 09:00:00");']


def test_else_rule_guard_comes_first():
    then_rule, else_rule = target_rules(
        when="    Payment in seller.obligs\n",
        then="    if (BuyRequest.BizFail == false, BuyRequest in buyer.rights)\n"
        "        then reset buyer\n        else reset seller\n    endif\n",
    )
    assert then_rule.when_lines == [
        EVENT_LINE,
        "eval(buyRequest.getBusinessFailure() == false)",
        "eval(ropBuyer.matchesRights(buyRequest))",
        "eval(ropSeller.matchesObligations(payment))",
    ]
    assert else_rule.when_lines == [
        EVENT_LINE,
        "eval(!(buyRequest.getBusinessFailure() == false && ropBuyer.matchesRights(buyRequest)))",
        "eval(ropSeller.matchesObligations(payment))",
    ]
    assert else_rule.then_lines == ["ropSeller.reset();"]


def test_constraint_expressions():
    cases = [
        ("Payment in buyer.obligs", "ropBuyer.matchesObligations(payment)"),
        ("Payment in buyer.prohibs", "ropBuyer.matchesProhibitions(payment)"),
        ("BuyRequest.BizFail == true", "buyRequest.getBusinessFailure() == true"),
        ('e.timestamp < "02-01-2016 00:00:00"', '$e.getTimestamp() < "02-01-2016 00:00:00"'),
        ("e.hour in [9, 17]", "$e.getHour() >= 9 && $e.getHour() <= 17"),
        ("happened (botype == BUYREQ, originator == buyer)",
         'engine.eventHappened("type", "BUYREQ", "originator", "buyer")'),
        ("not happened (botype == BUYPAY)", '!engine.eventHappened("type", "BUYPAY")'),
        ("happened (outcome == success)", 'engine.eventHappened("status", "success")'),
    ]
    for text, expected in cases:
        assert constraint_expr(constraint(text), DEFAULT_LOOKUP) == expected
    negated = NegatedConjunction(
        [constraint("BuyRequest.BizFail == false"), constraint("BuyRequest in buyer.rights")]
    )
    assert constraint_expr(negated, DEFAULT_LOOKUP) == (
        "!(buyRequest.getBusinessFailure() == false && ropBuyer.matchesRights(buyRequest))"
    )


def test_historical_fields_take_canonical_order():
    happened = constraint("happened (originator == buyer, botype == BUYREQ)")
    assert constraint_expr(happened, DEFAULT_LOOKUP) == (
        'engine.eventHappened("type", "BUYREQ", "originator", "buyer")'
    )


def test_historical_field_names_are_kept():
    by_originator = constraint_expr(constraint("happened (originator == buyer)"), DEFAULT_LOOKUP)
    by_responder = constraint_expr(constraint("happened (responder == buyer)"), DEFAULT_LOOKUP)
    assert by_originator == 'engine.eventHappened("originator", "buyer")'
    assert by_responder == 'engine.eventHappened("responder", "buyer")'


# --- full translation ---


def test_split_if_else_makes_two_rules():
    source = """\
roleplayer buyer, seller, store;
businessoperation BuyRequest;
rule "BuyRequestBnessFailure"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == tecFail)
    BuyRequest in buyer.rights
then
    if (BuyRequest.BizFail == false)
        then BuyRequest.BizFail == true
        else reset buyer
        reset seller
    endif
end
"""
    text, diags = translate(source, "P")
    assert diags == []
    then_rule, else_rule = text.split("\n\n")[-2:]
    event = '    $e: Event(type=="BUYREQ", originator=="buyer", responder=="store", status=="tecFail")'
    # if-condition first, the rule's own constraints after it
    assert then_rule.splitlines() == [
        'rule "BuyRequestBnessFailureIfThen"',
        "when",
        event,
        "    eval(buyRequest.getBusinessFailure() == false)",
        "    eval(ropBuyer.matchesRights(buyRequest))",
        "then",
        "    buyRequest.setBusinessFailure(true);",
        "end",
    ]
    assert else_rule.splitlines() == [
        'rule "BuyRequestBnessFailureIfElse"',
        "when",
        event,
        "    eval(!(buyRequest.getBusinessFailure() == false))",
        "    eval(ropBuyer.matchesRights(buyRequest))",
        "then",
        "    ropBuyer.reset();",
        "    ropSeller.reset();",
        "end",
    ]


def test_translate_case_study_matches_golden(case_study_source, golden_drl):
    text, diags = translate(case_study_source, "BuyerStoreContractEx")
    assert diags == []
    assert text == golden_drl


def test_translate_counts_fifteen_rules(case_study_source):
    text, _ = translate(case_study_source, "BuyerStoreContractEx")
    assert sum(line.startswith('rule "') for line in text.splitlines()) == 15


def test_translate_is_deterministic(case_study_source):
    first = translate(case_study_source, "BuyerStoreContractEx")
    second = translate(case_study_source, "BuyerStoreContractEx")
    assert first == second


def test_translate_empty_source_reports_parse_error():
    text, diags = translate("", "P")
    assert text is None
    assert [d.code for d in diags] == ["E-PARSE"]


def test_translate_reports_lex_error():
    text, diags = translate("roleplayer €;", "P")
    assert text is None
    assert [d.code for d in diags] == ["E-LEX"]


def test_translate_stops_on_sema_errors():
    source = (CORPUS / "bad" / "e003.erop").read_text(encoding="utf-8")
    text, diags = translate(source, "P")
    assert text is None
    assert any(d.code == "E003" for d in diags)


def test_translate_sorts_diagnostics_by_position():
    # W001 is found after the rules are checked, E004 while checking them
    source = "roleplayer buyer, idle;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    Ship in buyer.rights
then
    buyer.rights -= Pay(buyer)
end
"""
    text, diags = translate(source, "P")
    assert text is None
    assert [(d.code, str(d.pos)) for d in diags] == [("W001", "1:19"), ("E004", "5:5")]


def test_lookup_rename_changes_only_call_sites(case_study_source):
    base, _ = translate(case_study_source, "BuyerStoreContractEx")
    renamed, _ = translate(
        case_study_source, "BuyerStoreContractEx",
        load_lookup("rop.remove.right = revokeRight"),
    )
    base_lines = base.splitlines()
    renamed_lines = renamed.splitlines()
    assert len(base_lines) == len(renamed_lines)
    changed = [
        (a, b) for a, b in zip(base_lines, renamed_lines) if a != b
    ]
    assert changed and all(
        a.replace("removeRight", "revokeRight") == b and "removeRight" in a for a, b in changed
    )


def test_output_uses_lf_and_four_space_indent(golden_drl):
    assert "\r" not in golden_drl
    body_lines = [l for l in golden_drl.splitlines() if l.startswith(" ")]
    assert body_lines and all(l.startswith("    ") and not l.startswith("     ") for l in body_lines)


# --- the collector pause -----------------------------------------------------

# the pause is safe only while a compile builds no reference cycle: one that
# did (say, a parent pointer in the syntax tree) would wait for a collection
COMPILES = [
    pytest.param((CORPUS / "buyer_store.erop").read_text(encoding="utf-8"), id="golden"),
    *(pytest.param(path.read_text(encoding="utf-8"), id=path.name)
      for path in sorted((CORPUS / "bad").glob("*.erop"))),
    pytest.param("roleplayer \u20ac;", id="lex-error"),
    pytest.param("roleplayer buyer", id="parse-error"),
    pytest.param("", id="empty"),
]


@pytest.mark.parametrize("source", COMPILES)
def test_a_compile_leaves_no_cyclic_garbage(source):
    gc.collect()
    translate(source, "P")
    assert gc.collect() == 0


def repeated_case_study(source, copies):
    """The case study's rules ``copies`` times over, copy k renamed Name_<k>."""
    at = source.index('\nrule "') + 1
    return source[:at] + "\n".join(
        re.sub(r'^rule "(\w+)"$', rf'rule "\1_{k}"', source[at:], flags=re.M)
        for k in range(copies)
    )


def test_no_collection_runs_during_a_compile(case_study_source):
    source = repeated_case_study(case_study_source, 20)
    collections = []

    # the first allocation after translate re-enables the collector may start
    # one collection in the caller; only one under translate's frame counts.  The
    # walk starts at this callback's own frame: from CPython 3.11 on,
    # traceback.walk_stack(None) starts above the frame that allocated
    def count(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code is not translate.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.collect()  # no collection is due as translate starts
    gc.callbacks.append(count)
    try:
        text, diags = translate(source, "P")
    finally:
        gc.callbacks.remove(count)
    assert text is not None and diags == []
    assert collections == []
    assert gc.isenabled()


def test_the_syntax_tree_is_freed_before_the_output_is_joined(
    case_study_source, golden_drl, monkeypatch
):
    # the collector is paused under translate, but it still tracks each new tree
    def trees():
        return sum(type(o) is ContractAst for o in gc.get_objects())

    def render_file(ad_file):
        trees_at_render.append(trees())
        return real_render_file(ad_file)

    real_render_file, trees_at_render = codegen.render_file, []
    monkeypatch.setattr(codegen, "render_file", render_file)
    before = trees()
    assert translate(case_study_source, "BuyerStoreContractEx") == (golden_drl, [])
    assert trees_at_render == [before]


def test_each_source_rule_is_freed_once_rendered(case_study_source, golden_drl, monkeypatch):
    names = {rule.name for rule in parse_contract(tokenize(case_study_source)).rules}

    def source_rules():
        return sum(type(o) is RuleAst and o.name in names for o in gc.get_objects())

    def emit_rule(*args):
        alive_at_emit.append(source_rules())
        return real_emit_rule(*args)

    real_emit_rule, alive_at_emit = codegen.emit_rule, []
    monkeypatch.setattr(codegen, "emit_rule", emit_rule)
    before = source_rules()
    assert translate(case_study_source, "BuyerStoreContractEx") == (golden_drl, [])
    assert len(names) == 10 and alive_at_emit[-1] - before <= 1  # the rule being rendered


def test_nothing_after_the_parse_peaks_above_it(monkeypatch):
    # the tree is freed rule by rule, the AD globals are never listed, and positions
    # keeps only the starts it is asked for, so the peak stays the parse's own
    def parse_contract(tokens):
        tree = real_parse_contract(tokens)
        parse_peak.append(tracemalloc.get_traced_memory()[1])
        return tree

    real_parse_contract, parse_peak = codegen.parse_contract, []
    monkeypatch.setattr(codegen, "parse_contract", parse_contract)
    source = wide_contract()
    translate(source, "P")  # lazy set-up outside the traced compile
    parse_peak.clear()
    tracemalloc.start()
    try:
        text, diags = translate(source, "P")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text is not None and [d.code for d in diags] == ["W001"] * 200
    assert peak <= parse_peak[0] + 1024  # what recording the parse's peak allocates

    # below the parse, tokenize holds one stretch's fresh strings at a time, so what it
    # allocates above the stream it returns does not grow with the source: at most what
    # scanning one stretch allocates (~0.5 MB, its list and fresh strings), 32 KB for that
    # stretch's kinds and the lookup tables, and the spare room of the growing kinds,
    # which their final bytes drop: an eighth of a byte per token. One findall over the
    # whole source reads ~6.4 MB at x320, and two stretches alive at once ~1.1 MB.
    case_study = (CORPUS / "buyer_store.erop").read_text(encoding="utf-8")
    stretch = traced_peak(lexer._TOKEN_RE.findall, case_study * 40, 0, lexer._CHUNK)[1]
    for copies in (40, 320):
        overhead, count = tokenize_overhead(case_study * copies)
        assert overhead <= stretch + 32 * 1024 + count // 8, copies


def traced_peak(function, *args):
    """function's result and the traced peak of one call, after one untraced call."""
    function(*args)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tokenize_overhead(source):
    """tokenize's traced peak above the traced size of the stream it returns, and its
    number of tokens."""
    tokenize(source)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        tokens = tokenize(source)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) > 10_000
    return peak - kept, len(tokens)


def test_render_file_builds_the_text_once():
    # one join over the header lines and the rules: the peak above what it is given is the
    # text and the join's one list of pointers, and no copy of the header
    ast = parse_contract(tokenize(wide_contract()))
    tab, _ = build_symbol_table(ast)
    ad_file = build_ad_file(lower_contract(ast), tab, "P", DEFAULT_LOOKUP)
    text, peak = traced_peak(render_file, ad_file)
    pointers = sys.getsizeof([*ad_file.header, "", *ad_file.rules])
    assert len(text) > 100_000 and peak <= sys.getsizeof(text) + pointers


def test_each_source_rule_is_split_once_per_compile(case_study_source, golden_drl, monkeypatch):
    # only code generation splits: the checks (E007) name a rule's pieces without making
    # them, and a call from sema would count too
    def counted_split(rule):
        calls.append(rule.name)
        return sema_split(rule)

    sema_split, calls = sema.split, []
    monkeypatch.setattr(sema, "split", counted_split)
    monkeypatch.setattr(codegen, "split", counted_split)
    assert codegen.analyze(case_study_source)[3] == [] and calls == []
    assert translate(case_study_source, "BuyerStoreContractEx") == (golden_drl, [])
    source_rules = [rule.name for rule in parse_contract(tokenize(case_study_source)).rules]
    assert len(calls) == 10 and calls == source_rules


def test_each_rule_is_split_only_while_it_is_rendered(case_study_source, golden_drl, monkeypatch):
    # no piece of an if/else split exists before the back end, and the pieces of one
    # source rule at most while it is rendered
    def pieces():
        suffixes = ("IfThen", "IfElse")
        return [o for o in gc.get_objects() if type(o) is RuleAst and o.name.endswith(suffixes)]

    def split_rules():
        """How many source rules some piece made since ``before`` is of."""
        return len({piece.name_pos for piece in pieces() if id(piece) not in before})

    def build_ad_file(*args):
        at_build.append(split_rules())
        return real_build_ad_file(*args)

    def emit_rule(*args):
        at_emit.append(split_rules())
        return real_emit_rule(*args)

    real_build_ad_file, real_emit_rule = codegen.build_ad_file, codegen.emit_rule
    at_build, at_emit = [], []
    monkeypatch.setattr(codegen, "build_ad_file", build_ad_file)
    monkeypatch.setattr(codegen, "emit_rule", emit_rule)
    before = {id(piece): piece for piece in pieces()}  # held, so no new piece reuses an id
    assert translate(case_study_source, "BuyerStoreContractEx") == (golden_drl, [])
    assert at_build == [0] and len(at_emit) == 15 and max(at_emit) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_translate_leaves_the_collector_as_the_caller_had_it(case_study_source, enabled):
    (gc.enable if enabled else gc.disable)()
    try:
        translate(case_study_source, "P")
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            translate(case_study_source, "P", {})
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
