import pytest

from eropc.codegen import analyze, translate
from eropc.lexer import positions, tokenize
from eropc.syntax import (
    BUSINESS_OP,
    COMP_OBLIG,
    ROLE_PLAYER,
    Historical,
    IfAct,
    Outcome,
    ParseError,
    ResetAct,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
    parse_contract,
)

DECLS = """\
roleplayer buyer, seller;
businessoperation BuyRequest, Payment, BuyConfirm, BuyReject, Cancellation;
compoblig ReactToBuyRequest(BuyConfirm, BuyReject)
"""

FIRST_RULE = """\
rule "BuyRequestReceived"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    buyer.rights -= BuyRequest(seller)
    seller.obligs += ReactToBuyRequest(buyer, "01-01-2016 12:00:00")
end
"""


def parse(source):
    return parse_contract(tokenize(source))


def test_declaration_section():
    ast = parse(DECLS + FIRST_RULE)
    decls = ast.decls
    assert decls[0].kind == ROLE_PLAYER
    assert [n.lexeme for n in decls[0].names] == ["buyer", "seller"]
    assert decls[0].members == []
    assert decls[1].kind == BUSINESS_OP
    assert [n.lexeme for n in decls[1].names] == [
        "BuyRequest", "Payment", "BuyConfirm", "BuyReject", "Cancellation",
    ]
    assert decls[1].members == []
    assert decls[2].kind == COMP_OBLIG
    assert [n.lexeme for n in decls[2].names] == ["ReactToBuyRequest"]
    assert [m.lexeme for m in decls[2].members] == ["BuyConfirm", "BuyReject"]


def test_compoblig_trailing_semicolon_is_optional():
    with_semi = DECLS.replace(")\n", ");\n") + FIRST_RULE
    assert parse(with_semi).decls[2].names[0].lexeme == "ReactToBuyRequest"


def test_rule_shape():
    rule = parse(DECLS + FIRST_RULE).rules[0]
    assert isinstance(rule, RuleAst)
    assert rule.name == "BuyRequestReceived"
    assert rule.event_var.lexeme == "e"
    assert [(f.name.lexeme, f.value.lexeme) for f in rule.event_fields] == [
        ("botype", "BUYREQ"),
        ("originator", "buyer"),
        ("responder", "store"),
        ("outcome", "success"),
    ]
    (constraint,) = rule.constraints
    assert isinstance(constraint, RopMembership)
    assert (constraint.bo.lexeme, constraint.player.lexeme, constraint.rop_set) == (
        "BuyRequest", "buyer", "rights",
    )
    remove, add = rule.actions
    assert isinstance(remove, RopManip)
    assert (remove.op, remove.rop_set, remove.bo.lexeme) == ("remove", "rights", "BuyRequest")
    assert [a.lexeme for a in remove.args] == ["seller"]
    assert remove.deadline is None
    assert isinstance(add, RopManip)
    assert (add.op, add.bo.lexeme, add.deadline) == ("add", "ReactToBuyRequest", "01-01-2016 12:00:00")


def test_event_fields_kept_in_source_order():
    scrambled = DECLS + """\
rule "R"
when e matches (outcome == success, botype == X, responder == store, originator == buyer)
then
    reset buyer
end
"""
    rule = parse(scrambled).rules[0]
    assert [f.name.lexeme for f in rule.event_fields] == [
        "outcome", "botype", "responder", "originator",
    ]


def test_if_else_action():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == tecFail)
then
    if (BuyRequest.BizFail == false)
        then BuyRequest.BizFail == true
        else reset buyer
        reset seller
    endif
end
"""
    (action,) = parse(source).rules[0].actions
    assert isinstance(action, IfAct)
    (cond,) = action.cond
    assert isinstance(cond, Outcome)
    assert cond.value.lexeme == "false"
    (then_act,) = action.then_actions
    assert isinstance(then_act, Outcome) and then_act.value.lexeme == "true"
    assert [a.player.lexeme for a in action.else_actions] == ["buyer", "seller"]


def test_if_without_else_differs_only_in_else_field():
    body = """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == tecFail)
then
    if (BuyRequest.BizFail == false)
        then BuyRequest.BizFail == true
{else_part}    endif
end
"""
    with_else = parse(DECLS + body.format(else_part="        else reset buyer\n"))
    without = parse(DECLS + body.format(else_part=""))
    (if_with,) = with_else.rules[0].actions
    (if_without,) = without.rules[0].actions
    assert if_without.else_actions is None
    assert if_with.else_actions is not None
    assert if_with.cond == if_without.cond
    assert if_with.then_actions == if_without.then_actions


def test_both_reset_orderings_normalize():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
    seller reset
end
"""
    actions = parse(source).rules[0].actions
    assert all(isinstance(a, ResetAct) for a in actions)
    assert [a.player.lexeme for a in actions] == ["buyer", "seller"]


def test_constraint_variants_parse():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
    BuyRequest.BizFail == false
    e.timestamp < "02-01-2016 00:00:00"
    e.hour in [9, 17]
    happened (botype == BUYREQ, originator == buyer)
    not happened (botype == BUYPAY)
then
    reset buyer
end
"""
    constraints = parse(source).rules[0].constraints
    assert isinstance(constraints[0], Outcome)
    assert isinstance(constraints[1], TimeDirect)
    assert (constraints[1].op, constraints[1].timestamp) == ("<", "02-01-2016 00:00:00")
    assert isinstance(constraints[2], TimePartial)
    assert (constraints[2].unit, constraints[2].lo, constraints[2].hi) == ("hour", 9, 17)
    assert isinstance(constraints[3], Historical) and constraints[3].happened
    assert isinstance(constraints[4], Historical) and not constraints[4].happened


def window_source(lo, hi):
    return DECLS + f"""\
rule "R"
when e matches (botype == X, originator == buyer, responder == seller, outcome == success)
    e.day in [{lo}, {hi}]
then
    reset buyer
end
"""


@pytest.mark.parametrize(
    "lo, hi, col",
    [("1", "2147483648", 18), ("99999999999", "2", 15), ("1", "5" * 5000, 18)],
)
def test_window_bound_above_java_int_is_a_parse_error(lo, hi, col):
    # the bound lands in a Java int comparison; 5,000 digits exceed int()'s own limit
    text, diags = translate(window_source(lo, hi), "P")
    assert text is None
    (diag,) = diags
    assert diag.code == "E-PARSE"
    assert diag.message == "integer out of range (at most 2147483647)"
    assert (diag.pos.line, diag.pos.col) == (6, col)


def test_window_bound_of_java_int_max_compiles():
    text, diags = translate(window_source("0002147483647", "2147483647"), "P")
    assert diags and not any(d.is_error for d in diags)  # only W001s
    assert "$e.getDay() >= 2147483647 && $e.getDay() <= 2147483647" in text


def test_missing_then_is_a_parse_error():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
    reset buyer
end
"""
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert "'then'" in exc.value.message
    _, _, (diag,) = analyze(source)
    assert (diag.code, diag.message, str(diag.pos)) == ("E-PARSE", exc.value.message, "6:5")


def test_nested_if_is_rejected():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    if (BuyRequest.BizFail == false)
        then if (Payment.BizFail == false) then reset buyer endif
    endif
end
"""
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert "nested" in exc.value.message


def test_declaration_after_rule_is_rejected():
    source = DECLS + FIRST_RULE + "roleplayer late;\n"
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert "precede" in exc.value.message


def test_empty_source_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("")
    assert "declaration" in exc.value.message


def test_contract_without_rules_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse(DECLS)
    assert "rule" in exc.value.message


def test_premature_eof():
    with pytest.raises(ParseError) as exc:
        parse(DECLS + 'rule "R" when e matches (botype == X')
    assert "end of input" in exc.value.message


def test_parsing_is_deterministic():
    source = DECLS + FIRST_RULE
    assert parse(source) == parse(source)


def test_every_token_boundary_prefix_is_diagnosed_or_compiled(case_study_source):
    # the cursor never steps past EOF, wherever the input ends
    cuts = {0, len(case_study_source)}
    lexemes = tokenize(case_study_source).lexemes
    found = positions(case_study_source, list(range(len(lexemes))))
    for offset, lexeme in zip([p.offset for p in found], lexemes):
        cuts.update((offset, offset + len(lexeme)))
    outcomes = set()
    for cut in sorted(cuts):
        text, diags = translate(case_study_source[:cut], "P")
        assert (text is None) == any(d.is_error for d in diags)
        outcomes.add(text is not None or diags[0].code)
    assert outcomes == {True, "E-PARSE"}
