from eropc.codegen import (
    DEFAULT_LOOKUP,
    build_ad_file,
    event_line,
    lower_contract,
    render_file,
    translate,
)
from eropc.lexer import tokenize
from eropc.sema import NegatedConjunction, SymbolTable, split
from eropc.syntax import ContractAst, ResetAct, RuleAst, parse_contract
from irgen import render_split

DECLS = """\
roleplayer buyer, seller, store;
businessoperation BuyRequest, Payment, BuyConfirm, BuyReject, Cancellation;
compoblig ReactToBuyRequest(BuyConfirm, BuyReject)
"""


def parse(source):
    return parse_contract(tokenize(source))


def test_first_case_study_rule_lowers_fully():
    ast = parse(DECLS + """\
rule "BuyRequestReceived"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    buyer.rights -= BuyRequest(seller)
    seller.obligs += ReactToBuyRequest(buyer, "01-01-2016 12:00:00")
end
""")
    (source,) = ast.rules
    assert split(source) == (source,)
    (piece,) = split(source)
    # splitting copies nothing: the AD rule is the source rule itself
    assert piece is source and piece.name == "BuyRequestReceived"
    assert piece.actions[1].actuals == ("buyer", '"01-01-2016 12:00:00"')  # a STRING lexeme
    (ad_rule,) = render_split(source)
    assert ad_rule.when_lines == [
        '$e: Event(type=="BUYREQ", originator=="buyer", responder=="store", status=="success")',
        "eval(ropBuyer.matchesRights(buyRequest))",
    ]


def conditional_rule(else_branch):
    return DECLS + f"""\
rule "BuyRequestBnessFailure"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == tecFail)
    BuyRequest in buyer.rights
then
    if (BuyRequest.BizFail == false)
        then BuyRequest.BizFail == true
        {else_branch}
    endif
end
"""


def test_conditional_rule_lowers_to_if_statement():
    # the if statement splits into an IfThen and an IfElse rule
    (source,) = parse(conditional_rule("else reset buyer\n        reset seller")).rules
    (conditional,) = source.actions
    cond, own = conditional.cond, source.constraints
    negated = (NegatedConjunction(cond), *own)
    head = source.name_pos, source.event_var, source.event_fields
    # the if-condition first, the rule's own constraints after it
    assert split(source) == (
        RuleAst("BuyRequestBnessFailureIfThen", *head, cond + own, conditional.then_actions),
        RuleAst("BuyRequestBnessFailureIfElse", *head, negated, conditional.else_actions),
    )
    for piece in split(source):  # each piece keeps the source rule's own event nodes
        assert piece.event_var is source.event_var
        assert piece.event_fields is source.event_fields
    then_rule, else_rule = render_split(source)
    assert then_rule.then_lines == ["buyRequest.setBusinessFailure(true);"]
    assert else_rule.when_lines[1] == "eval(!(buyRequest.getBusinessFailure() == false))"
    assert else_rule.then_lines == ["ropBuyer.reset();", "ropSeller.reset();"]


def test_if_without_else_lowers_to_one_if_then_rule():
    (source,) = parse(conditional_rule("")).rules
    (conditional,) = source.actions
    assert split(source) == (
        RuleAst("BuyRequestBnessFailureIfThen", source.name_pos, source.event_var,
                source.event_fields, conditional.cond + source.constraints,
                conditional.then_actions),
    )
    assert [ad_rule.name for ad_rule in render_split(source)] == ["BuyRequestBnessFailureIfThen"]


def test_split_of_an_unchecked_rule_follows_its_if():
    # E010 rejects an 'if' with siblings, but E007 still needs the names it would give
    (source,) = parse(DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
    if (BuyRequest.BizFail == false) then reset seller else reset store endif
end
""").rules
    assert [piece.name for piece in split(source)] == ["RIfThen", "RIfElse"]


def test_rule_without_conditional_lowers_to_itself():
    (source,) = parse(DECLS + """\
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    reset buyer
end
""").rules
    assert split(source) == (source,)
    assert split(source)[0] is source


def test_event_fields_reordered_into_canonical_slots():
    (source,) = parse(DECLS + """\
rule "R"
when e matches (outcome == success, responder == store, originator == buyer, botype == BUYREQ)
then
    reset buyer
end
""").rules
    assert event_line(source) == (
        '$e: Event(type=="BUYREQ", originator=="buyer", responder=="store", status=="success")'
    )


def test_both_reset_spellings_lower_identically():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
    buyer reset
end
"""
    ((first, second),) = [piece.actions for piece in split(parse(source).rules[0])]
    assert type(first) is type(second) is ResetAct
    assert first.player == second.player == "buyer"
    text, _ = translate(source, "P")
    assert text.endswith("then\n    ropBuyer.reset();\n    ropBuyer.reset();\nend\n")


def test_lowering_empty_contract_is_vacuous():
    contract = lower_contract(ContractAst(decls=(), rules=()))
    assert contract.rules == []
    ad_file = build_ad_file(contract, SymbolTable(), "Empty", DEFAULT_LOOKUP)
    assert ad_file.rules == []
    assert render_file(ad_file).endswith("global EventLogger logger;\n")

