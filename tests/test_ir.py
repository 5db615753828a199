from eropc.codegen import translate
from eropc.ir import (
    EventMatchCondition,
    IrContract,
    IrRule,
    NegatedConjunction,
    dump_contract,
    dump_rule,
    lower_contract,
)
from eropc.lexer import tokenize
from eropc.sema import SymbolTable, build_symbol_table
from eropc.syntax import ContractAst, ResetAct, parse_contract

DECLS = """\
roleplayer buyer, seller, store;
businessoperation BuyRequest, Payment, BuyConfirm, BuyReject, Cancellation;
compoblig ReactToBuyRequest(BuyConfirm, BuyReject)
"""


def parse(source):
    return parse_contract(tokenize(source))


def lower(ast, package="Demo"):
    tab, diags = build_symbol_table(ast)
    assert not diags
    return lower_contract(ast, tab, package)


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
    ((rule,),) = lower(ast).rules
    (source,) = ast.rules
    assert rule.name == "BuyRequestReceived"
    assert rule.event == EventMatchCondition("BUYREQ", "buyer", "store", "success")
    # lowering copies nothing: the target rule holds the source rule's own nodes
    assert rule.constraints == tuple(source.constraints)
    assert rule.actions == tuple(source.actions)
    assert rule.actions[1].deadline == "01-01-2016 12:00:00"


FAILURE_EVENT = EventMatchCondition("BUYREQ", "buyer", "store", "tecFail")


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
    # the if statement lowers to an IfThen and an IfElse rule
    ast = parse(conditional_rule("else reset buyer\n        reset seller"))
    ((then_rule, else_rule),) = lower(ast).rules
    (source,) = ast.rules
    (conditional,) = source.actions
    cond = tuple(conditional.cond)
    own = tuple(source.constraints)
    # the if-condition first, the rule's own constraints after it
    assert then_rule == IrRule(
        "BuyRequestBnessFailureIfThen", FAILURE_EVENT, cond + own, tuple(conditional.then_actions)
    )
    assert else_rule == IrRule(
        "BuyRequestBnessFailureIfElse",
        FAILURE_EVENT,
        (NegatedConjunction(cond),) + own,
        tuple(conditional.else_actions),
    )


def test_if_without_else_lowers_to_one_if_then_rule():
    ast = parse(conditional_rule(""))
    ((then_rule,),) = lower(ast).rules
    (conditional,) = ast.rules[0].actions
    assert then_rule.name == "BuyRequestBnessFailureIfThen"
    assert then_rule.constraints == (*conditional.cond, *ast.rules[0].constraints)
    assert then_rule.actions == tuple(conditional.then_actions)


def test_rule_without_conditional_lowers_to_itself():
    ast = parse(DECLS + """\
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    reset buyer
end
""")
    (source,) = ast.rules
    assert lower(ast).rules == [(
        IrRule(
            "R",
            EventMatchCondition("BUYREQ", "buyer", "store", "success"),
            tuple(source.constraints),
            tuple(source.actions),
        ),
    )]


def test_event_fields_reordered_into_canonical_slots():
    ast = parse(DECLS + """\
rule "R"
when e matches (outcome == success, responder == store, originator == buyer, botype == BUYREQ)
then
    reset buyer
end
""")
    assert lower(ast).rules[0][0].event == EventMatchCondition("BUYREQ", "buyer", "store", "success")


def test_both_reset_spellings_lower_identically():
    source = DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
    buyer reset
end
"""
    first, second = lower(parse(source)).rules[0][0].actions
    assert type(first) is type(second) is ResetAct
    assert first.player.lexeme == second.player.lexeme == "buyer"
    text, _ = translate(source, "P")
    assert text.endswith("then\n    ropBuyer.reset();\n    ropBuyer.reset();\nend\n")


def test_lowering_empty_contract_is_vacuous():
    contract = lower_contract(ContractAst(decls=[], rules=[]), SymbolTable(), "Empty")
    assert contract.rules == []
    assert isinstance(contract, IrContract)
    assert dump_contract(contract) == ""


def test_dump_rule_is_one_line():
    contract = lower(parse(DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
end
"""))
    line = dump_rule(contract.rules[0][0])
    assert "\n" not in line
    assert "'R'" in line and "ResetAct(player=Token(IDENT, 'buyer'" in line
