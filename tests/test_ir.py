from eropc.ir import (
    AddOrRemAction,
    EventMatchCondition,
    HistoricalConstraint,
    IrContract,
    IrRule,
    NegatedConjunction,
    OutcomeConstraint,
    OutcomeSet,
    ResetAction,
    RopConstraint,
    dump_contract,
    dump_rule,
    lower_contract,
)
from eropc.lexer import tokenize
from eropc.sema import SymbolTable, build_symbol_table
from eropc.syntax import ContractAst, parse_contract

DECLS = """\
roleplayer buyer, seller, store;
businessoperation BuyRequest, Payment, BuyConfirm, BuyReject, Cancellation;
compoblig ReactToBuyRequest(BuyConfirm, BuyReject)
"""


def lower(source, package="Demo"):
    ast = parse_contract(tokenize(source))
    tab, diags = build_symbol_table(ast)
    assert not diags
    return lower_contract(ast, tab, package)


def test_first_case_study_rule_lowers_fully():
    contract = lower(DECLS + """\
rule "BuyRequestReceived"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    buyer.rights -= BuyRequest(seller)
    seller.obligs += ReactToBuyRequest(buyer, "01-01-2016 12:00:00")
end
""")
    ((rule,),) = contract.rules
    assert rule.name == "BuyRequestReceived"
    assert rule.event == EventMatchCondition("BUYREQ", "buyer", "store", "success")
    assert rule.constraints == (RopConstraint("buyer", "rights", "BuyRequest"),)
    assert rule.actions == (
        AddOrRemAction("buyer", "rights", "remove", "BuyRequest", "seller"),
        AddOrRemAction(
            "seller", "obligs", "add", "ReactToBuyRequest", "buyer", "01-01-2016 12:00:00"
        ),
    )


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
    contract = lower(conditional_rule("else reset buyer\n        reset seller"))
    ((then_rule, else_rule),) = contract.rules
    # the if-condition first, the rule's own constraints after it
    assert then_rule == IrRule(
        "BuyRequestBnessFailureIfThen",
        FAILURE_EVENT,
        (OutcomeConstraint("BuyRequest", False), RopConstraint("buyer", "rights", "BuyRequest")),
        (OutcomeSet("BuyRequest", True),),
    )
    assert else_rule == IrRule(
        "BuyRequestBnessFailureIfElse",
        FAILURE_EVENT,
        (
            NegatedConjunction((OutcomeConstraint("BuyRequest", False),)),
            RopConstraint("buyer", "rights", "BuyRequest"),
        ),
        (ResetAction("buyer"), ResetAction("seller")),
    )


def test_if_without_else_lowers_to_one_if_then_rule():
    contract = lower(conditional_rule(""))
    ((then_rule,),) = contract.rules
    assert then_rule.name == "BuyRequestBnessFailureIfThen"
    assert then_rule.constraints == (
        OutcomeConstraint("BuyRequest", False),
        RopConstraint("buyer", "rights", "BuyRequest"),
    )
    assert then_rule.actions == (OutcomeSet("BuyRequest", True),)


def test_rule_without_conditional_lowers_to_itself():
    contract = lower(DECLS + """\
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == store, outcome == success)
    BuyRequest in buyer.rights
then
    reset buyer
end
""")
    assert contract.rules == [(
        IrRule(
            "R",
            EventMatchCondition("BUYREQ", "buyer", "store", "success"),
            (RopConstraint("buyer", "rights", "BuyRequest"),),
            (ResetAction("buyer"),),
        ),
    )]


def test_event_fields_reordered_into_canonical_slots():
    contract = lower(DECLS + """\
rule "R"
when e matches (outcome == success, responder == store, originator == buyer, botype == BUYREQ)
then
    reset buyer
end
""")
    assert contract.rules[0][0].event == EventMatchCondition("BUYREQ", "buyer", "store", "success")


def test_both_reset_spellings_lower_identically():
    contract = lower(DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
    buyer reset
end
""")
    assert contract.rules[0][0].actions == (ResetAction("buyer"), ResetAction("buyer"))


def test_historical_fields_take_canonical_order():
    contract = lower(DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
    happened (originator == buyer, botype == BUYREQ)
then
    reset buyer
end
""")
    (constraint,) = contract.rules[0][0].constraints
    assert constraint == HistoricalConstraint(
        happened=True, fields=(("botype", "BUYREQ"), ("originator", "buyer"))
    )


def test_lowering_empty_contract_is_vacuous():
    contract = lower_contract(ContractAst(decls=[], rules=[]), SymbolTable(), "Empty")
    assert contract.rules == []
    assert isinstance(contract, IrContract)
    assert dump_contract(contract) == ""


def test_dump_rule_is_one_line():
    contract = lower(DECLS + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    reset buyer
end
""")
    line = dump_rule(contract.rules[0][0])
    assert "\n" not in line
    assert "'R'" in line and "ResetAction" in line
