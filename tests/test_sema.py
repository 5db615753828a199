import pytest

from eropc import codegen
from eropc.lexer import positions, tokenize
from eropc.sema import build_symbol_table, check_contract
from eropc.syntax import parse_contract

RULE_TAIL = """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
"""


def analyze(source):
    """The symbol table and the diagnostics in discovery order, offsets resolved."""
    ast = parse_contract(tokenize(source))
    tab, decl_diags = build_symbol_table(ast)
    diags = decl_diags + check_contract(ast, tab)
    found = positions(source, [d.pos for d in diags])
    return tab, [d._replace(pos=pos) for d, pos in zip(diags, found)]


def errors(diags):
    return [d for d in diags if d.is_error]


def test_case_study_symbol_table(case_study_source):
    tab, diags = analyze(case_study_source)
    assert tab.role_players == ["buyer", "seller", "store"]
    assert tab.business_ops == ["BuyRequest", "Payment", "BuyConfirm", "BuyReject", "Cancellation"]
    assert tab.comp_obligs == {"ReactToBuyRequest": ["BuyConfirm", "BuyReject"]}
    assert diags == []


def test_duplicate_declaration_keeps_first():
    tab, diags = analyze("roleplayer buyer;\nroleplayer buyer;\nbusinessoperation Pay;\n" + RULE_TAIL)
    assert tab.role_players == ["buyer"]
    (e001,) = [d for d in diags if d.code == "E001"]
    assert (e001.pos.line, e001.pos.col) == (2, 12)
    assert "buyer" in e001.message


def test_cross_namespace_duplicate_is_e001():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\ncompoblig Pay(Pay)\n" + RULE_TAIL)
    assert [d.code for d in errors(diags)] == ["E001"]


def test_unknown_compoblig_member_is_filtered():
    source = "roleplayer buyer;\nbusinessoperation Pay;\ncompoblig React(Pay, Ship)\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.obligs += React(buyer)
end
"""
    tab, diags = analyze(source)
    assert tab.comp_obligs == {"React": ["Pay"]}
    (e002,) = [d for d in diags if d.code == "E002"]
    assert "Ship" in e002.message and (e002.pos.line, e002.pos.col) == (3, 22)


def test_member_lookup_ignores_declaration_order():
    source = "roleplayer buyer;\ncompoblig React(Pay)\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.obligs += React(buyer)
end
"""
    tab, diags = analyze(source)
    assert tab.comp_obligs == {"React": ["Pay"]}
    assert errors(diags) == []


def test_duplicate_compoblig_members_are_not_checked():
    source = (
        "roleplayer buyer;\nbusinessoperation Pay;\n"
        "compoblig React(Pay)\ncompoblig React(Ghost, Ship)\n"
    ) + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.obligs += React(buyer)
end
"""
    tab, diags = analyze(source)
    assert tab.comp_obligs == {"React": ["Pay"]}
    (e001,) = errors(diags)
    assert e001.code == "E001"
    assert e001.message == "duplicate declaration of 'React'"
    assert (e001.pos.line, e001.pos.col) == (4, 11)


def test_rejected_duplicate_gets_neither_e003_nor_w001():
    # only the accepted first declaration of a name is checked for casing and use
    source = (
        "roleplayer buyer;\nbusinessoperation Pay;\n"
        "compoblig React(Pay)\ncompoblig React(Ghost, Ship)\nroleplayer React;\n" + RULE_TAIL
    )
    _, _, diags = codegen.analyze(source)
    assert [(d.code, str(d.pos), d.message) for d in diags] == [
        ("W001", "3:11", "composite obligation 'React' declared but never used"),
        ("E001", "4:11", "duplicate declaration of 'React'"),
        ("E001", "5:12", "duplicate declaration of 'React'"),
    ]


def test_lower_case_business_operation_is_e003():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation payment;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= payment(buyer)
end
""")
    (e003,) = errors(diags)
    assert e003.code == "E003"
    assert e003.message == "business operation 'payment' must begin with an upper-case letter"
    assert (e003.pos.line, e003.pos.col) == (2, 19)


def test_upper_case_role_player_is_e003():
    _, diags = analyze("roleplayer Buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == Buyer, responder == Buyer, outcome == success)
then
    Buyer.rights -= Pay(Buyer)
end
""")
    (e003,) = errors(diags)
    assert e003.code == "E003"
    assert e003.message == "role player 'Buyer' must begin with a lower-case letter"
    assert (e003.pos.line, e003.pos.col) == (1, 12)


def test_lower_case_compoblig_is_e003():
    _, diags = analyze(
        "roleplayer buyer;\nbusinessoperation Pay;\ncompoblig react(Pay)\n" + RULE_TAIL
    )
    (e003,) = errors(diags)
    assert e003.code == "E003"
    assert e003.message == "composite obligation 'react' must begin with an upper-case letter"
    assert (e003.pos.line, e003.pos.col) == (3, 11)


def test_undeclared_constraint_operand_is_e004():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    Ship in buyer.rights
then
    buyer.rights -= Pay(buyer)
end
""")
    (e004,) = errors(diags)
    assert e004.code == "E004" and "'Ship'" in e004.message


def test_undeclared_event_value_is_e004():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == store, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
""")
    (e004,) = errors(diags)
    assert e004.code == "E004" and "'store'" in e004.message


def test_wrong_kind_is_e005():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    buyer in Pay.rights
then
    reset Pay
end
""")
    codes = [d.code for d in errors(diags)]
    assert codes == ["E005", "E005", "E005"]  # bo slot, player slot, reset target


def test_event_field_set_is_checked():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
""")
    (e006,) = errors(diags)
    assert e006.code == "E006"
    assert e006.message == (
        "event match must specify botype, originator, responder and outcome exactly once"
    )


def test_duplicate_event_field_is_e006():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, botype == Y, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
""")
    assert [d.code for d in errors(diags)] == ["E006"]


def test_unknown_event_field_is_e006():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, source == buyer, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
""")
    assert [d.code for d in errors(diags)] == ["E006"]
    assert "source" in errors(diags)[0].message


def test_repeated_historical_field_is_e006():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    not happened (botype == X, botype == Y)
then
    buyer.rights -= Pay(buyer)
end
""")
    (e006,) = errors(diags)
    assert e006.code == "E006"
    assert e006.message == "repeated event field 'botype'"
    assert (e006.pos.line, e006.pos.col) == (5, 32)


def test_duplicate_rule_name_is_e007():
    source = "roleplayer buyer;\nbusinessoperation Pay;\n" + RULE_TAIL + RULE_TAIL
    _, diags = analyze(source)
    (e007,) = errors(diags)
    assert e007.code == "E007" and '"R"' in e007.message


def test_split_name_collision_is_e007():
    source = "roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    if (Pay.BizFail == false)
        then Pay.BizFail == true
    endif
end

rule "RIfThen"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
end
"""
    _, diags = analyze(source)
    (e007,) = errors(diags)
    assert e007.code == "E007" and "splitting" in e007.message


def test_bad_bool_literal_is_e008():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    Pay.BizFail == maybe
then
    Pay.BizFail == yes
end
""")
    assert [d.code for d in errors(diags)] == ["E008", "E008"]


def test_bad_manipulation_arguments_are_e009():
    _, diags = analyze("roleplayer buyer, seller;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer, seller)
    buyer.rights -= Pay("01-01-2016 12:00:00")
end
""")
    assert [d.code for d in errors(diags)] == ["E009", "E009"]


def test_if_with_sibling_action_is_e010():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.rights -= Pay(buyer)
    if (Pay.BizFail == false)
        then Pay.BizFail == true
    endif
end
""")
    (e010,) = errors(diags)
    assert e010.code == "E010" and (e010.pos.line, e010.pos.col) == (7, 5)


def test_time_constraint_must_use_event_variable():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    f.timestamp == "01-01-2016 12:00:00"
then
    buyer.rights -= Pay(buyer)
end
""")
    (e004,) = errors(diags)
    assert e004.code == "E004" and "'f'" in e004.message


def window_rule(window):
    return "roleplayer buyer;\nbusinessoperation Pay;\n" + f"""\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
    {window}
then
    buyer.rights -= Pay(buyer)
end
"""


@pytest.mark.parametrize(
    "window, message",
    [
        ("e.day in [5, 2]", "empty or out-of-range day window [5, 2]"),
        ("e.hour in [9, 24]", "empty or out-of-range hour window [9, 24]"),
        ("e.minute in [0, 75]", "empty or out-of-range minute window [0, 75]"),
    ],
)
def test_impossible_time_window_is_e011(window, message):
    _, diags = analyze(window_rule(window))
    (e011,) = errors(diags)
    assert e011.code == "E011"
    assert e011.message == message
    assert (e011.pos.line, e011.pos.col) == (5, 5)


@pytest.mark.parametrize(
    "window", ["e.hour in [0, 23]", "e.minute in [59, 59]", "e.year in [2016, 9999]"]
)
def test_time_window_bounds_are_inclusive(window):
    _, diags = analyze(window_rule(window))
    assert diags == []


def test_unused_declaration_is_w001():
    _, diags = analyze("roleplayer buyer, seller;\nbusinessoperation Pay;\n" + RULE_TAIL)
    (w001,) = [d for d in diags if d.code == "W001"]
    assert w001.severity == "warning"
    assert w001.message == "role player 'seller' declared but never used"
    assert errors(diags) == []


@pytest.mark.parametrize(
    "decls, message, pos",
    [
        (
            "roleplayer buyer;\nbusinessoperation Pay, Ship;\n",
            "business operation 'Ship' declared but never used",
            (2, 24),
        ),
        (
            "roleplayer buyer;\nbusinessoperation Pay;\ncompoblig React(Pay)\n",
            "composite obligation 'React' declared but never used",
            (3, 11),
        ),
    ],
)
def test_unused_operation_or_compoblig_is_w001(decls, message, pos):
    _, diags = analyze(decls + RULE_TAIL)
    (w001,) = [d for d in diags if d.code == "W001"]
    assert w001.severity == "warning"
    assert w001.message == message
    assert (w001.pos.line, w001.pos.col) == pos
    assert errors(diags) == []


def test_removing_unused_declaration_clears_the_warning():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + RULE_TAIL)
    assert diags == []


def test_odd_outcome_value_is_w002():
    _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == mostly)
then
    buyer.rights -= Pay(buyer)
end
""")
    (w002,) = [d for d in diags if d.code == "W002"]
    assert "mostly" in w002.message
    assert errors(diags) == []


def test_outcome_values_match_case_insensitively():
    for value in ("success", "tecFail", "TECFAIL", "bizFail", "BizFail"):
        _, diags = analyze("roleplayer buyer;\nbusinessoperation Pay;\n" + f"""\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == {value})
then
    buyer.rights -= Pay(buyer)
end
""")
        assert [d for d in diags if d.code == "W002"] == []


def test_diagnostics_sorted_by_position():
    # the symbol table finds E002 (line 3) before the checker finds E003 (line 2)
    source = "roleplayer buyer;\nbusinessoperation pay;\ncompoblig React(Ship)\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.obligs += React(buyer)
end
"""
    _, discovered = analyze(source)
    found = [(d.pos.line, d.pos.col) for d in discovered]
    assert found != sorted(found)

    _, _, diags = codegen.analyze(source)
    resolved = [(d.pos.line, d.pos.col) for d in diags]
    assert resolved == sorted(found)


def test_declaration_and_rule_diagnostics_merge_in_position_order():
    # E003 on line 2 must precede the symbol-table E002 on line 3
    source = "roleplayer buyer;\nbusinessoperation pay;\ncompoblig React(Ship)\n" + """\
rule "R"
when e matches (botype == X, originator == buyer, responder == buyer, outcome == success)
then
    buyer.obligs += React(buyer)
end
"""
    from eropc.codegen import translate

    _, diags = translate(source, "P")
    codes = [d.code for d in diags if d.is_error]
    assert codes[:2] == ["E003", "E002"]
