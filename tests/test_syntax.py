import pytest

from eropc.codegen import analyze, translate
from eropc.lexer import positions, tokenize
from eropc.syntax import (
    BUSINESS_OP,
    COMP_OBLIG,
    ROLE_PLAYER,
    ContractAst,
    Decl,
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
    assert decls[0].names == ("buyer", "seller")
    assert decls[0].members == ()
    assert decls[1].kind == BUSINESS_OP
    assert decls[1].names == (
        "BuyRequest", "Payment", "BuyConfirm", "BuyReject", "Cancellation",
    )
    assert decls[1].members == ()
    assert decls[2].kind == COMP_OBLIG
    assert decls[2].names == ("ReactToBuyRequest",)
    assert decls[2].members == ("BuyConfirm", "BuyReject")


def test_compoblig_trailing_semicolon_is_optional():
    with_semi = DECLS.replace(")\n", ");\n") + FIRST_RULE
    assert parse(with_semi).decls[2].names == ("ReactToBuyRequest",)


def test_rule_shape():
    rule = parse(DECLS + FIRST_RULE).rules[0]
    assert isinstance(rule, RuleAst)
    assert rule.name == "BuyRequestReceived"
    assert rule.event_var == "e"
    assert rule.event_fields == (  # each name, then its value
        "botype", "BUYREQ",
        "originator", "buyer",
        "responder", "store",
        "outcome", "success",
    )
    (constraint,) = rule.constraints
    assert isinstance(constraint, RopMembership)
    assert (constraint.bo, constraint.player, constraint.rop_set) == (
        "BuyRequest", "buyer", "rights",
    )
    remove, add = rule.actions
    assert isinstance(remove, RopManip)
    assert (remove.op, remove.rop_set, remove.bo) == ("remove", "rights", "BuyRequest")
    assert remove.actuals == ("seller",)  # no deadline
    assert isinstance(add, RopManip)
    assert (add.op, add.bo) == ("add", "ReactToBuyRequest")
    assert add.actuals == ("buyer", '"01-01-2016 12:00:00"')  # the deadline's STRING lexeme


def test_event_fields_kept_in_source_order():
    scrambled = DECLS + """\
rule "R"
when e matches (outcome == success, botype == X, responder == store, originator == buyer)
then
    reset buyer
end
"""
    rule = parse(scrambled).rules[0]
    assert rule.event_fields[::2] == ("outcome", "botype", "responder", "originator")
    assert rule.event_fields[1::2] == ("success", "X", "store", "buyer")


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
    assert cond.value == "false"
    (then_act,) = action.then_actions
    assert isinstance(then_act, Outcome) and then_act.value == "true"
    assert [a.player for a in action.else_actions] == ["buyer", "seller"]


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
    assert [a.player for a in actions] == ["buyer", "seller"]


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
    assert (constraints[1].op, constraints[1].timestamp) == ("<", '"02-01-2016 00:00:00"')
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
    _, _, _, (diag,) = analyze(source)
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


EVERY_SHAPE = """\
roleplayer buyer, seller;
businessoperation Pay, Ship;
compoblig React(Pay, Ship);
rule "R"
when e matches (botype == X, outcome == ok)
    Pay in buyer.rights
    Pay.BizFail == false
    e.timestamp < "01-01-2016 00:00:00"
    e.hour in [9, 17]
    happened (botype == Y)
    not happened (originator == buyer)
then
    buyer.obligs += React(seller, "02-01-2016 00:00:00")
    seller.rights -= Pay(buyer)
    Ship.BizFail == true
    reset buyer
    seller reset
    if (Pay.BizFail == true, e.minute in [0, 30]) then reset buyer else Pay.BizFail == false endif
end
"""


def test_records_keep_their_field_order():
    # the parser builds records positionally, which no NamedTuple argument check sees
    lexemes = tokenize(EVERY_SHAPE).lexemes
    last = -1

    def at(*run):
        """The index of the next run of tokens ``run`` after the last one asked for."""
        nonlocal last
        last = next(i for i in range(last + 1, len(lexemes)) if lexemes[i:i + len(run)] == [*run])
        return last

    expected = ContractAst(
        decls=(
            Decl(kind=ROLE_PLAYER, names=("buyer", "seller"), members=(), pos=at("buyer")),
            Decl(kind=BUSINESS_OP, names=("Pay", "Ship"), members=(), pos=at("Pay")),
            Decl(kind=COMP_OBLIG, names=("React",), members=("Pay", "Ship"), pos=at("React")),
        ),
        rules=(RuleAst(
            name="R",
            name_pos=at('"R"'),
            event_var="e",
            event_fields=("botype", "X", "outcome", "ok"),  # each name, then its value
            constraints=(
                RopMembership(bo="Pay", player="buyer", rop_set="rights", pos=at("Pay")),
                Outcome(bo="Pay", value="false", pos=at("Pay")),
                TimeDirect(event_var="e", op="<", timestamp='"01-01-2016 00:00:00"', pos=at("e")),
                TimePartial(event_var="e", unit="hour", lo=9, hi=17, pos=at("e")),
                Historical(happened=True, fields=("botype", "Y"), pos=at("(")),
                Historical(happened=False, fields=("originator", "buyer"), pos=at("(")),
            ),
            actions=(
                RopManip(player="buyer", rop_set="obligs", op="add", bo="React",
                         actuals=("seller", '"02-01-2016 00:00:00"'), pos=at("buyer", ".")),
                RopManip(player="seller", rop_set="rights", op="remove", bo="Pay",
                         actuals=("buyer",), pos=at("seller", ".")),
                Outcome(bo="Ship", value="true", pos=at("Ship")),
                ResetAct(player="buyer", pos=at("buyer")),
                ResetAct(player="seller", pos=at("seller")),
                IfAct(
                    pos=at("if"),
                    cond=(
                        Outcome(bo="Pay", value="true", pos=at("Pay")),
                        TimePartial(event_var="e", unit="minute", lo=0, hi=30, pos=at("e")),
                    ),
                    then_actions=(ResetAct(player="buyer", pos=at("buyer")),),
                    else_actions=(Outcome(bo="Pay", value="false", pos=at("Pay")),),
                ),
            ),
        ),),
    )
    ast = parse(EVERY_SHAPE)
    assert ast == expected
    assert repr(ast) == repr(expected)  # each record's class and field names too


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


# --- every place the parser rejects its input: the exact message and line:col ---

TWO_DECLS = "roleplayer buyer;\nbusinessoperation Pay;\n"  # lines 1-2
RULE_HEAD = 'rule "R" when e matches (botype == X)\n'
AFTER_HEAD = TWO_DECLS + RULE_HEAD  # constraints start on line 4
RULE_TAIL = "then reset buyer\nend\n"
IF_THEN = "if (Pay.BizFail == true) then "


def with_actions(actions):
    return AFTER_HEAD + "then " + actions + "\nend\n"  # actions on line 4, from column 6


PARSE_ERRORS = [
    # contract
    ("empty_source", "1:1",
     "expected a declaration (roleplayer, businessoperation or compoblig) but found end of input",
     ""),
    ("rule_before_declarations", "1:1",
     "expected a declaration (roleplayer, businessoperation or compoblig) but found 'rule'",
     RULE_HEAD + RULE_TAIL),
    ("no_rule", "3:1", "expected 'rule' but found end of input", TWO_DECLS),
    ("no_rule_but_identifier", "3:1", "expected 'rule' but found 'buyer'", TWO_DECLS + "buyer"),
    ("declaration_after_rule", "6:1", "declarations must precede the first rule",
     AFTER_HEAD + RULE_TAIL + "roleplayer late;\n"),
    ("identifier_after_rules", "6:1", "expected 'rule' or end of input but found 'buyer'",
     AFTER_HEAD + RULE_TAIL + "buyer"),
    # declarations
    ("role_player_name", "1:12", "expected a role player name but found ';'", "roleplayer ;\n"),
    ("role_player_name_after_comma", "1:15", "expected a role player name but found ';'",
     "roleplayer a, ;\n"),
    ("business_operation_name", "1:19", "expected a business operation name but found '1'",
     "businessoperation 1;\n"),
    ("declaration_semicolon", "1:14", "expected ';' but found 'b'", "roleplayer a b;\n"),
    ("eof_in_declaration_list", "1:14", "expected a role player name but found end of input",
     "roleplayer a,"),
    ("composite_obligation_name", "1:11", "expected a composite obligation name but found '('",
     "compoblig (A)\n"),
    ("composite_obligation_lparen", "1:13", "expected '(' but found 'A'", "compoblig C A\n"),
    ("composite_obligation_member", "1:13", "expected a member business operation but found ')'",
     "compoblig C()\n"),
    ("composite_obligation_rparen", "1:15", "expected ')' but found 'B'", "compoblig C(A B)\n"),
    # rule head and event match
    ("rule_name", "3:6", "expected a rule name string but found 'R'", TWO_DECLS + "rule R when"),
    ("eof_after_rule", "3:5", "expected a rule name string but found end of input",
     TWO_DECLS + "rule"),
    ("when", "3:10", "expected 'when' but found 'e'", TWO_DECLS + 'rule "R" e matches'),
    ("event_variable", "3:15", "expected an event variable but found 'matches'",
     TWO_DECLS + 'rule "R" when matches'),
    ("eof_in_rule_head", "3:14", "expected an event variable but found end of input",
     TWO_DECLS + 'rule "R" when'),
    ("matches", "3:17", "expected 'matches' but found '('", TWO_DECLS + 'rule "R" when e ('),
    ("event_lparen", "3:25", "expected '(' but found 'botype'",
     TWO_DECLS + 'rule "R" when e matches botype'),
    ("event_field_name", "3:26", "expected an event field name but found '=='",
     TWO_DECLS + 'rule "R" when e matches (== X)'),
    ("event_field_eq", "3:33", "expected '==' but found 'X'",
     TWO_DECLS + 'rule "R" when e matches (botype X)'),
    ("event_field_value", "3:36", "expected an event field value but found ')'",
     TWO_DECLS + 'rule "R" when e matches (botype == )'),
    ("event_field_after_comma", "3:39", "expected an event field name but found ')'",
     TWO_DECLS + 'rule "R" when e matches (botype == X, )'),
    ("event_rparen", "3:38", "expected ')' but found 'originator'",
     TWO_DECLS + 'rule "R" when e matches (botype == X originator'),
    ("eof_in_event_list", "3:38", "expected an event field name but found end of input",
     TWO_DECLS + 'rule "R" when e matches (botype == X,'),
    # constraints
    ("constraint_or_then", "4:1", 'expected a constraint or \'then\' but found \'"x"\'',
     AFTER_HEAD + '"x"\n' + RULE_TAIL),
    ("then_missing", "4:1", "expected a constraint or 'then' but found 'reset'",
     AFTER_HEAD + "reset buyer\nend\n"),
    ("eof_after_event_match", "4:1", "expected a constraint or 'then' but found end of input",
     AFTER_HEAD),
    ("membership_player", "4:8", "expected a role player name but found '.'",
     AFTER_HEAD + "Pay in .rights\n" + RULE_TAIL),
    ("membership_dot", "4:14", "expected '.' but found 'rights'",
     AFTER_HEAD + "Pay in buyer rights\n" + RULE_TAIL),
    ("membership_rop_set", "4:14", "expected 'rights', 'obligs' or 'prohibs' but found 'foo'",
     AFTER_HEAD + "Pay in buyer.foo\n" + RULE_TAIL),
    ("membership_rop_set_keyword", "4:14",
     "expected 'rights', 'obligs' or 'prohibs' but found 'then'",
     AFTER_HEAD + "Pay in buyer.then\n" + RULE_TAIL),
    ("constraint_dot", "4:5", "expected 'in' or '.' but found 'BizFail'",
     AFTER_HEAD + "Pay BizFail == true\n" + RULE_TAIL),
    ("happened_without_lparen", "4:10", "expected 'in' or '.' but found 'botype'",
     AFTER_HEAD + "happened botype == X\n" + RULE_TAIL),
    ("not_without_happened", "4:5", "expected 'in' or '.' but found 'Pay'",
     AFTER_HEAD + "not Pay in buyer.rights\n" + RULE_TAIL),
    ("constraint_selector", "4:5", "expected 'BizFail', 'timestamp' or a time unit but found '1'",
     AFTER_HEAD + "Pay.1\n" + RULE_TAIL),
    ("constraint_selector_unknown", "4:5",
     "expected 'BizFail', 'timestamp' or a time unit after '.' but found 'foo'",
     AFTER_HEAD + "Pay.foo == true\n" + RULE_TAIL),
    ("outcome_eq", "4:13", "expected '==' but found 'true'",
     AFTER_HEAD + "Pay.BizFail true\n" + RULE_TAIL),
    ("outcome_value", "4:16", 'expected \'true\' or \'false\' but found \'"x"\'',
     AFTER_HEAD + 'Pay.BizFail == "x"\n' + RULE_TAIL),
    ("timestamp_operator", "4:13", "expected '==', '<' or '>' but found '<='",
     AFTER_HEAD + 'e.timestamp <= "t"\n' + RULE_TAIL),
    ("timestamp_string", "4:15", "expected a timestamp string but found '5'",
     AFTER_HEAD + "e.timestamp < 5\n" + RULE_TAIL),
    ("window_in", "4:8", "expected 'in' but found '['",
     AFTER_HEAD + "e.hour [1, 2]\n" + RULE_TAIL),
    ("window_lbracket", "4:11", "expected '[' but found '('",
     AFTER_HEAD + "e.hour in (1, 2)\n" + RULE_TAIL),
    ("window_lo", "4:12", "expected an integer but found 'x'",
     AFTER_HEAD + "e.hour in [x, 2]\n" + RULE_TAIL),
    ("window_comma", "4:14", "expected ',' but found '2'",
     AFTER_HEAD + "e.hour in [1 2]\n" + RULE_TAIL),
    ("window_hi", "4:15", "expected an integer but found ']'",
     AFTER_HEAD + "e.hour in [1, ]\n" + RULE_TAIL),
    ("window_rbracket", "4:16", "expected ']' but found ')'",
     AFTER_HEAD + "e.hour in [1, 2)\n" + RULE_TAIL),
    ("window_lo_out_of_range", "4:12", "integer out of range (at most 2147483647)",
     AFTER_HEAD + "e.hour in [2147483648, 2]\n" + RULE_TAIL),
    ("eof_in_window", "4:14", "expected an integer but found end of input",
     AFTER_HEAD + "e.hour in [9,"),
    ("historical_lparen", "4:14", "expected '(' but found 'botype'",
     AFTER_HEAD + "not happened botype == X\n" + RULE_TAIL),
    ("historical_field_eq", "4:18", "expected '==' but found 'X'",
     AFTER_HEAD + "happened (botype X)\n" + RULE_TAIL),
    # actions
    ("action_missing", "4:6", "expected an action but found 'end'", AFTER_HEAD + "then end\n"),
    ("action_keyword", "4:18", "expected an action but found 'when'",
     with_actions("reset buyer when")),
    ("reset_player", "4:12", "expected a role player name but found ';'", with_actions("reset ;")),
    ("action_dot", "4:12", "expected '.' but found 'rights'",
     with_actions("buyer rights += Pay()")),
    ("action_selector", "4:12", "expected a ROP set or 'BizFail' but found '5'",
     with_actions("buyer.5")),
    ("action_selector_unknown", "4:12",
     "expected 'rights', 'obligs', 'prohibs' or 'BizFail' but found 'foo'",
     with_actions("buyer.foo += Pay()")),
    ("manipulation_operator", "4:19", "expected '+=' or '-=' but found '=='",
     with_actions("buyer.rights == Pay()")),
    ("manipulation_operation", "4:22", "expected a business operation name but found '('",
     with_actions("buyer.rights += (a)")),
    ("manipulation_lparen", "4:26", "expected '(' but found 'a'",
     with_actions("buyer.rights += Pay a")),
    ("argument", "4:26", "expected an argument (identifier or string) but found ')'",
     with_actions("buyer.rights += Pay()")),
    ("argument_after_comma", "4:29", "expected an argument (identifier or string) but found '5'",
     with_actions("buyer.rights += Pay(a, 5)")),
    ("argument_rparen", "4:28", "expected ')' but found 'b'",
     with_actions("buyer.rights += Pay(a b)")),
    ("eof_in_argument_list", "4:28",
     "expected an argument (identifier or string) but found end of input",
     AFTER_HEAD + "then buyer.rights += Pay(a,"),
    ("action_outcome_eq", "4:18", "expected '==' but found 'true'",
     with_actions("Pay.BizFail true")),
    ("action_outcome_value", "4:21", "expected 'true' or 'false' but found '1'",
     with_actions("Pay.BizFail == 1")),
    ("end_missing", "5:1", "expected 'end' but found end of input",
     AFTER_HEAD + "then reset buyer\n"),
    # if actions
    ("if_lparen", "4:9", "expected '(' but found 'Pay'",
     with_actions("if Pay.BizFail == true then reset buyer endif")),
    ("if_empty_condition", "4:10", "expected a constraint but found ')'",
     with_actions("if () then reset buyer endif")),
    ("if_trailing_comma", "4:30", "expected a constraint but found ')'",
     with_actions("if (Pay.BizFail == true,) then reset buyer endif")),
    ("if_missing_comma", "4:30", "expected ')' but found 'Pay'",
     with_actions("if (Pay.BizFail == true Pay.BizFail == false) then reset buyer endif")),
    ("eof_in_if_condition", "4:10", "expected a constraint but found end of input",
     AFTER_HEAD + "then if ("),
    ("if_then", "4:31", "expected 'then' but found 'reset'",
     with_actions("if (Pay.BizFail == true) reset buyer endif")),
    ("if_no_action", "4:36", "expected an action but found 'endif'",
     with_actions(IF_THEN + "endif")),
    ("if_nested", "4:36", "nested 'if' actions are not supported",
     with_actions(IF_THEN + "if (Pay.BizFail == false) then reset buyer endif endif")),
    ("if_nested_in_else", "4:53", "nested 'if' actions are not supported",
     with_actions(IF_THEN + "reset buyer else if (Pay.BizFail == false) then reset buyer endif"
                  " endif")),
    ("if_second_else", "4:65", "expected an action but found 'else'",
     with_actions(IF_THEN + "reset buyer else reset buyer else reset buyer endif")),
    ("if_end_before_endif", "4:48", "expected an action but found 'end'",
     with_actions(IF_THEN + "reset buyer end")),
    ("eof_before_endif", "4:47", "expected 'endif' but found end of input",
     AFTER_HEAD + "then " + IF_THEN + "reset buyer"),
]


@pytest.mark.parametrize(
    "pos, message, source",
    [case[1:] for case in PARSE_ERRORS],
    ids=[case[0] for case in PARSE_ERRORS],
)
def test_parse_error_message_and_position(pos, message, source):
    _, _, _, (diag,) = analyze(source)
    assert (diag.code, diag.message, str(diag.pos)) == ("E-PARSE", message, pos)
