from hypothesis import given, settings
from hypothesis import strategies as st

from eropc.ir import lower_contract
from eropc.lexer import TokenKind, tokenize
from eropc.sema import SymbolTable
from eropc.syntax import ContractAst
from irgen import assert_split_laws, expected_piece_count, source_rules


@given(source_rules())
def test_split_laws_hold(case):
    assert_split_laws(case)


@given(st.lists(source_rules(), max_size=20))
def test_rule_count_law_over_a_batch(cases):
    rules = [case.ast for case in cases]
    contract = lower_contract(ContractAst([], rules), SymbolTable(), "P")
    assert len(contract.rules) == len(rules)  # one group per source rule
    assert sum(map(len, contract.rules)) == sum(map(expected_piece_count, rules))


LEXEMES = st.sampled_from((
    "roleplayer", "rule", "when", "then", "end", "if", "endif", "in", "reset",
    "buyer", "BuyRequest", "botype", "rights", "BizFail",
    ",", ";", ".", "(", ")", "==", "+=", "-=", "[", "]", "<", ">",
    '"01-01-2016 12:00:00"', "42",
))
TRIVIA = st.sampled_from((" ", "  ", "\t", "\n", "\r\n", " // note\n", " /* x */ "))


@given(st.lists(st.tuples(LEXEMES, TRIVIA), max_size=30))
@settings(max_examples=200)
def test_lexer_round_trips_any_lexeme_sequence(pairs):
    source = "".join(lexeme + trivia for lexeme, trivia in pairs)
    tokens = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    assert [t.lexeme for t in tokens[:-1]] == [lexeme for lexeme, _ in pairs]
    for tok in tokens[:-1]:
        assert source[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme
