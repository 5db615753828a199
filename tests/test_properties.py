import re

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from eropc.codegen import (
    DEFAULT_LOOKUP,
    build_ad_file,
    is_java_identifier,
    lower_contract,
    translate,
)
from eropc.lexer import TokenKind, positions, tokenize
from eropc.sema import SymbolTable, check_contract
from eropc.syntax import ContractAst
from irgen import assert_split_laws, expected_piece_count, read_rule, source_rules


@given(source_rules())
def test_split_laws_hold(rule):
    assert_split_laws(rule)


def rendered_names(rules):
    contract = lower_contract(ContractAst([], rules))
    ad_file = build_ad_file(contract, SymbolTable(), "P", DEFAULT_LOOKUP)
    return [read_rule(text).name for text in ad_file.rules]


@given(st.lists(source_rules(), max_size=20))
def test_rule_count_law_over_a_batch(rules):
    contract = lower_contract(ContractAst([], rules))
    assert [rule for rule, _ in contract.rules] == rules  # one entry per source rule
    assert len(rendered_names(rules)) == sum(map(expected_piece_count, rules))


@given(st.lists(source_rules(names=st.sampled_from(("R", "RIfThen", "RIfElse", "S"))), max_size=4))
def test_e007_exactly_when_a_name_repeats(rules):
    # a repeated source name is E007 even where the split names differ (an
    # if/else "R" next to a plain "R"); otherwise E007 means the AD names repeat
    pairs = lower_contract(ContractAst([], rules)).rules
    e007 = [d for d in check_contract([], pairs, SymbolTable()) if d.code == "E007"]
    sources, targets = [rule.name for rule in rules], rendered_names(rules)
    repeats = len(set(sources)) < len(sources) or len(set(targets)) < len(targets)
    assert bool(e007) == repeats


# names whose AD identifiers clash with each other, with a fixed global or a
# then-block array (bos, bos2, bos3, ...), or are Java keywords; the case
# decides the kind, so no declaration is E003, and each is declared once
AD_NAME_TRAPS = (
    "buyer", "Buyer", "RopBuyer", "ropBuyer", "engine", "Engine", "logger",
    "bos", "Bos", "bos2", "Bos2", "bos10", "bos01", "Bos1", "class", "Class", "Int", "x", "RopX",
)
_ARRAY = re.compile(r"bos(?:[2-9]|[1-9][0-9]+)?")  # bos, bos2, bos3, ...; never bos1 or bos01
_MATCHES_OBLIGATIONS = re.compile(r"matchesObligations\((\w+)\)")
_BOTH_BECOME = re.compile(r"'(\w+)' and [a-z ]+ '(\w+)' both become")


@given(
    st.lists(st.sampled_from(AD_NAME_TRAPS), unique=True, max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.data(),
)
@settings(max_examples=500)  # a clash needs two of the names and no other trap
def test_e012_or_every_ad_global_is_a_free_java_identifier(names, compoblig, data):
    # an upper-case name drawn with True becomes a composite obligation, which a
    # membership constraint renders as the name of an operation's global; the
    # declarations, one name a line, come in a drawn order
    compobligs = [n for n, c in zip(names, compoblig) if c and not n[0].islower()]
    decls = [
        f"{'roleplayer' if name[0].islower() else 'businessoperation'} {name};"
        for name in ["alice", *names] if name not in compobligs
    ]
    decls += [f"compoblig {name}(Pay)" for name in compobligs]
    if compobligs:
        decls.append("businessoperation Pay;")
    decls = data.draw(st.permutations(decls))
    text, diags = translate("".join(f"{line}\n" for line in decls) + """\
rule "R"
when e matches (botype == X, originator == alice, responder == alice, outcome == success)
""" + "".join(f"    {name} in alice.obligs\n" for name in compobligs) + """\
then
    reset alice
end
""", "P")
    # of two names that give one identifier, the later-declared is reported
    line_of = {re.match(r"\w+ (\w+)", line)[1]: n for n, line in enumerate(decls, start=1)}
    for d in diags:
        if clash := _BOTH_BECOME.search(d.message):
            assert d.pos.line == max(line_of[clash[1]], line_of[clash[2]])
    assert {d.code for d in diags if d.is_error} <= {"E012"}
    if text is None:
        return
    idents = [line.split()[2].rstrip(";") for line in text.splitlines() if line[:7] == "global "]
    assert idents[:2] == ["engine", "logger"] and len(set(idents)) == len(idents)
    assert all(is_java_identifier(i) and not _ARRAY.fullmatch(i) for i in idents[2:])
    rendered = _MATCHES_OBLIGATIONS.findall(text)
    assert len(rendered) == len(compobligs)
    assert all(is_java_identifier(i) and not _ARRAY.fullmatch(i) for i in rendered)
    assert not set(rendered) & set(idents)


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
    assert tokens.kinds[-1] is TokenKind.EOF
    assert tokens.lexemes[:-1] == [lexeme for lexeme, _ in pairs]
    offsets = [p.offset for p in positions(source, list(range(len(tokens) - 1)))]
    for offset, lexeme in zip(offsets, tokens.lexemes[:-1]):
        assert source[offset : offset + len(lexeme)] == lexeme


@given(st.lists(st.tuples(LEXEMES, TRIVIA), max_size=30))
def test_every_kind_is_a_token_kind_constant(pairs):
    constants = {id(kind) for name, kind in vars(TokenKind).items() if name.isupper()}
    tokens = tokenize("".join(lexeme + trivia for lexeme, trivia in pairs))
    assert all(id(kind) in constants for kind in tokens.kinds)


CASE_STUDY = (CORPUS / "buyer_store.erop").read_text(encoding="utf-8")
_CASE_LEXEMES = tokenize(CASE_STUDY).lexemes[:-1]
# the offset and lexeme of every token before EOF
_CASE_OFFSETS = [p.offset for p in positions(CASE_STUDY, list(range(len(_CASE_LEXEMES))))]
CASE_TOKENS = list(zip(_CASE_OFFSETS, _CASE_LEXEMES))
# every declaration kind's names, undeclared and lower-case names, the boolean
# and outcome words, the contextual words, keywords, operators and literals
REPLACEMENTS = (
    "", "buyer", "store", "BuyRequest", "ReactToBuyRequest", "Unknown", "nobody",
    "true", "false", "success", "e", "not", "happened", "rights", "BizFail", "hour",
    "rule", "when", "then", "else", "end", "if", "endif", "in", "reset", "roleplayer",
    ",", ";", ".", "(", ")", "==", "+=", "-=", "[", "]", "<",
    '"01-01-2016 12:00:00"', '"R"', "0", "99",
)


@given(st.integers(0, len(CASE_TOKENS) - 1), st.sampled_from(REPLACEMENTS))
@settings(max_examples=1000)
def test_any_single_token_replacement_is_diagnosed_or_compiled(index, lexeme):
    offset, old = CASE_TOKENS[index]
    source = CASE_STUDY[:offset] + lexeme + CASE_STUDY[offset + len(old) :]
    text, diags = translate(source, "P")
    assert (text is None) == any(d.is_error for d in diags)


LINE_BREAK = re.compile(r"\r\n|\r|\n")


@st.composite
def case_study_mutants(draw):
    """The case study with a span deleted, a line duplicated, or a span copied elsewhere."""
    size = len(CASE_STUDY)
    mutation = draw(st.sampled_from(("delete span", "duplicate line", "copy span")))
    if mutation == "duplicate line":
        lines = CASE_STUDY.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[: i + 1] + lines[i:])
    start = draw(st.integers(0, size))
    end = draw(st.integers(start, min(size, start + 300)))
    if mutation == "delete span":
        return CASE_STUDY[:start] + CASE_STUDY[end:]
    at = draw(st.integers(0, size))
    return CASE_STUDY[:at] + CASE_STUDY[start:end] + CASE_STUDY[at:]


@given(case_study_mutants())
@settings(max_examples=1000)
def test_span_deletions_and_copies_are_diagnosed_or_compiled(source):
    text, diags = translate(source, "P")
    assert (text is None) == any(d.is_error for d in diags)
    lines = LINE_BREAK.split(source)
    for d in diags:
        line, col = map(int, str(d.pos).split(":"))
        assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
        before = LINE_BREAK.split(source[: d.pos.offset])  # the offset agrees
        assert (line, col) == (len(before), len(before[-1]) + 1)
