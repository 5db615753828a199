import string

import pytest
from conftest import CORPUS, wide_contract
from hypothesis import given, settings
from hypothesis import strategies as st

from eropc import lexer
from eropc.codegen import analyze, translate
from eropc.lexer import (
    KEYWORDS,
    LexError,
    SourcePos,
    TokenKind,
    positions,
    string_value,
    tokenize,
)
from eropc.sema import split
from eropc.syntax import (
    Decl,
    EventField,
    Historical,
    IfAct,
    Outcome,
    ResetAct,
    RopManip,
    RopMembership,
    RuleAst,
    TimeDirect,
    TimePartial,
    field_pos,
    parse_contract,
)


def kinds(source):
    return tokenize(source).kinds


def lexemes(source):
    return tokenize(source).lexemes


def offsets_of(source, indexes):
    return [pos.offset for pos in positions(source, indexes)]


def spans(source):
    """The ``(lexeme, offset)`` of every token, EOF included, offsets found on demand."""
    tokens = tokenize(source)
    return list(zip(tokens.lexemes, offsets_of(source, list(range(len(tokens))))))


def pos_of(source, index):
    (pos,) = positions(source, [index])
    return pos


def test_roleplayer_declaration():
    tokens = tokenize("roleplayer buyer, seller;")
    assert len(tokens) == 6
    assert tokens.kinds == bytes([
        TokenKind.ROLEPLAYER,
        TokenKind.IDENT,
        TokenKind.COMMA,
        TokenKind.IDENT,
        TokenKind.SEMI,
        TokenKind.EOF,
    ])
    assert tokens.lexemes == ["roleplayer", "buyer", ",", "seller", ";", ""]


def test_empty_input_is_just_eof():
    assert spans("") == [("", 0)]
    assert kinds("") == bytes([TokenKind.EOF])
    assert pos_of("", 0) == SourcePos(1, 1, 0)


def test_rop_manipulation_line():
    source = "buyer.rights -= BuyRequest(seller)"
    assert kinds(source) == bytes([
        TokenKind.IDENT,
        TokenKind.DOT,
        TokenKind.IDENT,
        TokenKind.MINUSEQ,
        TokenKind.IDENT,
        TokenKind.LPAREN,
        TokenKind.IDENT,
        TokenKind.RPAREN,
        TokenKind.EOF,
    ])
    assert lexemes(source)[:-1] == ["buyer", ".", "rights", "-=", "BuyRequest", "(", "seller", ")"]


RESERVED_WORDS = ("roleplayer", "businessoperation", "compoblig", "rule", "when", "matches",
                  "then", "else", "end", "if", "endif", "in", "reset")


def test_keywords_are_never_ident():
    for word in RESERVED_WORDS:
        tokens = tokenize(word)
        assert tokens.kinds[0] != TokenKind.IDENT
        assert tokens.lexemes == [word, ""]


def test_keywords_are_exactly_the_reserved_words():
    # a new lower-case token kind must not silently become a reserved word
    assert set(KEYWORDS) == set(RESERVED_WORDS)


# every kind as defined, by identity: the parser compares kinds with ``is``
KIND_CONSTANTS = {id(kind) for name, kind in vars(TokenKind).items() if name.isupper()}
# the name of each operator's and punctuation mark's kind
OPERATOR_KINDS = {
    "==": "EQ", "+=": "PLUSEQ", "-=": "MINUSEQ", "<=": "LE", ">=": "GE", ",": "COMMA",
    ";": "SEMI", ".": "DOT", "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
    "!": "BANG", "<": "LT", ">": "GT",
}


def fixed_kind(text):
    """The kind a keyword or an operator lexes to, found from its kind's name."""
    return getattr(TokenKind, OPERATOR_KINDS.get(text) or text.upper())


def test_case_study_kinds_are_the_very_constants(case_study_source):
    assert all(id(kind) in KIND_CONSTANTS for kind in kinds(case_study_source))


def test_each_keyword_and_operator_lexes_to_its_own_kind():
    fixed = [*RESERVED_WORDS, *_OPERATORS]
    assert sorted(OPERATOR_KINDS) == sorted(_OPERATORS)
    assert len(fixed) == len(KIND_CONSTANTS) - 4  # all but IDENT, STRING, INT and EOF
    assert len({fixed_kind(text) for text in fixed}) == len(fixed)  # each its own
    for text in fixed:
        tokens = tokenize(text)
        assert (tokens.kinds, tokens.lexemes) == (bytes([fixed_kind(text), TokenKind.EOF]),
                                                  [text, ""])
        assert id(tokens.kinds[0]) in KIND_CONSTANTS
        assert tokens.kinds[1] is TokenKind.EOF
    for text, kind in (("x", TokenKind.IDENT), ('"s"', TokenKind.STRING), ("7", TokenKind.INT)):
        assert kinds(text)[0] is kind


def test_contextual_names_lex_as_ident():
    # field names, ROP sets and BizFail are not reserved
    for word in ("botype", "originator", "responder", "outcome", "rights", "obligs",
                 "prohibs", "BizFail", "happened", "not", "timestamp", "hour"):
        assert kinds(word) == bytes([TokenKind.IDENT, TokenKind.EOF])


def test_positions_point_at_lexeme_start():
    source = 'rule "R"\nwhen e matches (botype == BUYREQ)\n'
    for lexeme, offset in spans(source):
        assert source[offset : offset + len(lexeme)] == lexeme


def test_line_and_column_tracking():
    source = "roleplayer buyer;\n  reset seller"
    tokens = tokenize(source)
    reset = tokens.kinds.index(TokenKind.RESET)
    seller = len(tokens) - 2
    found = positions(source, [reset, seller])
    assert [(p.line, p.col) for p in found] == [(2, 3), (2, 9)]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_any_line_ending_convention(newline):
    source = f"roleplayer buyer;{newline}reset seller"
    assert str(pos_of(source, kinds(source).index(TokenKind.RESET))) == "2:1"


def test_comments_are_skipped():
    source = "// header\nroleplayer buyer; /* mid\ncomment */ reset buyer"
    assert lexemes(source)[:-1] == ["roleplayer", "buyer", ";", "reset", "buyer"]


def test_tokenization_is_lossless():
    source = 'roleplayer buyer; // c\n/* b */ rule "R" when e matches (botype == X)\n'
    rebuilt = []
    cursor = 0
    for lexeme, offset in spans(source):
        gap = source[cursor:offset]
        assert not gap.strip() or "//" in gap or "/*" in gap  # only trivia between tokens
        rebuilt.append(gap)
        rebuilt.append(lexeme)
        cursor = offset + len(lexeme)
    rebuilt.append(source[cursor:])
    assert "".join(rebuilt) == source


def test_tokenize_is_pure():
    source = 'rule "R" when e matches (botype == BUYREQ) then reset buyer end'
    first, second = tokenize(source), tokenize(source)
    assert (first.kinds, first.lexemes) == (second.kinds, second.lexemes)


def test_string_literal_and_value():
    tokens = tokenize('"01-01-2016 12:00:00"')
    assert tokens.kinds == bytes([TokenKind.STRING, TokenKind.EOF])
    assert string_value(tokens.lexemes[0]) == "01-01-2016 12:00:00"


def test_int_literal():
    tokens = tokenize("42")
    assert tokens.kinds[0] is TokenKind.INT and tokens.lexemes[0] == "42"


def test_two_char_operators_win_over_prefixes():
    assert kinds("<= >= == += -= < >")[:-1] == bytes([
        TokenKind.LE, TokenKind.GE, TokenKind.EQ, TokenKind.PLUSEQ,
        TokenKind.MINUSEQ, TokenKind.LT, TokenKind.GT,
    ])


def test_unterminated_string():
    source = 'rule "oops\nend'
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert pos_of(source, exc.value.pos) == SourcePos(1, 6, 5)


def test_unterminated_block_comment():
    source = "reset buyer /* no close"
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.pos == 2
    assert pos_of(source, exc.value.pos) == SourcePos(1, 13, 12)


def test_illegal_character():
    source = "reset @buyer"
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert "@" in exc.value.message
    assert exc.value.pos == 1
    assert pos_of(source, exc.value.pos) == SourcePos(1, 7, 6)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
def test_non_ascii_digits_are_illegal(digit):
    source = f"e.hour in [{digit},3]"
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.message == f"illegal character {digit!r}"
    assert exc.value.pos == 5
    assert pos_of(source, exc.value.pos) == SourcePos(1, 12, 11)


SUPERSCRIPT_HOUR = """roleplayer buyer;
businessoperation BuyRequest;
rule "R"
when e matches (botype == BUYREQ, originator == buyer, responder == buyer, outcome == success)
    e.hour in [\u00b2,3]
then
    reset buyer
end
"""


def test_superscript_digit_is_a_diagnostic_not_a_crash():
    text, diags = translate(SUPERSCRIPT_HOUR, "P")
    assert text is None
    assert [(d.code, d.message, str(d.pos)) for d in diags] == [
        ("E-LEX", "illegal character '\u00b2'", "5:16")
    ]


def test_trailing_bare_carriage_return_ends_the_line():
    source = "reset buyer\r"
    assert spans(source)[-1] == ("", 12)
    assert kinds(source)[-1] is TokenKind.EOF
    assert pos_of(source, 2) == SourcePos(2, 1, 12)


def test_block_comment_spanning_crlf_lines():
    source = "a /* x\r\ny\r\n */ b"
    assert lexemes(source) == ["a", "b", ""]
    assert positions(source, [0, 1, 2]) == [
        SourcePos(1, 1, 0), SourcePos(3, 5, 15), SourcePos(3, 6, 16)
    ]


def test_string_cut_off_by_carriage_return():
    source = 'reset\n rule "ab\rc"'
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.message == "unterminated string literal"
    assert pos_of(source, exc.value.pos) == SourcePos(2, 7, 12)


# (id, line:col, the E-LEX message, source); each row's source has exactly one
# lexical error, the first bad token, and analyze reports only it
LEX_ERRORS = [
    ("quote_at_end_of_input", "1:7", "unterminated string literal", 'reset "'),
    ("quote_then_newline", "1:7", "unterminated string literal", 'reset "\nbuyer'),
    ("string_cut_by_crlf", "1:6", "unterminated string literal", 'rule "abc\r\nend'),
    ("string_cut_by_bare_cr", "1:6", "unterminated string literal", 'rule "abc\rend'),
    ("string_cut_before_a_later_string", "1:6", "unterminated string literal",
     'rule "abc\n"R" end'),
    ("backslash_at_end_of_line", "1:6", "backslash in string literal", 'rule "a\\\nend'),
    ("backslash_at_end_of_input", "1:6", "backslash in string literal", 'rule "a\\'),
    ("escaped_quote", "1:6", "backslash in string literal", 'rule "a\\"'),
    ("backslash_after_a_string", "1:10", "backslash in string literal", 'rule "R" "a\\b"'),
    ("backslash_in_deadline", "1:28", "backslash in string literal",
     'buyer.rights -= Pay(buyer, "01-01\\2016")'),
    ("unterminated_block_comment", "1:13", "unterminated block comment",
     "reset buyer /* no close"),
    ("block_comment_open_after_a_closed_one", "1:10", "unterminated block comment",
     "/* ok */ /* open\nreset"),
    ("lone_slash", "1:7", "illegal character '/'", "reset / buyer"),
    ("comment_close", "1:7", "illegal character '*'", "reset */ buyer"),
    ("e_acute", "1:12", "illegal character 'é'", "roleplayer é;"),
    ("e_acute_inside_a_name", "1:15", "illegal character 'é'", "roleplayer buyé;"),
    ("superscript_two", "1:12", "illegal character '²'", "e.hour in [²,3]"),
    ("at_sign", "1:7", "illegal character '@'", "reset @buyer"),
    ("form_feed", "1:6", "illegal character '\\x0c'", "reset\fbuyer"),
    ("after_line_comment", "2:1", "illegal character '@'", "reset // note\n@"),
    ("after_block_comment", "1:10", "illegal character '@'", "/* ok */ @ reset"),
    ("quote_after_block_comment", "2:6", "unterminated string literal", '/* a\nb */ "x'),
    ("backslash_after_line_comment", "2:1", "backslash in string literal", '// "\n"\\"'),
]


@pytest.mark.parametrize(
    "pos, message, source",
    [case[1:] for case in LEX_ERRORS],
    ids=[case[0] for case in LEX_ERRORS],
)
def test_lex_error_message_and_position(pos, message, source):
    _, _, _, (diag,) = analyze(source)
    assert (diag.code, diag.message, str(diag.pos)) == ("E-LEX", message, pos)


# --- position oracle ---------------------------------------------------------

_WORD_START = string.ascii_letters
_WORD_CHAR = string.ascii_letters + string.digits + "_"
_OPERATORS = ("==", "+=", "-=", "<=", ">=", ",", ";", ".", "(", ")", "[", "]", "!", "<", ">")


def reference_scan(source):
    """Character-at-a-time model of the lexer.

    Returns the ``(lexeme, offset)`` of every token before EOF, and the
    ``(message, offset)`` of the first lexical error or None.
    """
    found, i, n = [], 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
        elif source.startswith("//", i):
            while i < n and source[i] not in "\r\n":
                i += 1
        elif source.startswith("/*", i):
            close = source.find("*/", i + 2)
            if close < 0:
                return found, ("unterminated block comment", i)
            i = close + 2
        elif ch in _WORD_START or ch in string.digits:
            chars = _WORD_CHAR if ch in _WORD_START else string.digits
            j = i + 1
            while j < n and source[j] in chars:
                j += 1
            found.append((source[i:j], i))
            i = j
        elif ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\\\r\n':
                j += 1
            if j < n and source[j] == "\\":
                return found, ("backslash in string literal", i)
            if j == n or source[j] != '"':
                return found, ("unterminated string literal", i)
            found.append((source[i : j + 1], i))
            i = j + 1
        else:
            op = next((op for op in _OPERATORS if source.startswith(op, i)), None)
            if op is None:
                return found, (f"illegal character {ch!r}", i)
            found.append((op, i))
            i += len(op)
    return found, None


def naive_pos(source, offset):
    """Line and column of ``offset`` by counting \\n, \\r\\n and bare \\r."""
    lines = source[:offset].replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return SourcePos(len(lines), len(lines[-1]) + 1, offset)


PIECES = st.sampled_from((
    "\r", "\n", "\r\n", "\t", "\f", " ", " ", "\u00b2", "\u00e9", "_", "/", "*", '"', '"', "\\",
    "a", "Zq", "rule", "in", "x_1", "0", "42", "//", "/*", "*/",
    ",", ";", ".", "(", ")", "[", "]", "==", "+=", "-=", "<", ">", "=", "!",
))


@given(st.lists(PIECES, max_size=40).map("".join))
@settings(max_examples=400)
def test_positions_match_a_naive_count(source):
    expected, error = reference_scan(source)
    if error is not None:
        with pytest.raises(LexError) as exc:
            tokenize(source)
        message, offset = error
        # the bad token's index is the count of the good tokens before it
        assert (exc.value.message, exc.value.pos) == (message, len(expected))
        assert positions(source, [exc.value.pos]) == [naive_pos(source, offset)]
        return
    found = spans(source)
    assert found[:-1] == expected
    assert found[-1] == ("", len(source))
    starts = [offset for _, offset in found]
    for index, offset in enumerate(starts):
        assert positions(source, [index]) == [naive_pos(source, offset)]
    assert positions(source, list(range(len(found)))) == [naive_pos(source, o) for o in starts]


LINES = st.lists(st.sampled_from(("a", "bc", " ", "\n", "\r", "\r\n")), max_size=30).map("".join)


@given(LINES, st.data())
@settings(max_examples=300)
def test_positions_scanned_up_to_the_largest_offset_match_a_naive_count(source, data):
    expected, error = reference_scan(source)
    assert error is None
    starts = [offset for _, offset in expected] + [len(source)]  # EOF last
    # alone, each index bounds the scan: a token right after a break, EOF at the end, ...
    for index, offset in enumerate(starts):
        assert positions(source, [index]) == [naive_pos(source, offset)]
    indexes = data.draw(st.lists(st.sampled_from(range(len(starts))), max_size=8))
    assert positions(source, indexes) == [naive_pos(source, starts[i]) for i in indexes]


# --- trivia-joined lexemes --------------------------------------------------

POOL = (
    *RESERVED_WORDS, "buyer", "BuyRequest", "x_1", "Zq9", "BizFail", "0", "42", "007",
    '""', '"01-01-2016 12:00:00"', '"a // b /* c"', '"\u00e9\u00b2"', *_OPERATORS,
)
TRIVIA = (" ", "\t", "\n", "\r\n", "\r", "// c\n", "// c\r\n", "/* x */", "/* a\r\n*b/ */")


def ascii_kind(lexeme):
    """The kind of one lexeme of POOL, or EOF for ``""``, decided on ASCII alone."""
    if lexeme == "":
        return TokenKind.EOF
    if lexeme in RESERVED_WORDS or lexeme in _OPERATORS:
        return fixed_kind(lexeme)
    if lexeme[0] == '"':
        return TokenKind.STRING
    if lexeme[0] in string.digits:
        return TokenKind.INT
    assert lexeme[0] in string.ascii_letters
    return TokenKind.IDENT


@st.composite
def trivia_joined(draw):
    """``(source, lexemes, offsets)``: POOL lexemes with trivia between each two,
    and optional trivia before and after; no lexeme gives the empty source or a
    trivia-only one."""
    pool = draw(st.lists(st.sampled_from(POOL), max_size=30))
    gap = st.lists(st.sampled_from(TRIVIA), min_size=1, max_size=3).map("".join)
    leading = st.lists(st.sampled_from(TRIVIA), max_size=2).map("".join)
    # a line comment that the end of the source closes can only come last
    trailing = st.tuples(leading, st.sampled_from(("", "// end"))).map("".join)
    parts, offsets = [draw(leading)], []
    length = len(parts[0])
    for i, lexeme in enumerate(pool):
        if i:
            parts.append(draw(gap))
            length += len(parts[-1])
        offsets.append(length)
        parts.append(lexeme)
        length += len(lexeme)
    parts.append(draw(trailing))
    return "".join(parts), pool, offsets


@given(trivia_joined())
@settings(max_examples=400)
def test_trivia_joined_lexemes_lex_back_with_their_offsets(case):
    source, pool, offsets = case
    tokens = tokenize(source)
    assert tokens.lexemes == [*pool, ""]  # exactly one EOF, and it comes last
    assert tokens.kinds.count(TokenKind.EOF) == 1 and tokens.kinds[-1] is TokenKind.EOF
    assert len(tokens) == len(pool) + 1
    indexes = list(range(len(tokens)))
    assert offsets_of(source, indexes) == [*offsets, len(source)]
    assert offsets_of(source, indexes[::-1]) == [len(source), *offsets[::-1]]
    assert tokens.kinds == bytes(ascii_kind(lexeme) for lexeme in tokens.lexemes)
    assert all(id(kind) in KIND_CONSTANTS for kind in tokens.kinds)


# --- identifiers of the syntax tree ------------------------------------------


def held_identifiers(record):
    """Each identifier (or ROP actual, or timestamp) a record holds, its whole subtree's,
    with the token index its record derives for it."""
    if isinstance(record, Decl):
        return [*((name, record.name_pos(j)) for j, name in enumerate(record.names)),
                *((member, record.member_pos(j)) for j, member in enumerate(record.members))]
    if isinstance(record, RuleAst):
        return [(record.event_var, record.event_var_pos),
                *held_fields(record.event_fields, record.fields_pos),
                *(held for child in [*record.constraints, *record.actions]
                  for held in held_identifiers(child))]
    if isinstance(record, IfAct):
        children = [*record.cond, *record.then_actions, *(record.else_actions or [])]
        return [held for child in children for held in held_identifiers(child)]
    if isinstance(record, RopMembership):
        return [(record.bo, record.pos), (record.player, record.player_pos)]
    if isinstance(record, Outcome):
        return [(record.bo, record.pos), (record.value, record.value_pos)]
    if isinstance(record, TimeDirect):  # the timestamp is the STRING after the operator
        return [(record.event_var, record.pos), (record.timestamp, record.pos + 4)]
    if isinstance(record, TimePartial):
        return [(record.event_var, record.pos)]
    if isinstance(record, ResetAct):
        return [(record.player, record.pos)]
    if isinstance(record, Historical):
        return held_fields(record.fields, record.pos)
    assert isinstance(record, RopManip), record
    return [(record.player, record.pos), (record.bo, record.bo_pos),
            *((actual, record.actual_pos(j)) for j, actual in enumerate(record.actuals))]


def held_fields(fields, lparen):
    return [pair for j, (name, value) in enumerate(fields)
            for pair in zip((name, value), field_pos(lparen, j))]


EVERY_RECORD = """\
roleplayer buyer, seller;
businessoperation Pay, Ship;
compoblig React(Pay, Ship)
rule "R"
when e matches (botype == X, originator == buyer, responder == seller, outcome == ok)
    Pay in buyer.rights
    e.timestamp < "01-01-2016 00:00:00"
    e.hour in [9, 17]
    not happened (originator == buyer, botype == Pay)
then
    buyer.obligs += React("02-01-2016 00:00:00", seller)
    reset buyer
    seller reset
end
rule "S"
when e matches (botype == X, originator == buyer, responder == seller, outcome == ok)
    happened (responder == seller)
then
    if (Pay.BizFail == true, e.minute in [0, 30]) then reset buyer else Ship.BizFail == false endif
end
"""
PARSEABLE = {
    "case study": CORPUS / "buyer_store.erop",
    **{path.name: path for path in sorted((CORPUS / "bad").glob("*.erop"))},
}


def parseable_sources():
    """Each parseable corpus file's source and EVERY_RECORD, by name."""
    sources = {name: path.read_text(encoding="utf-8") for name, path in PARSEABLE.items()}
    return {**sources, "every record": EVERY_RECORD}


def test_parser_identifiers_are_the_very_tokens():
    # one law over each offset rule of syntax.py, on the case study, each parseable
    # corpus file, a source with every record and the wide contract: the index a record
    # derives for an identifier holds that identifier, the very string of the stream
    sources = {**parseable_sources(), "wide": wide_contract(players=5, ops=9)}
    for name, source in sources.items():
        tokens = tokenize(source)
        ast = parse_contract(tokens)
        held = [pair for record in [*ast.decls, *ast.rules] for pair in held_identifiers(record)]
        assert held, name
        for identifier, index in held:
            assert tokens.lexemes[index] is identifier, (name, identifier, index)
            kind = TokenKind.STRING if identifier[0] == '"' else TokenKind.IDENT
            assert tokens.kinds[index] is kind, (name, identifier, index)
    # EVERY_RECORD reaches each record kind, so the law meets each offset rule
    rules = parse_contract(tokenize(EVERY_RECORD)).rules
    held = {type(r) for rule in rules for r in [*rule.constraints, *rule.actions]}
    held |= {type(r) for a in rules[1].actions for r in [*a.cond, *a.then_actions, *a.else_actions]}
    assert held == {RopMembership, Outcome, TimeDirect, TimePartial, Historical, RopManip,
                    ResetAct, IfAct}


def held_sequences(record):
    """Each record and sequence under a record (or a sequence), at any depth."""
    for item in record:
        if isinstance(item, (tuple, list)):
            yield item
            yield from held_sequences(item)


def test_the_tree_and_each_split_piece_hold_tuples_only():
    # each sequence is built at its final size: a list would carry spare slots
    for name, source in parseable_sources().items():
        ast = parse_contract(tokenize(source))
        pieces = [split(rule) for rule in ast.rules]
        held = [*pieces, *held_sequences(ast), *held_sequences(pieces)]
        assert [s for s in held if isinstance(s, list)] == [], name
        assert any(type(s) is tuple for s in held), name


def test_each_distinct_event_field_is_one_record():
    # an EventField holds no position, so one record serves each repeat of its field
    rule_r, rule_s = parse_contract(tokenize(EVERY_RECORD)).rules
    fields_r, fields_s = rule_r.event_fields, rule_s.event_fields
    assert all(a is b for a, b in zip(fields_r, fields_s, strict=True))  # equal event matches
    historical_r, historical_s = rule_r.constraints[3], rule_s.constraints[0]
    assert historical_r.fields[0] is fields_r[1]  # originator == buyer
    assert historical_s.fields[0] is fields_r[2]  # responder == seller
    assert historical_r.fields[1] == EventField("botype", "Pay") not in fields_r
    for name, source in parseable_sources().items():  # no two records of a parse are equal
        held = held_sequences(parse_contract(tokenize(source)))
        fields = [f for f in held if type(f) is EventField]
        assert len({id(f) for f in fields}) == len(set(fields)), name


def repeated_names_contract(rules):
    """A contract whose ``rules`` rules name the same players and operation."""
    rule = ('rule "R{}"\nwhen e matches (botype == Pay, originator == buyer, '
            'responder == seller, outcome == success)\nthen\n    buyer.rights += Pay(seller)\nend\n')
    return "roleplayer buyer, seller;\nbusinessoperation Pay;\n" + "".join(map(rule.format, range(rules)))


@pytest.mark.parametrize("source", [
    pytest.param(None, id="case-study"),
    pytest.param(repeated_names_contract(50), id="repeated-names"),
])
def test_each_distinct_lexeme_is_one_object(case_study_source, source):
    # the syntax tree's tokens share these strings, so a name repeated n times costs one
    tokens = tokenize(source or case_study_source)
    assert len(tokens.lexemes) > 3 * len(set(tokens.lexemes))
    assert len({id(lexeme) for lexeme in tokens.lexemes}) == len(set(tokens.lexemes))


# --- the scan in stretches -----------------------------------------------------


def scanned(source):
    """The kinds and lexemes of ``source``, or its LexError's message and index."""
    try:
        tokens = tokenize(source)
    except LexError as err:
        return err.message, err.pos
    return tokens.kinds, tokens.lexemes


def assert_chunk_invariant(source, monkeypatch):
    monkeypatch.setattr(lexer, "_CHUNK", len(source) + 1)  # one stretch
    whole = scanned(source)
    for chunk in (1, 2, 3, 7, 64):
        monkeypatch.setattr(lexer, "_CHUNK", chunk)
        assert scanned(source) == whole, chunk


@pytest.mark.parametrize("name", PARSEABLE)
def test_each_stretch_length_scans_a_corpus_file_alike(name, monkeypatch):
    assert_chunk_invariant(PARSEABLE[name].read_text(encoding="utf-8"), monkeypatch)


# lexemes, trivia and faults that meet the cuts: comments across line breaks, each line
# break, strings, an unterminated comment or string, and a bad character
STRETCH_PIECES = st.sampled_from((
    "\n", "\r\n", "\r", " ", "\t", "/* a\nb */", "/* \r\n\r */", "/*\n\n*/", "// c", "// c\n",
    '"s t"', '""', "/*", "*/", '"', "@", "\u00e9", "buyer", "Pay", "42", ",", ".", "(", ")", "+=",
))


@given(st.lists(STRETCH_PIECES, max_size=40).map("".join))
@settings(max_examples=300)
def test_each_stretch_length_scans_alike(source):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_chunk_invariant(source, monkeypatch)
