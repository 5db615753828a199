import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eropc.codegen import translate
from eropc.lexer import (
    KEYWORDS,
    LexError,
    SourcePos,
    Token,
    TokenKind,
    positions,
    string_value,
    tokenize,
)
from eropc.syntax import parse_contract


def kinds(tokens):
    return [t.kind for t in tokens]


def lexemes(tokens):
    return [t.lexeme for t in tokens]


def pos_of(source, offset):
    (pos,) = positions(source, [offset])
    return pos


def test_roleplayer_declaration():
    tokens = tokenize("roleplayer buyer, seller;")
    assert kinds(tokens) == [
        TokenKind.ROLEPLAYER,
        TokenKind.IDENT,
        TokenKind.COMMA,
        TokenKind.IDENT,
        TokenKind.SEMI,
        TokenKind.EOF,
    ]
    assert lexemes(tokens) == ["roleplayer", "buyer", ",", "seller", ";", ""]


def test_empty_input_is_just_eof():
    tokens = tokenize("")
    assert kinds(tokens) == [TokenKind.EOF]
    assert tokens[0].offset == 0
    assert pos_of("", 0) == SourcePos(1, 1, 0)


def test_rop_manipulation_line():
    tokens = tokenize("buyer.rights -= BuyRequest(seller)")
    assert kinds(tokens) == [
        TokenKind.IDENT,
        TokenKind.DOT,
        TokenKind.IDENT,
        TokenKind.MINUSEQ,
        TokenKind.IDENT,
        TokenKind.LPAREN,
        TokenKind.IDENT,
        TokenKind.RPAREN,
        TokenKind.EOF,
    ]
    assert lexemes(tokens)[:-1] == ["buyer", ".", "rights", "-=", "BuyRequest", "(", "seller", ")"]


RESERVED_WORDS = ("roleplayer", "businessoperation", "compoblig", "rule", "when", "matches",
                  "then", "else", "end", "if", "endif", "in", "reset")


def test_keywords_are_never_ident():
    for word in RESERVED_WORDS:
        (tok, _eof) = tokenize(word)
        assert tok.kind != TokenKind.IDENT
        assert tok.lexeme == word


def test_keywords_are_exactly_the_reserved_words():
    # a new lower-case token kind must not silently become a reserved word
    assert set(KEYWORDS) == set(RESERVED_WORDS)


def test_contextual_names_lex_as_ident():
    # field names, ROP sets and BizFail are not reserved
    for word in ("botype", "originator", "responder", "outcome", "rights", "obligs",
                 "prohibs", "BizFail", "happened", "not", "timestamp", "hour"):
        (tok, _eof) = tokenize(word)
        assert tok.kind == TokenKind.IDENT


def test_positions_point_at_lexeme_start():
    source = 'rule "R"\nwhen e matches (botype == BUYREQ)\n'
    for tok in tokenize(source):
        if tok.kind is TokenKind.EOF:
            continue
        assert source[tok.offset : tok.offset + len(tok.lexeme)] == tok.lexeme


def test_line_and_column_tracking():
    source = "roleplayer buyer;\n  reset seller"
    tokens = tokenize(source)
    reset = next(t for t in tokens if t.kind is TokenKind.RESET)
    seller = tokens[-2]
    found = positions(source, [reset.offset, seller.offset])
    assert [(p.line, p.col) for p in found] == [(2, 3), (2, 9)]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_any_line_ending_convention(newline):
    source = f"roleplayer buyer;{newline}reset seller"
    reset = next(t for t in tokenize(source) if t.kind is TokenKind.RESET)
    assert str(pos_of(source, reset.offset)) == "2:1"


def test_comments_are_skipped():
    source = "// header\nroleplayer buyer; /* mid\ncomment */ reset buyer"
    assert lexemes(tokenize(source))[:-1] == ["roleplayer", "buyer", ";", "reset", "buyer"]


def test_tokenization_is_lossless():
    source = 'roleplayer buyer; // c\n/* b */ rule "R" when e matches (botype == X)\n'
    tokens = tokenize(source)
    rebuilt = []
    cursor = 0
    for tok in tokens:
        gap = source[cursor : tok.offset]
        assert not gap.strip() or "//" in gap or "/*" in gap  # only trivia between tokens
        rebuilt.append(gap)
        rebuilt.append(tok.lexeme)
        cursor = tok.offset + len(tok.lexeme)
    rebuilt.append(source[cursor:])
    assert "".join(rebuilt) == source


def test_tokenize_is_pure():
    source = 'rule "R" when e matches (botype == BUYREQ) then reset buyer end'
    assert tokenize(source) == tokenize(source)


def test_string_literal_and_value():
    (tok, _eof) = tokenize('"01-01-2016 12:00:00"')
    assert tok.kind is TokenKind.STRING
    assert string_value(tok) == "01-01-2016 12:00:00"


def test_int_literal():
    (tok, _eof) = tokenize("42")
    assert tok.kind is TokenKind.INT and tok.lexeme == "42"


def test_two_char_operators_win_over_prefixes():
    toks = tokenize("<= >= == += -= < >")
    assert kinds(toks)[:-1] == [
        TokenKind.LE, TokenKind.GE, TokenKind.EQ, TokenKind.PLUSEQ,
        TokenKind.MINUSEQ, TokenKind.LT, TokenKind.GT,
    ]


def test_unterminated_string():
    source = 'rule "oops\nend'
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert pos_of(source, exc.value.pos) == SourcePos(1, 6, 5)


def test_unterminated_block_comment():
    with pytest.raises(LexError) as exc:
        tokenize("reset buyer /* no close")
    assert exc.value.pos == 12


def test_illegal_character():
    with pytest.raises(LexError) as exc:
        tokenize("reset @buyer")
    assert "@" in exc.value.message
    assert exc.value.pos == 6


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"])
def test_non_ascii_digits_are_illegal(digit):
    with pytest.raises(LexError) as exc:
        tokenize(f"e.hour in [{digit},3]")
    assert exc.value.message == f"illegal character {digit!r}"
    assert exc.value.pos == 11


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
    eof = tokenize("reset buyer\r")[-1]
    assert eof.kind is TokenKind.EOF
    assert pos_of("reset buyer\r", eof.offset) == SourcePos(2, 1, 12)


def test_block_comment_spanning_crlf_lines():
    source = "a /* x\r\ny\r\n */ b"
    tokens = tokenize(source)
    assert lexemes(tokens) == ["a", "b", ""]
    assert positions(source, [t.offset for t in tokens]) == [
        SourcePos(1, 1, 0), SourcePos(3, 5, 15), SourcePos(3, 6, 16)
    ]


def test_string_cut_off_by_carriage_return():
    source = 'reset\n rule "ab\rc"'
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert exc.value.message == "unterminated string literal"
    assert pos_of(source, exc.value.pos) == SourcePos(2, 7, 12)


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
    "\r", "\n", "\r\n", "\t", "\f", " ", " ", "\u00b2", "_", "/", "*", '"', '"', "\\",
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
        assert (exc.value.message, exc.value.pos) == (message, offset)
        assert positions(source, [offset]) == [naive_pos(source, offset)]
        return
    tokens = tokenize(source)
    assert [(t.lexeme, t.offset) for t in tokens[:-1]] == expected
    assert tokens[-1].offset == len(source)
    offsets = [t.offset for t in tokens]
    assert positions(source, offsets) == [naive_pos(source, offset) for offset in offsets]


def held_tokens(node):
    """Every Token reachable from an AST node."""
    if isinstance(node, Token):
        return [node]
    if isinstance(node, (tuple, list)):
        return [tok for child in node for tok in held_tokens(child)]
    return []


def test_parser_identifiers_are_the_very_tokens(case_study_source):
    tokens = tokenize(case_study_source)
    held = held_tokens(parse_contract(tokens))
    lexed = {id(tok) for tok in tokens if tok.kind is TokenKind.IDENT}
    assert len(held) > 100
    assert all(id(tok) in lexed for tok in held)
