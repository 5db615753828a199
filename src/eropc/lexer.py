"""Lexical analysis: turn EROP source text into a token stream."""

from __future__ import annotations

import io
import re
from bisect import bisect_right
from typing import NamedTuple


class TokenKind:
    """Kind codes, ints from 0 to 31: ``tokenize`` gives one byte per token.  Indexing
    bytes returns CPython's one object for each int from -5 to 256, on 3.10 to 3.13,
    so kinds compare with ``is``: ``==`` parses up to 2% slower on 3.10 and 3.12."""

    # keywords: each is its name in lower case
    ROLEPLAYER = 0
    BUSINESSOPERATION = 1
    COMPOBLIG = 2
    RULE = 3
    WHEN = 4
    MATCHES = 5
    THEN = 6
    ELSE = 7
    END = 8
    IF = 9
    ENDIF = 10
    IN = 11
    RESET = 12
    # punctuation and operators, in the order of their lexemes in _PUNCT
    COMMA = 13
    SEMI = 14
    DOT = 15
    LPAREN = 16
    RPAREN = 17
    LBRACKET = 18
    RBRACKET = 19
    EQ = 20
    PLUSEQ = 21
    MINUSEQ = 22
    BANG = 23
    LT = 24
    GT = 25
    LE = 26
    GE = 27
    # literals and names
    STRING = 28
    INT = 29
    IDENT = 30
    EOF = 31


# each keyword's lexeme and kind
KEYWORDS = {
    name.lower(): kind for name, kind in vars(TokenKind).items()
    if name.isupper() and kind < TokenKind.COMMA
}
# each operator's or punctuation mark's lexeme and kind
_PUNCT = dict(zip(", ; . ( ) [ ] == += -= ! < > <= >=".split(),
                  range(TokenKind.COMMA, TokenKind.STRING)))
_FIXED_KINDS = {**KEYWORDS, **_PUNCT}
_BAD = 0xFF  # the kind of a lexeme that one of the pattern's fallbacks took

# Each match is any trivia (blanks, comments), then one lexeme: the only group.
# Trivia is blanks, then comments each followed by blanks: a blank run is one set's repeat.
# Longer operators come before their one-character prefixes.  ``\Z`` gives the
# EOF lexeme "" and keeps the fallbacks from backtracking into trailing trivia.
# The fallbacks take what nothing else accepts as a lexeme that names its fault:
# a string that lacks its closing quote on its line or holds a backslash (EROP has
# no escapes), an unterminated block comment with the rest of the source (which no
# later ``/*`` then rescans), or one illegal character.  Letters and digits are ASCII only.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?://[^\r\n]*|/\*.*?\*/)[ \t\r\n]*)*("
    r"[A-Za-z][A-Za-z0-9_]*"
    f"|{'|'.join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))}"
    r'|"[^"\\\r\n]*"'
    r"|[0-9]+"
    r'|\Z|"[^"\r\n]*|/\*.*|.)',
    re.DOTALL,
)
# Any of \n, \r\n, or \r counts as a single line break.
_LINE_BREAK = re.compile(r"\r\n?|\n")
_CHUNK = 1 << 16  # the characters tokenize scans at once, up to the next line break
# A NamedTuple's generated __new__ is Python code; this builds one from its fields in order.
_new = tuple.__new__


class SourcePos(NamedTuple):
    """1-based line/column plus 0-based character offset."""

    line: int
    col: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class TokenStream:
    """Token ``i`` is ``kinds[i]``, a TokenKind code in a bytes object, and ``lexemes[i]``;
    the last token is EOF, lexeme ``""``, and ``len`` counts it."""

    def __init__(self, kinds: bytes, lexemes: list[str]) -> None:
        self.kinds, self.lexemes = kinds, lexemes

    def __len__(self) -> int:
        return len(self.kinds)


class FrontEndError(Exception):
    """A lexical or syntax error: its ``message``, ``code`` and offending token index ``pos``."""
    code: str  # the diagnostic code, set by each subclass

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos


class LexError(FrontEndError):
    """Lexical error at the token that no kind accepts."""

    code = "E-LEX"


def tokenize(source: str) -> TokenStream:
    """Tokenize EROP source into a TokenStream terminated by EOF.

    Whitespace, ``//`` line comments and ``/* */`` block comments are
    skipped.  Raises LexError for an unterminated string literal, a string
    literal holding a backslash, an unterminated block comment, or an
    illegal character, named from the bad lexeme alone: no offset is computed.

    It scans stretches of about ``_CHUNK`` characters, each cut just after a line
    break, interns each stretch's lexemes and appends their kinds, so one stretch's
    fresh strings live at a time.  Only a block comment spans a line break: a stretch
    whose last lexeme is the unterminated-comment fallback is scanned again at twice
    the length.
    """
    lexemes: list[str] = []
    kinds = io.BytesIO()  # grown in place, and its getvalue() is its buffer, not a copy
    one: dict[str, str] = {}  # each distinct lexeme's first string, which every token shares
    kind_of = _KindOf(_FIXED_KINDS)
    start, end, size = 0, len(source), _CHUNK
    while start < end:
        brk = _LINE_BREAK.search(source, start + size)
        cut = brk.end() if brk else end
        found = _TOKEN_RE.findall(source, start, cut)
        while found and not found[-1]:  # the "" of ``\Z`` at the cut, twice after trivia
            found.pop()
        if cut < end and found and found[-1][:2] == "/*":
            size *= 2
        else:
            lexemes += map(one.setdefault, found, found)
            kinds.write(bytearray(map(kind_of.__getitem__, found)))  # quicker than bytes()
            start, size = cut, _CHUNK
        del found  # before the next stretch is scanned, so one stretch's strings live at a time
    lexemes.append(one.setdefault("", ""))
    kinds.write(bytes((TokenKind.EOF,)))
    kinds = kinds.getvalue()
    bad = kinds.find(_BAD)
    if bad >= 0:
        raise LexError(_bad_token_message(lexemes[bad]), bad)
    return TokenStream(kinds, lexemes)


class _KindOf(dict):
    """Each lexeme's kind: a keyword's and an operator's as given, any other's found on
    its first lookup."""

    def __missing__(self, lexeme: str) -> int:
        if lexeme[0] == '"':  # a fallback string, a lone '"' included, lacks its closing quote
            kind = TokenKind.STRING if len(lexeme) > 1 and lexeme[-1] == '"' else _BAD
        elif lexeme.isascii() and lexeme[0].isalpha():  # 'é'.isalpha() and '²'.isdigit() hold
            kind = TokenKind.IDENT
        else:
            kind = TokenKind.INT if lexeme.isascii() and lexeme.isdigit() else _BAD
        self[lexeme] = kind
        return kind


def positions(source: str, indexes: list[int]) -> list[SourcePos]:
    """The line, column and offset of each token index of ``source``.

    One pass of the tokenizing pattern runs up to the largest index asked for and
    keeps the starts of the indexes asked for, line breaks are scanned up to the
    last of those starts, and each line is then found by bisection.
    """
    if not indexes:
        return []
    wanted, last = set(indexes), max(indexes)
    matches = zip(range(last + 1), _TOKEN_RE.finditer(source))
    starts = {index: m.start(1) for index, m in matches if index in wanted}
    line_starts = [0]
    line_starts.extend(m.end() for m in _LINE_BREAK.finditer(source, 0, starts[last] + 1))
    result = []
    for index in indexes:
        offset = starts[index]
        line = bisect_right(line_starts, offset)
        result.append(_new(SourcePos, (line, offset - line_starts[line - 1] + 1, offset)))
    return result


def _bad_token_message(lexeme: str) -> str:
    """What is wrong with a lexeme that one of the token pattern's fallbacks took."""
    if lexeme[0] == '"':
        return "backslash in string literal" if "\\" in lexeme else "unterminated string literal"
    if lexeme[:2] == "/*":
        return "unterminated block comment"
    return f"illegal character {lexeme!r}"


def string_value(lexeme: str) -> str:
    """Contents of a STRING lexeme without the surrounding quotes."""
    return lexeme[1:-1]
