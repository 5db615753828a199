"""Lexical analysis: turn EROP source text into a token stream."""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from typing import NamedTuple


class TokenKind(enum.Enum):
    # keywords
    ROLEPLAYER = "roleplayer"
    BUSINESSOPERATION = "businessoperation"
    COMPOBLIG = "compoblig"
    RULE = "rule"
    WHEN = "when"
    MATCHES = "matches"
    THEN = "then"
    ELSE = "else"
    END = "end"
    IF = "if"
    ENDIF = "endif"
    IN = "in"
    RESET = "reset"
    # punctuation and operators
    COMMA = ","
    SEMI = ";"
    DOT = "."
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    EQ = "=="
    PLUSEQ = "+="
    MINUSEQ = "-="
    BANG = "!"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    # literals and names
    STRING = "STRING"
    INT = "INT"
    IDENT = "IDENT"
    EOF = "EOF"


# the keywords: the kinds whose value is a lower-case word
KEYWORDS = {kind.value: kind for kind in TokenKind if kind.value.islower()}

# operators and punctuation: the kinds whose value is not a word
_PUNCT = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}
_FIXED_KINDS = {**KEYWORDS, **_PUNCT}
_GROUP_KINDS = {"word": TokenKind.IDENT, "string": TokenKind.STRING, "int": TokenKind.INT}

# Each match is a run of blanks followed by one alternative; ``trivia`` also
# takes blanks so that those at the very end of the source match too.  Longer
# operators come before their one-character prefixes.  Whatever no other
# alternative accepts is caught by ``bad``: an unterminated string or block
# comment, a string holding a backslash (EROP defines no escapes, and the
# string would pass verbatim into an AD string literal), or an illegal
# character.  Letters and digits are ASCII only.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<trivia>[ \t\r\n]+|//[^\r\n]*|/\*.*?\*/)"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    f"|(?P<punct>{'|'.join(map(re.escape, sorted(_PUNCT, key=len, reverse=True)))})"
    r'|(?P<string>"[^"\\\r\n]*")'
    r"|(?P<int>[0-9]+)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
# Any of \n, \r\n, or \r counts as a single line break.
_LINE_BREAK = re.compile(r"\r\n?|\n")
# A string start whose first backslash comes before its closing quote.
_BACKSLASH_STRING = re.compile(r'"[^"\\\r\n]*\\')

# NamedTuple generates a Python-level __new__; tokenize's loop skips it.
_new = tuple.__new__


class SourcePos(NamedTuple):
    """1-based line/column plus 0-based character offset."""

    line: int
    col: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    offset: int  # 0-based character offset of the lexeme's start; see positions()

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r}, {self.offset})"


class LexError(Exception):
    """Lexical error with the offset of the offending character."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos


def tokenize(source: str) -> list[Token]:
    """Tokenize EROP source, returning a token list terminated by EOF.

    Whitespace, ``//`` line comments and ``/* */`` block comments are
    skipped.  Raises LexError for an unterminated string literal, a string
    literal holding a backslash, an unterminated block comment, or an
    illegal character.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "trivia":
            continue
        start = m.start(group)
        text = m.group(group)
        kind = _FIXED_KINDS.get(text) or _GROUP_KINDS.get(group)
        if kind is None:
            raise LexError(_bad_token_message(source, start), start)
        tokens.append(_new(Token, (kind, text, start)))
    tokens.append(Token(TokenKind.EOF, "", len(source)))
    return tokens


def positions(source: str, offsets: list[int]) -> list[SourcePos]:
    """The line and column of each offset into ``source``.

    The line-start table is built once per call, and only for a non-empty
    ``offsets``; each line is then found by bisection.
    """
    if not offsets:
        return []
    line_starts = [0]
    line_starts.extend(m.end() for m in _LINE_BREAK.finditer(source))
    result = []
    for offset in offsets:
        line = bisect_right(line_starts, offset)
        result.append(SourcePos(line, offset - line_starts[line - 1] + 1, offset))
    return result


def _bad_token_message(source: str, start: int) -> str:
    if _BACKSLASH_STRING.match(source, start):
        return "backslash in string literal"
    if source[start] == '"':
        return "unterminated string literal"
    if source.startswith("/*", start):
        return "unterminated block comment"
    return f"illegal character {source[start]!r}"


def string_value(token: Token) -> str:
    """Contents of a STRING token without the surrounding quotes."""
    return token.lexeme[1:-1]
