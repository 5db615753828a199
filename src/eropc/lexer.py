"""Lexical analysis: turn EROP source text into a token stream."""

from __future__ import annotations

import enum
import re
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


KEYWORDS = {
    kind.value: kind
    for kind in (
        TokenKind.ROLEPLAYER,
        TokenKind.BUSINESSOPERATION,
        TokenKind.COMPOBLIG,
        TokenKind.RULE,
        TokenKind.WHEN,
        TokenKind.MATCHES,
        TokenKind.THEN,
        TokenKind.ELSE,
        TokenKind.END,
        TokenKind.IF,
        TokenKind.ENDIF,
        TokenKind.IN,
        TokenKind.RESET,
    )
}

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
    pos: SourcePos

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r}, {self.pos})"


class LexError(Exception):
    """Lexical error with the position of the offending character."""

    def __init__(self, message: str, pos: SourcePos) -> None:
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
    line_starts = [0]
    line_starts.extend(m.end() for m in _LINE_BREAK.finditer(source))
    line_starts.append(len(source) + 1)  # sentinel: no token starts at or after it
    line, line_start, next_start = 1, 0, line_starts[1]
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "trivia":
            continue
        start = m.start(group)
        while start >= next_start:  # tokens come in order: walk the line table
            line += 1
            line_start, next_start = next_start, line_starts[line]
        pos = _new(SourcePos, (line, start - line_start + 1, start))
        text = m.group(group)
        kind = _FIXED_KINDS.get(text) or _GROUP_KINDS.get(group)
        if kind is None:
            raise LexError(_bad_token_message(source, start), pos)
        tokens.append(_new(Token, (kind, text, pos)))
    end = len(source)  # on the last line, which starts at line_starts[-2]
    tokens.append(
        Token(TokenKind.EOF, "", SourcePos(len(line_starts) - 1, end - line_starts[-2] + 1, end))
    )
    return tokens


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
