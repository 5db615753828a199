"""Lexical analysis: turn EROP source text into a token stream."""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import NamedTuple


class TokenKind:
    """Plain str constants, faster to load than enum members; tokenize gives
    each token the very object defined here, so kinds compare with ``is``."""

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


_KINDS = [kind for name, kind in vars(TokenKind).items() if name.isupper()]
# the keywords: the kinds that are a lower-case word
KEYWORDS = {kind: kind for kind in _KINDS if kind.islower()}

# operators and punctuation: the kinds that are not a word
_PUNCT = {kind: kind for kind in _KINDS if not kind.isalpha()}
_FIXED_KINDS = {**KEYWORDS, **_PUNCT, "": TokenKind.EOF}

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
    """Parallel lists: token ``i`` is ``kinds[i]`` (a TokenKind constant) and
    ``lexemes[i]``; the last token is EOF, lexeme ``""``, and ``len`` counts it."""

    def __init__(self, kinds: list[str], lexemes: list[str]) -> None:
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
    break, and interns each stretch's lexemes, so one stretch's fresh strings live at
    a time.  Only a block comment spans a line break: a stretch whose last lexeme is
    the unterminated-comment fallback is scanned again at twice the length.
    """
    lexemes: list[str] = []
    one: dict[str, str] = {}  # each distinct lexeme's first string, which every token shares
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
            start, size = cut, _CHUNK
    lexemes.append(one.setdefault("", ""))
    kind_of = {lexeme: _FIXED_KINDS.get(lexeme) or _kind(lexeme) for lexeme in one}
    kinds = list(map(kind_of.__getitem__, lexemes))
    if None in kind_of.values():
        bad = kinds.index(None)
        raise LexError(_bad_token_message(lexemes[bad]), bad)
    return TokenStream(kinds, lexemes)


def _kind(lexeme: str) -> str | None:
    """The kind of a lexeme that is no keyword, operator or EOF; None for a bad one."""
    if lexeme[0] == '"':  # a fallback string, a lone '"' included, lacks its closing quote
        return TokenKind.STRING if len(lexeme) > 1 and lexeme[-1] == '"' else None
    if lexeme.isascii() and lexeme[0].isalpha():  # 'é'.isalpha() and '²'.isdigit() are true
        return TokenKind.IDENT
    return TokenKind.INT if lexeme.isascii() and lexeme.isdigit() else None


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
