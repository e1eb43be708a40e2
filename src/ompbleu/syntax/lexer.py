"""Lossless tokenizer for C/C++ source text.

The tokenizer never fails: any byte sequence is split into a token stream
whose concatenated lexemes reproduce the input exactly.  This round-trip
property is what the rest of the toolkit relies on to reason about source
positions, pragma lines, and brace nesting without a full parser.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property

TOKEN_KINDS = (
    "identifier",
    "keyword",
    "punctuation",
    "number",
    "string",
    "comment",
    "preprocessor",
    "whitespace",
)

# Shared C/C++ keyword inventory.  Only lexeme classification depends on this;
# clause parsing matches raw lexemes, so e.g. `private` being a C++ keyword is
# harmless inside a pragma.
KEYWORDS = frozenset(
    """
    alignas alignof asm auto bool break case catch char char16_t char32_t
    class const constexpr const_cast continue decltype default delete do
    double dynamic_cast else enum explicit export extern false float for
    friend goto if inline int long mutable namespace new noexcept nullptr
    operator private protected public register reinterpret_cast restrict
    return short signed sizeof static static_assert static_cast struct
    switch template this thread_local throw true try typedef typeid typename
    union unsigned using virtual void volatile wchar_t while
    """.split()
)

_MULTI_CHAR_OPERATORS = (
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", ".*", "##",
)

_RE_LINE_SPLICE = re.compile(r"\\\r?\n")
_RE_HORIZONTAL_WS = re.compile(r"[ \t\r\f\v]+")
_RE_LINE_COMMENT = re.compile(r"//[^\n]*")
_RE_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_RE_UNTERMINATED_BLOCK_COMMENT = re.compile(r"/\*.*", re.DOTALL)
_RE_STRING = re.compile(r'"(?:\\.|[^"\\\n])*"?')
_RE_CHAR = re.compile(r"'(?:\\.|[^'\\\n])*'?")
_RE_NUMBER = re.compile(
    r"(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
)
_RE_WORD = re.compile(r"[A-Za-z_]\w*")
_RE_PREPROC = re.compile(r"#[ \t]*[A-Za-z_]\w*|#")


@dataclass(frozen=True)
class Token:
    """One lexeme with its classification and source position."""

    lexeme: str
    kind: str
    byte_offset: int
    line: int
    in_directive: bool = False  # True for tokens on a preprocessor logical line

    @property
    def end_offset(self) -> int:
        return self.byte_offset + len(self.lexeme)


@dataclass(frozen=True)
class SourceUnit:
    """Source text plus its token stream and line index."""

    text: str
    tokens: tuple[Token, ...]
    line_starts: tuple[int, ...]

    @cached_property
    def offsets(self) -> list[int]:
        """Byte offset of every token, in order."""
        return [t.byte_offset for t in self.tokens]

    def token_index(self, byte_offset: int) -> int:
        """Index of the first token starting at or after ``byte_offset``."""
        return bisect.bisect_left(self.offsets, byte_offset)

    def line_of(self, byte_offset: int) -> int:
        """1-based line number containing ``byte_offset``."""
        return bisect.bisect_right(self.line_starts, byte_offset)

    def code_tokens(self) -> list[Token]:
        """Tokens that carry code: no whitespace, no comments."""
        return [t for t in self.tokens if t.kind not in ("whitespace", "comment")]

    def detokenize(self) -> str:
        return "".join(t.lexeme for t in self.tokens)


def _line_starts(text: str) -> tuple[int, ...]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return tuple(starts)


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens covering every byte exactly once.

    Preprocessor directives are recognized only at the start of a line
    (ignoring leading whitespace); the ``#`` plus directive word form a
    single ``preprocessor`` token and the rest of the logical line, across
    backslash continuations, is flagged ``in_directive``.
    """
    tokens: list[Token] = []
    pos = 0
    line = 1
    at_line_start = True
    in_directive = False
    n = len(text)

    def emit(lexeme: str, kind: str, directive_flag: bool) -> None:
        nonlocal pos, line
        tokens.append(Token(lexeme, kind, pos, line, directive_flag))
        line += lexeme.count("\n")
        pos += len(lexeme)

    while pos < n:
        ch = text[pos]

        if ch == "\n":
            emit("\n", "whitespace", False)
            at_line_start = True
            in_directive = False
            continue

        m = _RE_LINE_SPLICE.match(text, pos)
        if m:
            # A spliced newline continues the current logical line.
            emit(m.group(), "whitespace", in_directive)
            continue

        m = _RE_HORIZONTAL_WS.match(text, pos)
        if m:
            emit(m.group(), "whitespace", in_directive)
            continue

        if ch == "/" and pos + 1 < n and text[pos + 1] in "/*":
            m = _RE_LINE_COMMENT.match(text, pos) or _RE_BLOCK_COMMENT.match(
                text, pos
            ) or _RE_UNTERMINATED_BLOCK_COMMENT.match(text, pos)
            emit(m.group(), "comment", in_directive)
            at_line_start = False
            continue

        if ch == "#" and at_line_start and not in_directive:
            m = _RE_PREPROC.match(text, pos)
            emit(m.group(), "preprocessor", True)
            in_directive = True
            at_line_start = False
            continue

        if ch == '"':
            m = _RE_STRING.match(text, pos)
            emit(m.group(), "string", in_directive)
            at_line_start = False
            continue

        if ch == "'":
            m = _RE_CHAR.match(text, pos)
            emit(m.group(), "string", in_directive)
            at_line_start = False
            continue

        m = _RE_NUMBER.match(text, pos)
        if m and (ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit())):
            emit(m.group(), "number", in_directive)
            at_line_start = False
            continue

        m = _RE_WORD.match(text, pos)
        if m:
            word = m.group()
            kind = "keyword" if word in KEYWORDS else "identifier"
            emit(word, kind, in_directive)
            at_line_start = False
            continue

        for op in _MULTI_CHAR_OPERATORS:
            if text.startswith(op, pos):
                emit(op, "punctuation", in_directive)
                break
        else:
            emit(ch, "punctuation", in_directive)
        at_line_start = False

    return tokens


def parse_source(text: str) -> SourceUnit:
    """Tokenize ``text`` into an immutable :class:`SourceUnit`."""
    return SourceUnit(text=text, tokens=tuple(tokenize(text)), line_starts=_line_starts(text))
