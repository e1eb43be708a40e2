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
from typing import NamedTuple

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

# One alternative per token rule, in priority order, so that each token costs
# one match; ``tokenize`` branches on the name of the group that matched.
_RE_TOKEN = re.compile(
    r"(?P<nl>\n)"
    r"|(?P<ws>\\\r?\n|[ \t\r\f\v]+)"
    r"|(?P<comment>//[^\n]*|(?s:/\*.*?\*/|/\*.*))"
    r"|(?P<hash>#)"
    r'|(?P<string>"(?:\\.|[^"\\\n])*"?' r"|'(?:\\.|[^'\\\n])*'?)"
    r"|(?P<number>(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|(?P<punctuation>" + "|".join(map(re.escape, _MULTI_CHAR_OPERATORS)) + r"|(?s:.))"
)
_RE_PREPROC = re.compile(r"#[ \t]*[A-Za-z_]\w*|#")


class Token(NamedTuple):
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
    """Source text plus its token stream."""

    text: str
    tokens: tuple[Token, ...]

    @cached_property
    def code(self) -> tuple[Token, ...]:
        """The tokens that are neither whitespace nor comments, in order:
        the view every structural reader walks."""
        return tuple(t for t in self.tokens if t.kind not in ("whitespace", "comment"))

    @cached_property
    def offsets(self) -> list[int]:
        """Byte offset of every token of :attr:`code`, in order."""
        return [t.byte_offset for t in self.code]

    def token_index(self, byte_offset: int) -> int:
        """Index into :attr:`code` of the first code token starting at or
        after ``byte_offset``."""
        return bisect.bisect_left(self.offsets, byte_offset)

    def detokenize(self) -> str:
        return "".join(t.lexeme for t in self.tokens)


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens covering every byte exactly once.

    Preprocessor directives are recognized only at the start of a line
    (ignoring leading whitespace); the ``#`` plus directive word form a
    single ``preprocessor`` token and the rest of the logical line, across
    backslash continuations, is flagged ``in_directive``.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without its Python-level __new__
    match = _RE_TOKEN.match
    pos = 0
    line = 1
    # A directive starts only at line start and ends only at a newline, so
    # inside one ``at_line_start`` is always false.
    at_line_start = True
    in_directive = False
    n = len(text)

    while pos < n:
        m = match(text, pos)
        group = m.lastgroup
        lexeme = m.group()
        if group == "ws":
            append(new(Token, (lexeme, "whitespace", pos, line, in_directive)))
            if lexeme[0] == "\\":  # a spliced newline continues the logical line
                line += 1
        elif group == "nl":
            append(new(Token, (lexeme, "whitespace", pos, line, False)))
            line += 1
            at_line_start = True
            in_directive = False
        else:
            if group == "word":
                kind = "keyword" if lexeme in KEYWORDS else "identifier"
            elif group == "hash":
                if at_line_start:
                    lexeme = _RE_PREPROC.match(text, pos).group()
                    kind = "preprocessor"
                    in_directive = True
                else:
                    lexeme = "##" if text.startswith("##", pos) else "#"
                    kind = "punctuation"
            else:
                kind = group  # punctuation, string, number or comment
            append(new(Token, (lexeme, kind, pos, line, in_directive)))
            if kind == "comment":
                line += lexeme.count("\n")
            at_line_start = False
        pos += len(lexeme)

    return tokens


def parse_source(text: str) -> SourceUnit:
    """Tokenize ``text`` into an immutable :class:`SourceUnit`."""
    return SourceUnit(text=text, tokens=tuple(tokenize(text)))
