"""Lossless tokenizer for C/C++ source text.

The tokenizer never fails: any byte sequence is split into a token stream
whose concatenated lexemes reproduce the input exactly.  This round-trip
property is what the rest of the toolkit relies on to reason about source
positions, pragma lines, and brace nesting without a full parser.

Lexing is one pass that yields the code tokens, the ones that are neither
whitespace nor comments; the layout between them is lexed again, from the
text, only where the full stream is asked for.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
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

# Layout: a newline, a splice or blanks (whitespace), or a comment.
_LAYOUT = r"\n|\\\r?\n|[ \t\r\f\v]+|//[^\n]*|(?s:/\*.*?\*/|/\*.*)"
_RE_LAYOUT = re.compile(_LAYOUT)
_RE_PREPROC = re.compile(r"#[ \t]*[A-Za-z_]\w*|#")

# One match per code token: the layout before it, then the token, whose
# alternatives are in priority order.  A `#` takes the directive word after
# it (the preprocessor token); ``tokenize`` splits it off again where the
# `#` does not start a line.  The token group always matches, ``\Z`` taking
# the trailing layout, so the greedy layout run never backtracks.
_RE_CODE = re.compile(
    rf"((?:{_LAYOUT})*)({_RE_PREPROC.pattern}"
    r'|"(?:\\.|[^"\\\n])*"?' r"|'(?:\\.|[^'\\\n])*'?"
    r"|(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
    r"|[A-Za-z_]\w*"
    r"|" + "|".join(map(re.escape, _MULTI_CHAR_OPERATORS)) + r"|(?s:.)|\Z)"
)


class _KindOfFirst(dict):
    """Kind of a code token by its first character; a character not listed
    starts a number if it is a decimal digit and punctuation otherwise."""

    def __missing__(self, ch: str) -> str:
        return "number" if ch.isdecimal() else "punctuation"


_KIND_OF_FIRST = _KindOfFirst(
    {
        **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "identifier"),
        **dict.fromkeys("0123456789.", "number"),
        **dict.fromkeys("\"'", "string"),
    }
)
# The lexemes whose first character does not give their kind.
_KIND_OF = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys((".", "...", ".*"), "punctuation")}


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
    """Source text plus its code tokens."""

    text: str
    code: tuple[Token, ...]  # the tokens that are neither whitespace nor comments

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        """Every token in order, layout included: the layout between the
        code tokens is lexed again from the text."""
        text = self.text
        out: list[Token] = []
        append = out.append
        new = tuple.__new__  # builds a Token without its Python-level __new__
        findall = _RE_LAYOUT.findall
        pos = 0
        line = 1
        in_directive = False
        for tok in (*self.code, Token("", "whitespace", len(text), line)):
            hi = tok.byte_offset
            if pos + 1 == hi and text[pos] != "\n":  # one blank: the commonest gap
                append(new(Token, (text[pos], "whitespace", pos, line, in_directive)))
            elif pos < hi:
                for lexeme in findall(text, pos, hi):
                    if lexeme == "\n":
                        append(new(Token, (lexeme, "whitespace", pos, line, False)))
                        line += 1
                        in_directive = False
                    else:
                        kind = "comment" if lexeme[0] == "/" else "whitespace"
                        append(new(Token, (lexeme, kind, pos, line, in_directive)))
                        line += lexeme.count("\n")
                    pos += len(lexeme)
            append(tok)
            pos = hi + len(tok.lexeme)
            line = tok.line
            in_directive = tok.in_directive
        out.pop()  # the end-of-text marker
        return tuple(out)

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


def first_newline(text: str, lo: int, hi: int) -> int:
    """Offset of the first newline token in the layout ``text[lo:hi]``, or
    -1: a newline inside a comment or a splice ends no line."""
    nl = text.find("\n", lo, hi)
    if nl < 0 or (text.find("/", lo, nl) < 0 and text.find("\\", lo, nl) < 0):
        return nl
    pos = lo
    for lexeme in _RE_LAYOUT.findall(text, lo, hi):
        if lexeme == "\n":
            return pos
        pos += len(lexeme)
    return -1


def last_newline(text: str, lo: int, hi: int) -> int:
    """Offset of the last newline token in the layout ``text[lo:hi]``, or
    -1, with the newlines read as :func:`first_newline` reads them."""
    nl = text.rfind("\n", lo, hi)
    if nl < 0 or (text.find("/", lo, hi) < 0 and text.find("\\", lo, hi) < 0):
        return nl
    last = -1
    pos = lo
    for lexeme in _RE_LAYOUT.findall(text, lo, hi):
        if lexeme == "\n":
            last = pos
        pos += len(lexeme)
    return last


def _starts(parts: list[tuple[str, str]]) -> list[int]:
    """Byte offset of each code token from the (layout, lexeme) pairs."""
    return list(accumulate(map(len, chain.from_iterable(parts))))[::2]


def _hash_parts(gap: str, head: str, rest: str) -> list[tuple[str, str]]:
    """(layout, lexeme) pairs of a `#` or `##` that opens no directive,
    then of the blanks and word that ``rest`` holds after it, if any."""
    word = rest.lstrip(" \t")
    return [(gap, head), (rest[: len(rest) - len(word)], word)] if word else [(gap, head)]


def tokenize(text: str) -> list[Token]:
    """The code tokens of ``text``: every lexeme that is neither whitespace
    nor a comment, in order.

    Preprocessor directives are recognized only at the start of a line
    (after nothing but whitespace and comments); the ``#`` plus directive
    word form a single ``preprocessor`` token and the rest of the logical
    line, across backslash continuations, is flagged ``in_directive``.
    """
    parts = _RE_CODE.findall(text)
    while parts and not parts[-1][1]:  # the end-of-text matches
        parts.pop()
    starts = _starts(parts)
    n = len(parts)

    # Settle each `#`: at line start it opens a directive with the word
    # matched after it; elsewhere it is `#` or `##`, and a word after it is
    # its own token.  Edits are (start, stop, replacement pairs).
    directives: list[int] = []  # offsets of the preprocessor tokens
    edits: list[tuple[int, int, list[tuple[str, str]]]] = []
    consumed = -1  # the second `#` of a `##`
    pos = text.find("#")
    while pos >= 0:
        i = bisect.bisect_left(starts, pos)
        if i < n and starts[i] == pos and i > consumed:
            gap, lexeme = parts[i]
            # at line start: no code token before it on its logical line
            # (a comment stands for a space, C11 5.1.1.2 phase 3)
            if i == 0 or first_newline(text, pos - len(gap), pos) >= 0:
                directives.append(pos)
            elif text.startswith("##", pos):
                consumed = i + 1
                edits.append((i, i + 2, _hash_parts(gap, "##", parts[i + 1][1][1:])))
            elif lexeme != "#":
                edits.append((i, i + 1, _hash_parts(gap, "#", lexeme[1:])))
        pos = text.find("#", pos + 1)
    if edits:
        for i, j, replacement in reversed(edits):
            parts[i:j] = replacement
        starts = _starts(parts)
        n = len(parts)

    gaps, lexemes = zip(*parts) if parts else ((), ())
    # a lexeme's kind is in the table or else given by its first character
    first = map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), lexemes))
    kinds = list(map(_KIND_OF.get, lexemes, first))
    # code tokens hold no newline, so a token's line counts the newlines of
    # the layout before it
    lines = accumulate(map(str.count, gaps, repeat("\n")), initial=1)
    next(lines)
    flags = [False] * n
    for pos in directives:
        i = bisect.bisect_left(starts, pos)
        kinds[i] = "preprocessor"
        # the directive runs to the first code token after a newline token
        end = i + 1
        while end < n:
            nl = text.find("\n", starts[end - 1])
            end = n if nl < 0 else bisect.bisect_left(starts, nl, end)
            if end == n:
                break
            if first_newline(text, starts[end - 1] + len(lexemes[end - 1]), starts[end]) >= 0:
                break
            end += 1
        flags[i:end] = repeat(True, end - i)

    new = tuple.__new__  # builds a Token without its Python-level __new__
    return list(map(new, repeat(Token), zip(lexemes, kinds, starts, lines, flags)))


def parse_source(text: str) -> SourceUnit:
    """Lex ``text`` into an immutable :class:`SourceUnit`."""
    return SourceUnit(text=text, code=tuple(tokenize(text)))
