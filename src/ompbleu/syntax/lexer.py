"""Lossless tokenizer for C/C++ source text.

The tokenizer never fails: any byte sequence is split into a token stream
whose concatenated lexemes reproduce the input exactly.  This round-trip
property is what the rest of the toolkit relies on to reason about source
positions, pragma lines, and brace nesting without a full parser.  Bracket
structure comes from one table per unit (:class:`Brackets`), built on first
use in one stack pass over the bracket and `;` tokens.

Lexing is one pass that yields the code tokens, the ones that are neither
whitespace nor comments; the layout between them is lexed again, from the
text, only where the full stream is asked for.

A `#` opens a preprocessor directive when nothing but layout comes before
it on its logical line (C11 5.1.1.2, phases 3-4: a comment counts as a
space and a line splice joins two lines).  The one match that lexes each
code token decides this, from whether the layout before the token holds a
newline token.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import add, itemgetter
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
_INLINE_LAYOUT = r"\\\r?\n|[ \t\r\f\v]+|//[^\n]*|(?s:/\*.*?\*/|/\*.*)"
_RE_LAYOUT = re.compile(r"\n|" + _INLINE_LAYOUT)
# A `#` and its directive word.  Blanks, block comments and splices may stand
# between them, as in C (5.1.1.2 phases 2-3, 6.10p5); a comment ends at its
# first `*/`.
_RE_PREPROC = re.compile(r"#(?:[ \t]|\\\r?\n|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*[A-Za-z_]\w*|#")

# One match per code token: the layout before it, then the token.  Group 2
# is set when that layout holds a newline token (a capture in a repetition
# keeps its last match), that is, when the token starts its logical line.
# A `#` takes the directive word after it as one preprocessor token only
# there; elsewhere it is `#` or `##`.  The token alternatives are in
# priority order, except that a word comes first because it is the commonest
# and no other alternative starts with a letter or `_`.  The token group
# always matches, ``\Z`` taking the trailing layout, so the greedy layout run
# never backtracks.
_RE_CODE = re.compile(
    rf"((?:(\n)|{_INLINE_LAYOUT})*)("
    r"[A-Za-z_]\w*"
    rf"|(?=#)(?(2)(?:{_RE_PREPROC.pattern})|(?!))"
    r'|"(?:\\.|[^"\\\n])*"?' r"|'(?:\\.|[^'\\\n])*'?"
    r"|(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
    r"|" + "|".join(map(re.escape, _MULTI_CHAR_OPERATORS)) + r"|(?s:.)|\Z)"
)


# The decision points that cyclomatic complexity counts.
DECISION_LEXEMES = frozenset({"if", "for", "while", "case", "&&", "||"})

_BRACKETS = frozenset("()[]{};")
_OPENER_OF = {")": "(", "]": "[", "}": "{"}


class _KindOfFirst(dict):
    """Kind of a code token by its first character; a character not listed
    starts a number if it is a decimal digit and punctuation otherwise."""

    def __missing__(self, ch: str) -> str:
        return "number" if ch.isdecimal() else "punctuation"


# Every ASCII character is listed, so only a non-ASCII first character
# reaches __missing__.
_KIND_OF_FIRST = _KindOfFirst(
    {
        **dict.fromkeys(map(chr, range(128)), "punctuation"),
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


BYTE_OFFSET = itemgetter(2)  # a Token's byte offset, a key for bisecting tokens


class Brackets:
    """The bracket structure of a unit's code tokens, from one stack pass
    over its brackets and `;` tokens; every index is a code-token index.

    ``closers`` maps each closed opener to its closer, matching brackets of
    the opener's type over all code tokens, pragma lines included.
    """

    def __init__(self, code: tuple[Token, ...]) -> None:
        at = list(compress(range(len(code)), map(_BRACKETS.__contains__, map(itemgetter(0), code))))
        closers: dict[int, int] = {}
        open_by_type: dict[str, list[int]] = {"(": [], "[": [], "{": []}  # code indices
        open_any: list[int] = []  # indices into ``at``
        any_closers: dict[int, int] = {}
        ends: list[int | None] = [None] * (len(at) + 1)  # statement ends
        depths = [0]  # brace depth after each bracket token
        depth = 0
        for j, i in enumerate(at):
            lexeme, _, _, _, in_directive = code[i]
            if lexeme in open_by_type:
                open_by_type[lexeme].append(i)
                open_any.append(j)
                if lexeme == "{" and not in_directive:
                    depth += 1
            else:
                ends[j] = i
                if lexeme != ";":
                    stack = open_by_type[_OPENER_OF[lexeme]]
                    if stack:
                        closers[stack.pop()] = i
                    if open_any:
                        any_closers[open_any.pop()] = j
                    if lexeme == "}" and depth and not in_directive:
                        depth -= 1
            depths.append(depth)
        # from an opener, a statement runs over its group to the end of the
        # statement after it; an unclosed group leaves it unterminated
        for j in sorted(any_closers, reverse=True):
            ends[j] = ends[any_closers[j] + 1]
        self.closers = closers
        self._at = at
        self._ends = ends
        self._depths = depths

    def statement_end(self, i: int) -> int | None:
        """The `;` ending the single statement at ``i``, or the unbalanced
        closer that cuts it short; brackets of any type match."""
        return self._ends[bisect.bisect_left(self._at, i)]

    def brace_depth(self, i: int) -> int:
        """Braces open before ``i``, counting only those outside
        preprocessor lines; a surplus `}` leaves the depth at 0."""
        return self._depths[bisect.bisect_left(self._at, i)]


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
            if tok.kind == "preprocessor":  # a splice or a comment may come before its word
                line += tok.lexeme.count("\n")
            in_directive = tok.in_directive
        out.pop()  # the end-of-text marker
        return tuple(out)

    @cached_property
    def brackets(self) -> Brackets:
        return Brackets(self.code)

    @cached_property
    def decisions(self) -> list[int]:
        """Indices of the decision points outside preprocessor lines among
        :attr:`code`, in order."""
        code = self.code
        named = compress(range(len(code)), map(DECISION_LEXEMES.__contains__, map(itemgetter(0), code)))
        return [i for i in named if not code[i].in_directive]

    def token_index(self, byte_offset: int) -> int:
        """Index into :attr:`code` of the first code token starting at or
        after ``byte_offset``."""
        return bisect.bisect_left(self.code, byte_offset, key=BYTE_OFFSET)

    def detokenize(self) -> str:
        return "".join(t.lexeme for t in self.tokens)


def newline_tokens(text: str, lo: int, hi: int) -> list[int]:
    """Offsets of the newline tokens in the layout ``text[lo:hi]``: a
    newline inside a comment or a splice ends no line."""
    offsets = []
    pos = lo
    for lexeme in _RE_LAYOUT.findall(text, lo, hi):
        if lexeme == "\n":
            offsets.append(pos)
        pos += len(lexeme)
    return offsets


def tokenize(text: str) -> list[Token]:
    """The code tokens of ``text``: every lexeme that is neither whitespace
    nor a comment, in order.

    Preprocessor directives are recognized only at the start of a line
    (after nothing but whitespace and comments); the ``#`` plus directive
    word, with any blanks, comments and splices between them, form a single
    ``preprocessor`` token and the rest of the logical line, across
    backslash continuations, is flagged ``in_directive``.
    """
    # the newline put first makes the first code token start a line.  The
    # split gives four items per match: the text between matches, always
    # empty because the token group matches any character, and the groups.
    parts = _RE_CODE.split("\n" + text)
    lexemes = parts[3::4]
    n = lexemes.index("")  # the end-of-text matches come last
    del lexemes[n:]
    gaps = parts[1 : 4 * n : 4]
    newlines = parts[2 : 4 * n : 4]
    # a token starts after the end of the one before it (or of the newline
    # put first) and its layout
    gap_lens = list(map(len, gaps))
    ends = accumulate(map(add, gap_lens, map(len, lexemes)), initial=-1)
    starts = list(map(add, ends, gap_lens))
    # a token's line counts the newlines before it: those of the layout and
    # those of the preprocessor tokens, the only code tokens that can hold one
    newline_counts = list(map(str.count, gaps, repeat("\n")))
    # a lexeme's kind is in the table or else given by its first character
    first = map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), lexemes))
    kinds = list(map(_KIND_OF.get, lexemes, first))
    flags = [False] * n
    # a line head that is a `#` token opens a directive, which runs to the
    # next line head
    heads = [*compress(range(n), newlines), n]
    for head, end in zip(heads, heads[1:]):
        lexeme = lexemes[head]
        if lexeme[0] == "#":
            kinds[head] = "preprocessor"
            flags[head:end] = repeat(True, end - head)
            if head + 1 < n:
                newline_counts[head + 1] += lexeme.count("\n")
    lines = accumulate(newline_counts)

    new = tuple.__new__  # builds a Token without its Python-level __new__
    return list(map(new, repeat(Token), zip(lexemes, kinds, starts, lines, flags)))


def parse_source(text: str) -> SourceUnit:
    """Lex ``text`` into an immutable :class:`SourceUnit`."""
    return SourceUnit(text=text, code=tuple(tokenize(text)))
