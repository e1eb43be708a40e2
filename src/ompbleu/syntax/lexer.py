"""Lossless tokenizer for C/C++ source text.

The tokenizer never fails: any byte sequence is split into a token stream
whose concatenated lexemes reproduce the input exactly.  This round-trip
property is what the rest of the toolkit relies on to reason about source
positions, pragma lines, and brace nesting without a full parser.  Bracket
structure comes from one table per unit (:class:`Brackets`), built on first
use from the bracket and `;` tokens outside preprocessor lines; a pragma
line's own brackets are matched on it alone (:func:`line_closers`).

Lexing is one pass that yields the code tokens, the ones that are neither
whitespace nor comments, as three parallel columns: lexemes, start offsets
and directive flags; the same pass keeps the token range of each
preprocessor line and the index of each line head.  The full stream of
:class:`Token` tuples, layout included, is derived from the columns with
the lexer's own rules only where it is asked for (:attr:`SourceUnit.tokens`);
no command asks for it.

A text is lexed in full, in one call (:func:`tokenize`), when it is
lexed at all.  A candidate that differs from its reference only on whole
`#pragma omp` lines is read through its reference's unit instead: only
those lines are lexed (:func:`~.directives.pragma_edit`).

A `#` opens a preprocessor directive when nothing but layout comes before
it on its logical line (C11 5.1.1.2, phases 2-4: a line splice joins two
lines before comments are found, so a `//` comment runs on over a splice,
and a comment counts as a space).  The one match that lexes each
code token decides this, from whether the layout before the token holds a
newline token.
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import add
from typing import NamedTuple

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

# Layout: a newline, a splice or blanks (whitespace), or a comment.  A
# splice is a backslash, then blanks, then a newline: gcc joins the lines
# over the blanks too (with a warning).  Lines are spliced before comments
# are found (C11 5.1.1.2 phases 2-3), so a `//` comment runs on over each
# splice; the loop is unrolled so that a comment with no backslash costs one
# character class.
_INLINE_LAYOUT = (
    r"\\[ \t\f\v]*\r?\n|[ \t\r\f\v]+"
    r"|//[^\n\\]*(?:\\(?:[ \t\f\v]*\r?\n)?[^\n\\]*)*|(?s:/\*.*?\*/|/\*.*)"
)
RE_LAYOUT = re.compile(r"\n|" + _INLINE_LAYOUT)
# A `#` and its directive word.  Blanks, block comments and splices may stand
# between them, as in C (5.1.1.2 phases 2-3, 6.10p5); a comment ends at its
# first `*/`.
_RE_PREPROC = re.compile(r"#(?:[ \t]|\\[ \t\f\v]*\r?\n|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*[A-Za-z_]\w*|#")

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
    r'|"(?:\\[ \t\f\v]*\r?\n|\\.|[^"\\\n])*"?' r"|'(?:\\[ \t\f\v]*\r?\n|\\.|[^'\\\n])*'?"
    r"|(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
    r"|" + "|".join(map(re.escape, _MULTI_CHAR_OPERATORS)) + r"|(?s:.)|\Z)"
)


# The decision points that cyclomatic complexity counts.
DECISION_LEXEMES = frozenset({"if", "for", "while", "case", "&&", "||"})

# The brackets: each closer and its opener.
OPENER_OF = {")": "(", "]": "[", "}": "{"}
OPENERS = frozenset(OPENER_OF.values())
CLOSERS = frozenset(OPENER_OF)
_BRACKETS = OPENERS | CLOSERS | {";"}  # the tokens a bracket pass reads


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


def lexeme_kind(lexeme: str) -> str:
    """The kind of a code token that does not open a preprocessor line: it
    is in the table or else given by the lexeme's first character."""
    return _KIND_OF.get(lexeme) or _KIND_OF_FIRST[lexeme[0]]


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


class CodeTokens(NamedTuple):
    """The code tokens of a text as three parallel columns (lexemes,
    offsets, directive flags), the token range of each preprocessor logical
    line, and the indices of the line heads."""

    lexemes: list[str]
    starts: list[int]  # each token's offset in the text
    in_directive: list[bool]  # True for tokens on a preprocessor logical line
    directive_lines: list[tuple[int, int]]  # [start, end): the `#` token to the next line head
    heads: list[int]  # indices of the tokens that start a logical line


class Brackets:
    """The bracket structure of a unit's code, from its bracket and `;`
    tokens outside preprocessor lines; every index is a code-token index.

    A preprocessor line's tokens are not part of the code around it (C11
    6.10), so no bracket or `;` on one changes a match, a statement end or a
    depth; :func:`line_closers` reads a pragma line's own brackets.
    ``closers`` maps each closed opener to its closer, matched by type.
    """

    def __init__(self, lexemes: list[str], in_directive: list[bool]) -> None:
        found = compress(range(len(lexemes)), map(_BRACKETS.__contains__, lexemes))
        at = [i for i in found if not in_directive[i]]
        open_any: list[int] = []  # indices into ``at``
        any_closers: dict[int, int] = {}
        ends: list[int | None] = [None] * (len(at) + 1)  # statement ends
        depths = [0]  # brace depth after each bracket token
        depth = 0
        for j, i in enumerate(at):
            lexeme = lexemes[i]
            if lexeme in OPENERS:
                open_any.append(j)
                if lexeme == "{":
                    depth += 1
            else:
                ends[j] = i
                if lexeme != ";" and open_any:
                    any_closers[open_any.pop()] = j
                if lexeme == "}" and depth:
                    depth -= 1
            depths.append(depth)
        # from an opener, a statement runs over its group to the end of the
        # statement after it; an unclosed group leaves it unterminated
        for j in sorted(any_closers, reverse=True):
            ends[j] = ends[any_closers[j] + 1]
        self.closers = _closers(lexemes, at)
        self._at = at
        self._ends = ends
        self._depths = depths

    def statement_end(self, i: int) -> int | None:
        """The `;` ending the single statement at ``i``, or the unbalanced
        closer that cuts it short; brackets of any type match."""
        return self._ends[bisect.bisect_left(self._at, i)]

    def brace_depth(self, i: int) -> int:
        """Braces open before ``i``; a surplus `}` leaves the depth at 0."""
        return self._depths[bisect.bisect_left(self._at, i)]


def _closers(lexemes: list[str], at: Iterable[int]) -> dict[int, int]:
    """The closer of each opener among the bracket and `;` tokens ``at``,
    in order, that closes among them, matched by type."""
    closers: dict[int, int] = {}
    open_by_type: dict[str, list[int]] = {opener: [] for opener in OPENERS}
    for i in at:
        lexeme = lexemes[i]
        if lexeme in OPENERS:
            open_by_type[lexeme].append(i)
        elif lexeme != ";" and open_by_type[OPENER_OF[lexeme]]:
            closers[open_by_type[OPENER_OF[lexeme]].pop()] = i
    return closers


def line_closers(lexemes: list[str], lo: int, hi: int) -> dict[int, int]:
    """The closer of each opener among ``lexemes[lo:hi]``, the code tokens
    of one preprocessor line, that closes on the line, matched by type as in
    :class:`Brackets`; a bracket left open there closes nowhere."""
    return _closers(lexemes, compress(range(lo, hi), map(_BRACKETS.__contains__, lexemes[lo:hi])))


@dataclass(frozen=True)
class SourceUnit:
    """Source text plus its code tokens, the ones that are neither
    whitespace nor comments, as the columns of :class:`CodeTokens`."""

    text: str
    lexemes: list[str]
    starts: list[int]
    in_directive: list[bool]
    directive_lines: list[tuple[int, int]]
    heads: list[int]

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        """Every token in order, layout included, by the lexer's own rules:
        the layout between the code tokens is lexed again, a code token that
        opens a preprocessor line is ``preprocessor`` and any other has its
        :func:`lexeme_kind`, and each token's line is :meth:`line` of its
        offset."""
        text, openers = self.text, {start for start, _ in self.directive_lines}
        out: list[Token] = []
        pos, flag = 0, False  # where the layout starts, and its directive flag
        for i, start in enumerate([*self.starts, len(text)]):
            for lexeme in RE_LAYOUT.findall(text, pos, start):
                flag = flag and lexeme != "\n"  # a newline token ends the line
                kind = "comment" if lexeme[0] == "/" else "whitespace"
                out.append(Token(lexeme, kind, pos, self.line(pos), flag))
                pos += len(lexeme)
            if i < len(self.lexemes):
                lexeme, flag = self.lexemes[i], self.in_directive[i]
                kind = "preprocessor" if i in openers else lexeme_kind(lexeme)
                out.append(Token(lexeme, kind, start, self.line(start), flag))
                pos = start + len(lexeme)
        return tuple(out)

    @cached_property
    def brackets(self) -> Brackets:
        return Brackets(self.lexemes, self.in_directive)

    @cached_property
    def decisions(self) -> list[int]:
        """Indices of the decision points outside preprocessor lines among
        the code tokens, in order."""
        flags = self.in_directive
        found = compress(range(len(flags)), map(DECISION_LEXEMES.__contains__, self.lexemes))
        return [i for i in found if not flags[i]]

    @cached_property
    def _newlines(self) -> list[int]:
        return [m.start() for m in re.finditer("\n", self.text)]

    def line(self, offset: int) -> int:
        """The line holding ``offset``: one more than the newlines before it."""
        return 1 + bisect.bisect_left(self._newlines, offset)

    def token_end(self, i: int) -> int:
        """The offset just after code token ``i``."""
        return self.starts[i] + len(self.lexemes[i])

    def token_index(self, byte_offset: int) -> int:
        """Index of the first code token starting at or after
        ``byte_offset``."""
        return bisect.bisect_left(self.starts, byte_offset)

    def detokenize(self) -> str:
        return "".join(t.lexeme for t in self.tokens)


def newline_tokens(text: str, lo: int, hi: int) -> list[int]:
    """Offsets of the newline tokens in the layout ``text[lo:hi]``: a
    newline inside a comment or a splice ends no line."""
    offsets = []
    pos = lo
    for lexeme in RE_LAYOUT.findall(text, lo, hi):
        if lexeme == "\n":
            offsets.append(pos)
        pos += len(lexeme)
    return offsets


def tokenize(text: str) -> CodeTokens:
    """The code tokens of ``text``: every lexeme that is neither whitespace
    nor a comment, in order, with its offset and directive flag, the token
    range of each preprocessor line, and the line heads.

    Preprocessor directives are recognized only at the start of a line
    (after nothing but whitespace and comments); the ``#`` plus directive
    word, with any blanks, comments and splices between them, form a single
    token and the rest of the logical line, across backslash continuations,
    is flagged ``in_directive``.
    """
    # The split gives four items per match: the text between matches, always
    # empty because the token group matches any character, and the groups.
    # The newline put first makes the first code token start a line.
    parts = _RE_CODE.split("\n" + text)
    lexemes = parts[3::4]
    n = lexemes.index("")  # the end-of-text matches come last
    del lexemes[n:]
    # a token starts after the end of the one before it (or the text's start)
    # and its layout
    gap_lens = list(map(len, parts[1 : 4 * n : 4]))
    ends = accumulate(map(add, gap_lens, map(len, lexemes)), initial=-1)
    starts = list(map(add, ends, gap_lens))
    heads = list(compress(range(n), parts[2 : 4 * n : 4]))
    # a line head that is a `#` token opens a directive, which runs to the
    # next line head
    bounds = [*heads, n]
    lines = [(head, end) for head, end in zip(bounds, bounds[1:]) if lexemes[head][0] == "#"]
    flags = [False] * n
    for head, end in lines:
        flags[head:end] = repeat(True, end - head)
    return CodeTokens(lexemes, starts, flags, lines, heads)


def parse_source(text: str) -> SourceUnit:
    """Lex ``text`` into an immutable :class:`SourceUnit`."""
    return SourceUnit(text, *tokenize(text))
