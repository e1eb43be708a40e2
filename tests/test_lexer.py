import bisect
import random
import re
import shutil
import string
import subprocess
from collections.abc import Iterable
from itertools import chain, compress, takewhile
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompbleu.syntax import parse_source, strip_openmp, tokenize
from ompbleu.syntax.directives import directive_line_spans
from ompbleu.syntax.lexer import (
    _MULTI_CHAR_OPERATORS,
    _RE_PREPROC,
    KEYWORDS,
    RE_LAYOUT,
    CodeTokens,
    Token,
    newline_tokens,
)

from conftest import FIXTURES, fixture_text, pragma_soups, token_tokenize


def stream(text: str) -> list[Token]:
    """The full token stream of ``text``, layout included."""
    return list(parse_source(text).tokens)


def code_of(tokens: Iterable[Token]) -> list[Token]:
    """The code tokens of a stream: those that are not layout."""
    return [t for t in tokens if t.kind not in ("whitespace", "comment")]


def test_empty_input_yields_no_tokens():
    assert tokenize("") == CodeTokens([], [], [], [], [])
    assert stream("") == []


def test_pragma_line_tokenization():
    toks = [t for t in stream("#pragma omp parallel for") if t.kind != "whitespace"]
    assert len(toks) == 4
    assert toks[0].kind == "preprocessor"
    assert toks[0].lexeme == "#pragma"
    assert [t.lexeme for t in toks[1:]] == ["omp", "parallel", "for"]
    assert all(t.in_directive for t in toks[1:])


def test_hand_lexed_statement():
    toks = [t for t in stream("sum+=i;") if t.kind != "whitespace"]
    assert [t.lexeme for t in toks] == ["sum", "+=", "i", ";"]
    assert [t.kind for t in toks] == ["identifier", "punctuation", "identifier", "punctuation"]


def test_round_trip_on_fixtures():
    for path in sorted(FIXTURES.glob("*.c")):
        unit = parse_source(path.read_text())
        assert unit.detokenize() == unit.text
        assert_matches_oracle(unit.text)


def test_offsets_strictly_increasing():
    unit = parse_source(fixture_text("multiple_gt.c"))
    offsets = [t.byte_offset for t in unit.tokens]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)


def test_comments_and_strings_classified():
    code = '// line\n/* block */ "str" \'c\' 42 0x1f 3.5e2\n'
    kinds = {t.lexeme: t.kind for t in stream(code) if t.kind != "whitespace"}
    assert kinds["// line"] == "comment"
    assert kinds["/* block */"] == "comment"
    assert kinds['"str"'] == "string"
    assert kinds["'c'"] == "string"
    assert kinds["42"] == "number"
    assert kinds["0x1f"] == "number"
    assert kinds["3.5e2"] == "number"


def test_pragma_not_recognized_mid_line():
    toks = stream("int x; #pragma omp parallel\n")
    assert all(t.kind != "preprocessor" for t in toks)


def test_pragma_inside_comment_or_string_ignored():
    code = '/* #pragma omp x */ const char *s = "#pragma omp y";\n'
    toks = stream(code)
    assert all(t.kind != "preprocessor" for t in toks)


# Lines are spliced before tokens are formed (C11 5.1.1.2 phases 2-3), so a
# string or character literal runs on over a splice, blanks before the
# newline included, as gcc reads it.
SPLICED_LITERALS = (
    'const char *s = "scale \\\n the array";\n'
    'const char *t = "a \\ \t\r\n b";\n'
    "char c = '\\\nx';\n"
)


def test_a_literal_runs_on_over_a_line_splice():
    lexemes = tokenize(SPLICED_LITERALS).lexemes
    literals = [x for x in lexemes if x[0] in "\"'"]
    assert literals == ['"scale \\\n the array"', '"a \\ \t\r\n b"', "'\\\nx'"]
    assert lexemes.count(";") == 3


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_gcc_reads_the_spliced_literals_the_lexer_reads(tmp_path):
    source = tmp_path / "probe.c"
    source.write_bytes(SPLICED_LITERALS.encode())
    out = subprocess.run(
        ["gcc", "-fopenmp", "-E", "-P", str(source)], capture_output=True, text=True, check=True
    ).stdout
    lexed = [_RE_LINE_SPLICE.sub("", x) for x in tokenize(SPLICED_LITERALS).lexemes if x[0] in "\"'"]
    assert lexed == re.findall(r'"[^"]*"|\'[^\']*\'', out) == ['"scale  the array"', '"a  b"', "'x'"]


def test_line_continuation_stays_in_directive():
    code = "#pragma omp parallel \\\n    private(i)\nint x;\n"
    toks = stream(code)
    priv = next(t for t in toks if t.lexeme == "private")
    assert priv.in_directive
    declared = next(t for t in toks if t.lexeme == "int")
    assert not declared.in_directive


def test_line_numbers():
    unit = parse_source("a\nbb\nccc\n")
    by_lex = {t.lexeme: t.line for t in unit.tokens if t.kind == "identifier"}
    assert by_lex == {"a": 1, "bb": 2, "ccc": 3}


# Edge cases at the ends of the text: nothing, only layout, and a text that
# ends in an unterminated comment, a splice, a `\r` or a lone `#`.
EDGE_TEXTS = ("", " \t\n\f\v\n", "x /* c\n", "x; //", "x \\", "x \\\n", "x;\r", "x;\n#", "#")


def edge_examples(test):
    for text in EDGE_TEXTS:
        test = example(text)(test)
    return test


@given(st.text(alphabet=string.printable, max_size=300))
@edge_examples
@settings(max_examples=300, deadline=None)
def test_round_trip_property(text):
    tokens = stream(text)
    assert "".join(t.lexeme for t in tokens) == text
    assert_matches_oracle(text)
    # the stream's code tokens are the oracle's, and token_index indexes them
    unit = parse_source(text)
    code = code_of(tokens)
    assert code == token_tokenize(text)
    code_offsets = [t.byte_offset for t in code]
    for offset in range(len(text) + 1):
        assert unit.token_index(offset) == bisect.bisect_left(code_offsets, offset)


@given(st.text(max_size=120))
@settings(max_examples=150, deadline=None)
def test_round_trip_arbitrary_unicode(text):
    assert "".join(t.lexeme for t in stream(text)) == text
    assert_matches_oracle(text)


@given(st.one_of(pragma_soups(), st.text()))
@edge_examples
@settings(max_examples=300, deadline=None)
def test_columns_and_layout_gaps_rebuild_the_text(text):
    # annotate and corrupt cut the layout between the code tokens from the text
    unit = parse_source(text)
    ends = [unit.token_end(i) for i in range(len(unit.lexemes))]
    gaps = [text[lo:hi] for lo, hi in zip([0, *ends], [*unit.starts, len(text)])]
    assert "".join(chain.from_iterable(zip(gaps, [*unit.lexemes, ""]))) == text
    assert [text[start:end] for start, end in zip(unit.starts, ends)] == unit.lexemes
    assert all("".join(RE_LAYOUT.findall(gap)) == gap for gap in gaps)  # layout alone
    # a line head is the first token or one whose layout holds a newline token
    starts_a_line = [
        i == 0 or bool(newline_tokens(text, lo, hi))
        for i, (lo, hi) in enumerate(zip([0, *ends], unit.starts))
    ]
    assert unit.heads == list(compress(range(len(unit.lexemes)), starts_a_line))


# Oracle: the rule-by-rule scanner that tries each regex in turn at each
# position, sharing only the keyword, operator and directive tables with the
# lexer.  A unit's full stream must be the oracle's field for field.

# a splice may hold blanks between its backslash and newline, as gcc reads it
_RE_LINE_SPLICE = re.compile(r"\\[ \t\f\v]*\r?\n")
_RE_HORIZONTAL_WS = re.compile(r"[ \t\r\f\v]+")
# a `//` comment runs on over line splices (C11 5.1.1.2 phases 2-3)
_RE_LINE_COMMENT = re.compile(r"//(?:\\[ \t\f\v]*\r?\n|[^\n])*")
_RE_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_RE_UNTERMINATED_BLOCK_COMMENT = re.compile(r"/\*.*", re.DOTALL)
# a string or character literal runs on over line splices too
_RE_STRING = re.compile(r'"(?:\\[ \t\f\v]*\r?\n|\\.|[^"\\\n])*"?')
_RE_CHAR = re.compile(r"'(?:\\[ \t\f\v]*\r?\n|\\.|[^'\\\n])*'?")
_RE_NUMBER = re.compile(
    r"(?:0[xX][0-9a-fA-F]+|0[bB][01]+|\d+\.\d*(?:[eE][+-]?\d+)?"
    r"|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
)
_RE_WORD = re.compile(r"[A-Za-z_]\w*")


def oracle_tokenize(text: str) -> list[tuple[str, str, int, int, bool]]:
    """Try each rule in turn at each position; one tuple per token."""
    tokens = []
    pos = 0
    line = 1
    at_line_start = True
    in_directive = False
    n = len(text)

    def emit(lexeme: str, kind: str, directive_flag: bool) -> None:
        nonlocal pos, line
        tokens.append((lexeme, kind, pos, line, directive_flag))
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
            # a comment stands for a space (C11 5.1.1.2 phase 3): it keeps
            # the line start
            emit(m.group(), "comment", in_directive)
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


def assert_matches_oracle(text: str) -> None:
    fields = [(t.lexeme, t.kind, t.byte_offset, t.line, t.in_directive) for t in stream(text)]
    assert fields == oracle_tokenize(text)


C_FRAGMENTS = (
    "#", "##", "#pragma omp", "#define X", " # include", "\\\n", "\\\r\n", "\\",
    "\r", "\n", "\n\n", " ", "\t", "\f", "/*", "*/", "/* c */", "//", "/", "*",
    '"', "'", '\\"', "\\'", "...", ".", ".5", "3.", "1e-3", "0x1F", "0b101", "42uL",
    "<<=", "->*", "->", ".*", "::", "=", "<", ">", "-", "+", "(", ")", "{", "}",
    ";", ",", "int", "for", "x", "_y1", "parallel", "²", "٣", "é", "omp", "# pragma",
)


def oracle_pragma_lines(text: str) -> list[tuple[int, int]]:
    """Byte extent of each `#pragma omp` line in the oracle's stream: from
    the `#` through the last token before the newline that ends the line."""
    tokens = oracle_tokenize(text)
    spans = []
    for i, (lexeme, kind, offset, _, _) in enumerate(tokens):
        word = re.sub(r"(?s:/\*.*?\*/)|\\\r?\n|[#\s]", "", lexeme)
        if kind != "preprocessor" or word != "pragma":
            continue
        rest = list(takewhile(itemgetter(4), tokens[i + 1 :]))  # up to the newline
        code = [t for t in rest if t[1] not in ("whitespace", "comment")]
        if code and code[0][0] == "omp":
            spans.append((offset, rest[-1][2] + len(rest[-1][0])))
    return spans


@given(st.lists(st.sampled_from(C_FRAGMENTS), max_size=60).map("".join))
@example("/* c */ #pragma omp for /* c */ \\\n x\n y /**/ # z\n")  # a comment keeps the line start
@example("#define S(a) #a ## b ### c\n#\t if\n")  # `#` and `##` inside a directive
@example("int x;\n/* a\n b */ #pragma omp parallel\nint y;\n")  # a comment spanning lines
@example(" /* c */ #define X")  # the first code token, after inline layout
@example("x \\\n#y")  # a `#` after only a splice is mid-line
@example("x;\r\n#pragma omp for\r\n")  # a `\r\n` line end
@example("#/* a\n b */pragma omp for\n# \\\npragma omp x /**/\n#/* c */ 1\n")  # layout before the word
@edge_examples
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_oracle_on_c_fragments(text):
    assert_matches_oracle(text)
    # the stream's code tokens are the oracle's, and the pragma lines read
    # from the columns have the oracle's byte extents
    unit = parse_source(text)
    code = code_of(unit.tokens)
    fields = [(t.lexeme, t.kind, t.byte_offset, t.line, t.in_directive) for t in code]
    assert fields == [t for t in oracle_tokenize(text) if t[1] not in ("whitespace", "comment")]
    assert directive_line_spans(unit) == oracle_pragma_lines(text)
    # stripping removes the pragma lines' code tokens and lexes the rest as before
    spans = directive_line_spans(unit)
    kept = [
        (t.lexeme, t.kind, t.in_directive)
        for t in code
        if not any(lo <= t.byte_offset < hi for lo, hi in spans)
    ]
    stripped = code_of(parse_source(strip_openmp(unit)).tokens)
    assert [(t.lexeme, t.kind, t.in_directive) for t in stripped] == kept


def assert_columns_match_token_lexer(text: str) -> None:
    expected = token_tokenize(text)
    columns = tokenize(text)
    assert columns.lexemes == [t.lexeme for t in expected]
    assert columns.starts == [t.byte_offset for t in expected]
    assert columns.in_directive == [t.in_directive for t in expected]
    unit = parse_source(text)
    assert code_of(unit.tokens) == expected
    assert [unit.line(t.byte_offset) for t in expected] == [t.line for t in expected]
    assert [start for start, _ in columns.directive_lines] == [
        i for i, t in enumerate(expected) if t.kind == "preprocessor"
    ]
    in_lines = [False] * len(expected)
    for start, end in columns.directive_lines:
        in_lines[start:end] = [True] * (end - start)
    assert in_lines == [t.in_directive for t in expected]
    assert [unit.token_end(i) for i in range(len(expected))] == [t.end_offset for t in expected]


# Splices, comments that span lines, `#` and `##` mid-line and at line
# starts, CRLF line ends, and first characters outside ASCII.
SOUP_FRAGMENTS = (
    *C_FRAGMENTS, "\\\n", "\\\r\n", "/* a\n b */", "/* \\\n */", "// c \\\n d",
    "// c \\\r\n d", "// c \\", "// c \\ d\n", "\\ \t\n", "// c \\ \r\n d",
    "#pragma", "# /* c\n */ pragma omp for", "#\\\npragma", "x # y", "a ## b",
    "\r\n", "\r\n#", "\n#", "\n  #", "ß", "éx", "\u00a0", "\u2028", "٣x", "'é'", '"\\',
    '"s \\\n t"', "'\\ \r\n'",
)


def test_columns_match_the_token_lexer_on_fixtures():
    for path in sorted(FIXTURES.glob("*.c")):
        assert_columns_match_token_lexer(path.read_text())


def test_columns_match_the_token_lexer_on_seeded_soups():
    rng = random.Random(14)
    for _ in range(5_000):
        fragments = rng.choices(SOUP_FRAGMENTS, k=rng.randrange(40))
        assert_columns_match_token_lexer("".join(fragments))


def test_token_is_immutable():
    tok = Token("x", "identifier", 0, 1)
    with pytest.raises(AttributeError):
        tok.lexeme = "y"
    assert tok == Token("x", "identifier", 0, 1, False)
    assert hash(tok) == hash(Token("x", "identifier", 0, 1))
    assert tok.end_offset == 1
