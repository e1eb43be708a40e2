import re
import shutil
import subprocess
import time
from collections.abc import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ompbleu.config import EvalConfig
from ompbleu.metrics import analyze, ompbleu_score
from ompbleu.syntax import (
    count_decisions,
    directives,
    extract_directives,
    loop_contexts,
    parallel_region_blocks,
    parse_source,
    regions,
)
from ompbleu.syntax.directives import (
    Clause,
    _idents_of,
    _parse_clause,
    _text_of,
    directive_kinds,
)
from ompbleu.syntax.lexer import SourceUnit, Token, line_closers

from conftest import bracket_soups, fixture_text, token_tokenize


def _loops(code):
    return loop_contexts(parse_source(code))


def test_single_loop_program():
    loops = _loops("int main(void){ for (int i=0;i<3;i++) ; return 0; }\n")
    assert len(loops) == 1
    assert loops[0].loop_index == 0
    assert loops[0].nesting_depth == 1
    assert loops[0].induction_vars == {"i"}


def test_two_sibling_loops_indexed_in_source_order():
    code = (
        "void f(void){\n"
        "  for (int a=0;a<3;a++) ;\n"
        "  for (int b=0;b<3;b++) ;\n"
        "}\n"
    )
    loops = _loops(code)
    assert [lp.loop_index for lp in loops] == [0, 1]
    assert loops[0].induction_vars == {"a"}
    assert loops[1].induction_vars == {"b"}


def test_multiple_gt_outer_nesting_depth_two():
    loops = _loops(fixture_text("multiple_gt.c"))
    assert loops[0].nesting_depth == 2
    assert loops[0].nest_induction_vars == {"i", "j"}
    assert loops[1].nesting_depth == 1


def test_imperfect_nest_depth_one():
    code = (
        "void f(void){\n"
        "  for (int i=0;i<3;i++) { x++; for (int j=0;j<3;j++) ; }\n"
        "}\n"
    )
    loops = _loops(code)
    assert loops[0].nesting_depth == 1


def test_inner_index_declaration_allowed_in_perfect_nest():
    code = (
        "void f(void){\n"
        "  for (int i=0;i<3;i++) { int j; for (j=0;j<3;j++) ; }\n"
        "}\n"
    )
    loops = _loops(code)
    assert loops[0].nesting_depth == 2


def test_unterminated_body_runs_to_the_end_of_the_text():
    # the statement after the inner loop breaks the perfect nest whether or
    # not layout follows it
    code = "for (i=0;i<n;i++) {\n for (j=0;j<m;j++) x++;\n y"
    assert [lp.nesting_depth for lp in _loops(code)] == [1, 1]
    assert [lp.nesting_depth for lp in _loops(code + "\n")] == [1, 1]


def test_unbraced_nest_counts():
    loops = _loops("void f(void){ for (int i=0;i<3;i++) for (int j=0;j<3;j++) x++; }\n")
    assert loops[0].nesting_depth == 2


def test_assigned_counter_detected():
    loops = _loops("void f(void){ int i; for (i = 0; i < 3; i++) ; }\n")
    assert loops[0].induction_vars == {"i"}


def test_range_for_counter():
    loops = _loops("void f(void){ for (auto x : v) ; }\n")
    assert loops[0].induction_vars == {"x"}


def test_loop_keyword_in_pragma_is_not_a_loop():
    code = "#pragma omp parallel for\nfor (int i=0;i<3;i++) ;\n"
    loops = _loops(code)
    assert len(loops) == 1


def test_context_text_covers_header_and_body():
    code = "void f(void){ for (int i=0;i<3;i++) { x += i; } }\n"
    loop = _loops(code)[0]
    assert code[loop.byte_offset : loop.end_offset] == "for (int i=0;i<3;i++) { x += i; }"


# -- regions ----------------------------------------------------------------


def _regions(code):
    unit = parse_source(code)
    return parallel_region_blocks(unit, extract_directives(unit))


def brute_force_decisions(block_text: str) -> int:
    """Independent decision counter: regex over comment/string/pragma-free text."""
    text = re.sub(r"/\*.*?\*/", " ", block_text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r'"(\\.|[^"\\])*"', " ", text)
    text = re.sub(r"'(\\.|[^'\\])*'", " ", text)
    text = re.sub(r"#[^\n]*(\\\n[^\n]*)*", " ", text)
    keywords = sum(
        len(re.findall(rf"\b{kw}\b", text)) for kw in ("if", "for", "while", "case")
    )
    return keywords + text.count("&&") + text.count("||")


def test_parallel_for_region_complexity():
    blocks, diags = _regions(
        "#pragma omp parallel for\nfor (int i=0;i<3;i++) { sum += i; }\n"
    )
    assert diags == []
    assert len(blocks) == 1
    assert blocks[0].decision_count == 1
    assert blocks[0].complexity == 2


def test_empty_block_complexity_one():
    blocks, _ = _regions("#pragma omp parallel\n{ }\n")
    assert blocks[0].decision_count == 0
    assert blocks[0].complexity == 1


def test_logical_operators_counted():
    blocks, _ = _regions(
        "#pragma omp parallel\n{ for (int i=0;i<3;i++) { if (a && b) x++; } }\n"
    )
    assert blocks[0].decision_count == 3


def test_misplaced_worksharing_loop_omitted():
    blocks, diags = _regions("#pragma omp parallel for\nx = 1;\n")
    assert blocks == []
    assert len(diags) == 1


def test_strings_and_comments_not_counted():
    blocks, _ = _regions(
        '#pragma omp parallel\n{ s = "if for while"; /* if if */ t = \'&\'; }\n'
    )
    assert blocks[0].decision_count == 0


def test_inner_pragma_tokens_not_counted():
    blocks, _ = _regions(fixture_text("multiple_gt.c"))
    # two loops inside; `parallel for` pragma words must not add decisions
    assert len(blocks) == 1
    assert blocks[0].decision_count == 2


# A preprocessor line's tokens are not part of the code around it (C11
# 6.10): a `}` in a `#define` closes no block, and a `;` on a pragma line
# ends no statement.
DEFINE_IN_REGION = (
    "int f(int n, int x) {\n"
    "#pragma omp parallel\n"
    "  {\n"
    "    if (n > 0) x++;\n"
    "#define CLOSE }\n"
    "    while (n-- && x) x++;\n"
    "  }\n"
    "  return x;\n"
    "}\n"
)


def test_a_brace_in_a_define_closes_no_block():
    blocks, diags = _regions(DEFINE_IN_REGION)
    start = DEFINE_IN_REGION.index("{\n    if")
    end = DEFINE_IN_REGION.index("}\n  return") + 1
    assert diags == []
    assert [(b.byte_offset, b.end_offset) for b in blocks] == [(start, end)]
    # `if`, `while` and `&&`, before and after the `#define`
    assert blocks[0].decision_count == 3


def test_a_semicolon_on_a_pragma_line_ends_no_statement():
    text = "#pragma omp single\nx = y\n#pragma omp barrier;\nz;\n"
    single, barrier = extract_directives(parse_source(text))
    assert single.construct_span == (text.index("x = y"), len(text) - 1)
    assert barrier.construct_span == (text.index("z;"), len(text) - 1)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_gcc_accepts_the_brace_in_a_define(tmp_path):
    source = tmp_path / "probe.c"
    source.write_text(DEFINE_IN_REGION)
    run = subprocess.run(["gcc", "-fopenmp", "-fsyntax-only", str(source)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_decision_count_matches_brute_force_on_fixtures():
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.c")):
        text = path.read_text()
        blocks, _ = _regions(text)
        for block in blocks:
            block_text = text[block.byte_offset : block.end_offset]
            assert block.decision_count == brute_force_decisions(block_text), path.name


# -- the bracket table against the scanners it replaced ---------------------
#
# The scanners below are the ones analysis ran before the bracket table, one
# scan per loop, construct and clause; they stay here as the table's oracle.
# As in C, they read each preprocessor line apart from the code around it.

_OPEN = {"(": ")", "[": "]", "{": "}"}
DECISION_KEYWORDS = frozenset({"if", "for", "while", "case"})
DECISION_OPERATORS = frozenset({"&&", "||"})


def _match_delim(tokens: tuple[Token, ...] | list[Token], start: int) -> int | None:
    """Index of the token closing the delimiter opened at ``start``: on the
    opener's own line if that is a preprocessor line, and among the tokens
    outside preprocessor lines otherwise."""
    opener = tokens[start].lexeme
    closer = _OPEN[opener]
    on_line = tokens[start].in_directive
    depth = 0
    for i in range(start, len(tokens)):
        tok = tokens[i]
        if on_line and (tok.kind == "preprocessor" or not tok.in_directive):
            return None  # the opener's line has ended
        if tok.kind != "punctuation" or tok.in_directive != on_line:
            continue
        if tok.lexeme == opener:
            depth += 1
        elif tok.lexeme == closer:
            depth -= 1
            if depth == 0:
                return i
    return None


def _statement_end(tokens: tuple[Token, ...] | list[Token], start: int) -> int | None:
    """Index of the token terminating the single statement at ``start``,
    among the tokens outside preprocessor lines.

    Returns the index of the closing `;`, or of an unbalanced `}` when the
    statement is cut short by the enclosing block.
    """
    depth = 0
    for i in range(start, len(tokens)):
        tok = tokens[i]
        if tok.kind != "punctuation" or tok.in_directive:
            continue
        if tok.lexeme in "([{":
            depth += 1
        elif tok.lexeme in ")]}":
            if depth == 0:
                return i
            depth -= 1
        elif tok.lexeme == ";" and depth == 0:
            return i
    return None


def _brace_depths(unit: SourceUnit) -> list[int]:
    """Brace nesting depth at each code token (before the token)."""
    depths = []
    depth = 0
    for tok in token_tokenize(unit.text):
        depths.append(depth)
        if tok.kind == "punctuation" and not tok.in_directive:
            if tok.lexeme == "{":
                depth += 1
            elif tok.lexeme == "}":
                depth = max(0, depth - 1)
    return depths


def _count_decisions(unit: SourceUnit, start_offset: int, end_offset: int) -> int:
    """Decision keywords and short-circuit operators in a byte range.

    Comments, strings, and pragma lines never contribute.
    """
    count = 0
    code = token_tokenize(unit.text)
    for tok in code[unit.token_index(start_offset) : unit.token_index(end_offset)]:
        if tok.in_directive:
            continue
        if tok.kind == "keyword" and tok.lexeme in DECISION_KEYWORDS:
            count += 1
        elif tok.kind == "punctuation" and tok.lexeme in DECISION_OPERATORS:
            count += 1
    return count


class _ScanningClosers:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens

    def get(self, i: int, default: int | None = None) -> int | None:
        close = _match_delim(self.tokens, i)
        return default if close is None else close


class ScanningBrackets:
    """The bracket table's lookups answered by the scanners, one scan each."""

    def __init__(self, unit: SourceUnit) -> None:
        self.tokens = token_tokenize(unit.text)
        self.closers = _ScanningClosers(self.tokens)
        self.depths = _brace_depths(unit)

    def statement_end(self, i: int) -> int | None:
        return _statement_end(self.tokens, i)

    def brace_depth(self, i: int) -> int:
        return self.depths[i]


@given(bracket_soups)
@settings(max_examples=300, deadline=None)
def test_bracket_table_matches_the_scanners(text):
    unit = parse_source(text)
    code, brackets = token_tokenize(text), unit.brackets
    # an opener on a preprocessor line is matched on that line alone
    on_lines: dict[int, int] = {}
    for lo, hi in unit.directive_lines:
        on_lines.update(line_closers(unit.lexemes, lo, hi))
    assert not any(code[i].in_directive for i in brackets.closers)
    for i, tok in enumerate(code):
        if tok.lexeme in _OPEN:
            closers = on_lines if tok.in_directive else brackets.closers
            assert closers.get(i) == _match_delim(code, i)
    assert [brackets.statement_end(i) for i in range(len(code) + 1)] == [
        _statement_end(code, i) for i in range(len(code) + 1)
    ]
    assert [brackets.brace_depth(i) for i in range(len(code))] == _brace_depths(unit)


@given(bracket_soups, st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
@settings(max_examples=300, deadline=None)
def test_decision_counts_match_the_scan(text, ends):
    unit = parse_source(text)
    lo, hi = sorted(e % (len(text) + 1) for e in ends)
    assert count_decisions(unit, lo, hi) == _count_decisions(unit, lo, hi)


def _lexemes(tokens: Sequence[Token]) -> list[str]:
    return [t.lexeme for t in tokens]


# The clause parser as it ran before the table: its scanner sees only the
# code tokens after `omp` on the pragma line.
def _parse_words(words: Sequence[Token]) -> tuple[tuple[str, ...], tuple[Clause, ...], bool]:
    """Parse the code tokens after `omp` into directive kinds and clauses."""
    kinds, degraded = directive_kinds(_lexemes(words))
    clauses: list[Clause] = []
    i = len(kinds)

    # `critical(name)` carries its name as a pseudo-clause
    if kinds == ("critical",) and i < len(words) and words[i].lexeme == "(":
        close = _match_delim(words, i)
        if close is not None:
            inner = _lexemes(words[i + 1 : close])
            name = _text_of(inner).replace(" ", "")
            clauses.append(
                Clause(
                    kind="critical-name",
                    raw_text=f"critical({name})",
                    args_ordered=(name,),
                    variables=frozenset(_idents_of(inner)),
                )
            )
            i = close + 1
        else:
            degraded = True
            i = len(words)

    while i < len(words):
        tok = words[i]
        if tok.kind == "punctuation" and tok.lexeme == ",":
            i += 1
            continue
        if tok.kind not in ("identifier", "keyword"):
            degraded = True
            i += 1
            continue
        word = tok.lexeme
        arg_tokens: list[str] | None = None
        j = i + 1
        if j < len(words) and words[j].lexeme == "(":
            close = _match_delim(words, j)
            if close is None:
                degraded = True
                close = len(words)
            arg_tokens = _lexemes(words[j + 1 : close])
            j = close + 1
        raw = word if arg_tokens is None else f"{word}({_text_of(arg_tokens)})"
        clause, bad = _parse_clause(word, arg_tokens, raw)
        degraded = degraded or bad
        clauses.append(clause)
        i = j

    return kinds, tuple(clauses), degraded


def _parse_words_alone(text: str):
    """A body parser that reads the words of ``text``'s pragma lines alone."""
    tokens = token_tokenize(text)
    return lambda lexemes, start, end: _parse_words(tokens[start:end])


def _extracted(unit: SourceUnit):
    found = extract_directives(unit)
    return loop_contexts(unit), found, parallel_region_blocks(unit, found)


@given(bracket_soups)
# a pragma's bracket closed by the first token after its line, or later
@example("#pragma omp critical(\n)")
@example("#pragma omp for private(\n)")
@example("#pragma omp for private(\nx)")
@settings(max_examples=300, deadline=None)
def test_extraction_matches_the_scanners_end_to_end(text):
    scanned = parse_source(text)
    scanned.__dict__["brackets"] = ScanningBrackets(scanned)
    with (
        mock.patch.object(regions, "count_decisions", _count_decisions),
        mock.patch.object(directives, "_parse_directive_body", _parse_words_alone(text)),
    ):
        expected = _extracted(scanned)
    assert _extracted(parse_source(text)) == expected


# -- time against nesting ----------------------------------------------------

NO_COMPILE_CFG = EvalConfig(compile_enabled=False)


def _self_scores_in_time(text: str, budget_s: float) -> None:
    started = time.perf_counter()
    assert ompbleu_score(text, text, NO_COMPILE_CFG).composite == 100.0
    assert time.perf_counter() - started < budget_s


def test_unclosed_loops_self_score_in_linear_time():
    # 20,000 lines, 176 KB: each loop's body runs to the end of the text
    _self_scores_in_time("#pragma omp parallel\n" + "for(;;){\n" * 20_000, 15.0)


def test_deep_loop_nest_self_scores_in_time():
    depth = 400
    loop = "#pragma omp parallel for\nfor (int i{0} = 0; i{0} < n; i{0}++) {{\n"
    text = (
        "void f(int n) {\n"
        + "".join(map(loop.format, range(depth)))
        + "x++;\n"
        + "}\n" * depth
        + "}\n"
    )
    _self_scores_in_time(text, 15.0)


def test_deep_parallel_nest_scores_in_time():
    # the `or` sub-score's LCS and the `pl` bags of 4,000 nested constructs
    depth = 4_000
    block = "#pragma omp parallel\n{\n"
    text = block * depth + "x++;\n" + "}\n" * depth
    _self_scores_in_time(text, 5.0)
    # one clause added halfway down: every other construct keeps its text
    cut = len(block) * (depth // 2)
    edited = text[:cut] + "#pragma omp parallel private(x)\n" + text[cut + len(block) - 2 :]
    started = time.perf_counter()
    assert ompbleu_score(text, edited, NO_COMPILE_CFG).composite < 100.0
    assert time.perf_counter() - started < 5.0


def test_a_run_of_pragma_lines_analyses_in_time():
    # each pragma attaches past the rest of the run, to the closing brace
    text = "void f(void) {\n" + "#pragma omp barrier\n" * 16_000 + "}\n"
    started = time.perf_counter()
    side = analyze(text)
    assert time.perf_counter() - started < 15.0
    assert len(side.directives) == 16_000
