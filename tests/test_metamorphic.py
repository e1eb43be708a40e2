"""Metamorphic relation: layout between tokens never changes a score.

Inserting spaces, tabs, block comments or line splices at token boundaries
of a candidate leaves its code tokens as they were, so every sub-score, the
composite and the diagnostics must stay equal (metamorphic testing, Chen et
al., ACM CSUR 51(1), 2018).  A splice moves the line numbers that
diagnostics print, so those are compared without them.  The compile check
is off: it judges the whole text.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompbleu.config import EvalConfig
from ompbleu.metrics import ompbleu_score
from ompbleu.syntax import parse_source

from conftest import MULTIPLE_CASES, SINGLE_CASES, fixture_text, pragma_soups, token_tokenize

NO_COMPILE_CFG = EvalConfig(compile_enabled=False)
LAYOUT = (" ", "\t", "/* c */", "/**/", "\\\n")

SCALE = (
    "void scale(int n, double *a) {\n"
    "  int i;\n"
    "#pragma omp parallel for\n"
    "  for (i = 0; i < n; i++)\n"
    "    a[i] = 2 * a[i];\n"
    "}\n"
)

FIXTURE_PAIRS = [
    *(("single_gt.c", name) for name in ["single_gt.c", *SINGLE_CASES]),
    *(("multiple_gt.c", name) for name in ["multiple_gt.c", *MULTIPLE_CASES]),
    ("fig1_gt.c", "fig1_gen.c"),
    ("xs_kernel.c", "xs_kernel.c"),
]


@st.composite
def with_layout(draw, source: str) -> str:
    """``source`` with layout inserted before some of its tokens.

    Never before a whitespace token, never after a string, which an
    unterminated literal would extend, nor after `/`, which a comment would
    turn into `//`.
    """
    tokens = parse_source(source).tokens
    boundaries = [
        i
        for i, tok in enumerate(tokens)
        if tok.kind != "whitespace"
        and (i == 0 or (tokens[i - 1].kind != "string" and tokens[i - 1].lexeme != "/"))
    ]
    if not boundaries:
        return source
    inserts = draw(
        st.dictionaries(
            st.sampled_from(boundaries), st.sampled_from(LAYOUT), min_size=1, max_size=12
        )
    )
    return "".join(inserts.get(i, "") + tok.lexeme for i, tok in enumerate(tokens))


def _assert_layout_invariant(reference: str, candidate: str, moved: str) -> None:
    code = [(t.lexeme, t.kind) for t in token_tokenize(candidate)]
    assert [(t.lexeme, t.kind) for t in token_tokenize(moved)] == code
    expected = ompbleu_score(reference, candidate, NO_COMPILE_CFG).as_dict()
    got = ompbleu_score(reference, moved, NO_COMPILE_CFG).as_dict()
    if moved.count("\n") != candidate.count("\n"):  # a splice was inserted
        for breakdown in (expected, got):
            breakdown["diagnostics"] = [re.sub(r"^line \d+:", "line:", d) for d in breakdown["diagnostics"]]
    assert got == expected


@given(st.sampled_from(FIXTURE_PAIRS).flatmap(
    lambda pair: st.tuples(st.just(pair), with_layout(fixture_text(pair[1])))
))
@settings(max_examples=150, deadline=None)
def test_layout_keeps_fixture_scores(case):
    (reference, candidate), moved = case
    _assert_layout_invariant(fixture_text(reference), fixture_text(candidate), moved)


@given(st.tuples(pragma_soups(), pragma_soups()).flatmap(
    lambda pair: st.tuples(st.just(pair), with_layout(pair[1]))
))
@settings(max_examples=300, deadline=None)
def test_layout_keeps_pragma_soup_scores(case):
    (reference, candidate), moved = case
    _assert_layout_invariant(reference, candidate, moved)


@pytest.mark.parametrize("comment", ["/* x */ ", "/* x\n   y */ "])
def test_comment_before_a_pragma_keeps_the_directive(comment):
    # a comment stands for a space (C11 5.1.1.2 phase 3), so the `#` after
    # it still opens the directive
    candidate = SCALE.replace("#pragma", comment + "#pragma")
    assert ompbleu_score(SCALE, candidate, NO_COMPILE_CFG).composite == 100.0


@pytest.mark.parametrize("spelling", ["#/* c */pragma", "#\\\npragma", "#  pragma"])
def test_layout_before_the_directive_word_keeps_the_directive(spelling):
    breakdown = ompbleu_score(SCALE, SCALE.replace("#pragma", spelling), NO_COMPILE_CFG)
    # the bags of `is` count the `#` token as `#` and its directive word,
    # without the layout between them
    assert breakdown.as_dict() == ompbleu_score(SCALE, SCALE, NO_COMPILE_CFG).as_dict()
    assert breakdown.composite == 100.0
