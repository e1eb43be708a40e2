"""One tokenization per source: the work per pair, and the token-slice bags.

The scorer cuts every code text it compares (loop contexts, constructs, the
whole unit) from the token stream of the unit it analysed.  The oracle below
is the path that re-lexed the pragma-stripped text of each span instead.
"""

from hypothesis import given, settings

from ompbleu.config import EvalConfig
from ompbleu.metrics import analyze, ompbleu_score
from ompbleu.report import DatasetRecord, evaluate_dataset
from ompbleu.similarity import SparseTokenVector
from ompbleu.syntax import parse_source, strip_openmp
from ompbleu.syntax.directives import attached_construct_span

from conftest import FIXTURES, fixture_text, pragma_soups

NO_COMPILE_CFG = EvalConfig(compile_enabled=False)


def test_one_pair_tokenizes_each_side_once(tokenize_calls):
    ompbleu_score(fixture_text("multiple_gt.c"), fixture_text("multiple_case2.c"), NO_COMPILE_CFG)
    assert len(tokenize_calls) <= 2


def test_dataset_record_tokenizes_each_source_once(tokenize_calls, monkeypatch):
    built = []
    make_backend = EvalConfig.make_backend
    monkeypatch.setattr(
        EvalConfig, "make_backend", lambda self: built.append(1) or make_backend(self)
    )
    record = DatasetRecord(
        id="r",
        reference=fixture_text("multiple_gt.c"),
        candidates=tuple(fixture_text(f"multiple_case{i}.c") for i in range(1, 5)),
    )
    report = evaluate_dataset([record], NO_COMPILE_CFG, jobs=2)
    assert report.classification is not None
    assert len(tokenize_calls) <= 5
    assert len(built) == 1


def _stripped(text: str) -> str:
    return strip_openmp(parse_source(text))


def _assert_slices_match_relexing(source: str) -> None:
    side = analyze(source)
    assert side.code.text == source
    assert side.code.vector == SparseTokenVector.from_code(source)
    spans = []
    for d in side.directives:
        if d.attached_loop is not None:
            spans.append((d.attached_loop.byte_offset, d.attached_loop.end_offset))
        span = attached_construct_span(side.unit, d)
        if span is not None:
            spans.append(span)
    for lo, hi in spans:
        expected = _stripped(source[lo:hi])
        code = side.stripped((lo, hi))
        assert code.text == expected, (lo, hi)
        assert code.vector == SparseTokenVector.from_code(expected), (lo, hi)


def test_slices_match_relexing_on_every_fixture():
    for path in sorted(FIXTURES.glob("*.c")):
        _assert_slices_match_relexing(path.read_text())


def test_slices_match_relexing_after_a_comment_spanning_lines():
    source = (
        "void f(int n, double *a) {\n"
        "#pragma omp parallel\n"
        "  {\n"
        "    /* a\n"
        "       b */ #pragma omp for\n"
        "    for (int i = 0; i < n; i++)\n"
        "      a[i] = 0;\n"
        "  }\n"
        "}\n"
    )
    _assert_slices_match_relexing(source)
    assert analyze(source).stripped((0, len(source))).text == _stripped(source)


@given(pragma_soups())
@settings(max_examples=300, deadline=None)
def test_slices_match_relexing_on_pragma_soups(source):
    _assert_slices_match_relexing(source)


def test_construct_keeps_the_units_lexing_of_a_leading_hash():
    # A comment keeps the line start, so after one `#` opens a directive in
    # the unit just as in the text alone, and the pragma before that
    # directive line governs no construct.
    side = analyze("#pragma omp single\n/* c */ # x;\n")
    assert attached_construct_span(side.unit, side.directives[0]) is None
    assert [(t.lexeme, t.kind) for t in side.unit.code[-2:]] == [
        ("# x", "preprocessor"),
        (";", "punctuation"),
    ]
    assert SparseTokenVector.from_code("/* c */ # x;").counts == {"# x": 1, ";": 1}
    assert SparseTokenVector.from_code("# x;").counts == {"# x": 1, ";": 1}
