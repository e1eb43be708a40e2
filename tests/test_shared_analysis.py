"""One tokenization per source: the work per pair, and the token-slice bags.

The scorer cuts every code text it compares (loop contexts, constructs, the
whole unit) from the token stream of the unit it analysed.  The oracle below
is the path that re-lexed the pragma-stripped text of each span instead.
"""

import bisect
import contextlib
import json
import tracemalloc
from itertools import compress
from operator import itemgetter, not_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ompbleu.config import EvalConfig
from ompbleu.metrics import analyze, ompbleu_score
from ompbleu.cli import main
from ompbleu.report import DatasetRecord, evaluate_dataset, rank_candidates
from ompbleu.similarity import SparseTokenVector
from ompbleu.syntax import (
    ATTACHED_BLOCK,
    ATTACHED_FOR_LOOP,
    ATTACHED_NONE,
    ATTACHED_STATEMENT,
    Directive,
    loop_contexts,
    parse_source,
    strip_openmp,
)
from ompbleu.syntax.directives import (
    StrippedView,
    attached_construct_span,
    directive_line_spans,
    pragma_edit,
    pragma_line_range,
)
from ompbleu.syntax.lexer import SourceUnit, Token

from conftest import (
    FIXTURES,
    bracket_soups,
    fixture_text,
    perfbench_module,
    pragma_soups,
    token_tokenize,
)

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


def _lexed_lines(reference: str, candidate: str) -> str:
    """What a candidate that differs from its reference only on pragma lines
    is lexed as: those lines alone, then a `#` that must start a line."""
    pairs = zip(reference.split("\n"), candidate.split("\n"))
    return "\n".join([*(new for old, new in pairs if old != new), "#"])


def test_each_candidate_is_lexed_against_its_reference(tokenize_calls, tmp_path):
    gt = fixture_text("multiple_gt.c")
    cases = [fixture_text(f"multiple_case{i}.c") for i in range(1, 5)]
    record = DatasetRecord(id="r", reference=gt, candidates=(*cases, gt))
    rank_candidates(record, NO_COMPILE_CFG)
    # cases 1 and 3 also delete a pragma line, so they are lexed once, in
    # full; cases 2 and 4 only edit one, so only that line is lexed
    assert tokenize_calls == [
        gt,
        cases[0],
        _lexed_lines(gt, cases[1]),
        cases[2],
        _lexed_lines(gt, cases[3]),
    ]

    tokenize_calls.clear()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"compile_enabled": False}))
    for case, lexed in ((cases[0], cases[0]), (cases[1], _lexed_lines(gt, cases[1]))):
        paths = [str(FIXTURES / "multiple_gt.c"), str(tmp_path / "case.c")]
        (tmp_path / "case.c").write_text(case)
        assert main(["--config", str(config), "score", *paths]) == 0
        assert tokenize_calls == [gt, lexed]
        tokenize_calls.clear()


def test_a_code_edit_is_lexed_once_in_full(tokenize_calls):
    # the line count is kept but a code line differs, alone or after an
    # edited pragma line: the gate refuses the candidate before it lexes any
    # line, so the candidate is lexed once, in full
    gt = fixture_text("multiple_gt.c")
    cases = (
        gt.replace("int n = 10;", "int n = 12;"),
        gt.replace("omp critical", "omp atomic").replace("return 0;", "return 1;"),
    )
    rank_candidates(DatasetRecord(id="r", reference=gt, candidates=cases), NO_COMPILE_CFG)
    assert tokenize_calls == [gt, *cases]


def test_a_pragma_only_candidate_builds_no_bracket_table(bracket_builds, tmp_path, capsys):
    # the candidate's brackets, loops and directives are the reference's,
    # moved; only the reference builds a bracket table
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"compile_enabled": False}))
    paths = [str(FIXTURES / name) for name in ("multiple_gt.c", "multiple_case2.c")]
    assert main(["--config", str(config), "score", *paths]) == 0
    assert json.loads(capsys.readouterr().out)["composite"] < 100
    assert bracket_builds == [parse_source(fixture_text("multiple_gt.c")).lexemes]


def _large_pair_files(tmp_path):
    _, _, ref, cand = _GEN.large_pair(1, 0)
    (tmp_path / "ref.c").write_text(ref.text)
    (tmp_path / "cand.c").write_text(cand.text)
    return str(tmp_path / "ref.c"), str(tmp_path / "cand.c")


@pytest.mark.parametrize("pair", ["fixtures", "large-tu"])
def test_a_pragma_only_candidate_derives_its_view_bag_and_decision_points(
    pair, unit_builds, view_builds, bag_builds, decision_scans, bracket_builds,
    dataclass_replaces, tmp_path, capsys,
):
    # the candidate is read through its reference's analysis: only its
    # changed lines are lexed, its stripped spans, decision points and
    # brackets are its reference's, its bag of code tokens is its
    # reference's edited, and its moved directives and loops are copied
    # without dataclasses.replace; through `score` and through `dataset`
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"compile_enabled": False}))
    if pair == "fixtures":
        paths = [str(FIXTURES / name) for name in ("multiple_gt.c", "multiple_case2.c")]
    else:
        paths = _large_pair_files(tmp_path)
    texts = [Path(path).read_text() for path in paths]
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(json.dumps({"id": "r", "reference": texts[0], "candidates": texts[1:]}) + "\n")
    composite = {
        "score": itemgetter("composite"),
        "dataset": lambda out: out["records"][0]["breakdown"]["composite"],
    }
    for argv in (["score", *paths], ["dataset", str(dataset)]):
        for built in (unit_builds, view_builds, bag_builds, decision_scans, bracket_builds):
            built.clear()
        assert main(["--config", str(config), *argv]) == 0
        assert composite[argv[0]](json.loads(capsys.readouterr().out)) < 100
        assert unit_builds == [texts[0], _lexed_lines(*texts)]
        ref, cand = (parse_source(text) for text in texts)
        assert view_builds == [ref.text]
        assert ref.lexemes in bag_builds and cand.lexemes not in bag_builds
        assert decision_scans == [ref.lexemes]
        assert bracket_builds == [ref.lexemes]
        assert dataclass_replaces == []


def _distinct_bodies(reference: str, candidates: list[str]) -> int:
    """How many pragma bodies scoring ``candidates`` against ``reference``
    parses: one per distinct line text of the reference, and for each
    candidate one per distinct text of the lines the reference lacks, or of
    all its lines when it is analysed in full."""
    ref = analyze(reference)
    held = {d.raw_text for d in ref.directives}
    count = len(held)
    for text in candidates:
        cand = analyze(text, like=ref)
        texts = {d.raw_text for d in cand.directives}
        count += len(texts if cand.like is None and cand is not ref else texts - held)
    return count


@pytest.mark.parametrize("command", ["score", "dataset"])
def test_each_distinct_pragma_line_is_parsed_once(command, body_parses, tmp_path, capsys):
    # the full large-tu pair repeats most of its pragma lines; the
    # reference's parsed bodies serve its candidates' equal lines
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"compile_enabled": False}))
    if command == "score":
        paths = _large_pair_files(tmp_path)
        texts = [Path(path).read_text() for path in paths]
        argv = ["score", *paths]
    else:
        # its first candidate is its reference; a code edit is analysed in full
        record = _GEN.static_records(1, 0, FIXTURES)[0]
        texts = [record.reference.text, *(c.text for c in record.candidates)]
        texts.append(texts[1].replace(";", " ;", 1))
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({"id": "r", "reference": texts[0], "candidates": texts[1:]}) + "\n")
        argv = ["dataset", str(dataset)]
    expected = _distinct_bodies(texts[0], texts[1:])
    body_parses.clear()
    assert main(["--config", str(config), *argv]) == 0
    capsys.readouterr()
    assert len(body_parses) == expected
    if command == "score":
        assert expected < len(analyze(texts[0]).directives) // 2


def test_scoring_and_strip_build_no_token_tuples():
    # analysis reads the lexeme, offset and directive-flag columns; the
    # full token stream, with its Token tuples, is only a derived view
    for ref, cand in (("multiple_gt.c", "multiple_case3.c"), ("fig1_gt.c", "fig1_gen.c")):
        gt, gen = analyze(fixture_text(ref)), analyze(fixture_text(cand))
        breakdown = ompbleu_score(gt, gen, NO_COMPILE_CFG)
        assert breakdown.composite < 100.0
        for side in (gt, gen):
            assert "tokens" not in side.unit.__dict__
    unit = parse_source(fixture_text("multiple_gt.c"))
    assert strip_openmp(unit) != unit.text
    assert "tokens" not in unit.__dict__


def test_a_deep_nest_self_pair_holds_no_copy_of_each_stripped_span():
    # each of the 2,000 nested constructs is compared by its bounds; its
    # stripped text is cut only while the backend compares it
    depth = 2_000
    text = "#pragma omp parallel\n{\n" * depth + "x++;\n" + "}\n" * depth
    tracemalloc.start()
    try:
        assert ompbleu_score(text, text, NO_COMPILE_CFG).composite == 100.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 15_000_000


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
        span = attached_construct_span(d)
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
    assert attached_construct_span(side.directives[0]) is None
    assert [(t.lexeme, t.kind) for t in token_tokenize(side.unit.text)[-2:]] == [
        ("# x", "preprocessor"),
        (";", "punctuation"),
    ]
    assert SparseTokenVector.from_code("/* c */ # x;").counts == {"#x": 1, ";": 1}
    assert SparseTokenVector.from_code("# x;").counts == {"#x": 1, ";": 1}


# -- oracles: each pragma line cut and attached per span ----------------------
#
# The code below is what analysis ran before the stripped view and the
# construct spans found at extraction: every span walked the cuts inside
# it, and every construct was found again from the end of its pragma line,
# stepping over any run of pragma lines one token at a time.


def _kept_ranges(
    cuts: list[tuple[int, int]] | tuple[tuple[int, int], ...], lo: int, hi: int
) -> list[tuple[int, int]]:
    """The parts of [lo, hi) outside the sorted ``cuts`` that start in it."""
    kept: list[tuple[int, int]] = []
    pos = lo
    for cut_lo, cut_hi in cuts[bisect.bisect_left(cuts, lo, key=itemgetter(0)) :]:
        if cut_lo >= hi:
            break
        kept.append((pos, cut_lo))
        pos = min(max(pos, cut_hi), hi)
    kept.append((pos, hi))
    return kept


def stripped_slice(
    unit: SourceUnit, pragma_lines: tuple[tuple[int, int], ...], lo: int, hi: int
) -> tuple[str, list[Token]]:
    """``unit.text[lo:hi]`` without its OpenMP pragma lines, and its code
    tokens.

    ``pragma_lines`` are the unit's :func:`pragma_line_range` spans in
    source order.  For a span that starts and ends on token boundaries with
    a code token first, the text equals ``strip_openmp`` of the span's text
    parsed alone, and the tokens, cut from the unit's code tokens, have the
    lexemes and kinds of that text's code tokens.
    """
    kept = _kept_ranges(pragma_lines, lo, hi)
    text = "".join(unit.text[a:b] for a, b in kept)
    code = token_tokenize(unit.text)
    tokens = [t for a, b in kept for t in code[unit.token_index(a) : unit.token_index(b)]]
    return text, tokens


def _strip_openmp(unit: SourceUnit) -> str:
    text = unit.text
    cuts = [pragma_line_range(unit, lo, hi) for lo, hi in directive_line_spans(unit)]
    return "".join(text[a:b] for a, b in _kept_ranges(cuts, 0, len(text)))


def _skip_to_code(tokens: list[Token], start: int) -> int:
    """Index of the first of the code ``tokens`` at or after ``start`` that
    lies outside any preprocessor line; ``len(tokens)`` if there is none."""
    i = start
    while i < len(tokens) and tokens[i].in_directive:
        i += 1
    return i


def _attachment(unit: SourceUnit, end: int):
    """(attached_kind, attached_loop) of the pragma line whose code tokens
    end before ``end``."""
    tokens = token_tokenize(unit.text)
    loops_by_offset = {lp.byte_offset: lp for lp in loop_contexts(unit)}
    # attachment: next code token after this and any other preprocessor line
    k = _skip_to_code(tokens, end)
    lexeme = tokens[k].lexeme if k < len(tokens) else None
    attached_loop = loops_by_offset.get(tokens[k].byte_offset) if lexeme == "for" else None
    if attached_loop is not None:
        attached_kind = ATTACHED_FOR_LOOP
    elif lexeme is None or lexeme == "}":
        attached_kind = ATTACHED_NONE
    elif lexeme == "{":
        attached_kind = ATTACHED_BLOCK
    else:
        attached_kind = ATTACHED_STATEMENT
    return attached_kind, attached_loop


def _attached_construct_span(
    unit: SourceUnit, directive: Directive, diagnostics: list[str] | None = None
) -> tuple[int, int] | None:
    """Byte span of the construct a directive governs, if parsable.

    When there is none, the reason is appended to ``diagnostics``.
    """
    if directive.attached_kind == ATTACHED_FOR_LOOP and directive.attached_loop is not None:
        return (directive.attached_loop.byte_offset, directive.attached_loop.end_offset)
    problem = "no construct follows pragma"
    if directive.attached_kind in (ATTACHED_BLOCK, ATTACHED_STATEMENT):
        tokens = token_tokenize(unit.text)
        idx = _skip_to_code(tokens, unit.token_index(directive.byte_offset + len(directive.raw_text)))
        if idx < len(tokens):
            block = tokens[idx].lexeme == "{"
            end = unit.brackets.closers.get(idx) if block else unit.brackets.statement_end(idx)
            if end is not None:
                return (tokens[idx].byte_offset, tokens[end].end_offset)
            problem = "unbalanced block after pragma" if block else "unterminated statement after pragma"
    if diagnostics is not None:
        diagnostics.append(f"line {directive.line}: {problem}")
    return None


# Runs of pragma lines with other preprocessor lines between them, and
# closers on pragma lines, which close no bracket opened before them.
PRAGMA_RUN_LINES = [
    "#pragma omp barrier", "#pragma omp parallel", "#pragma omp single }",
    "#pragma omp critical(x) ;", "#pragma omp for private(i) )", "#pragma omp task ]",
    "/* c */ #pragma omp for", "#pragma omp parallel for \\\n  collapse(2) }",
    "#define M(a) { a; }", "#define N \\\n  (x", "#ifdef X", "#endif",
    "for (i = 0; i < n; i++)", "for (;;) {", "{", "}", "x;", "f(a[i]);", "",
]

pragma_runs = st.lists(st.sampled_from(PRAGMA_RUN_LINES), max_size=30).map("\n".join)


@given(
    st.one_of(pragma_soups(), bracket_soups, pragma_runs),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=5),
)
# a closer on a pragma line, which closes no construct; other preprocessor
# lines in a run
@example("{\n#pragma omp single\n{ x;\n#pragma omp barrier }\ny; }\n", [])
@example("#pragma omp single\n#define M }\n#pragma omp for\n#ifdef X\nx; }\n", [])
@example("f(\n#pragma omp parallel\n#pragma omp barrier )\ny;", [])
@settings(max_examples=500, deadline=None)
def test_cuts_and_attachments_match_the_oracles(text, draws):
    side = analyze(text)
    unit, view = side.unit, side.stripped_view
    assert strip_openmp(unit) == _strip_openmp(unit)
    pragma_lines = tuple(
        pragma_line_range(unit, d.byte_offset, d.byte_offset + len(d.raw_text))
        for d in side.directives
    )

    spans = []
    for d in side.directives:
        end = unit.token_index(d.byte_offset + len(d.raw_text))
        assert (d.attached_kind, d.attached_loop) == _attachment(unit, end)
        found: list[str] = []
        expected: list[str] = []
        span = attached_construct_span(d, found)
        assert span == _attached_construct_span(unit, d, expected)
        assert found == expected
        spans += [span] if span else []
        if d.attached_loop is not None:
            spans.append((d.attached_loop.byte_offset, d.attached_loop.end_offset))

    # any span on token boundaries whose two ends lie outside the cuts
    code = token_tokenize(text)
    bounds = sorted({0, len(text), *(t.byte_offset for t in code), *(t.end_offset for t in code)})
    outside = [x for x in bounds if not any(lo < x < hi for lo, hi in pragma_lines)]
    for i, j in draws:
        lo = outside[i % len(outside)]
        ends = [x for x in outside if x >= lo]
        spans.append((lo, ends[j % len(ends)]))

    for lo, hi in spans:
        a, b, first, stop = view.slice(lo, hi)
        text, tokens = stripped_slice(unit, pragma_lines, lo, hi)
        assert view.text[a:b] == text, (lo, hi)
        assert view.lexemes[first:stop] == [t.lexeme for t in tokens], (lo, hi)
        assert view.starts[first:stop] == [t.byte_offset for t in tokens], (lo, hi)


@contextlib.contextmanager
def _checked_slices():
    """Count each :meth:`StrippedView.slice` call and collect every end of
    a span that lies inside one of the view's cuts."""
    slices, inside = [0], []
    original = StrippedView.slice

    def checked(view, lo, hi):
        slices[0] += 1
        ends, removed = view._cut_ends, view._removed
        cuts = [(end - (b - a), end) for end, a, b in zip(ends, removed, removed[1:])]
        inside.extend((x, cut) for x in (lo, hi) for cut in cuts if cut[0] < x < cut[1])
        return original(view, lo, hi)

    with mock.patch.object(StrippedView, "slice", checked):
        yield slices, inside


def _rank_all(records: list[tuple[str, tuple[str, ...]]]) -> None:
    for reference, candidates in records:
        record = DatasetRecord(id="r", reference=reference, candidates=candidates)
        ranked = rank_candidates(record, NO_COMPILE_CFG)
        assert all(rc.breakdown is not None for rc in ranked), [rc.error for rc in ranked]


def test_the_scorer_slices_only_between_the_cuts():
    # every pair of fixtures, and one round of the benchmark's static,
    # compile and large-tu inputs: every span the scorer cuts from a
    # stripped view ends outside its cuts, which is what StrippedView.slice
    # asks of its callers
    records = [(text, tuple(FIXTURE_TEXTS)) for text in FIXTURE_TEXTS]
    for record in [*_GEN.static_records(1, 0, FIXTURES), *_GEN.compile_records(1, 0)]:
        records.append((record.reference.text, tuple(c.text for c in record.candidates)))
    q_ref, q_cand, f_ref, f_cand = _GEN.large_pair(1, 0)
    records += [(q_ref.text, (q_cand.text, q_ref.text)), (f_ref.text, (f_cand.text,))]
    with _checked_slices() as (slices, inside):
        _rank_all(records)
    assert inside == []
    assert slices[0] > 200


@given(st.one_of(pragma_soups(), bracket_soups), st.one_of(pragma_soups(), bracket_soups))
@settings(max_examples=200, deadline=None)
def test_the_scorer_slices_soups_only_between_the_cuts(reference, candidate):
    with _checked_slices() as (_, inside):
        _rank_all([(reference, (candidate, reference))])
    assert inside == []


# -- a candidate that differs only on pragma lines ----------------------------

_GEN = perfbench_module("gen")
FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.glob("*.c"))]
EDIT_SOURCES = [
    *FIXTURE_TEXTS,
    *(record.reference.text for record in _GEN.static_records(1, 0, FIXTURES)),
    _GEN.large_pair(1, 0)[0].text,
]
# brackets, `;`, comments, splices, `#`, blanks before `#`, edits to `omp`
EDIT_PIECES = [
    "(", ")", "[", "]", "{", "}", ";", ",", "/*", "*/", "//", "\\", "\\\n", "#", " ", "\t",
    "\r", "omp", "om", "OMP", "pragma", "x", "private(i)", "reduction(+:s)", "collapse(2)",
    "critical(", "nowait", "/* c */",
]


@st.composite
def pragma_edits(draw) -> tuple[str, str]:
    """A source and a copy with pieces put into, or cut from, a few of its
    lines that hold a `#`, with `\\n` or `\\r\\n` line ends."""
    source = draw(st.one_of(st.sampled_from(EDIT_SOURCES), pragma_soups()))
    if draw(st.booleans()):
        source = source.replace("\n", "\r\n")
    lines = source.split("\n")
    marked = [i for i, line in enumerate(lines) if "#" in line] or [0]
    for i in draw(st.lists(st.sampled_from(marked), max_size=3)):
        line = lines[i]
        at = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, min(3, len(line) - at)))
        lines[i] = line[:at] + draw(st.sampled_from(["", *EDIT_PIECES])) + line[at + cut :]
    return source, "\n".join(lines)


# Each pair is refused by one condition of the gate.
GATE_REFUSALS = [
    # a pragma line inserted, so the line count differs
    ("#pragma omp parallel\n{ x++; }\n", "#pragma omp parallel\n#pragma omp single\n{ x++; }\n"),
    # a code line edited
    ("#pragma omp parallel for\nfor (i = 0; i < n; i++) x++;\n",
     "#pragma omp parallel for\nfor (i = 0; i < n; i++) x--;\n"),
    # a comment before the reference's `#`
    ("/* c */ #pragma omp parallel\n{ x++; }\n", "/* c */ #pragma omp single\n{ x++; }\n"),
    # a reference pragma carried on by a splice, or by a comment
    ("#pragma omp parallel \\\n for\nfor (;;) x++;\n", "#pragma omp parallel\n for\nfor (;;) x++;\n"),
    ("#pragma omp parallel /* a\n b */\n{ x++; }\n", "#pragma omp single\n b */\n{ x++; }\n"),
    # a reference line that is no OpenMP pragma
    ("#pragma GCC ivdep\nfor (;;) x++;\n", "#pragma omp simd\nfor (;;) x++;\n"),
    # a candidate line that is no OpenMP pragma
    ("#pragma omp parallel\n{ x++; }\n", "#pragma GCC parallel\n{ x++; }\n"),
    ("#pragma omp parallel\n{ x++; }\n", "#pragma om parallel\n{ x++; }\n"),
    ("#pragma omp parallel\n{ x++; }\n", "pragma omp parallel\n{ x++; }\n"),
    # a candidate line with no line head
    ("#pragma omp barrier\n{ x++; }\n", "// #pragma omp barrier\n{ x++; }\n"),
    # a candidate line that runs on into the next: a splice, an open
    # comment, a line comment ending in a splice
    ("#pragma omp parallel\n{ x++; }\n", "#pragma omp parallel \\\n{ x++; }\n"),
    ("#pragma omp parallel\n{ x++; }\n", "#pragma omp parallel /*\n{ x++; } */\n"),
    ("#pragma omp parallel\n{ x++; }\n", "#pragma omp parallel // c \\\n{ x++; }\n"),
]
GATE_TAKEN = [
    # a bracket left open, one closed by the wrong type, a surplus closer:
    # a pragma line's brackets match on it alone
    ("#pragma omp for private(i)\nfor (;;) { x++; }\n", "#pragma omp for private(i\nfor (;;) { x++; }\n"),
    ("#pragma omp for private(i)\nfor (;;) { x++; }\n", "#pragma omp for private(i]\nfor (;;) { x++; }\n"),
    ("{\n#pragma omp barrier\nx++; }\n", "{\n#pragma omp barrier }\nx++; }\n"),
    # a reference line whose bracket closes after it: the statement after
    # `single` ends at the surplus `)` on both sides
    ("#pragma omp single\nx = y\n#pragma omp critical(\nfor (;;)) x++;\n",
     "#pragma omp single\nx = y\n#pragma omp critical(a)\nfor (;;)) x++;\n"),
    # a `;` on the line ends no statement
    ("#pragma omp single\nx = y\n#pragma omp barrier;\nz;\n",
     "#pragma omp single\nx = y\n#pragma omp barrier\nz;\n"),
    # blanks and a comment before the candidate's `#`, `\r\n` line ends
    ("#pragma omp parallel for\nfor (;;) x++;\n", "  /* c */ #pragma omp for\nfor (;;) x++;\n"),
    ("{\r\n  #pragma omp for private(i)\r\n  for (;;) x++;\r\n}\r\n",
     "{\r\n  #pragma omp for private(j) nowait\r\n  for (;;) x++;\r\n}\r\n"),
    # the last line, with no newline after it, inside a loop that runs to
    # the end of the text
    ("#pragma omp for\nfor (;;) {\n#pragma omp barrier", "#pragma omp for\nfor (;;) {\n#pragma omp taskwait"),
    # lines whose text the reference holds elsewhere, whose parsed bodies
    # are the reference's: two lines swapped, a line copied onto another,
    # and a bare `#pragma omp` (kind `unknown`, degraded) repeated
    ("#pragma omp parallel for collapse(2) private(i)\nfor (i = 0; i < n; i++)\n for (j = 0; j < n; j++) x++;\n"
     "#pragma omp single\n{ y++; }\n",
     "#pragma omp single\nfor (i = 0; i < n; i++)\n for (j = 0; j < n; j++) x++;\n"
     "#pragma omp parallel for collapse(2) private(i)\n{ y++; }\n"),
    ("#pragma omp parallel for private(i)\nfor (i = 0; i < n; i++) x++;\n#pragma omp barrier\nfor (k = 0; k < n; k++) y++;\n",
     "#pragma omp parallel for private(i)\nfor (i = 0; i < n; i++) x++;\n"
     "#pragma omp parallel for private(i)\nfor (k = 0; k < n; k++) y++;\n"),
    ("#pragma omp\nx++;\n#pragma omp barrier\ny++;\n", "#pragma omp\nx++;\n#pragma omp\ny++;\n"),
]


def _assert_analysed_as_fresh(reference: str, candidate: str) -> bool:
    """``candidate`` analysed against ``reference``'s analysis equals its
    fresh analysis, field by field, and scores the same; returns whether it
    took the pragma-line path."""
    ref = analyze(reference)
    got, fresh = analyze(candidate, like=ref), analyze(candidate)
    assert got == fresh  # text, directives, regions and their diagnostics
    assert ompbleu_score(ref, got, NO_COMPILE_CFG).as_dict() == ompbleu_score(
        ref, fresh, NO_COMPILE_CFG
    ).as_dict()
    assert got.code.vector == fresh.code.vector
    assert all(got.code.vector.counts.values())  # no zero count
    edit = got.like and got.like[1]
    for d in fresh.directives:
        loop = d.attached_loop and (d.attached_loop.byte_offset, d.attached_loop.end_offset)
        for span in filter(None, (attached_construct_span(d), loop)):
            a, b = got.stripped(span), fresh.stripped(span)
            if edit:  # the reference's own code text, at the edit's inverse map
                assert a is ref.stripped((edit.back(span[0]), edit.back(span[1]))), span
            assert a.text == b.text, span
            assert a.lexemes[a.first : a.stop] == b.lexemes[b.first : b.stop], span
    if edit:  # scored and read with no unit of its own
        assert "unit" not in vars(got)
        # ``back`` undoes ``at`` on every code token outside the pragma lines
        code = compress(ref.unit.starts, map(not_, ref.unit.in_directive))
        assert all(edit.back(edit.at(x)) == x for x in code)
    return pragma_edit(candidate, ref.unit, ref.directives) is not None


def _with_examples(pairs):
    def add(test):
        for pair in pairs:
            test = example(pair)(test)
        return test

    return add


@given(pragma_edits())
@_with_examples(GATE_REFUSALS + GATE_TAKEN)
@settings(max_examples=300, deadline=None)
def test_a_pragma_line_edit_is_analysed_as_from_scratch(pair):
    took = _assert_analysed_as_fresh(*pair)
    event("took the pragma-line path" if took else "fell back")


def _pragma_lines_only(reference: str, candidate: str) -> bool:
    """Whether the two texts have as many lines and each line that differs
    is, on both sides, blanks and then the whole text of a directive of the
    text's fresh analysis."""

    def pragma_lines(text: str) -> set[int]:
        lines = text.split("\n")
        return {
            d.line - 1 for d in analyze(text).directives if lines[d.line - 1].lstrip(" \t") == d.raw_text
        }

    old, new = reference.split("\n"), candidate.split("\n")
    changed = {i for i, (a, b) in enumerate(zip(old, new)) if a != b}
    return len(old) == len(new) and changed <= pragma_lines(reference) & pragma_lines(candidate)


def test_the_benchmarks_candidates_are_analysed_as_fresh():
    # every candidate of one round of the static, compile and large-tu
    # inputs; each that differs from its reference only on pragma lines
    # takes the pragma-line path
    pairs = [
        (record.reference.text, candidate.text)
        for record in [*_GEN.static_records(1, 0, FIXTURES), *_GEN.compile_records(1, 0)]
        for candidate in record.candidates
    ]
    q_ref, q_cand, f_ref, f_cand = _GEN.large_pair(1, 0)
    pairs += [(q_ref.text, q_cand.text), (f_ref.text, f_cand.text)]
    taken = [_assert_analysed_as_fresh(*pair) for pair in pairs]
    expected = [_pragma_lines_only(*pair) for pair in pairs]
    assert [t for t, e in zip(taken, expected) if e] == [True] * sum(expected)
    assert sum(expected) > len(pairs) // 2


def test_the_gate_refuses_each_case_and_takes_the_others():
    assert [_assert_analysed_as_fresh(*pair) for pair in GATE_REFUSALS] == [False] * len(GATE_REFUSALS)
    assert all(_assert_analysed_as_fresh(*pair) for pair in GATE_TAKEN)
    # most of the benchmark's kernels and the fixtures' pragma edits take it
    gt = fixture_text("multiple_gt.c")
    assert _assert_analysed_as_fresh(gt, fixture_text("multiple_case2.c"))
    full_ref, full_cand = _GEN.large_pair(1, 0)[2:]
    assert _assert_analysed_as_fresh(full_ref.text, full_cand.text)


# -- any edit, through the same entry point ------------------------------------

TEXT_EDIT_PIECES = ["/*", "*/", "//", "\\\n", '"', "'", "#", "\n#", "\n", " ", "pragma", "1e+", ";", "{"]
STRINGS = 'x = 1;\na = "text";\nb = 1;\nc = 2;\nd = 3;\n'


@st.composite
def edited_texts(draw) -> tuple[str, str]:
    """A text and a copy of it with one span replaced."""
    old = draw(st.one_of(st.sampled_from(FIXTURE_TEXTS), pragma_soups(), st.text()))
    lo = draw(st.integers(0, len(old)))
    hi = draw(st.integers(lo, min(len(old), lo + 24)))
    pieces = st.lists(st.sampled_from(TEXT_EDIT_PIECES), max_size=3).map("".join)
    piece = st.one_of(pieces, st.text(max_size=6))
    return old, old[:lo] + draw(piece) + old[hi:]


@given(edited_texts())
@example(  # an edit inside a block comment
    ("x;\n/* one two three four */\ny;\nz;\nw;\n", "x;\n/* one two */three four */\ny;\nz;\nw;\n")
)
@example(  # a `*/` after a line-start `#` and `/*`: the `#` takes the word after the comment
    (
        "int a = 0;\nint b = 1;\n#/* c pragma omp parallel for\nfor (;;) a++;\nint c = 2;\n",
        "int a = 0;\nint b = 1;\n#/* c */pragma omp parallel for\nfor (;;) a++;\nint c = 2;\n",
    )
)
@example(  # a lone `#` before the edit
    (
        "int a;\n#/* a comment of some length */;\nint b;\nint c;\n",
        "int a;\n#/* a comment of some length */pragma;\nint b;\nint c;\n",
    )
)
@example((STRINGS, STRINGS.replace('"text"', '"te"xt"')))  # an edit that opens a string
@settings(max_examples=400, deadline=None)
def test_any_edit_is_analysed_as_from_scratch(pair):
    # most of these draws are refused by the pragma-line gate and lexed in full
    old, new = pair
    for reference, candidate in ((old, new), (new, old)):
        took = _assert_analysed_as_fresh(reference, candidate)
        event("took the pragma-line path" if took else "fell back")
