import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompbleu.syntax import (
    COLLAPSE_INVALID,
    COLLAPSE_NOT_APPLICABLE,
    COLLAPSE_VALID,
    canonical_clause,
    collapse_validity,
    extract_directives,
    parse_source,
    strip_openmp,
)

from conftest import FIXTURES, fixture_text, pragma_soups, token_tokenize


def _parse(code):
    unit = parse_source(code)
    return unit, extract_directives(unit)


def test_fig1_ground_truth_extraction():
    _, dirs = _parse(fixture_text("fig1_gt.c"))
    assert len(dirs) == 1
    d = dirs[0]
    assert d.kinds == ("parallel", "for")
    by_kind = {c.kind: c for c in d.clauses}
    assert set(by_kind) == {"collapse", "private", "reduction", "schedule"}
    assert by_kind["collapse"].collapse_n == 2
    assert by_kind["private"].variables == {"i", "j"}
    assert by_kind["reduction"].reduction_op == "+"
    assert by_kind["reduction"].variables == {"sum"}
    assert by_kind["schedule"].args_ordered[0] == "static"
    assert d.attached_kind == "for_loop"
    assert d.collapse_tag == COLLAPSE_VALID


# Lines are spliced before comments are found (C11 5.1.1.2 phases 2-3): a
# `//` comment that ends in a backslash takes the next line with it.
SPLICED_LINE_COMMENT = (
    "void f(int n, double *a) {\n int i;\n // scale the array \\\n"
    " #pragma omp parallel for\n for (i = 0; i < n; i++) a[i] *= 2;\n}\n"
)


def test_a_line_comment_ending_in_a_splice_hides_the_next_line():
    assert _parse(SPLICED_LINE_COMMENT)[1] == []
    crlf = SPLICED_LINE_COMMENT.replace("\n", "\r\n")
    assert _parse(crlf)[1] == []
    # a backslash inside the comment splices nothing
    moved = SPLICED_LINE_COMMENT.replace("the array \\\n", "the \\ array\n")
    assert len(_parse(moved)[1]) == 1


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_gcc_drops_the_pragma_a_spliced_line_comment_hides(tmp_path):
    source = tmp_path / "probe.c"
    source.write_text(SPLICED_LINE_COMMENT)
    out = subprocess.run(
        ["gcc", "-fopenmp", "-E", "-P", str(source)], capture_output=True, text=True, check=True
    ).stdout
    assert "pragma" not in out and "for (i = 0" in out


# gcc splices a backslash followed by blanks and then a newline, with a
# warning: the comment hides the next line, and the pragma runs on over it.
BLANK_SPLICED_COMMENT = SPLICED_LINE_COMMENT.replace("the array \\\n", "the array \\ \t\n")
BLANK_SPLICED_PRAGMA = (
    "void f(int n, double *a) {\n int i;\n #pragma omp parallel \\ \n for\n"
    " for (i = 0; i < n; i++) a[i] *= 2;\n}\n"
)


def test_a_splice_may_hold_blanks_before_its_newline():
    assert _parse(BLANK_SPLICED_COMMENT)[1] == []
    assert _parse(BLANK_SPLICED_COMMENT.replace("\n", "\r\n"))[1] == []
    (d,) = _parse(BLANK_SPLICED_PRAGMA)[1]
    assert d.kinds == ("parallel", "for")
    assert d.attached_kind == "for_loop"


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_gcc_splices_over_blanks_as_the_extractor_does(tmp_path):
    def pragma_lines(text):
        source = tmp_path / "probe.c"
        source.write_text(text)
        out = subprocess.run(
            ["gcc", "-fopenmp", "-E", "-P", str(source)], capture_output=True, text=True, check=True
        ).stdout
        return [line.split() for line in out.splitlines() if line.startswith("#pragma")]

    assert pragma_lines(BLANK_SPLICED_COMMENT) == []
    assert pragma_lines(BLANK_SPLICED_PRAGMA) == [["#pragma", "omp", "parallel", "for"]]
    assert [["#pragma", "omp", *d.kinds] for d in _parse(BLANK_SPLICED_PRAGMA)[1]] == (
        pragma_lines(BLANK_SPLICED_PRAGMA)
    )


def test_no_pragmas_yields_empty():
    _, dirs = _parse("int main(void) { return 0; }\n")
    assert dirs == []


def test_multiple_directive_nesting_depths():
    _, dirs = _parse(fixture_text("multiple_gt.c"))
    assert len(dirs) == 2
    outer, inner = dirs
    assert outer.kinds == ("parallel", "for")
    assert {c.kind for c in outer.clauses} == {"collapse", "reduction"}
    assert inner.kinds == ("critical",)
    assert inner.ast_depth > outer.ast_depth


def test_non_omp_pragmas_excluded():
    _, dirs = _parse("#pragma once\n#pragma GCC ivdep\n#pragma omp barrier\n")
    assert len(dirs) == 1
    assert dirs[0].kinds == ("barrier",)


def test_omp_marker_is_case_sensitive_by_default():
    unit = parse_source("#pragma OMP parallel\n{ }\n")
    assert extract_directives(unit) == []


def test_critical_name_clause():
    _, dirs = _parse("#pragma omp critical(lock)\n{ x++; }\n")
    clause = dirs[0].clause_of("critical-name")
    assert clause is not None
    assert clause.args_ordered == ("lock",)


def test_atomic_modifier_parsed_as_clause():
    _, dirs = _parse("#pragma omp atomic write\nx = 1;\n")
    assert dirs[0].kinds == ("atomic",)
    assert dirs[0].clause_of("write") is not None


def test_unknown_clause_fallback():
    _, dirs = _parse("#pragma omp parallel frobnicate(x)\n{ }\n")
    unknown = [c for c in dirs[0].clauses if c.kind == "unknown"]
    assert len(unknown) == 1
    assert unknown[0].variables == {"x"}


def test_ordered_after_for_is_a_clause():
    _, dirs = _parse("#pragma omp for ordered\nfor (int i = 0; i < 3; i++) ;\n")
    assert dirs[0].kinds == ("for",)
    assert dirs[0].clause_of("ordered") is not None


# -- normalization ----------------------------------------------------------


def _normalize(code):
    _, dirs = _parse(code)
    return dirs[0]


def test_private_variable_order_does_not_matter():
    a = _normalize("#pragma omp parallel for private(j,i)\nfor (int i=0;i<3;i++) ;\n")
    b = _normalize("#pragma omp parallel for private(i,j)\nfor (int i=0;i<3;i++) ;\n")
    assert a.components == b.components
    assert a.canonical == b.canonical


def test_num_threads_excluded_from_components():
    nd = _normalize("#pragma omp parallel num_threads(8) private(x)\n{ }\n")
    assert nd.components == {"private(x)"}
    assert "num_threads" not in nd.canonical


def test_reduction_operator_distinguishes_components():
    a = _normalize("#pragma omp parallel for reduction(+:s)\nfor (int i=0;i<3;i++) ;\n")
    b = _normalize("#pragma omp parallel for reduction(*:s)\nfor (int i=0;i<3;i++) ;\n")
    assert a.components != b.components


def test_implicit_private_marking():
    nd = _normalize("#pragma omp parallel for private(i)\nfor (i = 0; i < 3; i++) ;\n")
    assert nd.attached_loop.nest_induction_vars == {"i"}
    assert nd.implicit_private == {"private(i)"}
    assert "private(i)" not in nd.ordering_signature
    # not marked when the variables are not loop counters
    nd2 = _normalize("#pragma omp parallel for private(x)\nfor (i = 0; i < 3; i++) ;\n")
    assert nd2.attached_loop.nest_induction_vars == {"i"}
    assert nd2.implicit_private == frozenset()


@given(st.permutations(["i", "j", "k", "m"]))
@settings(max_examples=24, deadline=None)
def test_normalization_permutation_invariant(order):
    base = _normalize("#pragma omp parallel private(i,j,k,m)\n{ }\n")
    shuffled = _normalize(f"#pragma omp parallel private({','.join(order)})\n{{ }}\n")
    assert base.components == shuffled.components


# Oracle: normalization as it ran after extraction, as its own pass over
# each directive with the counters of its attached loop nest.  The fields
# extraction fills in must equal it.


def normalize_oracle(directive):
    """(components, implicit_private, canonical, ordering_signature)."""
    loop = directive.attached_loop
    induction_vars = loop.nest_induction_vars if loop is not None else frozenset()
    components: list[str] = []
    implicit: set[str] = set()
    for clause in directive.clauses:
        comp = canonical_clause(clause)
        if comp is None:
            continue
        components.append(comp)
        if clause.kind == "private" and clause.variables and clause.variables <= induction_vars:
            implicit.add(comp)
    kinds = " ".join(directive.kinds)
    canonical = " ".join([kinds] + sorted(components))
    signature = " ".join([kinds] + sorted(frozenset(components) - implicit))
    return frozenset(components), frozenset(implicit), canonical, signature


def assert_folded_fields_match_oracle(text):
    for d in extract_directives(parse_source(text)):
        folded = (d.components, d.implicit_private, d.canonical, d.ordering_signature)
        assert folded == normalize_oracle(d)


def test_folded_fields_match_the_oracle_on_fixtures():
    for path in sorted(FIXTURES.glob("*.c")):
        assert_folded_fields_match_oracle(path.read_text())


@given(pragma_soups())
@settings(max_examples=200, deadline=None)
def test_folded_fields_match_the_oracle_on_soups(text):
    assert_folded_fields_match_oracle(text)


def test_a_repeated_clause_stays_in_canonical():
    code = "#pragma omp parallel for private(i) reduction(+:s) private(i)\nfor (i=0;i<n;i++) ;\n"
    assert_folded_fields_match_oracle(code)
    d = _normalize(code)
    assert d.components == {"private(i)", "reduction(+:s)"}
    assert d.implicit_private == {"private(i)"}
    assert d.canonical == "parallel for private(i) private(i) reduction(+:s)"
    assert d.ordering_signature == "parallel for reduction(+:s)"


# -- collapse validity ------------------------------------------------------


def test_collapse_valid_on_perfect_nest():
    unit, dirs = _parse(fixture_text("multiple_gt.c"))
    assert dirs[0].collapse_tag == COLLAPSE_VALID


def test_collapse_invalid_when_too_deep():
    code = (
        "#pragma omp parallel for collapse(3)\n"
        "for (int i=0;i<3;i++) { for (int j=0;j<3;j++) { x++; } }\n"
    )
    _, dirs = _parse(code)
    assert dirs[0].collapse_tag == COLLAPSE_INVALID


def test_collapse_not_applicable_without_clause():
    _, dirs = _parse("#pragma omp parallel for\nfor (int i=0;i<3;i++) ;\n")
    assert dirs[0].collapse_tag == COLLAPSE_NOT_APPLICABLE


def test_collapse_on_non_loop_is_invalid():
    _, dirs = _parse("#pragma omp parallel for collapse(2)\nx = 1;\n")
    assert dirs[0].collapse_tag == COLLAPSE_INVALID


@pytest.mark.parametrize("between", ["", "#ifdef X\n#endif\n", "#pragma omp simd\n#define N 4\n"])
def test_pragma_attaches_across_preprocessor_lines(between):
    code = f"#pragma omp parallel for collapse(1)\n{between}for (int i=0;i<n;i++) a[i]=0;\n"
    unit, dirs = _parse(code)
    assert dirs[0].attached_kind == "for_loop"
    assert dirs[0].collapse_tag == COLLAPSE_VALID
    loop = dirs[0].attached_loop
    assert unit.text[loop.byte_offset : loop.end_offset] == "for (int i=0;i<n;i++) a[i]=0;"


@pytest.mark.parametrize("spelling", ["#/* c */pragma", "#\\\npragma", "# /* a\n   b */ pragma"])
def test_layout_between_the_hash_and_the_word_keeps_the_pragma(spelling):
    # blanks, comments and splices before the directive word are layout, as
    # in C (C11 5.1.1.2 phases 2-3)
    code = "#pragma omp parallel for private(j)\nfor (i=0;i<n;i++) a[i]=0;\n#pragma omp barrier\nx;\n"
    moved = code.replace("#pragma", spelling)
    _, dirs = _parse(code)
    unit, moved_dirs = _parse(moved)
    assert [(d.kinds, d.clauses, d.attached_kind) for d in moved_dirs] == [
        (d.kinds, d.clauses, d.attached_kind) for d in dirs
    ]
    # the newlines inside the first `#` token count in the second one's line
    assert [d.line for d in moved_dirs] == [1, 3 + spelling.count("\n")]
    assert strip_openmp(unit) == strip_openmp(parse_source(code))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_collapse_validity_monotone_in_nesting(collapse_n, depth):
    body = "x++;"
    for level in range(depth):
        body = f"for (int v{level} = 0; v{level} < 3; v{level}++) {{ {body} }}"
    code = f"#pragma omp parallel for collapse({collapse_n})\n{body}\n"
    _, dirs = _parse(code)
    tag = dirs[0].collapse_tag
    deeper = f"for (int w = 0; w < 3; w++) {{ {body} }}"
    code2 = f"#pragma omp parallel for collapse({collapse_n})\n{deeper}\n"
    _, dirs2 = _parse(code2)
    if tag == COLLAPSE_VALID:
        assert dirs2[0].collapse_tag == COLLAPSE_VALID


# -- strip ------------------------------------------------------------------


def test_strip_removes_only_pragma_lines():
    unit = parse_source(fixture_text("fig1_gt.c"))
    stripped = strip_openmp(unit)
    assert extract_directives(parse_source(stripped)) == []
    kept = [l for l in unit.text.splitlines() if "#pragma omp" not in l]
    assert stripped.splitlines() == kept


def test_strip_is_identity_on_serial_code():
    code = "int main(void) { return 0; }\n"
    unit = parse_source(code)
    assert strip_openmp(unit) == code


def test_strip_idempotent_on_all_fixtures():
    for path in sorted(FIXTURES.glob("*.c")):
        once = strip_openmp(parse_source(path.read_text()))
        twice = strip_openmp(parse_source(once))
        assert extract_directives(parse_source(once)) == []
        assert twice == once


@given(
    st.lists(
        st.one_of(
            st.sampled_from(
                [
                    "#pragma omp parallel for private(i)",
                    "#pragma omp critical",
                    "#pragma once",
                    "for (int i = 0; i < 3; i++) { x += i; }",
                    "int x = 0;",
                    "/* #pragma omp parallel */",
                    '"#pragma omp parallel"',
                    "} // stray brace",
                ]
            ),
            st.text(alphabet="abc{}();# ", max_size=24),
        ),
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_strip_then_extract_is_empty(lines):
    unit = parse_source("\n".join(lines) + "\n")
    assert extract_directives(parse_source(strip_openmp(unit))) == []


def test_malformed_clause_sets_degraded_flag():
    _, dirs = _parse("#pragma omp parallel for reduction(sum\nfor (int i=0;i<3;i++) ;\n")
    assert dirs[0].degraded


def test_a_bare_omp_pragma_is_an_unknown_degraded_directive():
    _, [d] = _parse("#pragma omp\nint x;\n")
    assert (d.kinds, d.degraded, d.canonical) == (("unknown",), True, "unknown")


def test_commas_between_clauses_are_separators():
    _, [d] = _parse("#pragma omp parallel private(i), shared(a)\n{ }\n")
    assert [(c.kind, c.variables) for c in d.clauses] == [("private", {"i"}), ("shared", {"a"})]
    assert not d.degraded


def test_strip_removes_a_comment_spanning_lines_before_the_pragma():
    # the comment is part of the pragma's logical line, so it goes whole and
    # leaves no unterminated comment behind
    code = "int x;\n/* a\n b */ #pragma omp parallel\nint y;\n"
    stripped = strip_openmp(parse_source(code))
    assert stripped == "int x;\nint y;\n"
    assert [t.lexeme for t in token_tokenize(stripped)] == ["int", "x", ";", "int", "y", ";"]


def test_strip_removes_continuation_lines():
    code = (
        "int before;\n"
        "#pragma omp parallel for \\\n"
        "    private(i) \\\n"
        "    reduction(+:sum)\n"
        "for (i = 0; i < 3; i++) sum += i;\n"
    )
    unit = parse_source(code)
    stripped = strip_openmp(unit)
    assert extract_directives(parse_source(stripped)) == []
    assert "private" not in stripped
    assert stripped.startswith("int before;\n")
    assert "for (i = 0; i < 3; i++) sum += i;\n" in stripped


REPEATED_LINES = (
    "void f(int n, double *a) {\n"
    "  int i, j, k;\n"
    "#pragma omp parallel for collapse(2) private(i)\n"
    "  for (i = 0; i < n; i++)\n"
    "    for (j = 0; j < n; j++) a[i] += j;\n"
    "#pragma omp parallel for collapse(2) private(i)\n"
    "  for (k = 0; k < n; k++) a[k] = 0;\n"
    "#pragma omp parallel\n"
    "  {\n"
    "    a[0] = 1;\n"
    "  }\n"
    "#pragma omp parallel\n"
    "  a[1] = 2;\n"
    "}\n"
)


def test_a_repeated_line_shares_only_its_parsed_body():
    # each repeat of a line is placed on its own: attachment, collapse tag
    # and counter marks follow the construct after it, as when it is the
    # only pragma line of the text
    unit, dirs = _parse(REPEATED_LINES)
    assert [(d.collapse_tag, d.implicit_private, d.attached_kind) for d in dirs] == [
        (COLLAPSE_VALID, {"private(i)"}, "for_loop"),
        (COLLAPSE_INVALID, frozenset(), "for_loop"),
        (COLLAPSE_NOT_APPLICABLE, frozenset(), "block"),
        (COLLAPSE_NOT_APPLICABLE, frozenset(), "statement"),
    ]
    for d in dirs:
        # every other pragma line blanked, its bytes and newlines kept
        text = REPEATED_LINES
        for other in dirs:
            if other is not d:
                lo, hi = other.byte_offset, other.byte_offset + len(other.raw_text)
                text = text[:lo] + " " * (hi - lo) + text[hi:]
        assert _parse(text)[1] == [d]
    assert dirs[0].attached_loop.nesting_depth == 2 and dirs[1].attached_loop.nesting_depth == 1
    assert dirs[2].construct_span != dirs[3].construct_span
