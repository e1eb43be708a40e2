import re

from ompbleu.syntax import (
    extract_directives,
    loop_contexts,
    parallel_region_blocks,
    parse_source,
)

from conftest import fixture_text


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


def test_decision_count_matches_brute_force_on_fixtures():
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.c")):
        blocks, _ = _regions(path.read_text())
        for block in blocks:
            assert block.decision_count == brute_force_decisions(block.block_text), path.name
