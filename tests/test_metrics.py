import math

import pytest
from hypothesis import given, settings

from ompbleu.config import EvalConfig
from ompbleu.metrics import (
    SUBSCORE_WEIGHTS,
    ClauseWeightTable,
    MetricWeights,
    analyze,
    compose,
    cyclomatic_ratio,
    integrated_semantic_score,
    ompbleu_score,
    ordering_score,
    pragma_location_score,
    redundancy_coverage_score,
    variable_usage_score,
    weighted_clause_score,
)
from ompbleu.similarity import BagOfTokensBackend

from conftest import MULTIPLE_CASES, SINGLE_CASES, fixture_text, pragma_soups, requires_compiler

# (gt, case) -> exact WC, VU, OR, RC, CC, PL cells of the metric-evaluation
# study; these are crisp rationals reproduced exactly.
GOLDEN_CELLS = {
    ("single_gt.c", "single_case1.c"): (1 / 6, 4 / 5, 0.0, 0.5, 0.0, 0.0),
    ("single_gt.c", "single_case2.c"): (5 / 6, 4 / 5, 0.0, 0.5, 0.0, 0.0),
    ("single_gt.c", "single_case3.c"): (1 / 6, 4 / 5, 0.0, 0.5, 1.0, 1.0),
    ("single_gt.c", "single_case4.c"): (5 / 6, 4 / 5, 1.0, 1.0, 1.0, 1.0),
    ("multiple_gt.c", "multiple_case1.c"): (1 / 6, 5 / 6, 0.0, 0.5, 1.0, 0.5),
    ("multiple_gt.c", "multiple_case2.c"): (1 / 6, 5 / 6, 0.5, 0.5, 1.0, 1.0),
    ("multiple_gt.c", "multiple_case3.c"): (5 / 6, 5 / 6, 0.0, 0.5, 1.0, 0.5),
    ("multiple_gt.c", "multiple_case4.c"): (5 / 6, 5 / 6, 0.5, 0.5, 1.0, 1.0),
}

BACKEND = BagOfTokensBackend()
TABLE = ClauseWeightTable()


def _static_cells(gt_name, gen_name):
    gt = analyze(fixture_text(gt_name))
    gen = analyze(fixture_text(gen_name))
    return (
        weighted_clause_score(gt.directives, gen.directives, TABLE),
        variable_usage_score(gt.directives, gen.directives),
        ordering_score(gt.directives, gen.directives),
        redundancy_coverage_score(gt.directives, gen.directives),
        cyclomatic_ratio(gt.regions, gen.regions),
        pragma_location_score(gt, gen, BACKEND),
    )


@pytest.mark.parametrize("pair", sorted(GOLDEN_CELLS))
def test_golden_sub_score_cells(pair):
    got = _static_cells(*pair)
    expected = GOLDEN_CELLS[pair]
    for name, g, e in zip(("wc", "vu", "or", "rc", "cc", "pl"), got, expected):
        assert g == pytest.approx(e, abs=1e-9), f"{pair[1]} {name}: {g} != {e}"


def test_wc_table_defaults():
    assert TABLE.weight_of("reduction(+:sum)") == 5.0
    assert TABLE.weight_of("private(i)") == 1.0


def test_wc_superset_scores_one():
    gt = analyze("#pragma omp parallel for private(i)\nfor (i=0;i<3;i++) ;\n")
    gen = analyze(
        "#pragma omp parallel for private(i) schedule(static)\nfor (i=0;i<3;i++) ;\n"
    )
    assert weighted_clause_score(gt.directives, gen.directives, TABLE) == 1.0


def test_wc_empty_reference_is_anchored_to_one():
    gt = analyze("#pragma omp barrier\n")
    gen = analyze("#pragma omp parallel private(x)\n{ }\n")
    assert weighted_clause_score(gt.directives, gen.directives, TABLE) == 1.0


def test_wc_monotone_in_removed_clauses():
    gt = analyze(fixture_text("fig1_gt.c"))
    full = "#pragma omp parallel for collapse(2) private(i,j) reduction(+:sum) schedule(static)"
    loop = "\nfor (i = 0; i < 3; ++i) { for (j = 0; j < 3; ++j) sum += 1; }\n"
    current = weighted_clause_score(
        gt.directives, analyze(full + loop).directives, TABLE
    )
    for dropped in ("collapse(2) ", "private(i,j) ", "reduction(+:sum) ", "schedule(static)"):
        weaker = analyze(full.replace(dropped, "") + loop)
        assert weighted_clause_score(gt.directives, weaker.directives, TABLE) <= current


def test_vu_variable_order_irrelevant():
    gt = analyze("#pragma omp parallel private(i,j)\n{ }\n")
    gen = analyze("#pragma omp parallel private(j,i)\n{ }\n")
    assert variable_usage_score(gt.directives, gen.directives) == 1.0


def test_vu_identical_sides():
    gt = analyze(fixture_text("multiple_gt.c"))
    assert variable_usage_score(gt.directives, gt.directives) == 1.0


def test_vu_never_compares_num_threads():
    loop = "for (i=0;i<3;i++) ;\n"
    gt = analyze("#pragma omp parallel for private(i) num_threads(4)\n" + loop)
    gen = analyze("#pragma omp parallel for private(i) num_threads(8)\n" + loop)
    diags = []
    assert variable_usage_score(gt.directives, gen.directives, diags) == 1.0
    assert diags == []


def test_rc_extra_clause_penalty_monotone():
    gt = analyze("#pragma omp parallel for private(i)\nfor (i=0;i<3;i++) ;\n")
    base = analyze("#pragma omp parallel for private(i)\nfor (i=0;i<3;i++) ;\n")
    extra = analyze(
        "#pragma omp parallel for private(i) schedule(static)\nfor (i=0;i<3;i++) ;\n"
    )
    more = analyze(
        "#pragma omp parallel for private(i) schedule(static) collapse(1)\n"
        "for (i=0;i<3;i++) ;\n"
    )
    r0 = redundancy_coverage_score(gt.directives, base.directives)
    r1 = redundancy_coverage_score(gt.directives, extra.directives)
    r2 = redundancy_coverage_score(gt.directives, more.directives)
    assert r0 == 1.0
    assert r0 > r1 > r2


def test_rc_empty_reference_conventions():
    empty = analyze("int main(void){return 0;}\n")
    noisy = analyze("#pragma omp parallel private(x)\n{ }\n")
    assert redundancy_coverage_score(empty.directives, empty.directives) == 1.0
    diags = []
    assert redundancy_coverage_score(empty.directives, noisy.directives, diags) == 0.0
    assert diags


def test_cc_mean_ratio():
    gt = analyze("#pragma omp parallel\n{ for (int i=0;i<3;i++) ; }\n")
    gen = analyze(
        "#pragma omp parallel\n{ for (int i=0;i<3;i++) if (i && x) { while (x) x--; } }\n"
    )
    # complexities: 2 vs 5
    assert cyclomatic_ratio(gt.regions, gen.regions) == pytest.approx(2 / 5)


_IDENTICAL_LOOP = "for (int i=0;i<3;i++) { body(); }"


def _sibling_loops(pragma_before: int, count: int) -> str:
    # textually identical loops in sibling scopes so only the index differs
    lines = ["void f(void){"]
    for pos in range(count):
        if pos == pragma_before:
            lines.append("#pragma omp parallel for")
            lines.append(_IDENTICAL_LOOP)
        else:
            lines.append("{ " + _IDENTICAL_LOOP + " }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_pl_loop_index_penalty():
    first = analyze(_sibling_loops(0, 2))
    second = analyze(_sibling_loops(1, 2))
    for gt, gen, drift in ((first, second, "0 vs 1"), (second, first, "1 vs 0")):
        diags = []
        score = pragma_location_score(gt, gen, BACKEND, diags)
        # identical context, loop index drift of 1: cosine 1 times penalty 0.5
        assert score == pytest.approx(0.5)
        assert diags == [f"loop index drift {drift} (penalty 0.50)"]


def test_pl_two_position_drift_zeroes_contribution():
    gt = analyze(_sibling_loops(0, 3))
    gen = analyze(_sibling_loops(2, 3))
    assert pragma_location_score(gt, gen, BACKEND) == pytest.approx(0.0)


def test_pl_vacuous_when_no_pragmas():
    plain = analyze("int main(void){return 0;}\n")
    assert pragma_location_score(plain, plain, BACKEND) == 1.0


# a worksharing loop over a macro loop: the pragma attaches to no `for`
MACRO_LOOP = (
    "void f(int n) {\n"
    "  int t;\n"
    "  #pragma omp parallel for private(t)\n"
    "  FOR_EACH(i, n) { t = i; }\n"
    "}\n"
)


def test_pl_unattached_on_both_sides_compares_constructs():
    b = ompbleu_score(MACRO_LOOP, MACRO_LOOP, EvalConfig(compile_enabled=False))
    assert b.scores["pl"] == 1.0
    assert b.composite == 100.0
    assert "pl" not in b.diagnostics


def test_pl_unattached_on_one_side_scores_zero_and_says_which():
    attached = MACRO_LOOP.replace("FOR_EACH(i, n)", "for (int i = 0; i < n; i++)")
    cfg = EvalConfig(compile_enabled=False)
    for gt, gen, side in ((MACRO_LOOP, attached, "reference"), (attached, MACRO_LOOP, "generated")):
        b = ompbleu_score(gt, gen, cfg)
        assert b.scores["pl"] == 0.0
        assert b.diagnostics["pl"] == [f"loop pragma not attached to a for loop on {side} side"]


@given(pragma_soups(), pragma_soups())
@settings(max_examples=200, deadline=None)
def test_identity_and_range_on_pragma_soups(a, b):
    cfg = EvalConfig(compile_enabled=False)
    assert ompbleu_score(a, a, cfg).composite == 100.0
    pair = ompbleu_score(a, b, cfg)
    assert all(0.0 <= s <= 1.0 for s in pair.scores.values()), pair.scores
    assert 0.0 <= pair.composite <= 100.0


def test_is_blend_arithmetic():
    # identical directive strings, identical code
    code = analyze(fixture_text("fig1_gt.c"))
    assert integrated_semantic_score(code, code, BACKEND) == 1.0


def test_is_blend_weights():
    class FixedBackend:
        def similarity(self, a, b):
            return 1.0

    a = "#pragma omp parallel private(x)\n{ }\n"
    b = "#pragma omp parallel\n{ }\n"
    from ompbleu.similarity import lev_similarity

    s_lev = lev_similarity("parallel private(x)", "parallel")
    expected = 0.7 * 1.0 + 0.3 * s_lev
    assert integrated_semantic_score(analyze(a), analyze(b), FixedBackend()) == pytest.approx(
        expected
    )


# -- compose ----------------------------------------------------------------


def test_compose_trivial_and_linearity():
    weights = MetricWeights()
    half = dict.fromkeys(SUBSCORE_WEIGHTS, 0.5)
    assert compose(dict.fromkeys(SUBSCORE_WEIGHTS, 1.0), weights) == 100.0
    base = compose(half, weights)
    bumped = compose({**half, "wc": 0.5 + 0.2}, weights)
    assert bumped - base == pytest.approx(100 * weights.composite["wc"] * 0.2)
    double = compose({**half, "wc": 0.5 + 0.4}, weights)
    assert double - base == pytest.approx(2 * (bumped - base))


def test_compose_from_printed_component_cells():
    # composite recomputed from the printed (rounded) component cells lands
    # within 0.5 of the printed composite on every golden row
    weights = MetricWeights()
    printed = [
        ((0.16, 0.8, 0.90, 0, 0.5, 0, 0, 0), 20.51),
        ((0.83, 0.8, 0.93, 0, 0.5, 0, 0, 0), 40.86),
        ((0.16, 0.8, 0.90, 0, 0.5, 1, 1, 1), 65.52),
        ((0.83, 0.8, 0.93, 1, 1, 1, 1, 1), 93.36),
        ((0.16, 0.83, 0.84, 0, 0.5, 1, 0.5, 1), 55.08),
        ((0.16, 0.83, 0.92, 0.5, 0.5, 1, 1, 1), 68.42),
        ((0.83, 0.83, 0.86, 0, 0.5, 1, 0.5, 1), 75.35),
        ((0.83, 0.83, 0.95, 0.5, 0.5, 1, 1, 1), 88.69),
    ]
    for cells, composite in printed:
        assert compose(dict(zip(SUBSCORE_WEIGHTS, cells)), weights) == pytest.approx(
            composite, abs=0.5
        )


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        MetricWeights({**SUBSCORE_WEIGHTS, "wc": 0.5})
    with pytest.raises(ValueError):
        MetricWeights({**SUBSCORE_WEIGHTS, "wc": -0.1, "vu": 0.45})


def test_compose_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        compose({**dict.fromkeys(SUBSCORE_WEIGHTS, 1.0), "wc": 1.5}, MetricWeights())


def test_weights_and_compose_reject_a_key_set_unlike_the_table():
    ones = dict.fromkeys(SUBSCORE_WEIGHTS, 1.0)
    with pytest.raises(ValueError, match="keys"):
        compose({k: v for k, v in ones.items() if k != "pl"}, MetricWeights())
    with pytest.raises(ValueError, match="keys"):
        compose({**ones, "extra": 1.0}, MetricWeights())
    with pytest.raises(ValueError, match="keys"):
        MetricWeights({**{k: w for k, w in SUBSCORE_WEIGHTS.items() if k != "cc"}, "pl": 0.25})


# -- orchestration ----------------------------------------------------------


@requires_compiler
def test_identity_scores_exactly_100():
    code = fixture_text("single_gt.c")
    breakdown = ompbleu_score(code, code)
    assert breakdown.composite == 100.0


@requires_compiler
def test_breakdown_composite_matches_weighted_sum():
    gt = fixture_text("multiple_gt.c")
    gen = fixture_text("multiple_case2.c")
    b = ompbleu_score(gt, gen)
    weights = MetricWeights()
    expected = compose(b.scores, weights)
    assert abs(b.composite - expected) < 1e-9
    assert all(0.0 <= s <= 1.0 for s in b.scores.values())


def test_compile_disabled_path():
    cfg = EvalConfig(compile_enabled=False)
    code = fixture_text("single_gt.c")
    b = ompbleu_score(code, code, cfg)
    assert b.scores["compile"] == 1.0
    assert b.composite == 100.0
    assert "compile" in b.diagnostics


@requires_compiler
def test_quality_ordering_within_scenarios():
    for gt_name, cases in (("single_gt.c", SINGLE_CASES), ("multiple_gt.c", MULTIPLE_CASES)):
        gt = fixture_text(gt_name)
        composites = [ompbleu_score(gt, fixture_text(c)).composite for c in cases]
        assert composites == sorted(composites)
        assert len(set(composites)) == len(composites), composites
