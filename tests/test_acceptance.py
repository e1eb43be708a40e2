"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold.  Run `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
import json
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from ompbleu.classify import ClauseVocabulary, ConfusionCounts, classification_report
from ompbleu.compile_check import CompileConfig, compile_score
from ompbleu.config import EvalConfig
from ompbleu.metrics import (
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
from ompbleu.pretrain import (
    LossInputs,
    NoiseSchedule,
    corrupt,
    weighted_token_cross_entropy,
)
from ompbleu.report import DatasetRecord, evaluate_dataset
from ompbleu.similarity import BagOfTokensBackend, lcs_ratio, lev_similarity
from ompbleu.syntax import extract_directives, parse_source, strip_openmp

from conftest import (
    MULTIPLE_CASES,
    SINGLE_CASES,
    FIXTURES,
    fixture_text,
    requires_compiler,
)

BACKEND = BagOfTokensBackend()
WEIGHTS = MetricWeights()
TABLE = ClauseWeightTable()

# Printed golden rows: sub-score cells as printed plus the printed composite.
# WC/OR/RC/CC/PL/C are crisp and must be exact (0.16 prints 1/6, 0.83 prints
# 5/6); VU is checked within 0.04; IS is backend-dependent.
PRINTED = {
    "single_case1.c": dict(wc=Fraction(1, 6), vu=0.8, is_=0.90, or_=0, rc=0.5, cc=0, pl=0, c=0, composite=20.51),
    "single_case2.c": dict(wc=Fraction(5, 6), vu=0.8, is_=0.93, or_=0, rc=0.5, cc=0, pl=0, c=0, composite=40.86),
    "single_case3.c": dict(wc=Fraction(1, 6), vu=0.8, is_=0.90, or_=0, rc=0.5, cc=1, pl=1, c=1, composite=65.52),
    "single_case4.c": dict(wc=Fraction(5, 6), vu=0.8, is_=0.93, or_=1, rc=1, cc=1, pl=1, c=1, composite=93.36),
    "multiple_case1.c": dict(wc=Fraction(1, 6), vu=0.83, is_=0.84, or_=0, rc=0.5, cc=1, pl=0.5, c=1, composite=55.08),
    "multiple_case2.c": dict(wc=Fraction(1, 6), vu=0.83, is_=0.92, or_=0.5, rc=0.5, cc=1, pl=1, c=1, composite=68.42),
    "multiple_case3.c": dict(wc=Fraction(5, 6), vu=0.83, is_=0.86, or_=0, rc=0.5, cc=1, pl=0.5, c=1, composite=75.35),
    "multiple_case4.c": dict(wc=Fraction(5, 6), vu=0.83, is_=0.95, or_=0.5, rc=0.5, cc=1, pl=1, c=1, composite=88.69),
}
GT_OF = dict(
    [(c, "single_gt.c") for c in SINGLE_CASES]
    + [(c, "multiple_gt.c") for c in MULTIPLE_CASES]
)


def _static_scores(gt_name: str, gen_name: str) -> dict:
    gt = analyze(fixture_text(gt_name))
    gen = analyze(fixture_text(gen_name))
    return {
        "wc": weighted_clause_score(gt.directives, gen.directives, TABLE),
        "vu": variable_usage_score(gt.directives, gen.directives),
        "is_": integrated_semantic_score(gt, gen, BACKEND),
        "or_": ordering_score(gt.directives, gen.directives),
        "rc": redundancy_coverage_score(gt.directives, gen.directives),
        "cc": cyclomatic_ratio(gt.regions, gen.regions),
        "pl": pragma_location_score(gt, gen, BACKEND),
    }


def test_criterion_1_golden_cells_static():
    """Table of golden fixtures: crisp cells exact, VU close, fast without
    a compiler."""
    start = time.monotonic()
    our_static = {}
    for case, printed in PRINTED.items():
        got = _static_scores(GT_OF[case], case)
        our_static[case] = got
        assert got["wc"] == pytest.approx(float(printed["wc"]), abs=1e-9), case
        assert got["or_"] == pytest.approx(printed["or_"], abs=1e-9), case
        assert got["rc"] == pytest.approx(printed["rc"], abs=1e-9), case
        assert got["pl"] == pytest.approx(printed["pl"], abs=1e-9), case
        assert got["cc"] in (0.0, 1.0) and got["cc"] == printed["cc"], case
        assert abs(got["vu"] - printed["vu"]) <= 0.04, case
    # composite recomputed from the printed component cells: within 0.5
    for case, printed in PRINTED.items():
        wc_cell = float(Fraction(int(printed["wc"] * 100), 100))  # 1/6 prints 0.16
        recomposed = compose(
            {
                "wc": wc_cell,
                "vu": printed["vu"],
                "is": printed["is_"],
                "or": printed["or_"],
                "rc": printed["rc"],
                "cc": printed["cc"],
                "pl": printed["pl"],
                "compile": printed["c"],
            },
            WEIGHTS,
        )
        assert abs(recomposed - printed["composite"]) <= 0.5, case
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"static golden run took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1a PASS: golden WC/VU/OR/RC/CC/PL cells match "
        f"({elapsed:.2f}s without compiler)"
    )


@requires_compiler
def test_criterion_1_golden_cells_compiled():
    """Compile column exact and full composite within 1.6 of printed."""
    start = time.monotonic()
    for case, printed in PRINTED.items():
        breakdown = ompbleu_score(fixture_text(GT_OF[case]), fixture_text(case))
        assert breakdown.scores["compile"] == printed["c"], case
        assert abs(breakdown.composite - printed["composite"]) <= 1.6, (
            case,
            breakdown.composite,
        )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1b PASS: compile cells exact, composites within 1.6 "
        f"({elapsed:.2f}s with compiler)"
    )


@requires_compiler
def test_criterion_2_quality_ordering():
    """Composites strictly increase from poor to best within each scenario."""
    for gt_name, cases in (("single_gt.c", SINGLE_CASES), ("multiple_gt.c", MULTIPLE_CASES)):
        gt = fixture_text(gt_name)
        composites = [ompbleu_score(gt, fixture_text(c)).composite for c in cases]
        for earlier, later in itertools.pairwise(composites):
            assert earlier < later, composites
    print("\nACCEPTANCE 2 PASS: quality ordering strict within both scenarios")


def test_criterion_3_classification_arithmetic():
    """All printed classification rows reproduce to two decimals."""
    rows = [
        (39, 13, 29, 1323, 75.00, 57.35, 65.00),
        (23, 39, 45, 1297, 37.09, 33.82, 35.38),
        (29, 42, 39, 1294, 40.84, 42.64, 41.72),
        (22, 55, 46, 1281, 28.57, 32.35, 30.34),
        (5, 13, 63, 1323, 27.77, 7.35, 11.62),
        (18, 21, 50, 1315, 46.15, 26.47, 33.64),
        (26, 23, 42, 1313, 53.06, 38.23, 44.44),
        (26, 52, 42, 1284, 33.33, 38.23, 35.61),
        (9, 26, 59, 1310, 25.71, 13.23, 17.47),
        (3, 9, 65, 1327, 25.00, 4.41, 7.50),
        (9, 3, 59, 1333, 75.00, 13.23, 22.50),
    ]
    for tp, fp, fn, tn, p, r, f in rows:
        report = classification_report(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        assert (report.precision, report.recall, report.f1) == (p, r, f)
        assert tp + fp + fn + tn == 1404
    assert ClauseVocabulary.default().size == 54 == 1404 // 26
    print("\nACCEPTANCE 3 PASS: 11 classification rows and 54-entry row sum")


@requires_compiler
def test_criterion_4_motivating_pair():
    """The clause-dropping pair scores in [47, 68], well below identity."""
    gt = fixture_text("fig1_gt.c")
    gen = fixture_text("fig1_gen.c")
    pair = ompbleu_score(gt, gen).composite
    identity = ompbleu_score(gt, gt).composite
    assert 47.0 <= pair <= 68.0, pair
    assert pair <= identity - 25.0
    print(f"\nACCEPTANCE 4 PASS: motivating pair scores {pair:.2f} in [47, 68]")


@requires_compiler
def test_criterion_5_identity_exact():
    """Self-comparison is exactly 100 for every fixture that compiles."""
    checked = 0
    for path in sorted(FIXTURES.glob("*.c")):
        source = path.read_text()
        if compile_score(source, CompileConfig()).score != 1:
            continue
        assert ompbleu_score(source, source).composite == 100.0, path.name
        checked += 1
    assert checked >= 8
    print(f"\nACCEPTANCE 5 PASS: identity == 100.0 on {checked} compiling fixtures")


def test_criterion_6_similarity_oracles():
    """Edit and subsequence kernels agree with brute-force oracles.

    Exhaustive enumeration of all length<=8 pairs over three letters is
    ~10^8 pairs; the oracle domain is covered exhaustively at short lengths
    and by a dense fixed-seed sample across the full length range.
    """
    from test_similarity import _oracle_lev, brute_force_lcs

    alphabet = "abc"
    short = ["".join(p) for n in range(3) for p in itertools.product(alphabet, repeat=n)]
    for a in short:
        for b in short:
            assert lev_similarity(a, b) == pytest.approx(_oracle_lev(a, b), abs=1e-12)
    rng = random.Random(6)
    for _ in range(3000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert lev_similarity(a, b) == pytest.approx(_oracle_lev(a, b), abs=1e-12)
    for _ in range(1200):
        a = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        b = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        expected = (
            1.0 if not a and not b
            else 0.0 if not a or not b
            else 2 * brute_force_lcs(a, b) / (len(a) + len(b))
        )
        assert lcs_ratio(a, b) == pytest.approx(expected, abs=1e-12)
    print("\nACCEPTANCE 6 PASS: similarity kernels match brute-force oracles")


def test_criterion_7_loss_reference():
    """Vectorized loss equals a scalar brute-force evaluator to 1e-9."""
    from test_pretrain import _random_inputs, brute_force_loss

    rng = np.random.default_rng(2024)
    for _ in range(1000):
        inputs = _random_inputs(rng, lam=float(rng.integers(1, 8)))
        fast = weighted_token_cross_entropy(inputs)
        slow = brute_force_loss(
            inputs.probabilities, inputs.labels, inputs.omp_flags,
            inputs.padding_mask, inputs.lam,
        )
        assert abs(fast - slow) < 1e-9
        # lambda = 1 reduces to the unweighted mean
        lam1 = LossInputs(
            inputs.probabilities, inputs.labels, inputs.omp_flags,
            inputs.padding_mask, lam=1.0,
        )
        p_true = (inputs.probabilities * inputs.labels).sum(axis=2)
        mask = inputs.padding_mask.astype(bool)
        unweighted = float(-(np.log(p_true[mask])).sum() / inputs.padding_mask.sum())
        assert weighted_token_cross_entropy(lam1) == pytest.approx(unweighted, abs=1e-12)
        # padding invariance
        padded = ~mask
        if padded.any():
            p2 = inputs.probabilities.copy()
            p2[padded] = 1.0 / p2.shape[2]
            perturbed = LossInputs(
                p2, inputs.labels, inputs.omp_flags, inputs.padding_mask, lam=inputs.lam
            )
            assert weighted_token_cross_entropy(perturbed) == pytest.approx(
                fast, abs=1e-12
            )
    print("\nACCEPTANCE 7 PASS: loss reference matches brute force on 1000 tensors")


def test_criterion_8_corruption_statistics():
    """Seeded corruption hits the schedule ratio within 2% absolute."""
    sched = NoiseSchedule(r0=0.15, r1=0.15, ramp_steps=1, modes=frozenset({"mask"}))
    unit = parse_source(fixture_text("single_gt.c"))
    assert "MASK" not in unit.text  # so each MASK in the output is one masked token
    maskable = len(unit.lexemes)
    affected = 0
    trials = 10_000
    for seed in range(trials):
        affected += corrupt(unit, sched, step=0, seed=seed).count("MASK")
    rate = affected / (trials * maskable)
    assert abs(rate - 0.15) < 0.02, rate
    a = corrupt(unit, sched, step=0, seed=123)
    b = corrupt(unit, sched, step=0, seed=123)
    assert a == b
    print(f"\nACCEPTANCE 8 PASS: corruption rate {rate:.4f} vs 0.15, seeds reproduce")


@requires_compiler
def test_criterion_9_strip_roundtrip_protocol():
    """Serial-baseline protocol: strip everything, then re-add and score."""
    for name in ("xs_kernel.c", "fig1_gt.c", "multiple_gt.c"):
        source = fixture_text(name)
        serial = strip_openmp(parse_source(source))
        assert extract_directives(parse_source(serial)) == [], name
        assert compile_score(serial, CompileConfig()).score == 1, name
        assert ompbleu_score(source, source).composite == 100.0, name
    print("\nACCEPTANCE 9 PASS: strip-to-serial protocol plumbing round-trips")


def test_criterion_10_report_determinism():
    """Dataset evaluation twice produces byte-identical canonical JSON."""
    config = EvalConfig(compile_enabled=False)
    records = [
        DatasetRecord(
            id=name,
            reference=fixture_text(GT_OF[name]),
            candidates=(fixture_text(name), fixture_text(GT_OF[name])),
        )
        for name in sorted(PRINTED)
    ]
    one = evaluate_dataset(records, config, jobs=2).to_json()
    two = evaluate_dataset(records, config, jobs=2).to_json()
    assert one == two
    payload = json.loads(one)
    composites = [r["breakdown"]["composite"] for r in payload["records"]]
    assert payload["aggregates"]["mean"]["composite"] == pytest.approx(
        statistics.fmean(composites), abs=1e-9
    )
    print("\nACCEPTANCE 10 PASS: dataset reports byte-identical across runs")
