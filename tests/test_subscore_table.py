"""The sub-score table is the one list of sub-scores: every view of the
eight keys follows ``SUBSCORE_WEIGHTS`` in its order."""

import json

from ompbleu.config import EvalConfig, load_config
from ompbleu.metrics import SUBSCORE_WEIGHTS, ompbleu_score
from ompbleu.report import DatasetRecord, evaluate_dataset

from conftest import fixture_text

NO_COMPILE_CFG = EvalConfig(compile_enabled=False)
KEYS = list(SUBSCORE_WEIGHTS)

# every weight differs from its default
CUSTOM_WEIGHTS = {
    "wc": 0.2,
    "vu": 0.1,
    "is": 0.15,
    "or": 0.1,
    "rc": 0.1,
    "cc": 0.1,
    "pl": 0.15,
    "compile": 0.1,
    "is_blend_alpha": 0.4,
}


def _report():
    gt = fixture_text("single_gt.c")
    records = [
        DatasetRecord(id="identity", reference=gt, candidates=(gt,)),
        DatasetRecord(
            id="fig1",
            reference=fixture_text("fig1_gt.c"),
            candidates=(fixture_text("fig1_gen.c"),),
        ),
    ]
    return evaluate_dataset(records, NO_COMPILE_CFG)


def test_breakdown_keys_follow_table():
    b = ompbleu_score(fixture_text("fig1_gt.c"), fixture_text("fig1_gen.c"), NO_COMPILE_CFG)
    assert [k for k in b.as_dict() if k not in ("composite", "diagnostics")] == KEYS


def test_config_echo_weights_follow_table():
    weights = EvalConfig().echo()["weights"]
    assert [k for k in weights if k != "is_blend_alpha"] == KEYS
    assert {k: weights[k] for k in KEYS} == SUBSCORE_WEIGHTS


def test_report_columns_and_aggregates_follow_table():
    report = _report()
    header = report.to_csv().splitlines()[0].split(",")
    assert header[header.index("composite") + 1 : header.index("error")] == KEYS
    header = report.to_table().splitlines()[0].split()
    assert header[header.index("composite") + 1 :] == KEYS
    assert [k for k in report.aggregates["mean"] if k != "composite"] == KEYS


def test_custom_weights_round_trip_and_identity_scores_100(tmp_path):
    assert set(CUSTOM_WEIGHTS) == {*KEYS, "is_blend_alpha"}
    defaults = EvalConfig().echo()["weights"]
    assert all(CUSTOM_WEIGHTS[k] != defaults[k] for k in CUSTOM_WEIGHTS)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": CUSTOM_WEIGHTS, "compile_enabled": False}))
    cfg = load_config(path)
    assert cfg.echo()["weights"] == CUSTOM_WEIGHTS
    code = fixture_text("multiple_gt.c")
    assert ompbleu_score(code, code, cfg).composite == 100.0
