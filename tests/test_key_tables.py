"""The key tables that read each external input: a dataset record, whose
refusals name their field, and a config file, whose tables also write the
report's config echo, so that a report's config reproduces it."""

import dataclasses
import json
import shutil
from importlib import resources

import pytest
from hypothesis import given, settings

from ompbleu import config
from ompbleu.cli import main
from ompbleu.compile_check import CompileConfig
from ompbleu.config import BackendSpec, ConfigError, EvalConfig, load_config
from ompbleu.report import _RECORD_KEYS, DatasetRecord, load_jsonl

from conftest import config_files, fixture_text

TABLES = [
    (config._ROOT_KEYS, EvalConfig),
    (config._BACKEND_KEYS, BackendSpec),
    (config._COMPILE_KEYS, CompileConfig),
]


@pytest.mark.parametrize(
    "table, cls",
    [*TABLES, (_RECORD_KEYS, DatasetRecord)],
    ids=["root", "backend", "compile", "record"],
)
def test_each_table_holds_exactly_its_dataclass_fields(table, cls):
    # a new field cannot be missed by the reader or by the echo
    assert list(table) == [f.name for f in dataclasses.fields(cls)]


def test_only_the_compile_cache_dir_stays_out_of_the_echo():
    unechoed = {
        (name, key)
        for name, (table, _) in zip(("root", "backend", "compile"), TABLES)
        for key, k in table.items()
        if k.unechoed
    }
    assert unechoed == {("compile", "cache_dir")}


GOOD = {"id": "ok", "reference": "int x;", "candidates": ["int x;"]}
LONG = "x" * 100


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("candidates", [5], "candidates[0] must be a string, got 5"),
        ("candidates", ["int x;", None], "candidates[1] must be a string, got None"),
        ("candidates", "int x;", "candidates must be a list of strings, got 'int x;'"),
        ("id", {"a": 1}, "id must be a string, got {'a': 1}"),
        ("id", 7, "id must be a string, got 7"),
        ("reference", 5, "reference must be a string, got 5"),
        ("language", 3, "language must be a string, got 3"),
        ("langauge", "c", "unknown record keys: ['langauge']"),
        # a value is shown cut short, never as whole sources
        ("reference", [LONG, LONG], "reference must be a string, got "
         "['xxxxxxxxxxxx...xxxxxxxxxxxxx', 'xxxxxxxxxxxx...xxxxxxxxxxxxx']"),
    ],
)
def test_a_record_field_of_the_wrong_type_is_a_load_error_naming_it(tmp_path, key, value, error):
    path = tmp_path / "ds.jsonl"
    path.write_text(json.dumps(GOOD) + "\n" + json.dumps({**GOOD, "id": "bad", key: value}) + "\n")
    records, errors = load_jsonl(path)
    assert [r.id for r in records] == ["ok"]
    assert errors == [f"line 2: skipped malformed record ({error})"]


@pytest.mark.parametrize(
    "line, error",
    [
        ("[1, 2]", "record must be a JSON object, got list"),
        ('"int x;"', "record must be a JSON object, got str"),
        ('{"id": "a", "candidates": ["x"]}',
         "DatasetRecord.__init__() missing 1 required positional argument: 'reference'"),
    ],
)
def test_a_line_that_is_not_a_record_is_a_load_error(tmp_path, line, error):
    path = tmp_path / "ds.jsonl"
    path.write_text(line + "\n")
    assert load_jsonl(path) == ([], [f"line 1: skipped malformed record ({error})"])


def test_default_echo():
    assert EvalConfig().echo() == {
        "weights": {
            "wc": 0.3, "vu": 0.05, "is": 0.1, "or": 0.05, "rc": 0.05, "cc": 0.05,
            "pl": 0.2, "compile": 0.2, "is_blend_alpha": 0.7,
        },
        "clause_weights": {"table": {"reduction": 5.0}, "default": 1.0},
        "backend": {"kind": "bag_of_tokens", "endpoint": None, "model_id": None, "timeout": 30.0},
        "compile": {
            "command": None, "extra_flags": [], "mode": "syntax_only", "timeout": 30.0,
            "wrap_snippets": True, "timeout_as_failure": False, "language": "auto",
        },
        "compile_enabled": True,
        "clause_vocabulary": None,
        "tag_vocabulary": None,
    }


def _dataset(tmp_path):
    path = tmp_path / "ds.jsonl"
    gt = fixture_text("single_gt.c")
    rows = [
        {"id": "identity", "reference": gt, "candidates": [gt], "language": "c"},
        {"id": "fig1", "reference": fixture_text("fig1_gt.c"),
         "candidates": [fixture_text("fig1_gen.c"), gt]},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _packaged(tmp_path, name):
    path = tmp_path / name
    shutil.copy(resources.files("ompbleu.data") / name, path)
    return str(path)


def _report(tmp_path, name, *args):
    out = tmp_path / name
    rc = main(["--out", str(out), *args])
    return rc, out.read_text()


def test_a_default_reports_config_reproduces_it(tmp_path):
    ds = _dataset(tmp_path)
    rc, first = _report(tmp_path, "first.json", "dataset", ds)
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads(first)["config"]))
    assert _report(tmp_path, "second.json", "--config", str(echo), "dataset", ds) == (rc, first)


def test_a_config_setting_every_echoed_key_reproduces_its_report(tmp_path):
    ds = _dataset(tmp_path)
    given = {
        "weights": {
            "wc": 0.25, "vu": 0.1, "is": 0.1, "or": 0.05, "rc": 0.1, "cc": 0.05,
            "pl": 0.35, "compile": 0.0, "is_blend_alpha": 0.5,
        },
        "clause_weights": {"table": {"private": 2.5, "schedule": 3.0}, "default": 0.5},
        # the bag-of-tokens backend reads neither endpoint nor model_id
        "backend": {
            "kind": "bag_of_tokens", "endpoint": "http://localhost:9", "model_id": "m",
            "timeout": 5.0,
        },
        "compile": {
            "command": ["cc"], "extra_flags": ["-Wall"], "mode": "full", "timeout": 5.0,
            "wrap_snippets": False, "timeout_as_failure": True, "language": "c",
        },
        "compile_enabled": False,
        "clause_vocabulary": _packaged(tmp_path, "clause_vocabulary.txt"),
        "tag_vocabulary": _packaged(tmp_path, "ssa_tags.txt"),
    }
    path = tmp_path / "given.json"
    path.write_text(json.dumps(given))
    rc, first = _report(tmp_path, "first.json", "--config", str(path), "dataset", ds)
    # the echo writes every key as the config file gave it
    assert json.loads(first)["config"] == given
    path.write_text(json.dumps(json.loads(first)["config"]))
    assert _report(tmp_path, "second.json", "--config", str(path), "dataset", ds) == (rc, first)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@given(raw=config_files())
@settings(max_examples=300, deadline=None)
def test_a_configs_echo_loads_back_as_it(config_path, raw):
    config_path.write_text(json.dumps(raw))
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        # the draws give each key a valid value; only the backend's kind
        # and its endpoint and model_id depend on each other
        assert str(exc) == "remote_embedding backend needs endpoint and model_id"
        return
    config_path.write_text(json.dumps(cfg.echo()))
    assert load_config(config_path) == cfg
