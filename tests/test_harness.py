import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import ompbleu
from ompbleu.cli import main
from ompbleu.config import ConfigError, EvalConfig, load_config
from ompbleu.report import (
    DatasetError,
    DatasetRecord,
    evaluate_dataset,
    load_dataset,
    load_jsonl,
    load_paired_dirs,
    rank_candidates,
)
from ompbleu.syntax import SourceUnit

from conftest import FIXTURES, fixture_text, requires_compiler

NO_COMPILE_CFG = EvalConfig(compile_enabled=False)


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "ds.jsonl"
    gt = fixture_text("single_gt.c")
    _write_jsonl(
        path,
        [
            {"id": "identity", "reference": gt, "candidates": [gt]},
            {
                "id": "fig1",
                "reference": fixture_text("fig1_gt.c"),
                "candidates": [fixture_text("fig1_gen.c")],
            },
        ],
    )
    return path


# -- loaders ------------------------------------------------------------------


def test_load_jsonl_happy_path(small_dataset):
    records, errors = load_jsonl(small_dataset)
    assert errors == []
    assert [r.id for r in records] == ["identity", "fig1"]
    assert records[0].candidates


def test_load_jsonl_skips_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = {"id": "ok", "reference": "int x;", "candidates": ["int x;"]}
    path.write_text(
        "\n".join(
            [
                json.dumps(good),
                "{not json",
                json.dumps({"id": "nocands", "reference": "x", "candidates": []}),
                json.dumps({"reference": "x", "candidates": ["y"]}),
                json.dumps({"id": "ok", "reference": "dup", "candidates": ["z"]}),
                json.dumps({**good, "id": "fortran", "language": "fortran"}),
                json.dumps({**good, "id": "number", "language": 3}),
            ]
        )
    )
    records, errors = load_jsonl(path)
    assert [r.id for r in records] == ["ok"]
    assert len(errors) == 6
    assert "line 6" in errors[4] and "unknown language 'fortran'" in errors[4]


def test_load_jsonl_splits_records_only_at_newlines(tmp_path):
    # JSON strings may hold U+2028, U+2029 and U+0085 raw, and
    # ``json.dumps(..., ensure_ascii=False)`` writes them so: none ends a line
    path = tmp_path / "separators.jsonl"
    records = [
        {"id": f"r{k}", "reference": f"/* a{ch}b */\nint x;\n", "candidates": [f"int x;{ch}\n"]}
        for k, ch in enumerate(["\u2028", "\u2029", "\x85", "\u2028\u2029\x85"])
    ]
    lines = [json.dumps(record, ensure_ascii=False) for record in records]
    lines.insert(2, '{"id": "broken\u2028", "reference": ')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded, errors = load_jsonl(path)
    assert loaded == [DatasetRecord(r["id"], r["reference"], tuple(r["candidates"])) for r in records]
    assert len(errors) == 1 and errors[0].startswith("line 3: skipped malformed record")


def test_load_jsonl_reads_language(tmp_path):
    path = tmp_path / "langs.jsonl"
    spellings = {"c": "c", "cpp": "c++", "c++": "c++", "hpp": "c++", None: None}
    _write_jsonl(
        path,
        [
            {"id": str(k), "reference": "x", "candidates": ["x"],
             **({} if spelling is None else {"language": spelling})}
            for k, spelling in enumerate(spellings)
        ],
    )
    records, errors = load_jsonl(path)
    assert errors == []
    assert [r.language for r in records] == list(spellings.values())


def test_load_paired_dirs(tmp_path):
    (tmp_path / "ref").mkdir()
    (tmp_path / "gen").mkdir()
    (tmp_path / "ref" / "a.c").write_text("int a;")
    (tmp_path / "gen" / "a.c").write_text("int a;")
    (tmp_path / "ref" / "orphan.c").write_text("int o;")
    records, errors = load_paired_dirs(tmp_path)
    assert [r.id for r in records] == ["a.c"]
    assert records[0].language == "c"
    assert errors and "orphan.c" in errors[0]


def test_load_paired_dirs_requires_layout(tmp_path):
    with pytest.raises(DatasetError):
        load_paired_dirs(tmp_path)


def test_load_dataset_unknown_format(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path, "parquet")


def test_record_requires_candidates():
    with pytest.raises(ValueError):
        DatasetRecord(id="x", reference="r", candidates=())


# -- ranking ------------------------------------------------------------------


def test_identical_candidate_ranks_first():
    gt = fixture_text("fig1_gt.c")
    record = DatasetRecord(
        id="r", reference=gt, candidates=(fixture_text("fig1_gen.c"), gt)
    )
    ranked = rank_candidates(record, NO_COMPILE_CFG)
    assert ranked[0].candidate_index == 1
    assert ranked[0].rank == 1
    assert ranked[0].breakdown.composite == 100.0
    assert ranked[1].rank == 2


def test_rank_single_candidate():
    gt = fixture_text("single_gt.c")
    record = DatasetRecord(id="r", reference=gt, candidates=(gt,))
    ranked = rank_candidates(record, NO_COMPILE_CFG)
    assert len(ranked) == 1
    assert ranked[0].rank == 1


def test_rank_ties_break_by_candidate_index():
    gt = fixture_text("single_gt.c")
    record = DatasetRecord(id="r", reference=gt, candidates=(gt, gt, gt))
    ranked = rank_candidates(record, NO_COMPILE_CFG)
    assert [rc.candidate_index for rc in ranked] == [0, 1, 2]


def _fail_boom(monkeypatch):
    """Make every candidate whose text is BOOM fail to score."""
    import ompbleu.report as report_mod

    real = report_mod.ompbleu_score

    def flaky(ref, gen, *args, **kwargs):
        if gen.text == "BOOM":
            raise RuntimeError("unreadable candidate")
        return real(ref, gen, *args, **kwargs)

    monkeypatch.setattr(report_mod, "ompbleu_score", flaky)


def test_failing_candidate_ranked_last_not_dropped(monkeypatch):
    _fail_boom(monkeypatch)
    gt = fixture_text("single_gt.c")
    record = DatasetRecord(id="r", reference=gt, candidates=("BOOM", gt))
    ranked = rank_candidates(record, NO_COMPILE_CFG)
    assert ranked[0].candidate_index == 1
    assert ranked[-1].error == "unreadable candidate"
    assert len(ranked) == 2


# -- evaluate_dataset ---------------------------------------------------------


def test_identity_dataset_aggregates_to_100(small_dataset):
    records, errors = load_jsonl(small_dataset)
    report = evaluate_dataset(records[:1], NO_COMPILE_CFG, load_errors=errors)
    assert report.aggregates["mean"]["composite"] == 100.0
    assert report.errors == []


def test_empty_dataset_is_an_error():
    with pytest.raises(DatasetError, match="no records"):
        evaluate_dataset([], NO_COMPILE_CFG)


def test_aggregate_mean_recomputable(small_dataset):
    records, _ = load_jsonl(small_dataset)
    report = evaluate_dataset(records, NO_COMPILE_CFG)
    composites = [
        row["breakdown"]["composite"] for row in report.records if "breakdown" in row
    ]
    assert report.aggregates["mean"]["composite"] == pytest.approx(
        statistics.fmean(composites), abs=1e-9
    )
    assert report.aggregates["median"]["composite"] == pytest.approx(
        statistics.median(composites), abs=1e-9
    )


def test_report_determinism(small_dataset, monkeypatch):
    # static scoring holds the interpreter lock, so --jobs 2 builds no pool
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", lambda **_: pytest.fail("pool built"))
    records, _ = load_jsonl(small_dataset)
    one = evaluate_dataset(records, NO_COMPILE_CFG, jobs=1).to_json()
    two = evaluate_dataset(records, NO_COMPILE_CFG, jobs=2).to_json()
    assert one == two


def test_report_contains_classification_and_config(small_dataset):
    records, _ = load_jsonl(small_dataset)
    report = evaluate_dataset(records, NO_COMPILE_CFG)
    payload = json.loads(report.to_json())
    assert payload["classification"]["tp"] >= 1
    assert payload["config"]["weights"]["wc"] == 0.3
    assert payload["config"]["compile"]["language"] == "auto"
    assert {(r["language"], r["language_defaulted"]) for r in payload["records"]} == {
        ("c++", True)
    }
    assert payload["version"]
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("id,")
    assert "identity" in csv_text
    table = report.to_table()
    assert "MEAN" in table
    clause_csv = report.per_clause_csv()
    assert clause_csv.splitlines()[0] == "clause,f1"


def test_records_merged_in_id_order(tmp_path):
    path = tmp_path / "ds.jsonl"
    gt = fixture_text("single_gt.c")
    _write_jsonl(
        path,
        [
            {"id": "zz", "reference": gt, "candidates": [gt]},
            {"id": "aa", "reference": gt, "candidates": [gt]},
        ],
    )
    records, _ = load_jsonl(path)
    report = evaluate_dataset(records, NO_COMPILE_CFG)
    assert [row["id"] for row in report.records] == ["aa", "zz"]


# -- config -------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.weights.composite["wc"] == 0.3
    assert cfg.clause_weights.weight_of("reduction(+:x)") == 5.0


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "weights": {"wc": 0.25, "vu": 0.1, "is": 0.1, "or": 0.05,
                             "rc": 0.05, "cc": 0.05, "pl": 0.2, "compile": 0.2,
                             "is_blend_alpha": 0.5},
                "clause_weights": {"table": {"reduction": 7, "collapse": 2}},
                "compile_enabled": False,
                "backend": {"kind": "bag_of_tokens"},
            }
        )
    )
    cfg = load_config(path)
    assert cfg.weights.composite["wc"] == 0.25
    assert cfg.weights.is_blend_alpha == 0.5
    assert cfg.clause_weights.weight_of("collapse(2)") == 2.0
    assert cfg.compile_enabled is False
    assert cfg.compile.language == "auto"


def test_clause_weight_table_given_empty_replaces_the_default(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"clause_weights": {"table": {}}}))
    assert load_config(path).clause_weights.weights == {}
    assert load_config(path).clause_weights.weight_of("reduction(+:x)") == 1.0
    # an omitted table keeps the default one
    path.write_text(json.dumps({"clause_weights": {"default": 2}}))
    cfg = load_config(path)
    assert cfg.clause_weights.weights == {"reduction": 5.0}
    assert cfg.clause_weights.default_weight == 2.0


@pytest.mark.parametrize(
    "spelling, language", [("c", "c"), ("c++", "c++"), ("cpp", "c++"), ("cxx", "c++")]
)
def test_load_config_stores_canonical_language(tmp_path, spelling, language):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"compile": {"language": spelling}}))
    cfg = load_config(path)
    assert cfg.compile.language == language
    assert cfg.echo()["compile"]["language"] == language


def test_load_config_rejects_bad_weight_sum(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": {"wc": 0.9}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weightz": {}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_backend(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"backend": {"kind": "remote_embedding"}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


# -- CLI ----------------------------------------------------------------------


def _no_compile_cfg_file(tmp_path):
    path = tmp_path / "nocc.json"
    path.write_text(json.dumps({"compile_enabled": False}))
    return str(path)


def test_cli_score(tmp_path, capsys):
    cfg = _no_compile_cfg_file(tmp_path)
    rc = main(
        [
            "--config", cfg,
            "score",
            str(FIXTURES / "fig1_gt.c"),
            str(FIXTURES / "fig1_gen.c"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 47 <= payload["composite"] <= 68


def test_cli_score_reports_any_failure_to_score_as_an_error_line(tmp_path, capsys, monkeypatch):
    _fail_boom(monkeypatch)
    boom = tmp_path / "boom.c"
    boom.write_text("BOOM")
    argv = ["--config", _no_compile_cfg_file(tmp_path), "score", str(FIXTURES / "fig1_gt.c"), str(boom)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unreadable candidate\n")


def test_cli_rank(tmp_path, capsys):
    cfg = _no_compile_cfg_file(tmp_path)
    rc = main(
        [
            "--config", cfg,
            "rank",
            str(FIXTURES / "fig1_gt.c"),
            str(FIXTURES / "fig1_gen.c"),
            str(FIXTURES / "fig1_gt.c"),
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"][0]["path"].endswith("fig1_gt.c")
    assert payload["candidates"][0]["breakdown"]["composite"] == 100.0


def test_a_candidate_equal_to_its_reference_shares_its_analysis(tmp_path, capsys, monkeypatch):
    from ompbleu import metrics, report

    calls = []  # each source analysed, and whether its analysis is the one it was given

    def counting(source, language=None, like=None):
        side = metrics.analyze(source, language, like=like)
        calls.append((source, side is like))
        return side

    gt = fixture_text("multiple_gt.c")
    expected = metrics.ompbleu_score(gt, gt, NO_COMPILE_CFG).as_dict()
    monkeypatch.setattr(report, "analyze", counting)
    path = str(FIXTURES / "multiple_gt.c")
    assert main(["--config", _no_compile_cfg_file(tmp_path), "score", path, path]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))
    assert calls == [(gt, False), (gt, True)]

    calls.clear()
    case = fixture_text("multiple_case1.c")
    record = DatasetRecord(id="r", reference=gt, candidates=(case, gt, case))
    ranked = rank_candidates(record, NO_COMPILE_CFG)
    assert calls == [(gt, False), (case, False), (gt, True), (case, False)]
    assert ranked[0].candidate_index == 1
    assert ranked[0].breakdown.as_dict() == expected
    assert ranked[0].analyses[0] is ranked[0].analyses[1]


def test_cli_dataset_and_determinism(tmp_path):
    ds = tmp_path / "ds.jsonl"
    gt = fixture_text("single_gt.c")
    _write_jsonl(
        ds,
        [
            {"id": "only", "reference": gt, "candidates": [gt]},
            {"id": "fig1", "reference": fixture_text("fig1_gt.c"),
             "candidates": [fixture_text("fig1_gen.c")]},
        ],
    )
    cfg = _no_compile_cfg_file(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--config", cfg, "--out", str(out1), "dataset", str(ds)]) == 0
    assert main(["--config", cfg, "--jobs", "3", "--out", str(out2), "dataset", str(ds)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_dataset_error_exit_code(tmp_path):
    ds = tmp_path / "ds.jsonl"
    gt = fixture_text("single_gt.c")
    ds.write_text(
        json.dumps({"id": "ok", "reference": gt, "candidates": [gt]})
        + "\n{broken\n"
    )
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "r.json"), "dataset", str(ds)]) == 1


def test_cli_empty_dataset_errors(tmp_path, capsys):
    ds = tmp_path / "empty.jsonl"
    ds.write_text("")
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "dataset", str(ds)]) == 1
    assert "no records" in capsys.readouterr().err


def test_cli_dataset_of_no_loadable_record_prints_every_load_error(tmp_path, capsys):
    ds = tmp_path / "bad.jsonl"
    ds.write_text('{"id": "a", "reference": 5, "candidates": ["x"]}\n[1, 2]\n')
    cfg = _no_compile_cfg_file(tmp_path)
    for command in ("dataset", "classify"):
        assert main(["--config", cfg, command, str(ds)]) == 1
        assert capsys.readouterr().err == (
            "error: no records in dataset\n"
            "  line 1: skipped malformed record (reference must be a string, got 5)\n"
            "  line 2: skipped malformed record (record must be a JSON object, got list)\n"
        )


def test_cli_json_nested_too_deep_is_an_input_error(tmp_path, capsys):
    # json recurses once per nesting level, so a deep enough line or config
    # raises RecursionError, which must read as malformed input
    deep = "[" * 100_000
    ds = tmp_path / "deep.jsonl"
    gt = fixture_text("single_gt.c")
    ds.write_text(deep + "\n" + json.dumps({"id": "ok", "reference": gt, "candidates": [gt]}) + "\n")
    out = tmp_path / "r.json"
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "--out", str(out), "dataset", str(ds)]) == 1
    [error] = json.loads(out.read_text())["errors"]
    assert error.startswith("line 1: skipped malformed record (maximum recursion depth exceeded")
    cfg = tmp_path / "deep.json"
    cfg.write_text(deep)
    assert main(["--config", str(cfg), "strip", str(FIXTURES / "fig1_gt.c")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: config {cfg} is not valid JSON")


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"weights\": {\"wc\": 0.999}}")
    rc = main(["--config", str(bad), "strip", str(FIXTURES / "fig1_gt.c")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        [],
        {"weights": 5},
        {"compile": []},
        {"backend": None},
        {"clause_weights": {"table": [1]}},
        {"compile": {"langauge": "c"}},
        {"backend": {"kind": "bag_of_tokens", "endpont": "x"}},
        {"clause_weights": {"colapse": 2}},
        {"clause_weights": {"reduction": 7}},
        {"weights": {"wc": "heavy"}},
        {"clause_weights": {"table": {"colapse": 2}}},
        {"compile_enabled": "false"},
        {"compile": {"wrap_snippets": "no"}},
        {"compile": {"timeout_as_failure": 1}},
        {"compile": {"language": "cpp17"}},
        {"compile": {"language": None}},
        {"compile": {"command": "gcc"}},
        {"compile": {"command": []}},
        {"compile": {"extra_flags": "-Wall"}},
        {"backend": {"kind": "remote_embedding", "endpoint": 5, "model_id": "m"}},
        {"clause_vocabulary": 5},
        {"tag_vocabulary": 5},
        {"compile": {"cache_dir": 5}},
        {"compile": {"timeout": True}},
        {"backend": {"timeout": "30"}},
        {"weights": {"wc": "0.3"}},
        {"compile": {"timeout": float("nan")}},
        {"clause_weights": {"default": float("inf")}},
    ],
    ids=[
        "root-not-object",
        "weights-not-object",
        "compile-not-object",
        "backend-null",
        "clause-table-not-object",
        "compile-misspelled-key",
        "backend-misspelled-key",
        "clause-weights-misspelled-key",
        "clause-weights-flat-form",
        "weight-not-a-number",
        "clause-table-unknown-kind",
        "compile-enabled-not-boolean",
        "wrap-snippets-not-boolean",
        "timeout-as-failure-not-boolean",
        "compile-unknown-language",
        "compile-language-null",
        "compile-command-a-string",
        "compile-command-empty",
        "extra-flags-a-string",
        "endpoint-a-number",
        "clause-vocabulary-a-number",
        "tag-vocabulary-a-number",
        "cache-dir-a-number",
        "timeout-a-boolean",
        "timeout-a-string",
        "weight-a-string",
        "timeout-nan",
        "clause-weight-infinite",
    ],
)
def test_cli_malformed_config_section_exit_2(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    rc = main(["--config", str(bad), "strip", str(FIXTURES / "fig1_gt.c")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_values_are_read_as_their_json_types(tmp_path):
    # a JSON number is a float, a list of strings a tuple, and null keeps a
    # default that is null
    path = tmp_path / "cfg.json"
    raw = {
        "compile": {"command": ["gcc"], "extra_flags": ["-Wall"], "timeout": 5, "cache_dir": None},
        "backend": {"timeout": 2, "endpoint": None},
        "weights": {"is_blend_alpha": 1},
        "clause_vocabulary": None,
    }
    path.write_text(json.dumps(raw))
    config = load_config(path)
    assert (config.compile.command, config.compile.extra_flags) == (("gcc",), ("-Wall",))
    assert (config.compile.timeout, config.backend.timeout) == (5.0, 2.0)
    assert type(config.compile.timeout) is float and type(config.weights.is_blend_alpha) is float
    assert config.compile.cache_dir is config.backend.endpoint is config.clause_vocabulary is None
    for section, key, value, message in [
        ("compile", "command", "gcc", "compile.command must be a list of strings, got 'gcc'"),
        # a list is refused at its first item that is not a string
        ("compile", "extra_flags", ["-W", 1], "compile.extra_flags[1] must be a string, got 1"),
        ("compile", "command", ["gcc", None, 2], "compile.command[1] must be a string, got None"),
        ("backend", "kind", 1, "backend.kind must be a string, got 1"),
        ("compile", "timeout", "30", "compile.timeout must be a number, got '30'"),
        ("compile", "wrap_snippets", None, "compile.wrap_snippets must be true or false, got None"),
    ]:
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message


def test_cli_restores_the_gc_threshold_on_every_exit(tmp_path, capsys):
    # main raises the collector's generation-0 threshold while it runs; the
    # threshold is process-wide, so every way out must put the caller's back
    bad = tmp_path / "bad.json"
    bad.write_text("{\"weights\": {\"wc\": 0.999}}")
    source = str(FIXTURES / "fig1_gt.c")
    exits = [
        (["strip", source], 0),
        (["--jobs", "0", "strip", source], 2),  # a usage error
        (["--version"], 0),
        (["--config", str(bad), "strip", source], 2),
        (["strip", str(tmp_path / "missing.c")], 1),
    ]
    saved = gc.get_threshold()
    try:
        gc.set_threshold(555, 7, 9)
        for argv, code in exits:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert (rc, gc.get_threshold()) == (code, (555, 7, 9)), argv
    finally:
        gc.set_threshold(*saved)


def test_cli_strip(capsys):
    rc = main(["strip", str(FIXTURES / "fig1_gt.c")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "#pragma omp" not in out
    assert "for (i = 0; i < N; ++i)" in out


def test_cli_strip_lexes_once(tokenize_calls, capsys):
    assert main(["strip", str(FIXTURES / "fig1_gt.c")]) == 0
    assert tokenize_calls == [fixture_text("fig1_gt.c")]


def test_cli_annotate_lexes_each_file_once(tokenize_calls, tmp_path, capsys):
    names = ["fig1_gt.c", "single_gt.c"]
    for name in names:
        (tmp_path / name).write_text(fixture_text(name))
    assert main(["annotate", str(tmp_path)]) == 0
    assert sorted(tokenize_calls) == sorted(map(fixture_text, names))


def test_cli_corrupt_lexes_once(tokenize_calls, capsys):
    assert main(["corrupt", str(FIXTURES / "single_gt.c"), "--seed", "1"]) == 0
    assert tokenize_calls == [fixture_text("single_gt.c")]


@pytest.mark.parametrize(
    "argv",
    [
        ["annotate"],
        ["corrupt", "--seed", "5", "--modes", "mask,shuffle,drop,keyword_drop,lang_token_insert"],
        ["strip"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_corpus_commands_build_no_token_stream(monkeypatch, tmp_path, capsys, argv):
    def refuse(unit):
        raise AssertionError("the full token stream was built")

    commented = tmp_path / "commented.c"
    commented.write_text("// lead\n" + fixture_text("xs_kernel.c").replace("\n", " /* c */\n", 4))
    monkeypatch.setattr(SourceUnit, "tokens", property(refuse))
    command, *options = argv
    for path in (FIXTURES / "fig1_gt.c", commented):
        assert main([command, str(path), *options]) == 0


@requires_compiler
def test_no_command_builds_the_token_stream(monkeypatch, tmp_path, capsys):
    # SourceUnit.tokens is derived from the columns, slower than lexing them;
    # no command, scoring or corpus, may need it
    def refuse(unit):
        raise AssertionError("the full token stream was built")

    monkeypatch.setattr(SourceUnit, "tokens", property(refuse))
    names = sorted(p.name for p in FIXTURES.glob("*.c"))
    fixtures = [str(FIXTURES / name) for name in names]
    gts = [path for path in fixtures if path.endswith("_gt.c")]
    candidates = list(map(fixture_text, names))
    ds = tmp_path / "ds.jsonl"
    _write_jsonl(ds, [{"id": gt, "reference": Path(gt).read_text(), "candidates": candidates} for gt in gts])
    runs = [["dataset", str(ds)], ["classify", str(ds)]]
    runs += [["rank", gt, *fixtures] for gt in gts]
    modes = "mask,shuffle,drop,keyword_drop,lang_token_insert"
    for path in fixtures:
        runs += [["score", gts[0], path], ["strip", path], ["annotate", path]]
        runs += [["corrupt", path, "--seed", "5", "--modes", modes], ["compile-check", path]]
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_cli_classify(tmp_path, capsys):
    ds = tmp_path / "ds.jsonl"
    _write_jsonl(
        ds,
        [
            {
                "id": "fig1",
                "reference": fixture_text("fig1_gt.c"),
                "candidates": [fixture_text("fig1_gen.c")],
            }
        ],
    )
    cfg = _no_compile_cfg_file(tmp_path)
    rc = main(["--config", cfg, "classify", str(ds)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fn"] == 2  # reduction and schedule missing in fig1_gen
    assert payload["per_clause_f1"]["collapse"] == 1.0


@pytest.mark.parametrize(
    "command, emit, render",
    [
        ("dataset", "csv", lambda report: report.to_csv()),
        ("dataset", "table", lambda report: report.to_table()),
        ("classify", "csv", lambda report: report.per_clause_csv()),
    ],
)
def test_cli_prints_the_reports_rendering(tmp_path, small_dataset, capsys, command, emit, render):
    records, errors = load_jsonl(small_dataset)
    expected = render(evaluate_dataset(records, NO_COMPILE_CFG, load_errors=errors))
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "--emit", emit, command, str(small_dataset)]) == 0
    assert capsys.readouterr().out == expected


def test_cli_dataset_reports_a_record_whose_every_candidate_fails(tmp_path, capsys, monkeypatch):
    _fail_boom(monkeypatch)
    gt = fixture_text("single_gt.c")
    ds = tmp_path / "ds.jsonl"
    _write_jsonl(
        ds,
        [
            {"id": "bad", "reference": gt, "candidates": ["BOOM", "BOOM"]},
            {"id": "ok", "reference": gt, "candidates": [gt]},
        ],
    )
    records, load_errors = load_jsonl(ds)
    report = evaluate_dataset(records, NO_COMPILE_CFG, load_errors=load_errors)
    bad, ok = report.records
    assert (bad["id"], bad["error"], "breakdown" in bad) == ("bad", "unreadable candidate", False)
    assert "error" not in ok
    assert report.errors == ["record bad: unreadable candidate"]
    table = report.to_table().splitlines()
    assert table[2].split() == ["bad", "error"]
    assert table[3].split()[:2] == ["ok", "100.00"]

    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "--emit", "table", "dataset", str(ds)]) == 1
    assert capsys.readouterr().out == report.to_table()


def test_a_failure_without_a_message_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    import ompbleu.report as report_mod

    def failing(*args, **kwargs):
        raise RuntimeError()

    monkeypatch.setattr(report_mod, "ompbleu_score", failing)
    gt, gen = str(FIXTURES / "fig1_gt.c"), str(FIXTURES / "fig1_gen.c")
    assert main(["rank", gt, gen]) == 1
    [candidate] = json.loads(capsys.readouterr().out)["candidates"]
    assert (candidate["breakdown"], candidate["error"]) == (None, "RuntimeError")
    assert main(["score", gt, gen]) == 1
    assert capsys.readouterr().err == "error: RuntimeError\n"
    ds = tmp_path / "ds.jsonl"
    _write_jsonl(ds, [{"id": "bad", "reference": "x", "candidates": ["y"]}])
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "dataset", str(ds)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["records"][0]["error"] == "RuntimeError"
    assert report["errors"] == ["record bad: RuntimeError"]


@pytest.mark.parametrize("emit", ["json", "csv"])
def test_cli_classify_with_no_scorable_record(tmp_path, capsys, monkeypatch, emit):
    _fail_boom(monkeypatch)
    ds = tmp_path / "ds.jsonl"
    _write_jsonl(ds, [{"id": "bad", "reference": fixture_text("single_gt.c"), "candidates": ["BOOM"]}])
    cfg = _no_compile_cfg_file(tmp_path)
    assert main(["--config", cfg, "--emit", emit, "classify", str(ds)]) == 1
    captured = capsys.readouterr()
    assert captured.out == '{"error": "no scorable records"}\n'
    assert captured.err == ""


def test_cli_annotate(capsys):
    rc = main(["annotate", str(FIXTURES / "fig1_gt.c")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    tags = [int(x) for x in line.split(", ")]
    assert len(tags) > 10
    assert any(t != 0 for t in tags)


def test_cli_annotate_refuses_a_directory_without_sources(tmp_path, capsys):
    # one empty file prints an empty line; no file at all is an error
    (tmp_path / "notes.txt").write_text("int x;\n")
    out = tmp_path / "out.txt"
    for argv in (["annotate", str(tmp_path)], ["--out", str(out), "annotate", str(tmp_path)]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: no source files under {tmp_path}\n")
    assert not out.exists()
    (tmp_path / "empty.c").write_text("")
    assert main(["annotate", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "\n"


def test_cli_corrupt_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    args = ["corrupt", str(FIXTURES / "single_gt.c"), "--seed", "9", "--step", "3",
            "--r0", "0.4", "--r1", "0.4"]
    assert main(["--out", str(out1), *args]) == 0
    assert main(["--out", str(out2), *args]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "MASK" in out1.read_text()


def test_cli_corrupt_rejects_bad_modes(tmp_path, capsys):
    rc = main(
        ["corrupt", str(FIXTURES / "single_gt.c"), "--seed", "1", "--modes", "nope"]
    )
    assert rc == 2


def test_cli_corrupt_rejects_a_negative_step(capsys):
    rc = main(["corrupt", str(FIXTURES / "single_gt.c"), "--seed", "1", "--step", "-100000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: step must be non-negative, got -100000\n"


NOT_UTF8 = b"int x;\xff\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "{ok}", "{bad}"],
        ["rank", "{ok}", "{ok}", "{bad}"],
        ["strip", "{bad}"],
        ["annotate", "{bad}"],
        ["corrupt", "{bad}", "--seed", "1"],
        ["compile-check", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_single_file_not_utf8_exit_1(tmp_path, capsys, argv):
    bad, ok = tmp_path / "bad.c", tmp_path / "ok.c"
    bad.write_bytes(NOT_UTF8)
    ok.write_text("int x;\n")
    cfg = _no_compile_cfg_file(tmp_path)
    rc = main(["--config", cfg, *(a.format(ok=ok, bad=bad) for a in argv)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad} is not UTF-8 text (invalid start byte at byte 6)\n"


def test_cli_jsonl_dataset_not_utf8_exit_1(tmp_path, capsys):
    ds = tmp_path / "ds.jsonl"
    record = json.dumps({"id": "a", "reference": "x", "candidates": ["x"]})
    ds.write_bytes(record.encode() + b"\n" + NOT_UTF8)
    rc = main(["--config", _no_compile_cfg_file(tmp_path), "dataset", str(ds)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {ds} is not UTF-8 text")


def test_cli_dirs_dataset_skips_a_pair_that_is_not_utf8(tmp_path):
    for side in ("ref", "gen"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.c").write_text("int a;\n")
    (tmp_path / "ref" / "b.c").write_text("int b;\n")
    (tmp_path / "gen" / "b.c").write_bytes(NOT_UTF8)
    out = tmp_path / "report.json"
    rc = main(["--config", _no_compile_cfg_file(tmp_path), "--out", str(out),
               "dataset", "--format", "dirs", str(tmp_path)])
    assert rc == 1
    report = json.loads(out.read_text())
    assert [r["id"] for r in report["records"]] == ["a.c"]
    assert report["records"][0]["breakdown"]["composite"] == 100.0
    [error] = report["errors"]
    assert error.startswith("b.c: skipped (") and "gen/b.c is not UTF-8 text" in error


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        main(["--jobs", jobs, "dataset", str(tmp_path / "ds.jsonl")])
    assert exit_info.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


# the `--emit` formats each command takes
EMIT_FORMATS = {"dataset": {"json", "csv", "table"}, "classify": {"json", "csv"}}


def test_every_command_names_its_handler_and_formats(tmp_path):
    from ompbleu import cli

    [commands] = [a.choices for a in cli._build_parser()._actions if a.dest == "command"]
    assert {command: set(renderers) for command, renderers in cli._RENDERERS.items()} == EMIT_FORMATS
    missing = str(tmp_path / "missing.c")
    operands = {"score": [missing, missing], "rank": [missing, missing],
                "corrupt": [missing, "--seed", "1"]}
    for command, subparser in commands.items():
        assert callable(subparser.get_default("run")), command
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        taken = set()
        for emit in ("json", "csv", "table"):
            try:
                # a taken format reaches the handler, which cannot read the file
                assert main(["--emit", emit, command, *operands.get(command, [missing])]) == 1
                taken.add(emit)
            except SystemExit as exc:
                assert exc.code == 2
        assert taken == EMIT_FORMATS.get(command, {"json"}), command


@pytest.mark.parametrize(
    "command, emit",
    [
        (command, emit)
        for command in ("score", "rank", "strip", "annotate", "corrupt", "compile-check")
        for emit in ("csv", "table")
    ]
    + [("classify", "table")],
)
def test_cli_score_and_rank_refuse_a_report_format(capsys, command, emit):
    formats = "json or csv" if command == "classify" else "json"
    source = str(FIXTURES / "fig1_gt.c")
    operands = {
        "score": [source, str(FIXTURES / "fig1_gen.c")],
        "rank": [source, str(FIXTURES / "fig1_gen.c")],
        "corrupt": [source, "--seed", "1"],
    }.get(command, [source])
    with pytest.raises(SystemExit) as exit_info:
        main(["--emit", emit, command, *operands])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --emit: {command} takes {formats}, not {emit}" in captured.err


@pytest.mark.parametrize(
    "content, message",
    [
        (
            b"none\nparallel\nprivate\n# comment\nparallel\n",
            "duplicate entries in vocabulary {}: ['parallel']",
        ),
        (b"none\n\xff\n", "cannot read vocabulary {}: 'utf-8' codec can't decode"),
        (None, "cannot read vocabulary {}: [Errno 2]"),
    ],
    ids=["duplicates", "not-utf8", "missing"],
)
@pytest.mark.parametrize(
    "key, command", [("clause_vocabulary", "dataset"), ("tag_vocabulary", "annotate")]
)
def test_cli_bad_vocabulary_exit_2(tmp_path, small_dataset, capsys, key, command, content, message):
    vocab = tmp_path / "vocab.txt"
    if content is not None:
        vocab.write_bytes(content)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"compile_enabled": False, key: str(vocab)}))
    target = small_dataset if command == "dataset" else FIXTURES / "fig1_gt.c"
    rc = main(["--config", str(cfg), command, str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: " + message.format(vocab))


@requires_compiler
def test_cli_compile_check(capsys):
    rc = main(["compile-check", str(FIXTURES / "single_gt.c")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"] == 1
    assert (payload["language"], payload["language_defaulted"]) == ("c", False)


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ompbleu.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ompbleu" in proc.stdout


# Runs commands through `cli.main` one after another, then prints, for each,
# the modules loaded between start-up and its end.
FOOTPRINT_SCRIPT = """
import json, sys
before = set(sys.modules)
from ompbleu import cli
source, candidate, dataset, config, in_memory, on_disk, out = sys.argv[1:]
stages = {
    "strip": [config, "strip", source],
    "annotate": [config, "annotate", source],
    "corrupt": [config, "corrupt", source, "--seed", "1"],
    "score": [config, "score", source, candidate],
    "dataset": [config, "--jobs", "2", "--emit", "table", "dataset", dataset],
    "dataset csv": [config, "--emit", "csv", "dataset", dataset],
    "compile-check": [in_memory, "compile-check", source],
    "compile-check cache_dir": [on_disk, "compile-check", source],
    "compile-check cache_dir hit": [on_disk, "compile-check", source],
}
loaded = {}
for stage, (cfg, *args) in stages.items():
    assert cli.main(["--config", cfg, "--out", out, *args]) == 0, stage
    loaded[stage] = sorted(set(sys.modules) - before)
print(json.dumps(loaded))
"""


def test_commands_load_only_the_modules_they_run(tmp_path, small_dataset):
    # pytest has loaded all of these modules already: the commands run in a
    # fresh interpreter
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"compile_enabled": False}))
    # a stand-in compiler that accepts any unit, without and with a cache_dir
    compilers = [tmp_path / "in_memory.json", tmp_path / "on_disk.json"]
    for path, cache_dir in zip(compilers, (None, str(tmp_path / "cache"))):
        compiler = {"command": [sys.executable, "-c", ""], "cache_dir": cache_dir}
        path.write_text(json.dumps({"compile": compiler}))
    env = {k: v for k, v in os.environ.items() if k != "OMPBLEU_CC"}
    env["PYTHONPATH"] = str(Path(ompbleu.__file__).parents[1])
    args = [FIXTURES / "fig1_gt.c", FIXTURES / "fig1_gen.c", small_dataset, cfg, *compilers,
            tmp_path / "out"]
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {stage: set(names) for stage, names in json.loads(proc.stdout).items()}
    deferred = {"_hashlib", "subprocess", "concurrent.futures", "logging", "csv"}
    assert loaded["dataset"] & deferred == set()
    assert "statistics" not in loaded["score"]
    assert "statistics" in loaded["dataset"]
    # the paths that use them do load them
    assert "csv" in loaded["dataset csv"]
    assert "subprocess" in loaded["compile-check"]
    # the compile cache is keyed without hashlib, in memory as on disk
    assert all("_hashlib" not in names for names in loaded.values())
    assert json.loads((tmp_path / "out").read_text())["cached"] is True
