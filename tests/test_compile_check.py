import json
import os
from collections import OrderedDict

import pytest

from ompbleu import compile_check, metrics
from ompbleu.cli import main
from ompbleu.config import EvalConfig
from ompbleu.metrics import analyze, ompbleu_score
from ompbleu.report import DatasetRecord, evaluate_dataset, load_paired_dirs, rank_candidates
from ompbleu.compile_check import (
    CompileConfig,
    CompileError,
    CompileTimeout,
    compile_score,
    resolve_compiler,
)
from ompbleu.syntax import extract_directives, parse_source, strip_openmp

from conftest import FIXTURES, fixture_text, requires_compiler

pytestmark = requires_compiler


def test_complete_program_compiles(tmp_path):
    cfg = CompileConfig(cache_dir=str(tmp_path))
    result = compile_score(fixture_text("single_gt.c"), cfg)
    assert result.score == 1
    assert not result.cached


def test_misplaced_pragma_fails():
    result = compile_score(fixture_text("single_case1.c"), CompileConfig())
    assert result.score == 0
    assert result.diagnostics


def test_empty_source_is_vacuously_fine():
    result = compile_score("", CompileConfig(mode="syntax_only"))
    assert result.score == 1


def test_snippet_wrapping():
    snippet = 'printf("hello %d\\n", 42);'
    wrapped = compile_score(snippet, CompileConfig(wrap_snippets=True))
    assert wrapped.score == 1
    assert "wrapped" in wrapped.diagnostics
    bare = compile_score(snippet, CompileConfig(wrap_snippets=False))
    assert bare.score == 0


def test_second_call_served_from_cache(tmp_path):
    cfg = CompileConfig(cache_dir=str(tmp_path))
    source = fixture_text("fig1_gt.c")
    first = compile_score(source, cfg)
    second = compile_score(source, cfg)
    assert first.score == second.score == 1
    assert not first.cached
    assert second.cached


def test_memory_cache_when_no_dir():
    cfg = CompileConfig()
    source = "int main(void){return 41;}\n"
    first = compile_score(source, cfg)
    second = compile_score(source, cfg)
    assert not first.cached
    assert second.cached


def test_memory_cache_keeps_the_most_recently_used(monkeypatch):
    monkeypatch.setattr(compile_check, "_memory_cache", OrderedDict())
    cfg = CompileConfig()
    for i in range(compile_check._MEMORY_CACHE_ENTRIES):
        compile_check._cache_store(cfg, f"k{i}", {"score": i})
    assert compile_check._cache_load(cfg, "k0") == {"score": 0}  # now the newest used
    compile_check._cache_store(cfg, "new", {"score": -1})
    assert len(compile_check._memory_cache) == compile_check._MEMORY_CACHE_ENTRIES
    assert compile_check._cache_load(cfg, "k1") is None  # the oldest, evicted
    assert compile_check._cache_load(cfg, "k0") == {"score": 0}
    assert compile_check._cache_load(cfg, "new") == {"score": -1}


def test_a_shared_entry_name_never_serves_another_units_verdict(monkeypatch, tmp_path):
    monkeypatch.setattr(compile_check, "_entry_name", lambda key: "same.json")
    cfg = CompileConfig(cache_dir=str(tmp_path))
    good, bad = fixture_text("single_gt.c"), fixture_text("single_case1.c")
    first, second = compile_score(good, cfg), compile_score(bad, cfg)
    assert (first.score, first.cached, second.score, second.cached) == (1, False, 0, False)
    assert [p.name for p in tmp_path.iterdir()] == ["same.json"]
    again = compile_score(good, cfg)  # the entry now holds the other unit
    assert (again.score, again.cached) == (1, False)
    assert compile_score(good, cfg).cached


@pytest.mark.parametrize("text", ["[]", "null", "7", '"x"', '{"score": 1}', "{", ""])
def test_a_cache_file_that_is_not_the_units_entry_is_a_miss(tmp_path, capsys, text):
    cache = tmp_path / "cache"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"compile": {"cache_dir": str(cache)}}))
    unit = str(FIXTURES / "single_gt.c")
    assert main(["--config", str(config), "compile-check", unit]) == 0
    assert json.loads(capsys.readouterr().out)["cached"] is False
    (entry,) = cache.iterdir()
    entry.write_text(text)
    assert main(["--config", str(config), "compile-check", unit]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["score"], json.loads(out)["cached"], err) == (1, False, "")
    assert main(["--config", str(config), "compile-check", unit]) == 0  # stored again
    assert json.loads(capsys.readouterr().out)["cached"] is True


def test_cache_distinguishes_configs(tmp_path):
    src = fixture_text("fig1_gt.c")
    a = compile_score(src, CompileConfig(cache_dir=str(tmp_path), extra_flags=("-Wall",)))
    b = compile_score(src, CompileConfig(cache_dir=str(tmp_path)))
    assert not a.cached and not b.cached


def test_env_override_resolution(monkeypatch):
    monkeypatch.setenv("OMPBLEU_CC", "my-cc --special")
    assert resolve_compiler(CompileConfig()) == ("my-cc", "--special")


@pytest.mark.parametrize(
    "override, message",
    [(" ", "names no compiler: ' '"), ("gcc 'x", "cannot be split: No closing quotation")],
)
def test_unusable_env_override_is_a_compile_error(monkeypatch, tmp_path, capsys, override, message):
    monkeypatch.setenv("OMPBLEU_CC", override)
    source = tmp_path / "unit.c"
    source.write_text("int main(void){return 0;}\n")
    assert main(["compile-check", str(source)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: OMPBLEU_CC {message}\n"
    ds = tmp_path / "ds.jsonl"
    ds.write_text(json.dumps({"id": "r", "reference": "int x;", "candidates": ["int x;"]}))
    assert main(["--out", str(tmp_path / "report.json"), "dataset", str(ds)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["errors"] == [f"record r: OMPBLEU_CC {message}"]


def test_missing_compiler_is_an_error(monkeypatch):
    monkeypatch.delenv("OMPBLEU_CC", raising=False)
    cfg = CompileConfig(command=("definitely-not-a-compiler-xyz",))
    with pytest.raises(CompileError):
        compile_score("int main(void){return 0;}", cfg)


def test_compiler_lookup_follows_path(monkeypatch, tmp_path):
    monkeypatch.delenv("OMPBLEU_CC", raising=False)
    found = resolve_compiler(CompileConfig())
    monkeypatch.setenv("PATH", str(tmp_path))  # no compiler there
    with pytest.raises(CompileError, match="no C/C\\+\\+ compiler found"):
        resolve_compiler(CompileConfig())
    monkeypatch.undo()
    assert resolve_compiler(CompileConfig()) == found


def test_timeout_raises_or_maps(monkeypatch, tmp_path):
    # a "compiler" that sleeps forever
    slow = tmp_path / "slowcc"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(0o755)
    cfg = CompileConfig(command=(str(slow),), timeout=0.3)
    with pytest.raises(CompileTimeout):
        compile_score("int main(void){return 0;}\n", cfg)
    mapped = CompileConfig(
        command=(str(slow),), timeout=0.3, timeout_as_failure=True
    )
    result = compile_score("int main(void){return 0;}\n", mapped)
    assert result.score == 0
    assert "timeout" in result.diagnostics


@pytest.mark.parametrize("cache_dir", [None, "cache"])
def test_a_timeout_is_not_cached(monkeypatch, tmp_path, cache_dir):
    monkeypatch.setattr(compile_check, "_memory_cache", OrderedDict())
    # a "compiler" that accepts anything, after 1 s
    slow = tmp_path / "slowcc"
    slow.write_text("#!/bin/sh\nsleep 1\n")
    slow.chmod(0o755)
    cache = cache_dir and str(tmp_path / cache_dir)
    source = "int main(void){return 0;}\n"
    hurried = CompileConfig(command=(str(slow),), timeout=0.3, timeout_as_failure=True, cache_dir=cache)
    result = compile_score(source, hurried)
    assert (result.score, result.cached, result.diagnostics) == (0, False, "timeout after 0.3s")
    patient = compile_score(source, CompileConfig(command=(str(slow),), cache_dir=cache))
    assert (patient.score, patient.cached, patient.diagnostics) == (1, False, "")
    assert compile_score(source, hurried).cached  # the verdict is cached


def test_config_validation():
    with pytest.raises(ValueError):
        CompileConfig(timeout=0)
    with pytest.raises(ValueError):
        CompileConfig(mode="link-only")
    with pytest.raises(ValueError):
        CompileConfig(command=())


def test_stripped_code_still_compiles_and_pragmas_readd():
    # golden fixtures: serial version compiles, and the original (pragmas
    # re-added) compiles under OpenMP flags
    for name in ("single_gt.c", "multiple_gt.c", "fig1_gt.c", "xs_kernel.c"):
        source = fixture_text(name)
        serial = strip_openmp(parse_source(source))
        assert extract_directives(parse_source(serial)) == []
        assert compile_score(serial, CompileConfig()).score == 1, name
        assert compile_score(source, CompileConfig()).score == 1, name


def test_failing_candidate_report_identical_across_cold_caches(tmp_path):
    record = DatasetRecord(
        id="r",
        reference=fixture_text("single_gt.c"),
        candidates=(fixture_text("single_case1.c"),),
    )
    reports = [
        evaluate_dataset(
            [record], EvalConfig(compile=CompileConfig(cache_dir=str(tmp_path / cache)))
        ).to_json()
        for cache in ("first", "second")
    ]
    assert '"compile": 0.0' in reports[0]
    assert reports[0] == reports[1]


# -- the language of a unit ---------------------------------------------------

# valid C, but C++ refuses to convert malloc's void * without a cast
UNCAST_MALLOC = """\
#include <stdlib.h>

int main(void) {
    int n = 100;
    double *b = malloc(sizeof(double) * n);
    #pragma omp parallel for
    for (int i = 0; i < n; i++)
        b[i] = 0.5 * i;
    free(b);
    return 0;
}
"""
CAST_MALLOC = UNCAST_MALLOC.replace("= malloc", "= (double *)malloc")


def test_language_spellings_and_validation():
    assert CompileConfig().language == "auto"
    assert CompileConfig(language="cpp").language == "c++"
    assert CompileConfig(language="c").language == "c"
    for bad in ("C", "fortran", "", "c++17"):
        with pytest.raises(ValueError, match="unknown language"):
            CompileConfig(language=bad)
    assert compile_check.resolve_language("auto", None) == ("c++", True)
    assert compile_check.resolve_language("auto", "cxx") == ("c++", False)
    assert compile_check.resolve_language("c", "cpp") == ("c", False)
    assert [compile_check.language_of_path(f"u.{s}") for s in ("c", "cc", "hpp", "h")] == [
        "c", "c++", "c++", None,
    ]


def test_unit_compiles_in_its_own_language(tmp_path):
    cfg = CompileConfig(cache_dir=str(tmp_path))
    as_c = compile_score(UNCAST_MALLOC, cfg, "c")
    as_cpp = compile_score(UNCAST_MALLOC, cfg, "cpp")
    unhinted = compile_score(UNCAST_MALLOC, cfg)
    assert (as_c.score, as_c.language, as_c.language_defaulted) == (1, "c", False)
    assert (as_cpp.score, as_cpp.language, as_cpp.language_defaulted) == (0, "c++", False)
    assert "unit.cpp" in as_cpp.diagnostics
    # the default shares the C++ cache entry, but says it was defaulted
    assert (unhinted.score, unhinted.cached, unhinted.language_defaulted) == (0, True, True)
    # an explicit config language wins over the unit's hint
    forced = compile_score(UNCAST_MALLOC, CompileConfig(language="c++"), "c")
    assert (forced.score, forced.language) == (0, "c++")


def _dataset_rows(tmp_path, records):
    ds = tmp_path / "ds.jsonl"
    ds.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "dataset", str(ds)]) == 0
    return {row["id"]: row for row in json.loads(out.read_text())["records"]}


def test_dataset_record_language(tmp_path):
    rows = _dataset_rows(
        tmp_path,
        [
            {"id": lang or "none", "reference": CAST_MALLOC, "candidates": [UNCAST_MALLOC],
             **({"language": lang} if lang else {})}
            for lang in ("c", "cpp", None)
        ],
    )
    compiled = {
        k: (r["breakdown"]["compile"], r["language"], r["language_defaulted"])
        for k, r in rows.items()
    }
    assert compiled == {"c": (1.0, "c", False), "cpp": (0.0, "c++", False), "none": (0.0, "c++", True)}
    assert "compile" not in rows["c"]["breakdown"]["diagnostics"]
    assert rows["none"]["breakdown"]["diagnostics"]["compile"][0].startswith(
        "language defaulted to c++"
    )
    assert not any(
        d.startswith("language defaulted") for d in rows["cpp"]["breakdown"]["diagnostics"]["compile"]
    )


@pytest.mark.parametrize("suffix, language, score", [(".c", "c", 1), (".cpp", "c++", 0)])
def test_score_and_compile_check_take_the_path_suffix(tmp_path, capsys, suffix, language, score):
    ref = tmp_path / f"ref{suffix}"
    gen = tmp_path / f"gen{suffix}"
    ref.write_text(CAST_MALLOC)
    gen.write_text(UNCAST_MALLOC)
    assert main(["score", str(ref), str(gen)]) == 0
    assert json.loads(capsys.readouterr().out)["compile"] == score
    assert main(["rank", str(ref), str(gen)]) == 0
    assert json.loads(capsys.readouterr().out)["candidates"][0]["breakdown"]["compile"] == score
    assert main(["compile-check", str(gen)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["score"], payload["language"]) == (score, language)


@pytest.mark.parametrize("suffix, score", [(".c", 1.0), (".cpp", 0.0)])
def test_paired_dirs_take_the_file_suffix(tmp_path, suffix, score):
    for side, text in (("ref", CAST_MALLOC), ("gen", UNCAST_MALLOC)):
        (tmp_path / side).mkdir()
        (tmp_path / side / f"unit{suffix}").write_text(text)
    records, errors = load_paired_dirs(tmp_path)
    assert errors == []
    row = evaluate_dataset(records, EvalConfig()).records[0]
    assert row["breakdown"]["compile"] == score


def test_reference_that_does_not_compile_is_reported():
    # as C++, the uncast reference fails; the candidate's own verdict stands
    b = ompbleu_score(
        analyze(UNCAST_MALLOC, "cpp"), analyze(CAST_MALLOC, "cpp"), EvalConfig()
    )
    assert b.scores["compile"] == 1.0
    assert b.diagnostics["compile"] == [
        "reference does not compile as c++: "
        "compile = 0 then says nothing about the candidate"
    ]
    fine = ompbleu_score(analyze(UNCAST_MALLOC, "c"), analyze(CAST_MALLOC, "c"), EvalConfig())
    assert fine.scores["compile"] == 1.0 and "compile" not in fine.diagnostics


def test_reference_compiles_once_per_record(monkeypatch):
    compiled = []
    original = compile_check.compile_score

    def counting(source, config=None, language=None):
        compiled.append(source)
        return original(source, config, language)

    monkeypatch.setattr(metrics, "compile_score", counting)
    record = DatasetRecord(
        id="r", reference=CAST_MALLOC, candidates=(UNCAST_MALLOC, CAST_MALLOC, UNCAST_MALLOC),
        language="c",
    )
    ranked = rank_candidates(record, EvalConfig())
    assert [rc.breakdown.scores["compile"] for rc in ranked] == [1.0, 1.0, 1.0]
    # the reference once; candidate 1, equal to it, shares its analysis
    assert compiled.count(CAST_MALLOC) == 1


def test_mixed_language_report_identical_across_jobs_and_caches(tmp_path, thread_pools):
    records = [
        DatasetRecord(id=f"{lang}-{k}", reference=CAST_MALLOC, candidates=(UNCAST_MALLOC, CAST_MALLOC),
                      language=lang)
        for k, lang in enumerate(("c", "c++", None, "c"))
    ]
    cfg = EvalConfig(compile=CompileConfig(cache_dir=str(tmp_path / "cache")))
    cold = evaluate_dataset(records, cfg, jobs=1).to_json()
    warm = evaluate_dataset(records, cfg, jobs=1).to_json()
    fresh = EvalConfig(compile=CompileConfig(cache_dir=str(tmp_path / "fresh")))
    pooled = evaluate_dataset(records, fresh, jobs=3).to_json()
    assert cold == warm == pooled
    assert thread_pools == [3]  # the compiles overlap on threads
