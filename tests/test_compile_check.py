import os
from collections import OrderedDict

import pytest

from ompbleu import compile_check
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


def test_cache_distinguishes_configs(tmp_path):
    src = fixture_text("fig1_gt.c")
    a = compile_score(src, CompileConfig(cache_dir=str(tmp_path), extra_flags=("-Wall",)))
    b = compile_score(src, CompileConfig(cache_dir=str(tmp_path)))
    assert not a.cached and not b.cached


def test_env_override_resolution(monkeypatch):
    monkeypatch.setenv("OMPBLEU_CC", "my-cc --special")
    assert resolve_compiler(CompileConfig()) == ("my-cc", "--special")


def test_missing_compiler_is_an_error(monkeypatch):
    monkeypatch.delenv("OMPBLEU_CC", raising=False)
    cfg = CompileConfig(compiler_command=("definitely-not-a-compiler-xyz",))
    with pytest.raises(CompileError):
        compile_score("int main(void){return 0;}", cfg)


def test_timeout_raises_or_maps(monkeypatch, tmp_path):
    # a "compiler" that sleeps forever
    slow = tmp_path / "slowcc"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(0o755)
    cfg = CompileConfig(compiler_command=(str(slow),), timeout=0.3)
    with pytest.raises(CompileTimeout):
        compile_score("int main(void){return 0;}\n", cfg)
    mapped = CompileConfig(
        compiler_command=(str(slow),), timeout=0.3, timeout_as_failure=True
    )
    result = compile_score("int main(void){return 0;}\n", mapped)
    assert result.score == 0
    assert "timeout" in result.diagnostics


def test_config_validation():
    with pytest.raises(ValueError):
        CompileConfig(timeout=0)
    with pytest.raises(ValueError):
        CompileConfig(mode="link-only")
    with pytest.raises(ValueError):
        CompileConfig(compiler_command=())


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
    from ompbleu.config import EvalConfig
    from ompbleu.report import DatasetRecord, evaluate_dataset

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
