"""Binary compilation score via an external toolchain subprocess.

Results are cached by (source hash, config hash) so re-scoring a corpus
never recompiles unchanged code.  A missing compiler or a timeout raises
instead of silently scoring 0; callers may opt into mapping timeouts to 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

ENV_COMPILER_OVERRIDE = "OMPBLEU_CC"

# Prepended when a snippet has no function definition of its own.  Declares
# the common OpenMP runtime entry points instead of including omp.h, which
# is absent on clang installs without the runtime package.
SNIPPET_PROLOGUE = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#ifdef __cplusplus
extern "C" {
#endif
int omp_get_thread_num(void);
int omp_get_num_threads(void);
int omp_get_max_threads(void);
double omp_get_wtime(void);
#ifdef __cplusplus
}
#endif
"""

_FUNCTION_DEF_RE = re.compile(r"[\w:\*&>\]]\s+[\w:]+\s*\([^;{}]*\)\s*(?:const\s*)?{")


class CompileError(RuntimeError):
    """Toolchain could not be invoked at all (distinct from a failing build)."""


class CompileTimeout(CompileError):
    """The compiler exceeded the configured time budget."""


@dataclass(frozen=True)
class CompileConfig:
    """How to invoke the toolchain for the compilation score."""

    compiler_command: tuple[str, ...] | None = None  # None: resolve clang, then gcc
    extra_flags: tuple[str, ...] = ()
    mode: str = "syntax_only"  # or "full"
    timeout: float = 30.0
    wrap_snippets: bool = True
    cache_dir: str | None = None
    timeout_as_failure: bool = False
    language: str = "c++"

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("compile timeout must be > 0")
        if self.mode not in ("syntax_only", "full"):
            raise ValueError(f"unknown compile mode: {self.mode!r}")
        if self.compiler_command is not None and not self.compiler_command:
            raise ValueError("compiler command must be non-empty")


@dataclass(frozen=True)
class CompileResult:
    score: int
    diagnostics: str
    duration: float
    cached: bool
    command: tuple[str, ...] = ()


# Without a cache_dir, results live in memory: the _MEMORY_CACHE_ENTRIES most
# recently used, as many as the embedding client keeps.
_MEMORY_CACHE_ENTRIES = 4096
_memory_cache: OrderedDict[str, dict] = OrderedDict()
_memory_lock = threading.Lock()


def resolve_compiler(config: CompileConfig) -> tuple[str, ...]:
    """The compiler argv to use, honoring the environment override."""
    override = os.environ.get(ENV_COMPILER_OVERRIDE)
    if override:
        return tuple(shlex.split(override))
    if config.compiler_command is not None:
        return tuple(config.compiler_command)
    for candidate in ("clang", "gcc", "cc"):
        if shutil.which(candidate):
            return (candidate,)
    raise CompileError("no C/C++ compiler found (tried clang, gcc, cc)")


def _wrap_source(source: str) -> tuple[str, bool]:
    """Wrap bare snippets in a translation unit; full units pass through."""
    if _FUNCTION_DEF_RE.search(source):
        return source, False
    wrapped = (
        SNIPPET_PROLOGUE
        + "int main(void) {\n"
        + source
        + "\n;return 0;\n}\n"
    )
    return wrapped, True


def _cache_key(source: str, config: CompileConfig, argv: tuple[str, ...]) -> str:
    payload = json.dumps(
        {
            "source": source,
            "argv": list(argv),
            "flags": list(config.extra_flags),
            "mode": config.mode,
            "wrap": config.wrap_snippets,
            "language": config.language,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(config: CompileConfig, key: str) -> dict | None:
    if config.cache_dir:
        path = Path(config.cache_dir) / f"{key}.json"
        if path.exists():
            try:
                return json.loads(path.read_text())
            except (OSError, ValueError):
                return None
        return None
    with _memory_lock:
        entry = _memory_cache.get(key)
        if entry is not None:
            _memory_cache.move_to_end(key)
        return entry


def _cache_store(config: CompileConfig, key: str, entry: dict) -> None:
    if config.cache_dir:
        cache_dir = Path(config.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, cache_dir / f"{key}.json")
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return
    with _memory_lock:
        _memory_cache[key] = entry
        _memory_cache.move_to_end(key)
        if len(_memory_cache) > _MEMORY_CACHE_ENTRIES:
            _memory_cache.popitem(last=False)


def compile_score(source: str, config: CompileConfig | None = None) -> CompileResult:
    """1 if the source compiles under the configured toolchain, else 0."""
    cfg = config if config is not None else CompileConfig()
    argv = resolve_compiler(cfg)
    key = _cache_key(source, cfg, argv)
    entry = _cache_load(cfg, key)
    if entry is not None:
        return CompileResult(
            score=entry["score"],
            diagnostics=entry["diagnostics"],
            duration=entry["duration"],
            cached=True,
            command=tuple(entry["command"]),
        )

    text = source
    wrapped = False
    if cfg.wrap_snippets:
        text, wrapped = _wrap_source(source)

    suffix = ".cpp" if cfg.language == "c++" else ".c"
    with tempfile.TemporaryDirectory(prefix="ompbleu-cc-") as workdir:
        # relative names, run in workdir: the compiler's messages then name
        # `unit.c`/`unit.cpp`, not this call's temporary directory
        src_name = f"unit{suffix}"
        (Path(workdir) / src_name).write_text(text)
        cmd = list(argv) + ["-fopenmp"]
        if cfg.mode == "syntax_only":
            cmd.append("-fsyntax-only")
        else:
            cmd += ["-o", "unit.out"]
        cmd += list(cfg.extra_flags)
        cmd.append(src_name)

        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                timeout=cfg.timeout,
                cwd=workdir,
            )
        except FileNotFoundError as exc:
            raise CompileError(f"compiler not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            if not cfg.timeout_as_failure:
                raise CompileTimeout(
                    f"compilation exceeded {cfg.timeout}s"
                ) from exc
            duration = time.monotonic() - start
            entry = {
                "score": 0,
                "diagnostics": f"timeout after {cfg.timeout}s",
                "duration": duration,
                "command": cmd,
            }
            _cache_store(cfg, key, entry)
            return CompileResult(0, entry["diagnostics"], duration, False, tuple(cmd))
        duration = time.monotonic() - start

    score = 1 if proc.returncode == 0 else 0
    diagnostics = (proc.stderr or "") + (proc.stdout or "")
    if wrapped:
        diagnostics = "(snippet wrapped in stub translation unit)\n" + diagnostics
    entry = {
        "score": score,
        "diagnostics": diagnostics,
        "duration": duration,
        "command": cmd,
    }
    _cache_store(cfg, key, entry)
    return CompileResult(score, diagnostics, duration, False, tuple(cmd))
