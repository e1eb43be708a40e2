"""Binary compilation score via an external toolchain subprocess.

Each unit compiles in one language, C or C++, resolved from the config, a
hint of the unit's own (a dataset record's ``language`` field or a file
suffix) and a default.  Results are cached under the exact source, compiler
argv, flags, mode and language, so re-scoring a corpus never recompiles
unchanged code.  A missing compiler or a timeout raises instead of silently
scoring 0; callers may opt into mapping timeouts to 0, which is not cached.
"""

from __future__ import annotations

# subprocess and shlex are imported where they are used, so that a command
# that compiles nothing does not load them.
import functools
import json
import os
import re
import shutil
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

ENV_COMPILER_OVERRIDE = "OMPBLEU_CC"

# Every accepted spelling of a language, as a config value, a record's
# "language" field or a file suffix (without its dot), and the language it
# names.
LANGUAGE_SPELLINGS = {
    "c": "c",
    "c++": "c++",
    "cpp": "c++",
    "cc": "c++",
    "cxx": "c++",
    "hpp": "c++",
}
# The language of a unit that names none, and the config value that asks
# for each unit's own.
DEFAULT_LANGUAGE = "c++"
AUTO_LANGUAGE = "auto"

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


def canonical_language(spelling: str) -> str:
    """The language a spelling names; ``ValueError`` for any other value."""
    try:
        return LANGUAGE_SPELLINGS[spelling]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown language {spelling!r}: expected one of {sorted(LANGUAGE_SPELLINGS)}"
        ) from None


def language_of_path(path: str | os.PathLike) -> str | None:
    """The language a file suffix names, or None (``.h``, ``.txt``, none)."""
    return LANGUAGE_SPELLINGS.get(Path(path).suffix[1:])


def resolve_language(setting: str, hint: str | None) -> tuple[str, bool]:
    """The language to compile a unit in, and whether it was defaulted.

    An explicit ``setting`` (a :attr:`CompileConfig.language`) wins; under
    ``"auto"`` the unit's own ``hint`` decides, and without one the unit
    compiles as :data:`DEFAULT_LANGUAGE`.
    """
    if setting != AUTO_LANGUAGE:
        return setting, False
    if hint is not None:
        return canonical_language(hint), False
    return DEFAULT_LANGUAGE, True


class CompileError(RuntimeError):
    """Toolchain could not be invoked at all (distinct from a failing build)."""


class CompileTimeout(CompileError):
    """The compiler exceeded the configured time budget."""


@dataclass(frozen=True)
class CompileConfig:
    """How to invoke the toolchain for the compilation score."""

    command: tuple[str, ...] | None = None  # None: resolve clang, then gcc
    extra_flags: tuple[str, ...] = ()
    mode: str = "syntax_only"  # or "full"
    timeout: float = 30.0
    wrap_snippets: bool = True
    cache_dir: str | None = None
    timeout_as_failure: bool = False
    language: str = AUTO_LANGUAGE  # or a key of LANGUAGE_SPELLINGS, which always wins

    def __post_init__(self) -> None:
        if self.language != AUTO_LANGUAGE:
            object.__setattr__(self, "language", canonical_language(self.language))
        if self.timeout <= 0:
            raise ValueError("compile timeout must be > 0")
        if self.mode not in ("syntax_only", "full"):
            raise ValueError(f"unknown compile mode: {self.mode!r}")
        if self.command is not None and not self.command:
            raise ValueError("compiler command must be non-empty")


@dataclass(frozen=True)
class CompileResult:
    score: int
    diagnostics: str
    duration: float
    cached: bool
    language: str  # the language the unit was compiled in
    language_defaulted: bool  # no config value or hint named it
    command: tuple[str, ...] = ()


# Without a cache_dir, results live in memory: the _MEMORY_CACHE_ENTRIES most
# recently used, as many as the embedding client keeps.
_MEMORY_CACHE_ENTRIES = 4096
_memory_cache: OrderedDict[str, dict] = OrderedDict()
_memory_lock = threading.Lock()


def resolve_compiler(config: CompileConfig) -> tuple[str, ...]:
    """The compiler argv to use, honoring the environment override; an
    override that is blank or not shell-quoted right is a :class:`CompileError`."""
    override = os.environ.get(ENV_COMPILER_OVERRIDE)
    if override:
        import shlex

        try:
            argv = tuple(shlex.split(override))
        except ValueError as exc:
            raise CompileError(f"{ENV_COMPILER_OVERRIDE} cannot be split: {exc}") from None
        if not argv:
            raise CompileError(f"{ENV_COMPILER_OVERRIDE} names no compiler: {override!r}")
        return argv
    if config.command is not None:
        return tuple(config.command)
    found = _compiler_on_path(os.environ.get("PATH", os.defpath))
    if found is None:
        raise CompileError("no C/C++ compiler found (tried clang, gcc, cc)")
    return (found,)


@functools.lru_cache(maxsize=4)
def _compiler_on_path(path: str) -> str | None:
    """The first of clang, gcc and cc on ``path``.  Looked up once per PATH
    value: each lookup stats every directory on it, which cost a cached
    compile more than its cache read."""
    for candidate in ("clang", "gcc", "cc"):
        if shutil.which(candidate, path=path):
            return candidate
    return None


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


def _cache_key(
    source: str, config: CompileConfig, argv: tuple[str, ...], language: str
) -> str:
    """Every input of a compile, as sorted JSON: the memory cache's key, and
    the key a ``cache_dir`` entry must hold to be a hit."""
    return json.dumps(
        {
            "source": source,
            "argv": list(argv),
            "flags": list(config.extra_flags),
            "mode": config.mode,
            "wrap": config.wrap_snippets,
            "language": language,
        },
        sort_keys=True,
    )


def _entry_name(key: str) -> str:
    """The ``cache_dir`` file of a key.  Two keys may share one; the entry
    then holds the last one stored, and the other misses."""
    data = key.encode("utf-8")
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}.json"


def _cache_load(config: CompileConfig, key: str) -> dict | None:
    if config.cache_dir:
        try:
            entry = json.loads((Path(config.cache_dir) / _entry_name(key)).read_text())
        except (OSError, ValueError):
            return None
        return entry if type(entry) is dict and entry.get("key") == key else None
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
                json.dump({**entry, "key": key}, fh)
            os.replace(tmp, cache_dir / _entry_name(key))
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return
    with _memory_lock:
        _memory_cache[key] = entry
        _memory_cache.move_to_end(key)
        if len(_memory_cache) > _MEMORY_CACHE_ENTRIES:
            _memory_cache.popitem(last=False)


def compile_score(
    source: str, config: CompileConfig | None = None, language: str | None = None
) -> CompileResult:
    """1 if the source compiles under the configured toolchain, else 0.

    ``language`` is the unit's own hint, a spelling from
    :data:`LANGUAGE_SPELLINGS`; see :func:`resolve_language`.
    """
    cfg = config if config is not None else CompileConfig()
    lang, defaulted = resolve_language(cfg.language, language)
    argv = resolve_compiler(cfg)
    key = _cache_key(source, cfg, argv, lang)
    entry = _cache_load(cfg, key)
    cached = entry is not None
    if not cached:
        entry, timed_out = _compile(source, cfg, argv, lang)
        if not timed_out:  # a timeout says nothing about the source
            _cache_store(cfg, key, entry)
    return CompileResult(
        score=entry["score"],
        diagnostics=entry["diagnostics"],
        duration=entry["duration"],
        cached=cached,
        language=lang,
        language_defaulted=defaulted,
        command=tuple(entry["command"]),
    )


def _compile(
    source: str, cfg: CompileConfig, argv: tuple[str, ...], lang: str
) -> tuple[dict, bool]:
    """Compile ``source`` in a temporary directory and return the run's
    cache entry and whether it timed out; under ``timeout_as_failure`` a
    timeout is a failed compile."""
    import subprocess

    text = source
    wrapped = False
    if cfg.wrap_snippets:
        text, wrapped = _wrap_source(source)

    suffix = ".cpp" if lang == "c++" else ".c"
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
            timed_out, score, diagnostics = True, 0, f"timeout after {cfg.timeout}s"
        else:
            timed_out = False
            score = 1 if proc.returncode == 0 else 0
            diagnostics = (proc.stderr or "") + (proc.stdout or "")
            if wrapped:
                diagnostics = "(snippet wrapped in stub translation unit)\n" + diagnostics
        duration = time.monotonic() - start
    return {"score": score, "diagnostics": diagnostics, "duration": duration, "command": cmd}, timed_out
