"""Evaluation configuration: weights, toolchain, backend, vocabularies.

Configuration is plain JSON.  Every knob has a sensible default so an
empty config (or none at all) runs the hermetic pipeline end to end.
"""

from __future__ import annotations

import json
from collections.abc import Collection
from dataclasses import dataclass, field
from pathlib import Path

from .compile_check import AUTO_LANGUAGE, CompileConfig
from .metrics import SUBSCORE_WEIGHTS, ClauseWeightTable, MetricWeights
from .similarity import BagOfTokensBackend, RemoteEmbeddingBackend, SimilarityBackend
from .syntax.directives import KNOWN_CLAUSE_KINDS


class ConfigError(ValueError):
    """The configuration is invalid; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class BackendSpec:
    kind: str = "bag_of_tokens"
    endpoint: str | None = None
    model_id: str | None = None
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("bag_of_tokens", "remote_embedding"):
            raise ConfigError(f"unknown similarity backend: {self.kind!r}")
        if self.kind == "remote_embedding" and not (self.endpoint and self.model_id):
            raise ConfigError("remote_embedding backend needs endpoint and model_id")


@dataclass(frozen=True)
class EvalConfig:
    weights: MetricWeights = field(default_factory=MetricWeights)
    clause_weights: ClauseWeightTable = field(default_factory=ClauseWeightTable)
    backend: BackendSpec = field(default_factory=BackendSpec)
    compile: CompileConfig = field(default_factory=CompileConfig)
    compile_enabled: bool = True
    clause_vocabulary_path: str | None = None
    tag_vocabulary_path: str | None = None

    def make_backend(self) -> SimilarityBackend:
        if self.backend.kind == "remote_embedding":
            return RemoteEmbeddingBackend(
                endpoint=self.backend.endpoint or "",
                model_id=self.backend.model_id or "",
                timeout=self.backend.timeout,
            )
        return BagOfTokensBackend()

    def echo(self) -> dict:
        """JSON-serializable view of the effective configuration."""
        return {
            "weights": {**self.weights.composite, "is_blend_alpha": self.weights.is_blend_alpha},
            "clause_weights": {
                "table": dict(sorted(self.clause_weights.weights.items())),
                "default": self.clause_weights.default_weight,
            },
            "backend": {"kind": self.backend.kind, "model_id": self.backend.model_id},
            "compile": {
                "command": list(self.compile.compiler_command or []),
                "extra_flags": list(self.compile.extra_flags),
                "mode": self.compile.mode,
                "language": self.compile.language,
                "enabled": self.compile_enabled,
            },
        }


def _section(raw: object, name: str, known: Collection[str] | None) -> dict:
    """``raw`` if it is a JSON object whose keys are all in ``known``
    (``None``: any keys)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set() if known is None else set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return raw


def _flag(value: object, name: str) -> bool:
    """``value`` if it is a JSON boolean: no other value passes for one."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _build_weights(raw: object) -> MetricWeights:
    raw = _section(raw, "weights", (*SUBSCORE_WEIGHTS, "is_blend_alpha"))
    try:
        values = {key: float(value) for key, value in raw.items()}
        alpha = values.pop("is_blend_alpha", MetricWeights.is_blend_alpha)
        return MetricWeights({**SUBSCORE_WEIGHTS, **values}, alpha)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_clause_weights(raw: object) -> ClauseWeightTable:
    """The table the section gives; what it leaves out keeps the defaults of
    :class:`ClauseWeightTable`."""
    raw = _section(raw, "clause_weights", ("table", "default"))
    table = _section(raw.get("table", {}), "clause_weights table", KNOWN_CLAUSE_KINDS)
    try:
        given = {"weights": {k: float(v) for k, v in table.items()}} if "table" in raw else {}
        if "default" in raw:
            given["default_weight"] = float(raw["default"])
        return ClauseWeightTable(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_backend(raw: object) -> BackendSpec:
    raw = _section(raw, "backend", ("kind", "endpoint", "model_id", "timeout"))
    try:
        return BackendSpec(
            kind=raw.get("kind", "bag_of_tokens"),
            endpoint=raw.get("endpoint"),
            model_id=raw.get("model_id"),
            timeout=float(raw.get("timeout", 30.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_compile(raw: object) -> CompileConfig:
    known = (
        "command", "extra_flags", "mode", "timeout", "wrap_snippets", "cache_dir",
        "timeout_as_failure", "language",
    )
    raw = _section(raw, "compile", known)
    command = raw.get("command")
    try:
        return CompileConfig(
            compiler_command=tuple(command) if command else None,
            extra_flags=tuple(raw.get("extra_flags", ())),
            mode=raw.get("mode", "syntax_only"),
            timeout=float(raw.get("timeout", 30.0)),
            wrap_snippets=_flag(raw.get("wrap_snippets", True), "compile.wrap_snippets"),
            cache_dir=raw.get("cache_dir"),
            timeout_as_failure=_flag(
                raw.get("timeout_as_failure", False), "compile.timeout_as_failure"
            ),
            language=raw.get("language", AUTO_LANGUAGE),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def read_vocabulary(path: str | Path) -> list[str]:
    """The entries of a vocabulary file, one per line, blank lines and `#`
    comments skipped.  A file that cannot be read as text or that repeats an
    entry is a configuration error."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read vocabulary {path}: {exc}") from exc
    entries = [e for e in map(str.strip, lines) if e and not e.startswith("#")]
    dupes = sorted({e for e in entries if entries.count(e) > 1})
    if dupes:
        raise ConfigError(f"duplicate entries in vocabulary {path}: {dupes}")
    return entries


def load_config(path: str | Path | None) -> EvalConfig:
    """Load and validate a JSON config; None yields the defaults.

    Every section must be a JSON object and every key in it known.
    """
    if path is None:
        return EvalConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    known = (
        "weights", "clause_weights", "backend", "compile", "compile_enabled",
        "clause_vocabulary", "tag_vocabulary",
    )
    raw = _section(raw, "config", known)
    return EvalConfig(
        weights=_build_weights(raw.get("weights", {})),
        clause_weights=_build_clause_weights(raw.get("clause_weights", {})),
        backend=_build_backend(raw.get("backend", {})),
        compile=_build_compile(raw.get("compile", {})),
        compile_enabled=_flag(raw.get("compile_enabled", True), "compile_enabled"),
        clause_vocabulary_path=raw.get("clause_vocabulary"),
        tag_vocabulary_path=raw.get("tag_vocabulary"),
    )
