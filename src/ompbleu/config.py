"""Evaluation configuration: weights, toolchain, backend, vocabularies.

Configuration is plain JSON.  Every knob has a sensible default so an
empty config (or none at all) runs the hermetic pipeline end to end.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Collection
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

from .compile_check import CompileConfig
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
    clause_vocabulary: str | None = None  # a file's path; None: the packaged one
    tag_vocabulary: str | None = None

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
                "command": list(self.compile.command or []),
                "extra_flags": list(self.compile.extra_flags),
                "mode": self.compile.mode,
                "language": self.compile.language,
                "enabled": self.compile_enabled,
            },
        }


def _section(raw: object, name: str, known: Collection[str]) -> dict:
    """``raw`` if it is a JSON object whose keys are all in ``known``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return raw


# Each JSON type a config value may take, by the Python type that holds it:
# what a check calls it, and whether a value json gives is one.  A number is
# finite (json reads NaN and Infinity too); a list of strings is a tuple.
_JSON_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    float: ("a number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    bool: ("true or false", lambda v: type(v) is bool),
    tuple: ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
}


def _typed(kind: type, nullable: bool = False) -> Callable[[object, str], object]:
    """The check of a config value of the JSON type ``kind`` holds, which
    gives the value as a ``kind``; with ``nullable``, null passes as None."""
    expected, holds = _JSON_TYPES[kind]

    def check(value: object, name: str) -> object:
        if nullable and value is None:
            return None
        if not holds(value):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
        return kind(value)

    return check


def _values(raw: object, name: str, table: dict, prefix: str) -> dict:
    """The values the config section ``raw`` gives, by key: ``table`` maps
    each key it may have to the check of its value, named ``prefix + key``."""
    raw = _section(raw, name, table)
    return {key: check(raw[key], prefix + key) for key, check in table.items() if key in raw}


def config_checked(call: Callable, *args: object, **kwargs: object):
    """``call(*args, **kwargs)``, whose ValueError, raised for a value it
    refuses, is a configuration error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build(cls: type, table: dict, raw: object, name: str):
    """The ``cls`` the config section ``raw`` holds, whose keys are fields of
    ``cls``: a key left out keeps the default of ``cls``."""
    return config_checked(cls, **_values(raw, name, table, f"{name}."))


_number = _typed(float)


def _build_weights(raw: object, name: str) -> MetricWeights:
    table = dict.fromkeys((*SUBSCORE_WEIGHTS, "is_blend_alpha"), _number)
    values = _values(raw, name, table, f"{name}.")
    alpha = values.pop("is_blend_alpha", MetricWeights.is_blend_alpha)
    return config_checked(MetricWeights, {**SUBSCORE_WEIGHTS, **values}, alpha)


def _build_clause_weights(raw: object, name: str) -> ClauseWeightTable:
    """The table the section gives; what it leaves out keeps the defaults of
    :class:`ClauseWeightTable`."""
    raw = _section(raw, name, ("table", "default"))
    table = _section(raw.get("table", {}), f"{name} table", KNOWN_CLAUSE_KINDS)
    given = {}
    if "table" in raw:
        given["weights"] = {k: _number(v, f"{name}.table.{k}") for k, v in table.items()}
    if "default" in raw:
        given["default_weight"] = _number(raw["default"], f"{name}.default")
    return config_checked(ClauseWeightTable, **given)


# Every key of the root and of the `backend` and `compile` sections, each
# with the check of its value.
_BACKEND_KEYS = {
    "kind": _typed(str),
    "endpoint": _typed(str, nullable=True),
    "model_id": _typed(str, nullable=True),
    "timeout": _number,
}
_COMPILE_KEYS = {
    "command": _typed(tuple, nullable=True),
    "extra_flags": _typed(tuple),
    "mode": _typed(str),
    "timeout": _number,
    "wrap_snippets": _typed(bool),
    "cache_dir": _typed(str, nullable=True),
    "timeout_as_failure": _typed(bool),
    "language": _typed(str),
}
_ROOT_KEYS = {
    "weights": _build_weights,
    "clause_weights": _build_clause_weights,
    "backend": partial(_build, BackendSpec, _BACKEND_KEYS),
    "compile": partial(_build, CompileConfig, _COMPILE_KEYS),
    "compile_enabled": _typed(bool),
    "clause_vocabulary": _typed(str, nullable=True),
    "tag_vocabulary": _typed(str, nullable=True),
}


def read_vocabulary(path: str | Path | None, packaged: str) -> list[str]:
    """The entries of the vocabulary file at ``path``, or without one of the
    package's data file ``packaged``: one per line, blank lines and `#`
    comments skipped.  A file that cannot be read as text or that repeats an
    entry is a configuration error."""
    source = Path(path) if path else resources.files("ompbleu.data") / packaged
    try:
        lines = source.read_text().splitlines()
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
    return EvalConfig(**_values(raw, "config", _ROOT_KEYS, ""))
