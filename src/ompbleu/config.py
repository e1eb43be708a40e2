"""Evaluation configuration: weights, toolchain, backend, vocabularies.

Configuration is plain JSON.  Every knob has a sensible default so an
empty config (or none at all) runs the hermetic pipeline end to end.
"""

from __future__ import annotations

import json
import math
import reprlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from typing import NamedTuple

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
        """The configuration as a config file that reproduces it: every key
        of the tables that read a config file, but the unechoed ones."""
        return _echo(_ROOT_KEYS, self)


# Each JSON type a value may take, by the Python type that holds it: what a
# check calls it, and whether a value json gives is one.  A number is finite
# (json reads NaN and Infinity too); a list of strings is a tuple.
_JSON_TYPES = {
    str: ("a string", lambda v: type(v) is str),
    float: ("a number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    bool: ("true or false", lambda v: type(v) is bool),
    tuple: ("a list of strings", lambda v: type(v) is list),
}


class Key(NamedTuple):
    """A key of a JSON object: ``read`` checks its value, named, and
    ``write`` gives back the JSON value of what ``read`` gave (a tuple as a
    list).  The config echo leaves out a key that says why it is unechoed."""

    read: Callable[[object, str], object]
    write: Callable[[object], object] = lambda v: list(v) if isinstance(v, tuple) else v
    unechoed: str = ""


def typed(kind: type, nullable: bool = False, unechoed: str = "") -> Key:
    """The key of a value of the JSON type ``kind`` holds, read as a ``kind``;
    with ``nullable``, null reads as None.  A list's items are read as strings,
    each named by its index, and a refusal shows a value as ``reprlib.repr``."""
    expected, holds = _JSON_TYPES[kind]

    def check(value: object, name: str) -> object:
        if nullable and value is None:
            return None
        if not holds(value):
            raise ValueError(f"{name} must be {expected}, got {reprlib.repr(value)}")
        if kind is tuple:
            return tuple(_string.read(s, f"{name}[{i}]") for i, s in enumerate(value))
        return kind(value)

    return Key(check, unechoed=unechoed)


_string = typed(str)
_number = typed(float)


def values_of(raw: object, name: str, table: dict[str, Key], prefix: str) -> dict:
    """The values the JSON object ``raw`` gives, by key, each read by its key
    in ``table`` and named ``prefix + key``; a refusal raises ValueError."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return {key: k.read(raw[key], prefix + key) for key, k in table.items() if key in raw}


def _echo(table: dict[str, Key], setting: object) -> dict:
    """The JSON object of the echoed keys of ``table``, valued as ``setting``."""
    return {key: k.write(getattr(setting, key)) for key, k in table.items() if not k.unechoed}


def config_checked(call: Callable, *args: object, **kwargs: object):
    """``call(*args, **kwargs)``, whose ValueError, raised for a value it
    refuses, is a configuration error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build(cls: type, table: dict[str, Key], raw: object, name: str):
    """The ``cls`` the config section ``raw`` holds, whose keys are fields of
    ``cls``: a key left out keeps the default of ``cls``."""
    return cls(**values_of(raw, name, table, f"{name}."))


def _build_weights(raw: object, name: str) -> MetricWeights:
    table = dict.fromkeys((*SUBSCORE_WEIGHTS, "is_blend_alpha"), _number)
    values = values_of(raw, name, table, f"{name}.")
    alpha = values.pop("is_blend_alpha", MetricWeights.is_blend_alpha)
    return MetricWeights({**SUBSCORE_WEIGHTS, **values}, alpha)


def _build_clause_weights(raw: object, name: str) -> ClauseWeightTable:
    """The table the section gives; what it leaves out keeps the defaults of
    :class:`ClauseWeightTable`."""
    kinds = dict.fromkeys(KNOWN_CLAUSE_KINDS, _number)
    table = Key(lambda raw, named: values_of(raw, f"{name} table", kinds, f"{named}."))
    given = values_of(raw, name, {"table": table, "default": _number}, f"{name}.")
    fields = {"table": "weights", "default": "default_weight"}
    return ClauseWeightTable(**{fields[key]: value for key, value in given.items()})


# Every key of the root and of the `backend` and `compile` sections.  The
# config echo writes each back but the unechoed ones, so that a report's
# config, read back, is the config it ran under.
_BACKEND_KEYS = {
    "kind": typed(str),
    "endpoint": typed(str, nullable=True),
    "model_id": typed(str, nullable=True),
    "timeout": _number,
}
_COMPILE_KEYS = {
    "command": typed(tuple, nullable=True),
    "extra_flags": typed(tuple),
    "mode": typed(str),
    "timeout": _number,
    "wrap_snippets": typed(bool),
    "cache_dir": typed(str, nullable=True, unechoed="a path on one machine; no score reads it"),
    "timeout_as_failure": typed(bool),
    "language": typed(str),
}
_ROOT_KEYS = {
    "weights": Key(_build_weights, lambda w: {**w.composite, "is_blend_alpha": w.is_blend_alpha}),
    "clause_weights": Key(
        _build_clause_weights, lambda t: {"table": dict(t.weights), "default": t.default_weight}
    ),
    "backend": Key(partial(_build, BackendSpec, _BACKEND_KEYS), partial(_echo, _BACKEND_KEYS)),
    "compile": Key(partial(_build, CompileConfig, _COMPILE_KEYS), partial(_echo, _COMPILE_KEYS)),
    "compile_enabled": typed(bool),
    "clause_vocabulary": typed(str, nullable=True),
    "tag_vocabulary": typed(str, nullable=True),
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
    except (RecursionError, ValueError) as exc:  # json nests only so deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_checked(lambda: EvalConfig(**values_of(raw, "config", _ROOT_KEYS, "")))
