"""Corpus utilities: syntax-role tagging, seeded corruption, loss reference.

These are the data-side embodiments of the pretraining procedures: they
produce tag streams and corrupted corpora and define the reference
weighted-token cross-entropy that a training stack must reproduce.  No
model or gradient code lives here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .config import read_vocabulary
from .syntax import SourceUnit
from .syntax.directives import directive_kinds, directive_line_spans
from .syntax.lexer import _RE_LAYOUT, KEYWORDS, lexeme_kind

if TYPE_CHECKING:  # numpy (the `loss` extra) is imported by the two loss functions only
    import numpy as np

_TYPE_KEYWORDS = frozenset(
    "int long short char float double void bool signed unsigned auto wchar_t "
    "char16_t char32_t".split()
)
_STORAGE_KEYWORDS = frozenset(
    "static extern register mutable typedef const constexpr volatile inline "
    "thread_local".split()
)
_KEYWORD_ROLES = {
    "for": "for_keyword",
    "while": "while_keyword",
    "do": "do_keyword",
    "if": "if_keyword",
    "else": "else_keyword",
    "switch": "switch_keyword",
    "case": "case_keyword",
    "default": "default_keyword",
    "break": "break_keyword",
    "continue": "continue_keyword",
    "return": "return_keyword",
    "goto": "goto_keyword",
    "sizeof": "sizeof_keyword",
    "struct": "struct_keyword",
    "union": "struct_keyword",
    "enum": "struct_keyword",
    "class": "class_keyword",
    "namespace": "namespace_keyword",
    "template": "template_keyword",
    "typename": "template_keyword",
    "using": "using_keyword",
    "new": "memory_keyword",
    "delete": "memory_keyword",
    "this": "memory_keyword",
    "nullptr": "memory_keyword",
}
_PUNCT_ROLES = {
    "(": "open_paren",
    ")": "close_paren",
    "{": "open_brace",
    "}": "close_brace",
    "[": "open_bracket",
    "]": "close_bracket",
    ";": "semicolon",
    ",": "comma",
    "?": "ternary_op",
    ":": "ternary_op",
    ".": "member_op",
    "->": "member_op",
    "::": "member_op",
    ".*": "member_op",
    "->*": "member_op",
}
for _op in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="):
    _PUNCT_ROLES[_op] = "assign_op"
for _op in ("+", "-", "*", "/", "%", "++", "--"):
    _PUNCT_ROLES[_op] = "arith_op"
for _op in ("==", "!=", "<", ">", "<=", ">="):
    _PUNCT_ROLES[_op] = "compare_op"
for _op in ("&&", "||", "!"):
    _PUNCT_ROLES[_op] = "logical_op"
for _op in ("&", "|", "^", "~", "<<", ">>"):
    _PUNCT_ROLES[_op] = "bitwise_op"

_OMP_DIRECTIVE_ROLES = {
    k: f"omp_{k}"
    for k in (
        "parallel for sections section single master critical barrier atomic "
        "flush ordered task taskwait taskloop simd teams target".split()
    )
}
_OMP_CLAUSE_ROLES = {
    "private": "omp_clause_private",
    "shared": "omp_clause_shared",
    "reduction": "omp_clause_reduction",
    "schedule": "omp_clause_schedule",
}
_CLAUSE_STRUCTURAL = {"(", ")", ","}
_LITERAL_ROLES = {"number": "number_literal", "identifier": "identifier"}


@dataclass(frozen=True)
class TagVocabulary:
    """Dense tag-name to id mapping; id 0 means no syntactic role."""

    tags: dict[str, int]

    def __post_init__(self) -> None:
        ids = sorted(self.tags.values())
        if ids != list(range(len(ids))):
            raise ValueError("tag ids must be dense from 0")

    @property
    def size(self) -> int:
        return len(self.tags)

    def id_of(self, name: str) -> int:
        return self.tags.get(name, 0)

    @classmethod
    def load(cls, path: str | Path | None = None) -> "TagVocabulary":
        """The vocabulary in the file at ``path``, or the packaged one."""
        return cls(tags={name: i for i, name in enumerate(read_vocabulary(path, "ssa_tags.txt"))})

    default = load  # the packaged vocabulary


def _pragma_line_roles(lexemes: list[str]) -> list[str]:
    """Role names for the code tokens of one `#pragma omp` line.

    The directive parser reads the kinds; a clause word at paren depth 0
    lends its role to the tokens inside its parentheses.
    """
    kinds, _ = directive_kinds(lexemes[2:])  # lexemes[:2] is `#pragma omp`
    roles = ["omp_pragma", "omp_marker", *(_OMP_DIRECTIVE_ROLES.get(k, "omp_directive_other") for k in kinds)]
    clause_role: str | None = None
    paren_depth = 0
    for lex in lexemes[len(roles) :]:
        if paren_depth == 0 and lexeme_kind(lex) in ("identifier", "keyword"):
            role = clause_role = _OMP_CLAUSE_ROLES.get(lex, "omp_clause_other")
        elif lex in _CLAUSE_STRUCTURAL:
            if lex == "(":
                paren_depth += 1
            elif lex == ")":
                paren_depth = max(0, paren_depth - 1)
                if paren_depth == 0:
                    clause_role = None
            role = _PUNCT_ROLES[lex]
        elif clause_role is not None and paren_depth > 0:
            role = clause_role
        else:
            role = "none"
        roles.append(role)
    return roles


def _code_role(lexeme: str) -> str:
    """Role name of a code token outside preprocessor lines."""
    kind = lexeme_kind(lexeme)
    if kind == "punctuation":
        return _PUNCT_ROLES.get(lexeme, "none")
    if kind == "keyword":
        if lexeme in _TYPE_KEYWORDS:
            return "type_keyword"
        if lexeme in _STORAGE_KEYWORDS:
            return "storage_keyword"
        return _KEYWORD_ROLES.get(lexeme, "other_keyword")
    if kind == "string":
        return "char_literal" if lexeme[0] == "'" else "string_literal"
    return _LITERAL_ROLES[kind]


def ssa_annotate(unit: SourceUnit, vocab: TagVocabulary | None = None) -> list[int]:
    """One tag id per non-whitespace token, in token order.

    OpenMP pragma lines, as :func:`directive_line_spans` finds them, get
    construct- and clause-specific roles; other preprocessor lines are
    directive/argument; comments are comments; everything else is tagged
    by its lexical role.  Unknown roles map to 0.
    """
    if vocab is None:
        vocab = TagVocabulary.load()
    text, lexemes, starts = unit.text, unit.lexemes, unit.starts
    role_of = {lexeme: _code_role(lexeme) for lexeme in set(lexemes)}
    roles = list(map(role_of.__getitem__, lexemes))
    for start, end in unit.directive_lines:
        roles[start] = "preproc_directive"
        roles[start + 1 : end] = repeat("preproc_arg", end - start - 1)
    for span in directive_line_spans(unit):
        start, end = map(unit.token_index, span)
        roles[start:end] = _pragma_line_roles(lexemes[start:end])
    # a comment takes no role from the code around it, so it goes in by
    # offset; only layout that holds a `/` can hold one
    merged: list[str] = []
    pos = 0
    slash = text.find("/")
    while slash >= 0:
        i = unit.token_index(slash + 1)  # the code token after the `/`
        lo = unit.token_end(i - 1) if i else 0
        if lo <= slash:  # the `/` lies in the layout before token i
            hi = starts[i] if i < len(starts) else len(text)
            merged += roles[pos:i]
            merged += ("comment" for layout in _RE_LAYOUT.findall(text, lo, hi) if layout[0] == "/")
            pos, lo = i, hi
        slash = text.find("/", lo)
    merged += roles[pos:]
    return list(map(vocab.tags.get, merged, repeat(0)))


@dataclass(frozen=True)
class NoiseSchedule:
    """Corruption intensity ramp and the set of active corruption modes."""

    r0: float = 0.05
    r1: float = 0.3
    ramp_steps: int = 10000
    modes: frozenset[str] = frozenset({"mask"})
    mask_token: str = "MASK"
    lang_token: str = "[cpp]"
    shuffle_window: int = 3

    VALID_MODES = frozenset({"mask", "shuffle", "drop", "keyword_drop", "lang_token_insert"})

    def __post_init__(self) -> None:
        if not 0.0 <= self.r0 <= self.r1 <= 1.0:
            raise ValueError("need 0 <= r0 <= r1 <= 1")
        if self.ramp_steps <= 0:
            raise ValueError("ramp_steps must be positive")
        bad = set(self.modes) - self.VALID_MODES
        if bad:
            raise ValueError(f"unknown corruption modes: {sorted(bad)}")
        if self.shuffle_window < 2:
            raise ValueError("shuffle_window must be at least 2")

    def ratio(self, step: int) -> float:
        return self.r0 + (self.r1 - self.r0) * min(1.0, step / self.ramp_steps)


def corrupt(unit: SourceUnit, schedule: NoiseSchedule, step: int, seed: int) -> str:
    """The text of ``unit`` with seeded noise applied to its code tokens;
    deterministic per (seed, step).

    The expected fraction of affected code tokens equals the schedule ratio
    at ``step``.  With keyword_drop active, keywords are three times as
    likely to be picked; dropping removes the token, masking replaces its
    lexeme, shuffling permutes lexemes within a small window.  Layout and
    comments are kept as they are.  A negative ``step``, before the ramp
    starts, raises ``ValueError``.
    """
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    rng = random.Random(f"{seed}:{step}")
    ratio = schedule.ratio(step)
    lexemes = unit.lexemes
    n = len(lexemes)

    per_token_ops: list[str] = []
    if "mask" in schedule.modes:
        per_token_ops.append("mask")
    if "drop" in schedule.modes or "keyword_drop" in schedule.modes:
        per_token_ops.append("drop")
    if "shuffle" in schedule.modes:
        per_token_ops.append("shuffle")

    affected: list[int] = []
    if per_token_ops and ratio > 0.0 and n:
        hits = sum(1 for _ in range(n) if rng.random() < ratio)
        if "keyword_drop" in schedule.modes:
            # weight keywords up, keeping the expected hit count unchanged
            keyed = sorted(
                range(n),
                key=lambda i: rng.random() ** (1.0 / (3.0 if lexemes[i] in KEYWORDS else 1.0)),
                reverse=True,
            )
            affected = sorted(keyed[:hits])
        else:
            affected = sorted(rng.sample(range(n), hits)) if hits else []

    edits: dict[int, str] = {}  # masked and shuffled code tokens: their new lexemes
    drops: set[int] = set()
    windows: dict[int, list[int]] = {}
    for i in affected:
        op = per_token_ops[rng.randrange(len(per_token_ops))] if len(per_token_ops) > 1 else per_token_ops[0]
        if op == "mask":
            edits[i] = schedule.mask_token
        elif op == "drop":
            drops.add(i)
        else:
            windows.setdefault(i // schedule.shuffle_window, []).append(i)
    for group in windows.values():
        shuffled = [lexemes[i] for i in group]
        rng.shuffle(shuffled)
        edits.update(zip(group, shuffled))

    text, starts = unit.text, unit.starts
    pieces: list[str] = []
    if "lang_token_insert" in schedule.modes:
        pieces.append(schedule.lang_token)
        if _opens_with_code_or_comment(unit, drops):
            pieces.append(" ")
    pos = 0
    for i in affected:
        pieces += (text[pos : starts[i]], edits.get(i, ""))
        pos = starts[i] + len(lexemes[i])
    pieces.append(text[pos:])
    return "".join(pieces)


def _opens_with_code_or_comment(unit: SourceUnit, drops: set[int]) -> bool:
    """Whether the first token to survive the drops, layout included, is a
    code token or a comment."""
    text, starts = unit.text, unit.starts
    i = lo = 0
    while i in drops and starts[i] == lo:  # no layout before it
        lo = unit.token_end(i)
        i += 1
    hi = starts[i] if i < len(starts) else len(text)
    if lo < hi:  # layout: a comment, or a blank, a newline or a splice
        return text[lo] == "/"
    return i < len(starts)


class LossComputationError(ValueError):
    """The loss is undefined (zero probability at a real position)."""


@dataclass
class LossInputs:
    """Batch inputs for the weighted token cross-entropy reference.

    probabilities/labels are [B, T, C]; omp_flags/padding_mask are [B, T].
    Probabilities must sum to 1 at every real (unpadded) position.
    """

    probabilities: np.ndarray
    labels: np.ndarray
    omp_flags: np.ndarray
    padding_mask: np.ndarray
    lam: float = 5.0

    def __post_init__(self) -> None:
        import numpy as np

        p, y = np.asarray(self.probabilities, float), np.asarray(self.labels, float)
        o, m = np.asarray(self.omp_flags, float), np.asarray(self.padding_mask, float)
        if p.ndim != 3 or p.shape != y.shape:
            raise ValueError("probabilities and labels must both be [B, T, C]")
        if o.shape != p.shape[:2] or m.shape != p.shape[:2]:
            raise ValueError("omp_flags and padding_mask must be [B, T]")
        if not np.isin(o, (0.0, 1.0)).all() or not np.isin(m, (0.0, 1.0)).all():
            raise ValueError("omp_flags and padding_mask must be 0/1")
        real = m.astype(bool)
        sums = p.sum(axis=2)[real]
        if sums.size and np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("probabilities must sum to 1 at real positions")
        one_hot = y.sum(axis=2)[real]
        if one_hot.size and not np.allclose(one_hot, 1.0):
            raise ValueError("labels must be one-hot at real positions")
        if m.sum() <= 0:
            raise ValueError("padding mask selects no real tokens")
        self.probabilities, self.labels = p, y
        self.omp_flags, self.padding_mask = o, m


def weighted_token_cross_entropy(inputs: LossInputs) -> float:
    """Mean cross-entropy with OpenMP-construct tokens weighted by lambda.

    Positions flagged as OpenMP weigh ``lam`` instead of 1; padding
    positions are excluded; the mean is over real tokens.
    """
    import numpy as np

    p, y = inputs.probabilities, inputs.labels
    o, m = inputs.omp_flags, inputs.padding_mask
    p_true = (p * y).sum(axis=2)
    real = m.astype(bool)
    zero = real & (p_true <= 0.0)
    if zero.any():
        b, t = map(int, np.argwhere(zero)[0])
        raise LossComputationError(
            f"true-class probability is 0 at position (batch={b}, token={t}); "
            "loss is infinite"
        )
    weights = np.where(o == 1.0, inputs.lam, 1.0)
    n = m.sum()
    ce = np.zeros_like(p_true)
    ce[real] = -np.log(p_true[real])
    return float((m * weights * ce).sum() / n)
