"""Corpus utilities: syntax-role tagging, seeded corruption, loss reference.

These are the data-side embodiments of the pretraining procedures: they
produce tag streams and corrupted corpora and define the reference
weighted-token cross-entropy that a training stack must reproduce.  No
model or gradient code lives here.
"""

from __future__ import annotations

import bisect
import random
from collections import deque
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .config import read_vocabulary
from .syntax import SourceUnit, Token
from .syntax.directives import directive_kinds, directive_line_spans

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
_OFFSET = itemgetter(2)  # a Token's byte_offset


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
    def load(cls, path: str | Path) -> "TagVocabulary":
        return cls(tags={name: i for i, name in enumerate(read_vocabulary(path))})

    @classmethod
    def default(cls) -> "TagVocabulary":
        ref = resources.files("ompbleu.data") / "ssa_tags.txt"
        with resources.as_file(ref) as path:
            return cls.load(path)


def _pragma_line_roles(tokens: tuple[Token, ...]) -> list[str]:
    """Role names for the non-whitespace tokens of one `#pragma omp` line.

    The directive parser reads the kinds; a clause word at paren depth 0
    lends its role to the tokens inside its parentheses.
    """
    code = [t for t in tokens if t.kind not in ("whitespace", "comment")]
    kinds, _ = directive_kinds([t.lexeme for t in code[2:]])  # code[:2] is `#pragma omp`
    head = deque(
        ["omp_pragma", "omp_marker", *(_OMP_DIRECTIVE_ROLES.get(k, "omp_directive_other") for k in kinds)]
    )
    roles: list[str] = []
    clause_role: str | None = None
    paren_depth = 0
    for tok in tokens:
        if tok.kind == "whitespace":
            continue
        lex = tok.lexeme
        if tok.kind == "comment":
            role = "comment"
        elif head:
            role = head.popleft()
        elif tok.kind in ("identifier", "keyword") and paren_depth == 0:
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


def _token_role(tok: Token) -> str:
    """Role name of one token outside OpenMP pragma lines."""
    if tok.kind == "comment":
        return "comment"
    if tok.kind == "preprocessor":
        return "preproc_directive"
    if tok.in_directive:
        return "preproc_arg"
    if tok.kind == "string":
        return "char_literal" if tok.lexeme.startswith("'") else "string_literal"
    if tok.kind == "number":
        return "number_literal"
    if tok.kind == "identifier":
        return "identifier"
    if tok.kind == "keyword":
        if tok.lexeme in _TYPE_KEYWORDS:
            return "type_keyword"
        if tok.lexeme in _STORAGE_KEYWORDS:
            return "storage_keyword"
        return _KEYWORD_ROLES.get(tok.lexeme, "other_keyword")
    if tok.kind == "punctuation":
        return _PUNCT_ROLES.get(tok.lexeme, "none")
    return "none"


def ssa_annotate(unit: SourceUnit, vocab: TagVocabulary | None = None) -> list[int]:
    """One tag id per non-whitespace token, in token order.

    OpenMP pragma lines, as :func:`directive_line_spans` finds them, get
    construct- and clause-specific roles; other preprocessor lines are
    directive/argument; everything else is tagged by its lexical role.
    Unknown roles map to 0.
    """
    if vocab is None:
        vocab = TagVocabulary.default()
    tokens = unit.tokens
    roles: list[str] = []
    pos = 0
    for lo, hi in directive_line_spans(unit):
        start = bisect.bisect_left(tokens, lo, pos, key=_OFFSET)
        end = bisect.bisect_left(tokens, hi, start, key=_OFFSET)
        roles.extend(_token_role(t) for t in tokens[pos:start] if t.kind != "whitespace")
        roles.extend(_pragma_line_roles(tokens[start:end]))
        pos = end
    roles.extend(_token_role(t) for t in tokens[pos:] if t.kind != "whitespace")
    return [vocab.id_of(r) for r in roles]


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


def _is_maskable(tok: Token) -> bool:
    return tok.kind not in ("whitespace", "comment")


def corrupt(
    tokens: list[Token] | tuple[Token, ...],
    schedule: NoiseSchedule,
    step: int,
    seed: int,
) -> list[Token]:
    """Apply seeded noise to a token stream; deterministic per (seed, step).

    The expected fraction of affected maskable tokens equals the schedule
    ratio at ``step``.  With keyword_drop active, keywords are three times
    as likely to be picked; dropping removes the token, masking replaces
    its lexeme, shuffling permutes lexemes within a small window.
    """
    rng = random.Random(f"{seed}:{step}")
    ratio = schedule.ratio(step)
    out = list(tokens)

    per_token_ops: list[str] = []
    if "mask" in schedule.modes:
        per_token_ops.append("mask")
    if "drop" in schedule.modes or "keyword_drop" in schedule.modes:
        per_token_ops.append("drop")
    if "shuffle" in schedule.modes:
        per_token_ops.append("shuffle")

    maskable = [i for i, t in enumerate(out) if _is_maskable(t)]
    affected: list[int] = []
    if per_token_ops and ratio > 0.0 and maskable:
        hits = sum(1 for _ in maskable if rng.random() < ratio)
        if "keyword_drop" in schedule.modes:
            # weight keywords up, keeping the expected hit count unchanged
            keyed = sorted(
                maskable,
                key=lambda i: rng.random() ** (1.0 / (3.0 if out[i].kind == "keyword" else 1.0)),
                reverse=True,
            )
            affected = sorted(keyed[:hits])
        else:
            affected = sorted(rng.sample(maskable, hits)) if hits else []

    drops: set[int] = set()
    shuffles: list[int] = []
    for i in affected:
        op = per_token_ops[rng.randrange(len(per_token_ops))] if len(per_token_ops) > 1 else per_token_ops[0]
        if op == "mask":
            tok = out[i]
            out[i] = Token(schedule.mask_token, tok.kind, tok.byte_offset, tok.line)
        elif op == "drop":
            drops.add(i)
        else:
            shuffles.append(i)

    if shuffles:
        ordinal = {tok_i: k for k, tok_i in enumerate(maskable)}
        windows: dict[int, list[int]] = {}
        for i in shuffles:
            windows.setdefault(ordinal[i] // schedule.shuffle_window, []).append(i)
        for group in windows.values():
            lexemes = [out[i].lexeme for i in group]
            rng.shuffle(lexemes)
            for i, lex in zip(group, lexemes):
                tok = out[i]
                out[i] = Token(lex, tok.kind, tok.byte_offset, tok.line)

    if drops:
        out = [t for i, t in enumerate(out) if i not in drops]

    if "lang_token_insert" in schedule.modes:
        out.insert(0, Token(schedule.lang_token, "identifier", 0, 1))
        if len(out) > 1 and out[1].kind != "whitespace":
            out.insert(1, Token(" ", "whitespace", 0, 1))

    return out


def render_tokens(tokens: list[Token]) -> str:
    """Concatenate lexemes; whitespace tokens carry the original layout."""
    return "".join(t.lexeme for t in tokens)


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
