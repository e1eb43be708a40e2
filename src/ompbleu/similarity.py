"""Similarity kernels: edit distance, common-subsequence ratio, cosine.

The default cosine backend is a deterministic bag of code tokens so the
whole suite runs hermetically; a remote embedding backend speaks a small
HTTP protocol for callers who want model-based similarity.
"""

from __future__ import annotations

import json
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from operator import ne
from typing import Iterable, Protocol, Sequence

from .syntax import tokenize
from .syntax.directives import RE_DIRECTIVE_WORD


class SimilarityError(RuntimeError):
    """A similarity backend failed: raised to the caller, never scored as 0."""


_STEP = 128  # columns per window position of the banded kernel


def _trimmed(a: Sequence, b: Sequence) -> tuple[Sequence, Sequence, int]:
    """``a`` and ``b`` without their common prefix, then without their
    common suffix (exact for both LCS and edit distance; both searches run
    in C): the longer rest (the pattern), the shorter rest, and the number
    of elements cut from each."""
    n = min(len(a), len(b))
    lo = next(compress(count(), map(ne, a, b)), n)
    a, b = a[lo:], b[lo:]
    hi = next(compress(count(), map(ne, reversed(a), reversed(b))), n - lo)
    a, b = a[: len(a) - hi], b[: len(b) - hi]
    if len(a) < len(b):
        a, b = b, a
    return a, b, lo + hi


def _rows(pattern: Sequence) -> dict:
    """The rows of the bit-parallel kernels: bit ``i`` of the little-endian
    ``rows[x]`` is set if ``pattern[i] == x``.  Each element sets one bit
    of one byte, so the rows take time linear in the pattern."""
    rows = {x: bytearray(len(pattern) // 8 + 1) for x in set(pattern)}
    for i, x in enumerate(pattern):
        rows[x][i >> 3] |= 1 << (i & 7)
    return rows


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the bit-parallel algorithm of Myers (J. ACM
    46(3), 1999) in Hyyrö's (2001) form for global edit distance, banded by
    Ukkonen's cutoff (Inf. Control 64, 1985), so that its cost follows the
    distance rather than the length.

    Past the common prefix and suffix, the longer string (m characters) is
    the pattern and the shorter (n) the text: the table has a row per
    pattern character and a column per text character.  ``k`` bounds the
    distance from above.  When the two strings hold as many newlines, it is
    the cost of aligning them line by line: for each pair of differing
    lines, the longer one's length less the pair's common prefix and
    suffix; otherwise it is m.  Every cell of a path of cost at most k lies
    within ``up`` rows above or ``down`` rows below the diagonal of its
    column, so only those rows are computed, in a window of rows that
    slides once per ``_STEP`` columns.  Bit ``p`` of ``pv``/``mv`` marks
    where the window's row ``p`` steps up/down by one from the row above.
    A row that leaves the top of the window passes on a horizontal step of
    +1, and a row that enters at the bottom starts with a vertical step of
    +1.  Both over-estimate the table and no cheapest path leaves the
    window, so the result equals the table.  Within a step the vectors are
    not masked: carries and shifts only move bits upwards, so the bits
    above the window collect garbage that never reaches the window, and
    are cut once per step.  Each column costs O(⌈(k + _STEP)/w⌉).
    """
    a, b, _ = _trimmed(a, b)
    if not b:
        return len(a)
    m, n, rows = len(a), len(b), _rows(a)
    k = m
    if a.count("\n") == b.count("\n"):
        k = sum(len(_trimmed(x, y)[0]) for x, y in zip(a.split("\n"), b.split("\n")) if x != y)
    up, down = (k - m + n) // 2, (k + m - n) // 2
    distance = n  # the value of the row above the window: +1 per column
    pv = mv = lo = hi = 0
    for j in range(0, n, _STEP):
        top, bottom = max(0, j - up), min(m, j + _STEP + down)
        left = (1 << (top - lo)) - 1
        distance += (pv & left).bit_count() - (mv & left).bit_count()
        kept = (1 << (hi - top)) - 1
        ones = (1 << (bottom - top)) - 1
        pv = (pv >> (top - lo)) & kept | ones ^ kept
        mv = (mv >> (top - lo)) & kept
        lo, hi = top, bottom
        text = b[j : j + _STEP]
        peq = dict.fromkeys(text, 0)
        for x in peq.keys() & rows.keys():
            peq[x] = int.from_bytes(rows[x][lo >> 3 : (hi >> 3) + 1], "little") >> (lo & 7)
        for eq in map(peq.__getitem__, text):
            d0 = (((eq & pv) + pv) ^ pv) | eq | mv
            hp = mv | (d0 | pv) ^ ones
            hn = pv & d0
            hp = hp << 1 | 1
            pv = hn << 1 | (d0 | hp) ^ ones
            mv = hp & d0
    return distance + (pv & ones).bit_count() - (mv & ones).bit_count()


def lev_similarity(a: str, b: str) -> float:
    """1 - normalized Levenshtein distance; 1.0 for identical strings."""
    if a == b:
        return 1.0
    return 1.0 - edit_distance(a, b) / max(len(a), len(b))


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Length of the longest common subsequence of two sequences of hashable
    elements, bit-parallel (Allison & Dix, IPL 23(5), 1986; Hyyrö 2004):
    past the common prefix and suffix, the longer sequence is the pattern,
    and a clear bit ``i`` of ``v`` marks a step at row ``i`` of the table."""
    a, b, common = _trimmed(a, b)
    if not b:
        return common
    peq = {x: int.from_bytes(r, "little") for x, r in _rows(a).items()}
    v = mask = (1 << len(a)) - 1
    for y in b:
        u = v & peq.get(y, 0)
        v = ((v + u) | (v - u)) & mask
    return common + len(a) - v.bit_count()


def lcs_ratio(a: Sequence, b: Sequence) -> float:
    """2 * |longest common subsequence| / (|a| + |b|); empty vs empty is 1."""
    if not a and not b:
        return 1.0
    return 2.0 * lcs_length(a, b) / (len(a) + len(b))


@dataclass(frozen=True)
class SparseTokenVector:
    """Non-negative token counts; the deterministic embedding stand-in."""

    counts: dict[str, int]

    @classmethod
    def from_lexemes(cls, lexemes: Iterable[str]) -> "SparseTokenVector":
        """Counts of ``lexemes``, those of code tokens as in
        :attr:`~ompbleu.syntax.SourceUnit.lexemes`.  A preprocessor token
        counts as `#` and its directive word, without the layout that may
        stand between them: `#  pragma` and `#/* c */pragma` are `#pragma`."""
        counts = Counter(lexemes)
        for lexeme in [k for k in counts if k[0] == "#"]:
            key = "#" + RE_DIRECTIVE_WORD.search(lexeme)[0]
            if key != lexeme and key != "#":
                counts[key] += counts.pop(lexeme)
        return cls(counts=dict(counts))

    @classmethod
    def from_code(cls, text: str) -> "SparseTokenVector":
        return cls.from_lexemes(tokenize(text).lexemes)

    def cosine(self, other: "SparseTokenVector") -> float:
        if self.counts == other.counts:
            return 1.0  # covers the empty/empty convention too
        if not self.counts or not other.counts:
            return 0.0
        dot = sum(n * other.counts.get(tok, 0) for tok, n in self.counts.items())
        sq_a = sum(n * n for n in self.counts.values())
        sq_b = sum(n * n for n in other.counts.values())
        return dot / math.sqrt(sq_a * sq_b)


@dataclass(frozen=True)
class CodeText:
    """A code text, ``source[lo:hi]``, and the lexemes of its code tokens,
    ``lexemes[first:stop]``, cut from the text and the lexemes of a whole
    unit: holding one copies neither, and nothing is lexed again.  The text
    is cut each time it is read, and the bag of code tokens is built on
    first use; comparing equal texts builds none.  ``edit_of`` is a code
    text this one edits, with the lexemes the edit cuts and puts in: the bag
    is then that text's, less the first and plus the second, and this
    text's own lexemes are not read."""

    source: str
    lexemes: Sequence[str]
    first: int = 0
    stop: int | None = None
    lo: int = 0
    hi: int | None = None
    edit_of: "tuple[CodeText, Sequence[str], Sequence[str]] | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def text(self) -> str:
        return self.source[self.lo : self.hi]

    @cached_property
    def vector(self) -> SparseTokenVector:
        if self.edit_of is None:
            return SparseTokenVector.from_lexemes(self.lexemes[self.first : self.stop])
        code, removed, added = self.edit_of
        counts = Counter(code.vector.counts)
        counts.subtract(SparseTokenVector.from_lexemes(removed).counts)
        counts.update(SparseTokenVector.from_lexemes(added).counts)
        return SparseTokenVector({key: n for key, n in counts.items() if n})  # no zero count


class SimilarityBackend(Protocol):
    """Scores two code texts in [0, 1]."""

    def similarity(self, a: str | CodeText, b: str | CodeText) -> float: ...


class BagOfTokensBackend:
    """Cosine over bags of code tokens (comments and whitespace excluded)."""

    kind = "bag_of_tokens"

    @staticmethod
    def _vector(code: str | CodeText) -> SparseTokenVector:
        if isinstance(code, CodeText):
            return code.vector
        return SparseTokenVector.from_code(code)

    def similarity(self, a: str | CodeText, b: str | CodeText) -> float:
        if _text(a) == _text(b):
            return 1.0  # equal texts have equal bags
        return _clamp01(self._vector(a).cosine(self._vector(b)))


class RemoteEmbeddingBackend:
    """HTTP embedding service client with per-text caching.

    Protocol: POST {endpoint}/embed with ``{"model": id, "text": code}``;
    the response must be ``{"vector": [..]}``, a non-empty list of finite
    JSON numbers, and no other key.  Any non-200 status, malformed body or
    transport failure raises :class:`SimilarityError` - never a silent
    zero.  The cache keeps the ``cache_entries`` most recently used
    vectors, so one client can serve a whole dataset.
    """

    kind = "remote_embedding"
    cache_entries = 4096

    def __init__(self, endpoint: str, model_id: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self.model_id = model_id
        self.timeout = timeout
        self._cache: OrderedDict[str, list[float]] = OrderedDict()
        self._lock = threading.Lock()

    def embed(self, text: str) -> list[float]:
        # imported here: http.client and its email parser cost ~50 ms at
        # start-up, urllib.request maps OpenSSL, and config imports this module
        import http.client
        import urllib.error
        import urllib.request

        from .config import Key, _number, values_of

        with self._lock:
            if text in self._cache:
                self._cache.move_to_end(text)
                return self._cache[text]
        request = urllib.request.Request(
            f"{self.endpoint}/embed",
            data=json.dumps({"model": self.model_id, "text": text}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            raise SimilarityError(f"embedding service returned HTTP {exc.code}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise SimilarityError(f"embedding request failed: {exc}") from exc
        if status != 200:
            raise SimilarityError(f"embedding service returned HTTP {status}")

        def numbers(value: object, name: str) -> list[float]:
            if type(value) is not list or not value:
                raise ValueError(f"{name} must be a non-empty list of numbers")
            return [_number.read(x, f"{name}[{i}]") for i, x in enumerate(value)]

        try:
            read = values_of(json.loads(body), "embedding response", {"vector": Key(numbers)}, "")
            vec = read["vector"]
        except KeyError:
            raise SimilarityError("malformed embedding response: no vector") from None
        except (RecursionError, ValueError) as exc:  # json nests only so deep
            raise SimilarityError(f"malformed embedding response: {exc}") from exc
        with self._lock:
            self._cache[text] = vec
            if len(self._cache) > self.cache_entries:
                self._cache.popitem(last=False)
        return vec

    def similarity(self, a: str | CodeText, b: str | CodeText) -> float:
        va, vb = self.embed(_text(a)), self.embed(_text(b))
        if len(va) != len(vb):
            raise SimilarityError("embedding dimensions differ between texts")
        sq_a = sum(x * x for x in va)
        sq_b = sum(x * x for x in vb)
        if sq_a == 0.0 or sq_b == 0.0:
            raise SimilarityError("embedding service returned a zero vector")
        if va == vb:
            return 1.0
        dot = sum(x * y for x, y in zip(va, vb))
        return _clamp01(dot / math.sqrt(sq_a * sq_b))


def _text(code: str | CodeText) -> str:
    return code.text if isinstance(code, CodeText) else code


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x
