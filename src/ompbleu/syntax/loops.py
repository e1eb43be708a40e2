"""For-loop discovery: contexts, ordinals, perfect-nest depth, counters.

Loops are the `for` keywords outside preprocessor lines among the unit's
code tokens; each header and body ends where the unit's bracket table
(:class:`~.lexer.Brackets`) says.  Each loop records the ordinal of its
`for` keyword among all loops in the unit (source order, nested loops
included) and the number of perfectly nested loops rooted at it.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass

from .lexer import SourceUnit, Token


@dataclass(frozen=True)
class LoopContext:
    """The immediate extent of one for-loop: header plus body."""

    loop_index: int
    nesting_depth: int
    byte_offset: int
    end_offset: int
    induction_vars: frozenset[str]
    nest_induction_vars: frozenset[str]


def _split_top_level(tokens: Sequence[Token], sep: str) -> list[list[Token]]:
    """``tokens`` cut at each ``sep`` punctuation outside any brackets."""
    groups: list[list[Token]] = [[]]
    depth = 0
    for tok in tokens:
        if tok.kind == "punctuation":
            if tok.lexeme in "([{":
                depth += 1
            elif tok.lexeme in ")]}":
                depth -= 1
            elif tok.lexeme == sep and depth == 0:
                groups.append([])
                continue
        groups[-1].append(tok)
    return groups


def _skip_to_code(tokens: tuple[Token, ...], start: int) -> int:
    """Index of the first of the code ``tokens`` at or after ``start`` that
    lies outside any preprocessor line; ``len(tokens)`` if there is none."""
    i = start
    while i < len(tokens) and tokens[i].in_directive:
        i += 1
    return i


def _induction_vars(header_tokens: Sequence[Token]) -> frozenset[str]:
    """Counters declared or assigned in a for-loop init clause.

    Handles `int i = 0`, `i = 0`, multi-declarations, and range-for
    (`auto x : v`).  Best effort: unparseable headers yield an empty set.
    """
    clauses = _split_top_level(header_tokens, ";")
    if len(clauses) == 1:
        # range-based for: `for (decl : range)` declares one name
        decl: list[Token] = []
        for tok in header_tokens:
            if tok.kind == "punctuation" and tok.lexeme == ":":
                break
            decl.append(tok)
        names = [t.lexeme for t in decl if t.kind == "identifier"]
        return frozenset(names[-1:])

    groups = _split_top_level(clauses[0], ",")
    found: set[str] = set()
    for group in groups:
        target: str | None = None
        for j, tok in enumerate(group):
            if tok.kind == "punctuation" and tok.lexeme == "=":
                for back in range(j - 1, -1, -1):
                    if group[back].kind == "identifier":
                        target = group[back].lexeme
                        break
                break
        if target is None:
            idents = [t.lexeme for t in group if t.kind == "identifier"]
            target = idents[-1] if idents else None
        if target:
            found.add(target)
    return frozenset(found)


def _is_declaration_of(tokens: list[Token], names: frozenset[str]) -> bool:
    """True if ``tokens`` form declaration statements of only ``names``."""
    if not tokens:
        return True
    stmts: list[list[Token]] = [[]]
    for tok in tokens:
        stmts[-1].append(tok)
        if tok.kind == "punctuation" and tok.lexeme == ";":
            stmts.append([])
    if stmts[-1]:
        return False
    for stmt in stmts[:-1]:
        declared = _induction_vars(stmt)
        if not declared or not declared <= names:
            return False
    return True


def loop_contexts(unit: SourceUnit) -> list[LoopContext]:
    """All for-loops in source order, indexed from 0."""
    tokens = unit.code
    closers = unit.brackets.closers
    raw: list[dict] = []

    for idx in unit.decisions:  # the decision points outside preprocessor lines
        if tokens[idx].lexeme != "for":
            continue
        j = idx + 1
        if j >= len(tokens) or tokens[j].lexeme != "(":
            continue
        close = closers.get(j)
        if close is None:
            continue
        k = _skip_to_code(tokens, close + 1)
        stop: int | None = close  # the loop's last token
        if k >= len(tokens):
            body_span = (close + 1, close + 1)
        elif tokens[k].kind == "punctuation" and tokens[k].lexeme == "{":
            stop = closers.get(k)
            body_span = (k + 1, len(tokens) if stop is None else stop)
        else:
            stop = unit.brackets.statement_end(k)
            body_span = (k, len(tokens) if stop is None else stop + 1)
        raw.append(
            {
                "for_index": idx,
                "start": tokens[idx].byte_offset,
                "end": len(unit.text) if stop is None else tokens[stop].end_offset,
                "after": len(tokens) if stop is None else stop + 1,
                "body_span": body_span,
                "induction": _induction_vars(tokens[j + 1 : close]),
            }
        )

    # Perfect nesting: the child is the first loop in the body, preceded only
    # by declarations of its own counters and followed by nothing else.
    n = len(raw)
    depth = [1] * n
    nest_vars: list[frozenset[str]] = [info["induction"] for info in raw]
    for_indices = [info["for_index"] for info in raw]
    for i in range(n - 1, -1, -1):
        body_start, body_end = raw[i]["body_span"]
        child = bisect.bisect_left(for_indices, body_start)
        if child == n or for_indices[child] >= body_end:
            continue
        if _skip_to_code(tokens, raw[child]["after"]) < body_end:
            continue
        pre = [t for t in tokens[body_start : for_indices[child]] if not t.in_directive]
        if _is_declaration_of(pre, raw[child]["induction"]):
            depth[i] = 1 + depth[child]
            nest_vars[i] = nest_vars[i] | nest_vars[child]

    return [
        LoopContext(
            loop_index=i,
            nesting_depth=depth[i],
            byte_offset=info["start"],
            end_offset=info["end"],
            induction_vars=info["induction"],
            nest_induction_vars=nest_vars[i],
        )
        for i, info in enumerate(raw)
    ]
