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

from .lexer import CLOSERS, OPENERS, SourceUnit, lexeme_kind


@dataclass(frozen=True)
class LoopContext:
    """The immediate extent of one for-loop: header plus body."""

    loop_index: int
    nesting_depth: int
    byte_offset: int
    end_offset: int
    induction_vars: frozenset[str]
    nest_induction_vars: frozenset[str]


def split_top_level(lexemes: Sequence[str], sep: str) -> list[list[str]]:
    """``lexemes`` cut at each ``sep`` punctuation outside any brackets."""
    groups: list[list[str]] = [[]]
    depth = 0
    for lexeme in lexemes:
        if lexeme in OPENERS:
            depth += 1
        elif lexeme in CLOSERS:
            depth -= 1
        elif lexeme == sep and depth == 0:
            groups.append([])
            continue
        groups[-1].append(lexeme)
    return groups


def _skip_to_code(in_directive: list[bool], start: int) -> int:
    """Index of the first code token at or after ``start`` that lies outside
    any preprocessor line; the token count if there is none."""
    i = start
    while i < len(in_directive) and in_directive[i]:
        i += 1
    return i


def _induction_vars(header: Sequence[str]) -> frozenset[str]:
    """Counters declared or assigned in a for-loop init clause, from the
    lexemes of its header.

    Handles `int i = 0`, `i = 0`, multi-declarations, and range-for
    (`auto x : v`).  Best effort: unparseable headers yield an empty set.
    """
    clauses = split_top_level(header, ";")
    if len(clauses) == 1:
        # range-based for: `for (decl : range)` declares one name
        decl: list[str] = []
        for lexeme in header:
            if lexeme == ":":
                break
            decl.append(lexeme)
        names = [lexeme for lexeme in decl if lexeme_kind(lexeme) == "identifier"]
        return frozenset(names[-1:])

    groups = split_top_level(clauses[0], ",")
    found: set[str] = set()
    for group in groups:
        target: str | None = None
        for j, lexeme in enumerate(group):
            if lexeme == "=":
                for back in range(j - 1, -1, -1):
                    if lexeme_kind(group[back]) == "identifier":
                        target = group[back]
                        break
                break
        if target is None:
            idents = [lexeme for lexeme in group if lexeme_kind(lexeme) == "identifier"]
            target = idents[-1] if idents else None
        if target:
            found.add(target)
    return frozenset(found)


def _is_declaration_of(lexemes: list[str], names: frozenset[str]) -> bool:
    """True if ``lexemes`` form declaration statements of only ``names``."""
    if not lexemes:
        return True
    stmts: list[list[str]] = [[]]
    for lexeme in lexemes:
        stmts[-1].append(lexeme)
        if lexeme == ";":
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
    lexemes, flags = unit.lexemes, unit.in_directive
    n = len(lexemes)
    closers = unit.brackets.closers
    raw: list[dict] = []

    for idx in unit.decisions:  # the decision points outside preprocessor lines
        if lexemes[idx] != "for":
            continue
        j = idx + 1
        if j >= n or lexemes[j] != "(":
            continue
        close = closers.get(j)
        if close is None:
            continue
        k = _skip_to_code(flags, close + 1)
        stop: int | None = close  # the loop's last token
        if k >= n:
            body_span = (close + 1, close + 1)
        elif lexemes[k] == "{":
            stop = closers.get(k)
            body_span = (k + 1, n if stop is None else stop)
        else:
            stop = unit.brackets.statement_end(k)
            body_span = (k, n if stop is None else stop + 1)
        raw.append(
            {
                "for_index": idx,
                "start": unit.starts[idx],
                "end": len(unit.text) if stop is None else unit.token_end(stop),
                "after": n if stop is None else stop + 1,
                "body_span": body_span,
                "induction": _induction_vars(lexemes[j + 1 : close]),
            }
        )

    # Perfect nesting: the child is the first loop in the body, preceded only
    # by declarations of its own counters and followed by nothing else.
    count = len(raw)
    depth = [1] * count
    nest_vars: list[frozenset[str]] = [info["induction"] for info in raw]
    for_indices = [info["for_index"] for info in raw]
    for i in range(count - 1, -1, -1):
        body_start, body_end = raw[i]["body_span"]
        child = bisect.bisect_left(for_indices, body_start)
        if child == count or for_indices[child] >= body_end:
            continue
        if _skip_to_code(flags, raw[child]["after"]) < body_end:
            continue
        body = slice(body_start, for_indices[child])
        pre = [lexeme for lexeme, flag in zip(lexemes[body], flags[body]) if not flag]
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
