"""Parallel-region block extraction and decision-point counting."""

from __future__ import annotations

from dataclasses import dataclass

from .directives import ATTACHED_FOR_LOOP, Directive, attached_construct_span
from .lexer import SourceUnit

DECISION_KEYWORDS = frozenset({"if", "for", "while", "case"})
DECISION_OPERATORS = frozenset({"&&", "||"})


@dataclass(frozen=True)
class RegionBlock:
    """The code block governed by a parallel-family directive."""

    block_text: str
    decision_count: int
    byte_offset: int

    @property
    def complexity(self) -> int:
        return self.decision_count + 1


def count_decisions(unit: SourceUnit, start_offset: int, end_offset: int) -> int:
    """Decision keywords and short-circuit operators in a byte range.

    Comments, strings, and pragma lines never contribute.
    """
    count = 0
    for tok in unit.code[unit.token_index(start_offset) : unit.token_index(end_offset)]:
        if tok.in_directive:
            continue
        if tok.kind == "keyword" and tok.lexeme in DECISION_KEYWORDS:
            count += 1
        elif tok.kind == "punctuation" and tok.lexeme in DECISION_OPERATORS:
            count += 1
    return count


def parallel_region_blocks(
    unit: SourceUnit, directives: list[Directive]
) -> tuple[list[RegionBlock], list[str]]:
    """One block per parallel-family directive, plus omission diagnostics.

    Worksharing-loop combinations require the attached for loop; a plain
    `parallel` governs the following compound or single statement.
    """
    blocks: list[RegionBlock] = []
    diagnostics: list[str] = []

    for d in directives:
        if "parallel" not in d.kinds:
            continue
        if ("for" in d.kinds or "loop" in d.kinds) and not (
            d.attached_kind == ATTACHED_FOR_LOOP and d.attached_loop is not None
        ):
            diagnostics.append(
                f"line {d.line}: worksharing-loop pragma not followed by a for loop; "
                "region omitted"
            )
            continue
        span = attached_construct_span(unit, d, diagnostics)
        if span is not None:
            blocks.append(
                RegionBlock(
                    block_text=unit.text[span[0] : span[1]],
                    decision_count=count_decisions(unit, span[0], span[1]),
                    byte_offset=span[0],
                )
            )
    return blocks, diagnostics
