"""Parallel-region block extraction and decision-point counting."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .directives import Directive, attached_construct_span
from .lexer import SourceUnit


@dataclass(frozen=True)
class RegionBlock:
    """The code block governed by a parallel-family directive."""

    decision_count: int
    byte_offset: int
    end_offset: int

    @property
    def complexity(self) -> int:
        return self.decision_count + 1


def count_decisions(unit: SourceUnit, start_offset: int, end_offset: int) -> int:
    """Decision keywords and short-circuit operators in a byte range.

    Comments, strings, and pragma lines never contribute.
    """
    start, end = unit.token_index(start_offset), unit.token_index(end_offset)
    return bisect_left(unit.decisions, end) - bisect_left(unit.decisions, start)


def parallel_region_blocks(
    unit: SourceUnit, directives: list[Directive]
) -> tuple[list[RegionBlock], list[str]]:
    """One block per parallel-family directive, plus omission diagnostics.

    Worksharing-loop combinations require the attached for loop; a plain
    `parallel` governs the following compound or single statement.
    The directives' offsets index ``unit``; those of a text that differs
    from it only on whole pragma lines, which hold no decision point, are
    ``unit``'s own (:func:`~.directives.pragma_edit`).
    """
    blocks: list[RegionBlock] = []
    diagnostics: list[str] = []

    for d in directives:
        if "parallel" not in d.kinds:
            continue
        if ("for" in d.kinds or "loop" in d.kinds) and d.attached_loop is None:
            diagnostics.append(
                f"line {d.line}: worksharing-loop pragma not followed by a for loop; "
                "region omitted"
            )
            continue
        span = attached_construct_span(d, diagnostics)
        if span is not None:
            blocks.append(
                RegionBlock(
                    decision_count=count_decisions(unit, *span),
                    byte_offset=span[0],
                    end_offset=span[1],
                )
            )
    return blocks, diagnostics
