"""Extraction and normalization of OpenMP structure from C/C++ source."""

from .directives import (
    ATTACHED_BLOCK,
    ATTACHED_FOR_LOOP,
    ATTACHED_NONE,
    ATTACHED_STATEMENT,
    COLLAPSE_INVALID,
    COLLAPSE_NOT_APPLICABLE,
    COLLAPSE_VALID,
    Clause,
    Directive,
    canonical_clause,
    collapse_validity,
    extract_directives,
    strip_openmp,
)
from .lexer import CodeTokens, SourceUnit, Token, parse_source, tokenize
from .loops import LoopContext, loop_contexts
from .regions import RegionBlock, count_decisions, parallel_region_blocks

__all__ = [
    "ATTACHED_BLOCK",
    "ATTACHED_FOR_LOOP",
    "ATTACHED_NONE",
    "ATTACHED_STATEMENT",
    "COLLAPSE_INVALID",
    "COLLAPSE_NOT_APPLICABLE",
    "COLLAPSE_VALID",
    "Clause",
    "CodeTokens",
    "Directive",
    "LoopContext",
    "RegionBlock",
    "SourceUnit",
    "Token",
    "canonical_clause",
    "collapse_validity",
    "count_decisions",
    "extract_directives",
    "loop_contexts",
    "parallel_region_blocks",
    "parse_source",
    "strip_openmp",
    "tokenize",
]
