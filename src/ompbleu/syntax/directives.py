"""OpenMP directive extraction, clause parsing, and normalization.

Directives are recognized textually as ``#pragma omp …`` lines (including
backslash continuations) and then clause-parsed with a hand-written grammar
covering the common OpenMP 5.x inventory, with an ``unknown`` fallback for
anything else.  Nesting depth is the brace depth of the pragma among code
tokens, which stands in for the depth of the pragma node in a concrete
syntax tree.  Depths, clause parentheses and construct ends are looked up
in the unit's bracket table (:class:`~.lexer.Brackets`).
"""

from __future__ import annotations

import bisect
import dataclasses
import re
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .lexer import SourceUnit, Token, newline_tokens
from .loops import LoopContext, _skip_to_code, _split_top_level, loop_contexts

# Directive keywords and the combinations they may extend.
DIRECTIVE_KINDS = frozenset(
    """
    parallel for sections section single master masked critical barrier
    taskwait taskyield taskgroup task taskloop atomic flush ordered simd
    teams distribute target declare threadprivate cancel cancellation scan
    loop tile unroll workshare
    """.split()
)

_SUCCESSORS: dict[str, frozenset[str]] = {
    "parallel": frozenset({"for", "sections", "master", "masked", "loop", "workshare"}),
    "for": frozenset({"simd"}),
    "master": frozenset({"taskloop"}),
    "masked": frozenset({"taskloop"}),
    "taskloop": frozenset({"simd"}),
    "target": frozenset({"teams", "parallel", "simd", "data", "update", "enter", "exit"}),
    "teams": frozenset({"distribute", "loop"}),
    "distribute": frozenset({"parallel", "simd"}),
    "declare": frozenset({"simd", "target", "reduction", "mapper", "variant"}),
    "cancellation": frozenset({"point"}),
}

# Clauses whose variable lists are unordered sets.
VAR_LIST_CLAUSES = frozenset(
    """
    private shared firstprivate lastprivate copyin copyprivate uniform
    allocate inclusive exclusive nontemporal
    """.split()
)

KNOWN_CLAUSE_KINDS = VAR_LIST_CLAUSES | frozenset(
    """
    reduction schedule collapse num_threads default nowait if final untied
    mergeable depend priority grainsize num_tasks safelen simdlen linear
    aligned map device proc_bind dist_schedule ordered read write update
    capture seq_cst acq_rel acquire release relaxed hint critical-name
    num_teams thread_limit in_reduction task_reduction order bind filter
    """.split()
)

COLLAPSE_NOT_APPLICABLE = "not_applicable"
COLLAPSE_VALID = "collapse_valid"
COLLAPSE_INVALID = "collapse_invalid"

ATTACHED_FOR_LOOP = "for_loop"
ATTACHED_BLOCK = "block"
ATTACHED_STATEMENT = "statement"
ATTACHED_NONE = "none"

# A preprocessor token ends in its directive word; blanks, comments and line
# splices may stand between the `#` and the word.
_RE_DIRECTIVE_WORD = re.compile(r"\w*\Z")


@dataclass(frozen=True)
class Clause:
    """One clause instance on a directive."""

    kind: str
    raw_text: str
    args_ordered: tuple[str, ...] = ()
    variables: frozenset[str] = frozenset()
    reduction_op: str | None = None
    collapse_n: int | None = None
    schedule_kind: str | None = None


@dataclass(frozen=True)
class Directive:
    """One parsed `#pragma omp` line with its structural context."""

    kinds: tuple[str, ...]
    clauses: tuple[Clause, ...]
    byte_offset: int
    line: int
    ast_depth: int
    attached_kind: str
    attached_loop: LoopContext | None
    collapse_tag: str
    raw_text: str
    degraded: bool = False

    def clause_of(self, kind: str) -> Clause | None:
        for c in self.clauses:
            if c.kind == kind:
                return c
        return None


@dataclass(frozen=True)
class NormalizedDirective:
    """Canonical form of a directive used by the scoring components."""

    kinds: tuple[str, ...]
    canonical: str
    components: frozenset[str]
    implicit_private: frozenset[str]
    ast_depth: int
    collapse_tag: str
    attached_kind: str
    loop_index: int | None
    directive: Directive

    @property
    def ordering_signature(self) -> str:
        parts = [" ".join(self.kinds)]
        parts.extend(sorted(self.components - self.implicit_private))
        return " ".join(parts)


def _text_of(tokens: Sequence[Token]) -> str:
    return " ".join(t.lexeme for t in tokens)


def _idents_of(tokens: Sequence[Token]) -> list[str]:
    """Base identifiers of a variable list, ignoring array sections."""
    names: list[str] = []
    depth = 0
    prev_was_name = False
    for tok in tokens:
        if tok.kind == "punctuation":
            if tok.lexeme in "([{":
                depth += 1
            elif tok.lexeme in ")]}":
                depth -= 1
            prev_was_name = False
            continue
        if depth == 0 and tok.kind in ("identifier", "keyword") and not prev_was_name:
            names.append(tok.lexeme)
            prev_was_name = True
        else:
            prev_was_name = tok.kind in ("identifier", "keyword")
    return names


def _parse_clause(word: str, arg_tokens: Sequence[Token] | None, raw: str) -> tuple[Clause, bool]:
    """Build one clause; returns (clause, degraded)."""
    degraded = False
    kind = word if word in KNOWN_CLAUSE_KINDS else "unknown"
    args: tuple[str, ...] = ()
    variables: frozenset[str] = frozenset()
    reduction_op = None
    collapse_n = None
    schedule_kind = None

    if arg_tokens is not None:
        groups = _split_top_level(arg_tokens, ",")
        args = tuple(_text_of(g) for g in groups if g)

    if word == "reduction" and arg_tokens is not None:
        halves = _split_top_level(arg_tokens, ":")
        if len(halves) >= 2:
            reduction_op = _text_of(halves[0]).replace(" ", "")
            var_tokens = [t for h in halves[1:] for t in h]
            names = _idents_of(var_tokens)
            variables = frozenset(names)
            args = (reduction_op, *names)
        if reduction_op is None or not variables:
            kind = "unknown"
            degraded = True
    elif word == "collapse" and arg_tokens is not None:
        text = _text_of(arg_tokens).strip()
        if text.isdigit() and int(text) >= 1:
            collapse_n = int(text)
            args = (text,)
        else:
            degraded = True
    elif word == "schedule" and arg_tokens is not None:
        if args:
            schedule_kind = args[0].replace(" ", "")
    elif arg_tokens is not None:
        variables = frozenset(_idents_of(arg_tokens))

    return (
        Clause(
            kind=kind,
            raw_text=raw,
            args_ordered=args,
            variables=variables,
            reduction_op=reduction_op,
            collapse_n=collapse_n,
            schedule_kind=schedule_kind,
        ),
        degraded,
    )


def directive_kinds(words: Sequence[Token]) -> tuple[tuple[str, ...], bool]:
    """The directive kinds that open ``words``, the code tokens after `omp`.

    Returns (kinds, degraded).  A word extends the kinds when it may follow
    the last one and no `(` follows it; an unknown first word is kept as the
    only kind and marks the directive degraded.
    """
    kinds: list[str] = []
    for i, tok in enumerate(words):
        if tok.kind not in ("identifier", "keyword"):
            break
        word = tok.lexeme
        if not kinds:
            kinds.append(word)
            if word not in DIRECTIVE_KINDS:
                return tuple(kinds), True
            continue
        followed_by_paren = i + 1 < len(words) and words[i + 1].lexeme == "("
        if followed_by_paren or word not in _SUCCESSORS.get(kinds[-1], frozenset()):
            break
        kinds.append(word)
    return tuple(kinds), False


def _parse_directive_body(
    unit: SourceUnit, start: int, end: int
) -> tuple[tuple[str, ...], tuple[Clause, ...], bool]:
    """Parse ``unit.code[start:end]``, the code tokens after `omp` on a
    pragma line, into directive kinds and clauses.  A bracket closed only
    after the line is unclosed on it."""
    tokens, closers = unit.code, unit.brackets.closers
    kinds, degraded = directive_kinds(tokens[start:end])
    clauses: list[Clause] = []
    i = start + len(kinds)

    # `critical(name)` carries its name as a pseudo-clause
    if kinds == ("critical",) and i < end and tokens[i].lexeme == "(":
        close = closers.get(i, end)
        if close < end:
            inner = tokens[i + 1 : close]
            name = _text_of(inner).replace(" ", "")
            clauses.append(
                Clause(
                    kind="critical-name",
                    raw_text=f"critical({name})",
                    args_ordered=(name,),
                    variables=frozenset(_idents_of(inner)),
                )
            )
            i = close + 1
        else:
            degraded = True
            i = end

    while i < end:
        tok = tokens[i]
        if tok.kind == "punctuation" and tok.lexeme == ",":
            i += 1
            continue
        if tok.kind not in ("identifier", "keyword"):
            degraded = True
            i += 1
            continue
        word = tok.lexeme
        arg_tokens: Sequence[Token] | None = None
        j = i + 1
        if j < end and tokens[j].lexeme == "(":
            close = closers.get(j, end)
            if close >= end:
                degraded = True
                close = end
            arg_tokens = tokens[j + 1 : close]
            j = close + 1
        raw = word if arg_tokens is None else f"{word}({_text_of(arg_tokens)})"
        clause, bad = _parse_clause(word, arg_tokens, raw)
        degraded = degraded or bad
        clauses.append(clause)
        i = j

    return kinds, tuple(clauses), degraded


def directive_line_spans(unit: SourceUnit) -> list[tuple[int, int]]:
    """Byte extent [lo, hi) of each `#pragma omp` logical line: from the `#`
    to the newline that ends the line (or the end of the text), through
    trailing blanks, comments and splices.

    The one reader of what an OpenMP pragma line is: `#pragma`, then `omp`
    (case-sensitive) as the line's next code token.
    """
    spans: list[tuple[int, int]] = []
    text, tokens = unit.text, unit.code
    n = len(tokens)
    pos = text.find("#")
    while pos >= 0:
        i = unit.token_index(pos)
        if (
            i + 1 < n
            and tokens[i].byte_offset == pos
            and tokens[i].kind == "preprocessor"
            and _RE_DIRECTIVE_WORD.search(tokens[i].lexeme)[0] == "pragma"
            and tokens[i + 1].in_directive
            and tokens[i + 1].lexeme == "omp"
        ):
            end = i + 2  # the next directive line starts at its own `#`
            while end < n and tokens[end].in_directive and tokens[end].kind != "preprocessor":
                end += 1
            hi = tokens[end].byte_offset if end < n else len(text)
            newlines = newline_tokens(text, tokens[end - 1].end_offset, hi)
            spans.append((pos, newlines[0] if newlines else hi))
            pos = text.find("#", hi)
        else:
            pos = text.find("#", pos + 1)
    return spans


def collapse_validity(directive: Directive, attached_loop: LoopContext | None) -> str:
    """Classify a directive's collapse clause against the real loop nest."""
    clause = directive.clause_of("collapse")
    if clause is None:
        return COLLAPSE_NOT_APPLICABLE
    if attached_loop is None or directive.attached_kind != ATTACHED_FOR_LOOP:
        return COLLAPSE_INVALID
    if clause.collapse_n is None:
        return COLLAPSE_INVALID
    if clause.collapse_n <= attached_loop.nesting_depth:
        return COLLAPSE_VALID
    return COLLAPSE_INVALID


def extract_directives(unit: SourceUnit) -> list[Directive]:
    """All OpenMP directives of ``unit`` in source order.

    Each directive carries its brace-nesting depth, the construct it is
    attached to, and a collapse validity tag.  Malformed clause syntax is
    parsed best-effort and flagged on the directive rather than raised.
    """
    tokens = unit.code
    loops = loop_contexts(unit)
    loops_by_offset = {lp.byte_offset: lp for lp in loops}
    # each pragma line's byte extent and its code tokens [start, end)
    lines = [
        (lo, hi, unit.token_index(lo), unit.token_index(hi)) for lo, hi in directive_line_spans(unit)
    ]

    directives: list[Directive] = []
    for lo, hi, start, end in lines:
        # tokens[start + 1] is the `omp` marker
        kinds, clauses, degraded = _parse_directive_body(unit, start + 2, end)
        if not kinds:
            kinds = ("unknown",)
            degraded = True

        # attachment: next code token after this and any other preprocessor line
        k = _skip_to_code(tokens, end)
        lexeme = tokens[k].lexeme if k < len(tokens) else None
        attached_loop = loops_by_offset.get(tokens[k].byte_offset) if lexeme == "for" else None
        if attached_loop is not None:
            attached_kind = ATTACHED_FOR_LOOP
        elif lexeme is None or lexeme == "}":
            attached_kind = ATTACHED_NONE
        elif lexeme == "{":
            attached_kind = ATTACHED_BLOCK
        else:
            attached_kind = ATTACHED_STATEMENT

        d = Directive(
            kinds=kinds,
            clauses=clauses,
            byte_offset=lo,
            line=tokens[start].line,
            ast_depth=unit.brackets.brace_depth(start),
            attached_kind=attached_kind,
            attached_loop=attached_loop,
            collapse_tag=COLLAPSE_NOT_APPLICABLE,
            raw_text=unit.text[lo:hi],
            degraded=degraded,
        )
        d = dataclasses.replace(d, collapse_tag=collapse_validity(d, attached_loop))
        directives.append(d)
    return directives


def canonical_clause(clause: Clause) -> str | None:
    """Canonical component string for a clause; None for excluded clauses.

    `num_threads` is hardware-dependent and never enters the component set.
    """
    kind = clause.kind
    if kind == "num_threads":
        return None
    if kind in VAR_LIST_CLAUSES:
        return f"{kind}({','.join(sorted(clause.variables))})"
    if kind == "reduction":
        op = clause.reduction_op or ""
        ordered_vars = clause.args_ordered[1:] if clause.args_ordered else ()
        return f"reduction({op}:{','.join(ordered_vars)})"
    if kind == "schedule":
        return f"schedule({','.join(a.replace(' ', '') for a in clause.args_ordered)})"
    if kind == "collapse":
        return f"collapse({clause.collapse_n if clause.collapse_n else ','.join(clause.args_ordered)})"
    if kind == "critical-name":
        return f"critical-name({clause.args_ordered[0] if clause.args_ordered else ''})"
    if kind == "unknown":
        return re.sub(r"\s+", " ", clause.raw_text.strip())
    if clause.args_ordered:
        return f"{kind}({','.join(a.replace(' ', '') for a in clause.args_ordered)})"
    return kind


def normalize_directive(
    directive: Directive,
    induction_vars: frozenset[str] = frozenset(),
) -> NormalizedDirective:
    """Canonicalize a directive for component-level comparison.

    Variable lists of unordered clauses are sorted, reduction and schedule
    argument order is preserved, and `num_threads` is dropped.  A private
    clause whose variables are all ``induction_vars`` (the counters of the
    attached loop nest) is marked implicitly satisfiable: a worksharing loop
    makes those counters private whether or not the clause is spelled out.
    The mark is applied on both sides of a comparison; only the coverage
    score's forgiveness policy is reference-side specific.
    """
    components: list[str] = []
    implicit: set[str] = set()
    for clause in directive.clauses:
        comp = canonical_clause(clause)
        if comp is None:
            continue
        components.append(comp)
        if (
            clause.kind == "private"
            and clause.variables
            and clause.variables <= induction_vars
        ):
            implicit.add(comp)

    canonical = " ".join([" ".join(directive.kinds)] + sorted(components))
    return NormalizedDirective(
        kinds=directive.kinds,
        canonical=canonical,
        components=frozenset(components),
        implicit_private=frozenset(implicit),
        ast_depth=directive.ast_depth,
        collapse_tag=directive.collapse_tag,
        attached_kind=directive.attached_kind,
        loop_index=directive.attached_loop.loop_index if directive.attached_loop else None,
        directive=directive,
    )


def attached_construct_span(
    unit: SourceUnit, directive: Directive, diagnostics: list[str] | None = None
) -> tuple[int, int] | None:
    """Byte span of the construct a directive governs, if parsable.

    When there is none, the reason is appended to ``diagnostics``.
    """
    if directive.attached_kind == ATTACHED_FOR_LOOP and directive.attached_loop is not None:
        return (directive.attached_loop.byte_offset, directive.attached_loop.end_offset)
    problem = "no construct follows pragma"
    if directive.attached_kind in (ATTACHED_BLOCK, ATTACHED_STATEMENT):
        tokens = unit.code
        idx = _skip_to_code(tokens, unit.token_index(directive.byte_offset + len(directive.raw_text)))
        if idx < len(tokens):
            block = tokens[idx].lexeme == "{"
            end = unit.brackets.closers.get(idx) if block else unit.brackets.statement_end(idx)
            if end is not None:
                return (tokens[idx].byte_offset, tokens[end].end_offset)
            problem = "unbalanced block after pragma" if block else "unterminated statement after pragma"
    if diagnostics is not None:
        diagnostics.append(f"line {directive.line}: {problem}")
    return None


def pragma_line_range(unit: SourceUnit, start: int, end: int) -> tuple[int, int]:
    """Byte range of the logical line holding the pragma
    ``unit.text[start:end]``, through the newline that ends it: what
    stripping the pragma removes.

    The range opens after the newline that starts the line, so it takes any
    comments before the `#`, also one that spans lines, whole.
    """
    text = unit.text
    i = unit.token_index(start)
    prev = unit.code[i - 1].end_offset if i else 0
    newlines = newline_tokens(text, prev, start)
    line_end = text.find("\n", end)
    return newlines[-1] + 1 if newlines else prev, len(text) if line_end == -1 else line_end + 1


def _kept_ranges(
    cuts: list[tuple[int, int]] | tuple[tuple[int, int], ...], lo: int, hi: int
) -> list[tuple[int, int]]:
    """The parts of [lo, hi) outside the sorted ``cuts`` that start in it."""
    kept: list[tuple[int, int]] = []
    pos = lo
    for cut_lo, cut_hi in cuts[bisect.bisect_left(cuts, lo, key=itemgetter(0)) :]:
        if cut_lo >= hi:
            break
        kept.append((pos, cut_lo))
        pos = min(max(pos, cut_hi), hi)
    kept.append((pos, hi))
    return kept


def stripped_slice(
    unit: SourceUnit, pragma_lines: tuple[tuple[int, int], ...], lo: int, hi: int
) -> tuple[str, list[Token]]:
    """``unit.text[lo:hi]`` without its OpenMP pragma lines, and its code
    tokens.

    ``pragma_lines`` are the unit's :func:`pragma_line_range` spans in
    source order.  For a span that starts and ends on token boundaries with
    a code token first, the text equals ``strip_openmp`` of the span's text
    parsed alone, and the tokens, cut from the unit's code tokens, have the
    lexemes and kinds of that text's code tokens.
    """
    kept = _kept_ranges(pragma_lines, lo, hi)
    text = "".join(unit.text[a:b] for a, b in kept)
    tokens = [t for a, b in kept for t in unit.code[unit.token_index(a) : unit.token_index(b)]]
    return text, tokens


def strip_openmp(unit: SourceUnit) -> str:
    """The unit's text without its OpenMP pragma lines; all other bytes are
    unchanged.

    Each pragma's whole logical line is removed: its backslash continuations
    and any comments before its `#`.
    Idempotent: stripping the text of a stripped unit is the identity.
    """
    text = unit.text
    cuts = [pragma_line_range(unit, lo, hi) for lo, hi in directive_line_spans(unit)]
    return "".join(text[a:b] for a, b in _kept_ranges(cuts, 0, len(text)))
