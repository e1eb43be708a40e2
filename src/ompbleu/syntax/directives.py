"""OpenMP directive extraction, clause parsing, and normalization.

Directives are recognized textually as ``#pragma omp …`` lines (including
backslash continuations) and then clause-parsed with a hand-written grammar
covering the common OpenMP 5.x inventory, with an ``unknown`` fallback for
anything else.  Nesting depth is the brace depth of the pragma among code
tokens, which stands in for the depth of the pragma node in a concrete
syntax tree.  Depths and construct ends are looked up in the unit's bracket
table (:class:`~.lexer.Brackets`), which reads no preprocessor line; clause
parentheses are matched on the pragma's own line (:func:`~.lexer.line_closers`).
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate, compress, count
from operator import attrgetter, ne
from typing import NamedTuple

from .lexer import (
    CLOSERS, OPENERS, SourceUnit, lexeme_kind, line_closers, newline_tokens, tokenize,
)
from .loops import LoopContext, loop_contexts, split_top_level

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
RE_DIRECTIVE_WORD = re.compile(r"\w*\Z")


@dataclass(frozen=True)
class Clause:
    """One clause instance on a directive."""

    kind: str
    raw_text: str
    args_ordered: tuple[str, ...] = ()
    variables: frozenset[str] = frozenset()
    reduction_op: str | None = None
    collapse_n: int | None = None


@dataclass(frozen=True)
class Directive:
    """One parsed `#pragma omp` line with its structural context and the
    canonical form the scoring components compare.

    ``components`` are the canonical clauses (:func:`canonical_clause`)
    without `num_threads`.  ``implicit_private`` are the `private` ones
    whose variables are all counters of the attached loop nest: a
    worksharing loop makes those counters private whether or not the clause
    is spelled out.  The mark is applied on both sides of a comparison; only
    the coverage score's forgiveness policy is reference-side specific.
    ``canonical`` is the kinds and the sorted components, repeats kept.
    Its offsets, ``byte_offset``, ``construct_span`` and the attached
    loop's, index the text it was read from; a directive of a text read
    through its reference's analysis holds the reference's
    (:func:`pragma_edit`).
    """

    kinds: tuple[str, ...]
    clauses: tuple[Clause, ...]
    components: frozenset[str]
    implicit_private: frozenset[str]
    canonical: str
    byte_offset: int
    line: int
    ast_depth: int
    attached_kind: str
    attached_loop: LoopContext | None
    construct_span: tuple[int, int] | None  # byte span of the governed construct
    collapse_tag: str
    raw_text: str
    degraded: bool = False

    def clause_of(self, kind: str) -> Clause | None:
        for c in self.clauses:
            if c.kind == kind:
                return c
        return None

    @property
    def ordering_signature(self) -> str:
        parts = [" ".join(self.kinds)]
        parts.extend(sorted(self.components - self.implicit_private))
        return " ".join(parts)


def _text_of(lexemes: Sequence[str]) -> str:
    return " ".join(lexemes)


def _idents_of(lexemes: Sequence[str]) -> list[str]:
    """Base identifiers of a variable list, ignoring array sections."""
    names: list[str] = []
    depth = 0
    prev_was_name = False
    for lexeme in lexemes:
        if lexeme in OPENERS:
            depth += 1
        elif lexeme in CLOSERS:
            depth -= 1
        is_name = lexeme_kind(lexeme) in ("identifier", "keyword")
        if is_name and depth == 0 and not prev_was_name:
            names.append(lexeme)
        prev_was_name = is_name
    return names


def _parse_clause(word: str, arg_tokens: Sequence[str] | None, raw: str) -> tuple[Clause, bool]:
    """Build one clause; returns (clause, degraded)."""
    degraded = False
    kind = word if word in KNOWN_CLAUSE_KINDS else "unknown"
    args: tuple[str, ...] = ()
    variables: frozenset[str] = frozenset()
    reduction_op = None
    collapse_n = None

    if arg_tokens is not None:
        groups = split_top_level(arg_tokens, ",")
        args = tuple(_text_of(g) for g in groups if g)

    if word == "reduction" and arg_tokens is not None:
        halves = split_top_level(arg_tokens, ":")
        if len(halves) >= 2:
            reduction_op = _text_of(halves[0]).replace(" ", "")
            var_tokens = [lexeme for h in halves[1:] for lexeme in h]
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
    elif word != "schedule" and arg_tokens is not None:  # a schedule names no variables
        variables = frozenset(_idents_of(arg_tokens))

    return (
        Clause(
            kind=kind,
            raw_text=raw,
            args_ordered=args,
            variables=variables,
            reduction_op=reduction_op,
            collapse_n=collapse_n,
        ),
        degraded,
    )


def directive_kinds(words: Sequence[str]) -> tuple[tuple[str, ...], bool]:
    """The directive kinds that open ``words``, the lexemes of the code
    tokens after `omp`.

    Returns (kinds, degraded).  A word extends the kinds when it may follow
    the last one and no `(` follows it; an unknown first word is kept as the
    only kind and marks the directive degraded.
    """
    kinds: list[str] = []
    for i, word in enumerate(words):
        if lexeme_kind(word) not in ("identifier", "keyword"):
            break
        if not kinds:
            kinds.append(word)
            if word not in DIRECTIVE_KINDS:
                return tuple(kinds), True
            continue
        followed_by_paren = i + 1 < len(words) and words[i + 1] == "("
        if followed_by_paren or word not in _SUCCESSORS.get(kinds[-1], frozenset()):
            break
        kinds.append(word)
    return tuple(kinds), False


def _parse_directive_body(
    lexemes: list[str], start: int, end: int
) -> tuple[tuple[str, ...], tuple[Clause, ...], bool]:
    """Parse ``lexemes[start:end]``, the code tokens after `omp` on a pragma
    line, into directive kinds and clauses.  The line's brackets are matched
    on it alone (:func:`~.lexer.line_closers`): one left open is unclosed."""
    closers = line_closers(lexemes, start, end)
    kinds, degraded = directive_kinds(lexemes[start:end])
    clauses: list[Clause] = []
    i = start + len(kinds)

    # `critical(name)` carries its name as a pseudo-clause
    if kinds == ("critical",) and i < end and lexemes[i] == "(":
        close = closers.get(i)
        if close is not None:
            inner = lexemes[i + 1 : close]
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
        word = lexemes[i]
        if word == ",":
            i += 1
            continue
        if lexeme_kind(word) not in ("identifier", "keyword"):
            degraded = True
            i += 1
            continue
        arg_tokens: Sequence[str] | None = None
        j = i + 1
        if j < end and lexemes[j] == "(":
            close = closers.get(j)
            if close is None:
                degraded = True
                close = end
            arg_tokens = lexemes[j + 1 : close]
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
    text, lexemes, starts = unit.text, unit.lexemes, unit.starts
    for start, end in unit.directive_lines:
        if (
            start + 1 < end
            and lexemes[start + 1] == "omp"
            and RE_DIRECTIVE_WORD.search(lexemes[start])[0] == "pragma"
        ):
            hi = starts[end] if end < len(lexemes) else len(text)
            newlines = newline_tokens(text, unit.token_end(end - 1), hi)
            spans.append((starts[start], newlines[0] if newlines else hi))
    return spans


def collapse_validity(clauses: Sequence[Clause], attached_loop: LoopContext | None) -> str:
    """Classify the collapse clause among ``clauses`` against the loop nest
    a directive is attached to, if any."""
    clause = next((c for c in clauses if c.kind == "collapse"), None)
    if clause is None:
        return COLLAPSE_NOT_APPLICABLE
    if attached_loop is None or clause.collapse_n is None:
        return COLLAPSE_INVALID
    if clause.collapse_n <= attached_loop.nesting_depth:
        return COLLAPSE_VALID
    return COLLAPSE_INVALID


def extract_directives(unit: SourceUnit) -> list[Directive]:
    """All OpenMP directives of ``unit`` in source order.

    Each directive carries its brace-nesting depth, the construct it is
    attached to and that construct's span, a collapse validity tag, and its
    canonical components, marked against the counters of the attached loop.
    Malformed clause syntax is parsed best-effort and flagged on the
    directive rather than raised.  Each distinct line text is parsed once:
    equal text is equal code tokens, so its kinds and clauses are equal,
    while the rest is read at each line's own place.
    """
    lexemes, starts, flags, brackets = unit.lexemes, unit.starts, unit.in_directive, unit.brackets
    loops_by_offset = {lp.byte_offset: lp for lp in loop_contexts(unit)}
    bodies: dict[str, tuple] = {}  # each distinct line's parsed body

    directives: list[Directive] = []
    # A pragma attaches to the next code token after its line and any other
    # preprocessor lines.  The lines are read in reverse, so a walk that
    # reaches the next pragma line takes that line's attachment instead of
    # stepping over it.
    k = next_start = len(lexemes)
    for lo, hi in reversed(directive_line_spans(unit)):
        start, end = unit.token_index(lo), unit.token_index(hi)
        i = end
        while i < next_start and flags[i]:
            i += 1
        if i < next_start:
            k = i
        next_start = start
        lexeme = lexemes[k] if k < len(lexemes) else None
        attached_loop = loops_by_offset.get(starts[k]) if lexeme == "for" else None
        span = None
        if attached_loop is not None:
            attached_kind = ATTACHED_FOR_LOOP
            span = (attached_loop.byte_offset, attached_loop.end_offset)
        elif lexeme is None or lexeme == "}":
            attached_kind = ATTACHED_NONE
        else:
            block = lexeme == "{"
            attached_kind = ATTACHED_BLOCK if block else ATTACHED_STATEMENT
            close = brackets.closers.get(k) if block else brackets.statement_end(k)
            if close is not None:
                span = (starts[k], unit.token_end(close))
        raw_text = unit.text[lo:hi]
        body = bodies.get(raw_text)
        if body is None:  # code token start + 1 is the `omp` marker
            body = bodies[raw_text] = _parse_directive_body(lexemes, start + 2, end)
        directives.append(
            _directive(
                body,
                attached_loop,
                byte_offset=lo,
                line=unit.line(lo),
                ast_depth=brackets.brace_depth(start),
                attached_kind=attached_kind,
                construct_span=span,
                raw_text=raw_text,
            )
        )
    directives.reverse()
    return directives


def _directive(
    body: tuple[tuple[str, ...], tuple[Clause, ...], bool],
    attached_loop: LoopContext | None,
    **where,
) -> Directive:
    """The directive of a parsed pragma body, with its canonical components
    marked against the counters of its attached loop; ``where`` holds the
    other fields: its place, attachment and text."""
    kinds, clauses, degraded = body
    if not kinds:
        kinds, degraded = ("unknown",), True
    counters = frozenset() if attached_loop is None else attached_loop.nest_induction_vars
    components: list[str] = []
    implicit: list[str] = []
    for clause in clauses:
        comp = canonical_clause(clause)
        if comp is None:
            continue
        components.append(comp)
        if clause.kind == "private" and clause.variables and clause.variables <= counters:
            implicit.append(comp)
    return Directive(
        kinds=kinds,
        clauses=clauses,
        components=frozenset(components),
        implicit_private=frozenset(implicit),
        canonical=" ".join([" ".join(kinds), *sorted(components)]),
        attached_loop=attached_loop,
        collapse_tag=collapse_validity(clauses, attached_loop),
        degraded=degraded,
        **where,
    )


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


def attached_construct_span(
    directive: Directive, diagnostics: list[str] | None = None
) -> tuple[int, int] | None:
    """Byte span of the construct a directive governs, if parsable.

    When there is none, the reason is appended to ``diagnostics``.
    """
    span = directive.construct_span
    if span is None and diagnostics is not None:
        problem = {
            ATTACHED_BLOCK: "unbalanced block after pragma",
            ATTACHED_STATEMENT: "unterminated statement after pragma",
        }.get(directive.attached_kind, "no construct follows pragma")
        diagnostics.append(f"line {directive.line}: {problem}")
    return span


def pragma_line_range(unit: SourceUnit, start: int, end: int) -> tuple[int, int]:
    """Byte range of the logical line holding the pragma
    ``unit.text[start:end]``, a span of :func:`directive_line_spans`,
    through the newline at ``end``: what stripping the pragma removes.

    The range opens after the newline that starts the line, so it takes any
    comments before the `#`, also one that spans lines, whole.
    """
    text = unit.text
    i = unit.token_index(start)
    prev = unit.token_end(i - 1) if i else 0
    newlines = newline_tokens(text, prev, start)
    return newlines[-1] + 1 if newlines else prev, min(end + 1, len(text))


class StrippedView:
    """A unit's text without the given pragma lines, and its code tokens.

    Built once from the byte extents of the pragma lines, in source order:
    each line's :func:`pragma_line_range` is cut.  A span of the unit is
    then cut from the stripped text and the kept tokens by bisection.
    """

    def __init__(self, unit: SourceUnit, lines: Iterable[tuple[int, int]]) -> None:
        cuts = [pragma_line_range(unit, lo, hi) for lo, hi in lines]
        self._cut_ends = [hi for _, hi in cuts]
        # bytes removed before each cut
        self._removed = list(accumulate((hi - lo for lo, hi in cuts), initial=0))
        # the kept ranges: the end of the text closes the last
        kept = list(zip([0, *self._cut_ends], [lo for lo, _ in cuts] + [len(unit.text)]))
        self.text = "".join(unit.text[a:b] for a, b in kept)
        self.lexemes: list[str] = []
        self.starts: list[int] = []  # the kept code tokens' offsets in the unit
        for a, b in kept:
            first, stop = unit.token_index(a), unit.token_index(b)
            self.lexemes += unit.lexemes[first:stop]
            self.starts += unit.starts[first:stop]

    def _stripped_offset(self, offset: int) -> int:
        """Where ``offset`` of the unit, outside the cuts, lies in the
        stripped text."""
        return offset - self._removed[bisect.bisect_right(self._cut_ends, offset)]

    def slice(self, lo: int, hi: int) -> tuple[int, int, int, int]:
        """The bounds ``[a, b)`` of ``unit.text[lo:hi]`` without the cut
        lines in :attr:`text`, and ``[first, stop)`` of its code tokens in
        :attr:`lexemes`.

        ``lo`` and ``hi`` lie outside the cuts: a cut's own bounds are
        outside it.
        For a span that starts and ends on token boundaries with a code token
        first, the text equals ``strip_openmp`` of the span's text parsed
        alone, and the tokens have the lexemes of its code tokens.
        """
        starts = self.starts
        return (
            self._stripped_offset(lo),
            self._stripped_offset(hi),
            bisect.bisect_left(starts, lo),
            bisect.bisect_left(starts, hi),
        )


class PragmaEdit(NamedTuple):
    """What :func:`pragma_edit` reads off a unit: the new directives, at the
    unit's offsets, and the code tokens of the old lines and of the new
    ones."""

    directives: list[Directive]
    removed: list[str]
    added: list[str]


def pragma_edit(
    text: str, unit: SourceUnit, directives: Sequence[Directive]
) -> PragmaEdit | None:
    """The directives of ``text`` read off ``unit`` and its ``directives``,
    with the edit, when the two texts differ only on whole `#pragma omp`
    lines that stay in place; None otherwise.

    Only the changed lines are lexed, and only those whose text no directive
    of ``unit`` nor an earlier changed line holds are parsed: the others
    take that parse (see :func:`extract_directives`).  Each changed line
    must be one directive's whole logical line on both sides, after nothing
    but blanks in ``unit``.
    A preprocessor line takes no part in a bracket match, statement end or
    decision point outside it, so none of those changes, and every directive
    keeps its attachment.  The new directives stay in ``unit``'s text: each
    offset they hold is ``unit``'s, an edited line's directive takes the
    place of the one it replaces with its own body and text, and every
    other is ``unit``'s own object.  Each changed line is cut whole from
    both texts' stripped views, so the two views are equal, and each span
    the new directives hold is cut from ``unit``'s.
    """
    old_lines, new_lines = unit.text.split("\n"), text.split("\n")
    if len(old_lines) != len(new_lines):
        return None
    changed = list(compress(count(), map(ne, old_lines, new_lines)))
    line_starts = list(accumulate(map((1).__add__, map(len, old_lines)), initial=0))
    olds, removed = [], []  # the index of each changed line's directive, and their code tokens
    for i in changed:
        old, a = old_lines[i], line_starts[i]
        col = len(old) - len(old.lstrip(" \t"))
        k = bisect.bisect_left(directives, a + col, key=attrgetter("byte_offset"))
        d = directives[k] if k < len(directives) else None
        if d is None or d.byte_offset != a + col or len(d.raw_text) != len(old) - col:
            return None
        olds.append(k)
        removed += unit.lexemes[unit.token_index(a) : unit.token_index(a + len(old))]
    # the changed lines lexed alone; a `#` after them must start a line of
    # its own, so none of them runs on into the next
    joined = "\n".join([*(new_lines[i] for i in changed), "#"])
    code = SourceUnit(joined, *tokenize(joined))
    heads, lines = code.heads, directive_line_spans(code)
    if len(heads) != len(changed) + 1 or len(lines) != len(changed):
        return None
    # a directive's fields rebuild it: no kinds became `unknown`, degraded
    bodies = {d.raw_text: (d.kinds, d.clauses, d.degraded) for d in directives}
    out = list(directives)
    for (lo, hi), head, end, k in zip(lines, heads, heads[1:], olds):
        raw_text, d = joined[lo:hi], directives[k]
        body = bodies.get(raw_text)
        if body is None:
            body = bodies[raw_text] = _parse_directive_body(code.lexemes, head + 2, end)
        out[k] = _directive(
            body, d.attached_loop, byte_offset=d.byte_offset, line=d.line, ast_depth=d.ast_depth,
            attached_kind=d.attached_kind, construct_span=d.construct_span, raw_text=raw_text,
        )
    added = code.lexemes[: heads[-1]]  # every line's tokens, without the `#` after them
    return PragmaEdit(out, removed, added)


def strip_openmp(unit: SourceUnit) -> str:
    """The unit's text without its OpenMP pragma lines; all other bytes are
    unchanged.

    Each pragma's whole logical line is removed: its backslash continuations
    and any comments before its `#`.
    Idempotent: stripping the text of a stripped unit is the identity.
    """
    return StrippedView(unit, directive_line_spans(unit)).text
