"""The eight sub-scores and their weighted composite.

Every sub-score lives in [0, 1]; the composite is reported on a 0-100
scale.  All comparisons are anchored on the reference (ground-truth) side:
missing material lowers the clause and coverage scores, surplus material
is penalized by the coverage term only.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import TYPE_CHECKING

from .compile_check import CompileConfig, CompileResult, compile_score
from .similarity import (
    CodeText,
    SimilarityBackend,
    lcs_ratio,
    lev_similarity,
)
from .syntax import Directive, RegionBlock, SourceUnit, parse_source
from .syntax.directives import (
    PragmaEdit,
    StrippedView,
    attached_construct_span,
    canonical_clause,
    extract_directives,
    pragma_edit,
)
from .syntax.regions import parallel_region_blocks

if TYPE_CHECKING:
    from .config import EvalConfig


@dataclass(frozen=True)
class ClauseWeightTable:
    """Per-clause-kind importance weights for the clause score.

    Reduction defaults to 5: omitting it typically races the result,
    so its absence must dominate the clause term.
    """

    weights: dict[str, float] = field(default_factory=lambda: {"reduction": 5.0})
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        for kind, w in self.weights.items():
            if w <= 0:
                raise ValueError(f"clause weight for {kind!r} must be > 0, got {w}")
        if self.default_weight <= 0:
            raise ValueError("default clause weight must be > 0")

    def weight_of(self, component: str) -> float:
        kind = component.split("(", 1)[0].strip()
        return self.weights.get(kind, self.default_weight)


# The sub-scores, in report order, with their default composite weights.
# Weights, breakdowns, the config file and the reports all take their keys
# from this table.
SUBSCORE_WEIGHTS: dict[str, float] = {
    "wc": 0.3,
    "vu": 0.05,
    "is": 0.10,
    "or": 0.05,
    "rc": 0.05,
    "cc": 0.05,
    "pl": 0.2,
    "compile": 0.2,
}


def _check_subscore_keys(table: dict[str, float], what: str) -> None:
    if table.keys() != SUBSCORE_WEIGHTS.keys():
        raise ValueError(f"{what} keys must be {list(SUBSCORE_WEIGHTS)}, got {list(table)}")


@dataclass(frozen=True)
class MetricWeights:
    """Composite weights keyed like :data:`SUBSCORE_WEIGHTS`; they must sum
    to exactly 1."""

    composite: dict[str, float] = field(default_factory=lambda: dict(SUBSCORE_WEIGHTS))
    is_blend_alpha: float = 0.7

    def __post_init__(self) -> None:
        _check_subscore_keys(self.composite, "composite weight")
        # keep a copy in table order: the caller's dict may change after the checks
        object.__setattr__(self, "composite", {k: self.composite[k] for k in SUBSCORE_WEIGHTS})
        for v in self.composite.values():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"composite weights must lie in [0,1], got {v}")
        total = math.fsum(self.composite.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"composite weights must sum to 1, got {total!r}; "
                "weights are never renormalized silently"
            )
        if not 0.0 <= self.is_blend_alpha <= 1.0:
            raise ValueError("is_blend_alpha must lie in [0,1]")


@dataclass
class ScoreBreakdown:
    """Sub-scores in [0,1] keyed like :data:`SUBSCORE_WEIGHTS`, composite
    in [0,100], and explanations."""

    scores: dict[str, float]
    composite: float
    diagnostics: dict[str, list[str]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {**self.scores, "composite": self.composite, "diagnostics": self.diagnostics}


@dataclass(frozen=True)
class SideAnalysis:
    """Everything the sub-scores need from one side of a pair.

    Built from one tokenization of the source, or read through the
    analysis of a similar source (:func:`analyze`'s ``like``).  The code
    texts the cosine backends compare are bounds into the source, or into
    its stripped view, and into their code tokens; they are kept here, with
    any bag built from them, so a reference shared by several candidates
    builds each once.
    """

    text: str
    directives: tuple[Directive, ...]
    regions: tuple[RegionBlock, ...]
    region_diagnostics: tuple[str, ...]
    # the unit's own language hint (a record's field or a file suffix)
    language: str | None = None
    # the analysis this one was read through by a pragma-line edit, and the edit
    like: tuple[SideAnalysis, PragmaEdit] | None = field(default=None, repr=False, compare=False)
    # the source's code tokens, when it was lexed in full
    lexed: SourceUnit | None = field(default=None, repr=False, compare=False)
    _stripped: dict[tuple[int, int], CodeText] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _compiled: dict[CompileConfig, CompileResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def unit(self) -> SourceUnit:
        """The source's code tokens; a source read through ``like`` is lexed
        in full only here, for a caller that asks."""
        return self.lexed or parse_source(self.text)

    @cached_property
    def code(self) -> CodeText:
        """The whole source, pragmas included."""
        if self.like is None:
            return CodeText(self.text, self.unit.lexemes)
        like, edit = self.like  # the bag is like's edited: this text's lexemes go unread
        return CodeText(self.text, (), edit_of=(like.code, edit.removed, edit.added))

    @cached_property
    def stripped_view(self) -> StrippedView:
        """The source without its OpenMP pragma lines."""
        lines = ((d.byte_offset, d.byte_offset + len(d.raw_text)) for d in self.directives)
        return StrippedView(self.unit, lines)

    def stripped(self, span: tuple[int, int]) -> CodeText:
        """A byte span of the source with its OpenMP pragma lines removed.
        Its ends lie outside the pragma lines; a source read through
        ``like`` cuts the edited lines whole, so the span is ``like``'s at
        the edit's ``back`` of its ends."""
        if self.like is not None:
            like, edit = self.like
            return like.stripped((edit.back(span[0]), edit.back(span[1])))
        code = self._stripped.get(span)
        if code is None:
            view = self.stripped_view
            lo, hi, first, stop = view.slice(*span)
            code = self._stripped[span] = CodeText(view.text, view.lexemes, first, stop, lo, hi)
        return code

    def compiled(self, config: CompileConfig) -> CompileResult:
        """The unit compiled in its language, once per analysis and config:
        a reference shared by several candidates compiles once."""
        result = self._compiled.get(config)
        if result is None:
            result = self._compiled[config] = compile_score(self.text, config, self.language)
        return result


def analyze(
    source: str, language: str | None = None, like: SideAnalysis | None = None
) -> SideAnalysis:
    """Parse one source into the artifacts the sub-scores consume.

    ``language`` is the unit's own language hint for the compile check, a
    spelling from :data:`~ompbleu.compile_check.LANGUAGE_SPELLINGS`.
    ``like``, the analysis of a similar source such as a candidate's
    reference, is only a speed-up.  A source and language equal to its own
    are ``like`` itself.  A source that differs from it only on whole
    `#pragma omp` lines that stay in place is read through it: only those
    lines are lexed and parsed (:func:`~.syntax.directives.pragma_edit`),
    each region counts its decision points in ``like``'s unit, each
    stripped span is ``like``'s, and the bag of code tokens is ``like``'s
    edited; the source's own unit is lexed only if a caller asks for it.
    Only ``like``'s lazily built parts change, each to the value it would
    take anyway, so threads may share it.  Any other source is lexed and
    analysed in full.
    """
    if like is not None and (source, language) == (like.text, like.language):
        return like
    edit = like and pragma_edit(source, like.unit, like.directives)
    if edit is None:
        unit = parse_source(source)
        directives = extract_directives(unit)
        regions, region_diags = parallel_region_blocks(unit, directives)
    else:
        unit, directives = None, edit.directives
        regions, region_diags = parallel_region_blocks(like.unit, directives, edit.back)
    return SideAnalysis(
        text=source,
        directives=tuple(directives),
        regions=tuple(regions),
        region_diagnostics=tuple(region_diags),
        language=language,
        like=edit and (like, edit),
        lexed=unit,
    )


def _all_components(directives: tuple[Directive, ...]) -> frozenset[str]:
    out: set[str] = set()
    for d in directives:
        out |= d.components
    return frozenset(out)


def weighted_clause_score(
    gt: tuple[Directive, ...],
    gen: tuple[Directive, ...],
    table: ClauseWeightTable,
    diagnostics: list[str] | None = None,
) -> float:
    """Weighted overlap of reference clause components found in the candidate.

    Anchored on the reference: a reference with no clause components scores
    1.0 regardless of the candidate (extras are the coverage score's job).
    """
    gt_comps = _all_components(gt)
    if not gt_comps:
        return 1.0
    gen_comps = _all_components(gen)
    matched = gt_comps & gen_comps
    missing = gt_comps - gen_comps
    if missing and diagnostics is not None:
        diagnostics.append("missing clauses: " + ", ".join(sorted(missing)))
    total = sum(table.weight_of(c) for c in gt_comps)
    hit = sum(table.weight_of(c) for c in matched)
    return hit / total


_NAMED_SHARING_TYPES = ("shared", "private", "reduction", "firstprivate", "lastprivate")


def _variable_sets(directives: tuple[Directive, ...]) -> dict[str, frozenset[str]]:
    """Union of per-clause-type argument sets across all directives."""
    out: dict[str, set[str]] = {}
    for d in directives:
        for clause in d.clauses:
            if clause.kind == "num_threads":
                continue  # hardware-dependent, never compared
            values = clause.variables or frozenset(clause.args_ordered)
            if not values:
                continue
            out.setdefault(clause.kind, set()).update(values)
    return {k: frozenset(v) for k, v in out.items()}


def variable_usage_score(
    gt: tuple[Directive, ...],
    gen: tuple[Directive, ...],
    diagnostics: list[str] | None = None,
) -> float:
    """Mean Jaccard index of per-clause-type variable sets.

    The type universe is the five data-sharing clause types plus every other
    argument-bearing clause type present on either side; two empty sets
    count as a perfect match for their type.
    """
    gt_sets = _variable_sets(gt)
    gen_sets = _variable_sets(gen)
    universe = set(_NAMED_SHARING_TYPES) | set(gt_sets) | set(gen_sets)
    total = 0.0
    for t in sorted(universe):
        a = gt_sets.get(t, frozenset())
        b = gen_sets.get(t, frozenset())
        if not a and not b:
            jaccard = 1.0
        else:
            jaccard = len(a & b) / len(a | b)
            if jaccard < 1.0 and diagnostics is not None:
                diagnostics.append(
                    f"{t}: reference vars {sorted(a)} vs generated {sorted(b)}"
                )
        total += jaccard
    return total / len(universe)


def _directive_strings(directives: tuple[Directive, ...]) -> str:
    return "\n".join(d.canonical for d in directives)


def integrated_semantic_score(
    gt: SideAnalysis,
    gen: SideAnalysis,
    backend: SimilarityBackend,
    is_blend_alpha: float = 0.7,
) -> float:
    """Blend of embedding similarity of whole codes and edit similarity of
    their concatenated normalized directive strings."""
    s_lev = lev_similarity(_directive_strings(gt.directives), _directive_strings(gen.directives))
    s_emb = backend.similarity(gt.code, gen.code)
    return is_blend_alpha * s_emb + (1.0 - is_blend_alpha) * s_lev


def ordering_score(
    gt: tuple[Directive, ...],
    gen: tuple[Directive, ...],
    diagnostics: list[str] | None = None,
) -> float:
    """Common-subsequence ratio over directive order, depth, and validity.

    Each directive contributes an element of (ordering signature, nesting
    depth, collapse tag, attached construct); implicitly satisfied private
    clauses are invisible to the signature on both sides.
    """

    def elements(side: tuple[Directive, ...]) -> list[tuple]:
        return [(d.ordering_signature, d.ast_depth, d.collapse_tag, d.attached_kind) for d in side]

    gt_elems = elements(gt)
    gen_elems = elements(gen)
    score = lcs_ratio(gt_elems, gen_elems)
    if score < 1.0 and diagnostics is not None:
        diagnostics.append(
            f"directive sequences diverge: reference {gt_elems} vs generated {gen_elems}"
        )
    return score


def _forgiven_components(
    gt: tuple[Directive, ...],
    gen: tuple[Directive, ...],
    gen_components: frozenset[str],
) -> frozenset[str]:
    """Reference private components satisfied implicitly by the candidate.

    A reference `private` over pure loop counters is forgiven only when the
    candidate actually parallelizes a matching loop: a worksharing-loop
    directive attached to a for loop whose counters cover those variables.
    """
    gen_loop_counters: set[str] = set()
    for d in gen:
        if "for" in d.kinds and d.attached_loop is not None:
            gen_loop_counters |= d.attached_loop.nest_induction_vars
    forgiven: set[str] = set()
    for d in gt:
        for clause in d.clauses:
            if clause.kind != "private":
                continue
            comp = canonical_clause(clause)
            if comp not in d.implicit_private or comp in gen_components:
                continue
            if clause.variables and clause.variables <= gen_loop_counters:
                forgiven.add(comp)
    return frozenset(forgiven)


def redundancy_coverage_score(
    gt: tuple[Directive, ...],
    gen: tuple[Directive, ...],
    diagnostics: list[str] | None = None,
) -> float:
    """Coverage of reference components with a surplus penalty."""
    gt_comps = _all_components(gt)
    gen_comps = _all_components(gen)
    if not gt_comps:
        if not gen_comps:
            return 1.0
        if diagnostics is not None:
            diagnostics.append(
                "reference has no clause components but candidate adds: "
                + ", ".join(sorted(gen_comps))
            )
        return 0.0
    forgiven = _forgiven_components(gt, gen, gen_comps)
    matched = len(gt_comps & gen_comps) + len(forgiven)
    if diagnostics is not None and forgiven:
        diagnostics.append(
            "implicitly satisfied: " + ", ".join(sorted(forgiven))
        )
    coverage = matched / len(gt_comps)
    surplus = 1.0 if not gen_comps else min(1.0, len(gt_comps) / len(gen_comps))
    return coverage * surplus


def cyclomatic_ratio(
    gt_regions: tuple[RegionBlock, ...],
    gen_regions: tuple[RegionBlock, ...],
    diagnostics: list[str] | None = None,
) -> float:
    """Ratio of smaller to larger mean parallel-region complexity."""
    if not gt_regions and not gen_regions:
        return 1.0
    if not gt_regions or not gen_regions:
        if diagnostics is not None:
            side = "reference" if not gt_regions else "generated"
            diagnostics.append(f"{side} side has no extractable parallel region")
        return 0.0
    mean_gt = sum(r.complexity for r in gt_regions) / len(gt_regions)
    mean_gen = sum(r.complexity for r in gen_regions) / len(gen_regions)
    return min(mean_gt, mean_gen) / max(mean_gt, mean_gen)


def _is_loop_related(d: Directive) -> bool:
    return "for" in d.kinds or d.clause_of("collapse") is not None


def _construct_code(side: SideAnalysis, d: Directive) -> CodeText | None:
    span = attached_construct_span(d)
    return None if span is None else side.stripped(span)


def pragma_location_score(
    gt: SideAnalysis,
    gen: SideAnalysis,
    backend: SimilarityBackend,
    diagnostics: list[str] | None = None,
) -> float:
    """Whether pragmas attach to the right constructs.

    Loop-related pragmas compare pragma-stripped loop contexts with a
    penalty of 50% per position of loop-index drift; others, and loop
    pragmas attached to no for-loop on either side, compare the immediate
    construct that follows.  Unpaired pragmas contribute zero.
    """
    gt_loop = [d for d in gt.directives if _is_loop_related(d)]
    gen_loop = [d for d in gen.directives if _is_loop_related(d)]
    gt_other = [d for d in gt.directives if not _is_loop_related(d)]
    gen_other = [d for d in gen.directives if not _is_loop_related(d)]

    def paired(
        term: Callable[[Directive, Directive], float],
        label: str,
        a: Directive | None,
        b: Directive | None,
    ) -> float:
        """``term`` of a pair, or 0 for a pragma unmatched on one side."""
        if a is not None and b is not None:
            return term(a, b)
        if diagnostics is not None:
            missing = "generated" if b is None else "reference"
            present = a or b
            diagnostics.append(f"{label} '{' '.join(present.kinds)}' unmatched on {missing} side")
        return 0.0

    def loop_term(a: Directive, b: Directive) -> float:
        la, lb = a.attached_loop, b.attached_loop
        if la is None and lb is None:
            return other_term(a, b)
        if la is None or lb is None:
            if diagnostics is not None:
                diagnostics.append(
                    "loop pragma not attached to a for loop on "
                    + ("generated" if lb is None else "reference")
                    + " side"
                )
            return 0.0
        cos = backend.similarity(_construct_code(gt, a), _construct_code(gen, b))
        penalty = max(0.0, 1.0 - abs(la.loop_index - lb.loop_index) / 2.0)
        if penalty < 1.0 and diagnostics is not None:
            diagnostics.append(
                f"loop index drift {la.loop_index} vs {lb.loop_index} "
                f"(penalty {penalty:.2f})"
            )
        return cos * penalty

    def other_term(a: Directive, b: Directive) -> float:
        ctx_a = _construct_code(gt, a)
        ctx_b = _construct_code(gen, b)
        if ctx_a is None and ctx_b is None:
            return 1.0
        if ctx_a is None or ctx_b is None:
            return 0.0
        return backend.similarity(ctx_a, ctx_b)

    loop_terms = [
        paired(loop_term, "loop pragma", a, b) for a, b in zip_longest(gt_loop, gen_loop)
    ]
    other_terms = [paired(other_term, "pragma", a, b) for a, b in zip_longest(gt_other, gen_other)]

    if not loop_terms and not other_terms:
        return 1.0
    if not loop_terms:
        return sum(other_terms) / len(other_terms)
    ls = sum(loop_terms) / len(loop_terms)
    if not other_terms:
        return ls
    return (ls + sum(other_terms) / len(other_terms)) / 2.0


def compose(scores: dict[str, float], weights: MetricWeights) -> float:
    """100 times the weighted sum of the eight sub-scores."""
    _check_subscore_keys(scores, "sub-score")
    for s in scores.values():
        if not 0.0 <= s <= 1.0 + 1e-12:
            raise ValueError(f"sub-score out of range: {s}")
    return 100.0 * math.fsum(w * scores[k] for k, w in weights.composite.items())


def _compile_subscore(
    gt: SideAnalysis, gen: SideAnalysis, cfg: "EvalConfig", diagnostics: list[str]
) -> float:
    """The candidate's own verdict; the reference is compiled too, so that a
    0 from a harness the reference fails in says so."""
    if not cfg.compile_enabled:
        diagnostics.append("compile check disabled by configuration")
        return 1.0
    result = gen.compiled(cfg.compile)
    if result.language_defaulted:
        diagnostics.append(
            f"language defaulted to {result.language}: no configured language, "
            "record language or file suffix names one"
        )
    if result.diagnostics and result.score == 0:
        diagnostics.append(result.diagnostics.strip())
    reference = gt.compiled(cfg.compile)
    if reference.score == 0:
        diagnostics.append(
            f"reference does not compile as {reference.language}: "
            "compile = 0 then says nothing about the candidate"
        )
    return float(result.score)


def ompbleu_score(
    gt_source: str | SideAnalysis,
    gen_source: str | SideAnalysis,
    config: "EvalConfig | None" = None,
    backend: SimilarityBackend | None = None,
) -> ScoreBreakdown:
    """Score one candidate against its reference across all eight components.

    Either side may be given as its :func:`analyze` result, and the
    similarity backend may be passed in, so that several candidates can
    share one reference analysis and one backend.
    """
    from .config import EvalConfig  # deferred to avoid an import cycle

    cfg = config if config is not None else EvalConfig()
    gt = gt_source if isinstance(gt_source, SideAnalysis) else analyze(gt_source)
    gen = gen_source if isinstance(gen_source, SideAnalysis) else analyze(gen_source)
    if backend is None:
        backend = cfg.make_backend()
    diags: dict[str, list[str]] = {k: [] for k in SUBSCORE_WEIGHTS}

    scores = {
        "wc": weighted_clause_score(
            gt.directives, gen.directives, cfg.clause_weights, diags["wc"]
        ),
        "vu": variable_usage_score(gt.directives, gen.directives, diags["vu"]),
        "is": integrated_semantic_score(gt, gen, backend, cfg.weights.is_blend_alpha),
        "or": ordering_score(gt.directives, gen.directives, diags["or"]),
        "rc": redundancy_coverage_score(gt.directives, gen.directives, diags["rc"]),
        "cc": cyclomatic_ratio(gt.regions, gen.regions, diags["cc"]),
        "pl": pragma_location_score(gt, gen, backend, diags["pl"]),
        "compile": _compile_subscore(gt, gen, cfg, diags["compile"]),
    }
    diags["cc"].extend(gt.region_diagnostics)
    diags["cc"].extend(gen.region_diagnostics)
    return ScoreBreakdown(
        scores=scores,
        composite=compose(scores, cfg.weights),
        diagnostics={k: v for k, v in diags.items() if v},
    )
