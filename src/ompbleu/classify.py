"""Clause-level confusion matrices and precision/recall/F1 reporting.

Presence is binary per vocabulary entry and side: a clause kind or
directive keyword either appears somewhere on that side or it does not.
Percentages are truncated (not rounded) to two decimals, which is how the
reference results this module is validated against were printed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .config import read_vocabulary
from .syntax import Directive

UNKNOWN_BUCKET = "unknown"

# Loop-worksharing combinations are reported with an `omp` prefix to
# distinguish `for`-the-directive from `for`-the-loop-keyword.
_PREFIXED_DIRECTIVES = {
    ("for",): "omp for",
    ("parallel", "for"): "omp parallel for",
    ("parallel", "for", "simd"): "omp parallel for simd",
    ("parallel", "sections"): "omp parallel sections",
    ("for", "simd"): "omp for simd",
}


@dataclass(frozen=True)
class ClauseVocabulary:
    """Ordered reference list of directive and clause keywords."""

    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.kinds)) != len(self.kinds):
            dupes = sorted({k for k in self.kinds if self.kinds.count(k) > 1})
            raise ValueError(f"duplicate vocabulary entries: {dupes}")

    @property
    def size(self) -> int:
        return len(self.kinds)

    @classmethod
    def load(cls, path: str | Path | None = None) -> "ClauseVocabulary":
        """The vocabulary in the file at ``path``, or the packaged one."""
        return cls(kinds=tuple(read_vocabulary(path, "clause_vocabulary.txt")))

    default = load  # the packaged vocabulary


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def directive_entry(directive: Directive) -> str:
    """Vocabulary entry name for a directive's kind combination."""
    return _PREFIXED_DIRECTIVES.get(tuple(directive.kinds), " ".join(directive.kinds))


def presence_set(directives: list[Directive] | tuple[Directive, ...]) -> set[str]:
    """All vocabulary-entry names present in a directive list."""
    present: set[str] = set()
    for d in directives:
        present.add(directive_entry(d))
        for clause in d.clauses:
            if clause.kind == "critical-name":
                continue  # the critical directive itself carries the signal
            present.add(clause.kind)
    return present


def clause_confusion(
    gt: list[Directive] | tuple[Directive, ...],
    gen: list[Directive] | tuple[Directive, ...],
    vocab: ClauseVocabulary | None = None,
    diagnostics: list[str] | None = None,
) -> dict[str, ConfusionCounts]:
    """Per-kind TP/FP/FN/TN for one reference/candidate pair.

    Kinds outside the vocabulary are pooled under ``unknown`` and excluded
    from true-negative accounting, so the row-sum invariant
    ``tp+fp+fn+tn == |vocab|`` holds per pair over in-vocabulary kinds.
    """
    if vocab is None:
        vocab = ClauseVocabulary.load()
    gt_present = presence_set(gt)
    gen_present = presence_set(gen)

    def presence(kind: str) -> ConfusionCounts:
        in_gt = kind in gt_present
        in_gen = kind in gen_present
        return ConfusionCounts(
            tp=int(in_gt and in_gen),
            fp=int(in_gen and not in_gt),
            fn=int(in_gt and not in_gen),
            tn=int(not in_gt and not in_gen),
        )

    counts = {kind: presence(kind) for kind in vocab.kinds}
    # a kind outside the vocabulary is present on a side, so its tn is 0
    outside = sorted((gt_present | gen_present) - set(vocab.kinds))
    if outside:
        counts[UNKNOWN_BUCKET] = sum(map(presence, outside), ConfusionCounts())
        if diagnostics is not None:
            diagnostics.extend(f"kind outside vocabulary: {kind!r}" for kind in outside)
    return counts


def aggregate(counts_list: list[dict[str, ConfusionCounts]]) -> dict[str, ConfusionCounts]:
    """Fold per-pair confusion maps into totals (associative, commutative)."""
    out: dict[str, ConfusionCounts] = {}
    for counts in counts_list:
        for kind, c in counts.items():
            out[kind] = out.get(kind, ConfusionCounts()) + c
    return out


def truncate2(value: float) -> float:
    """Truncate a percentage to two decimals (no rounding)."""
    return int(value * 100) / 100.0


@dataclass
class ClassificationReport:
    """Aggregate precision/recall/F1, truncated to two-decimal percents."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    per_clause_f1: dict[str, float | str] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


ABSENT_IN_GT = "absent_in_gt"


def classification_report(
    counts: dict[str, ConfusionCounts] | ConfusionCounts,
) -> ClassificationReport:
    """Precision/recall/F1 over aggregated counts.

    Zero denominators yield 0 with a diagnostic, never NaN.  Per-clause F1
    distinguishes a genuine 0 from kinds that never occur in the reference.
    """
    diagnostics: list[str] = []
    per_clause: dict[str, float | str] = {}

    if isinstance(counts, ConfusionCounts):
        total = counts
    else:
        total = ConfusionCounts()
        for kind, c in counts.items():
            if kind == UNKNOWN_BUCKET:
                continue
            total = total + c
            if c.tp + c.fn == 0:
                per_clause[kind] = ABSENT_IN_GT
            else:
                p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
                r = c.tp / (c.tp + c.fn)
                per_clause[kind] = 2 * p * r / (p + r) if p + r else 0.0

    if total.tp + total.fp == 0:
        precision = 0.0
        diagnostics.append("no positive predictions; precision defined as 0")
    else:
        precision = total.tp / (total.tp + total.fp)
    if total.tp + total.fn == 0:
        recall = 0.0
        diagnostics.append("no positives in reference; recall defined as 0")
    else:
        recall = total.tp / (total.tp + total.fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    if f1 == 0.0 and not diagnostics and total.tp == 0:
        diagnostics.append("no true positives")

    return ClassificationReport(
        tp=total.tp,
        fp=total.fp,
        fn=total.fn,
        tn=total.tn,
        precision=truncate2(precision * 100),
        recall=truncate2(recall * 100),
        f1=truncate2(f1 * 100),
        per_clause_f1=per_clause,
        diagnostics=diagnostics,
    )
