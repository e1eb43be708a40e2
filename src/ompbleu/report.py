"""Batch evaluation: dataset ingestion, candidate ranking, report assembly.

Reports are deterministic: records are merged in id order and no
timestamps are embedded, so identical inputs and configuration produce
byte-identical canonical JSON.
"""

from __future__ import annotations

# csv, statistics and concurrent.futures (with logging) are imported by the
# code that writes CSV, aggregates a dataset or starts threads, so that the
# commands that do none of these do not load them at start-up.
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .classify import (
    ClassificationReport,
    ClauseVocabulary,
    aggregate,
    classification_report,
    clause_confusion,
)
from .compile_check import canonical_language, language_of_path, resolve_language
from .config import EvalConfig, typed, values_of
from .metrics import SUBSCORE_WEIGHTS, ScoreBreakdown, SideAnalysis, analyze, ompbleu_score
from .similarity import SimilarityBackend

SUBSCORE_KEYS = tuple(SUBSCORE_WEIGHTS)


@dataclass(frozen=True)
class DatasetRecord:
    """One reference with one or more candidate parallelizations, all in one
    language: ``language`` is their hint for the compile check, any spelling
    of ``LANGUAGE_SPELLINGS`` kept as the language it names, or None."""

    id: str
    reference: str
    candidates: tuple[str, ...]
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None:
            object.__setattr__(self, "language", canonical_language(self.language))
        if not self.candidates:
            raise ValueError(f"record {self.id!r} has no candidates")


# Every key of a JSONL dataset record, with the check of its value.
_RECORD_KEYS = {
    "id": typed(str),
    "reference": typed(str),
    "candidates": typed(tuple),
    "language": typed(str, nullable=True),
}


@dataclass
class RankedCandidate:
    candidate_index: int
    rank: int
    breakdown: ScoreBreakdown | None
    error: str | None = None
    # the (reference, candidate) analyses the breakdown was scored from
    analyses: tuple[SideAnalysis, SideAnalysis] | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "candidate_index": self.candidate_index,
            "rank": self.rank,
            "breakdown": self.breakdown.as_dict() if self.breakdown else None,
            "error": self.error,
        }


class DatasetError(ValueError):
    """The dataset itself is unusable (empty or unreadable)."""


def read_source(path: str | Path) -> str:
    """The text of an input file; :class:`DatasetError` if it is not UTF-8."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_jsonl(path: str | Path) -> tuple[list[DatasetRecord], list[str]]:
    """Records from JSONL lines, each an object of the keys of
    ``_RECORD_KEYS``; a line that is not one is a load error naming why."""
    records: dict[str, DatasetRecord] = {}  # by id
    errors: list[str] = []
    try:
        lines = read_source(path).split("\n")  # a JSON string may hold U+2028 raw
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = DatasetRecord(**values_of(json.loads(line), "record", _RECORD_KEYS, ""))
            if record.id in records:
                raise ValueError(f"duplicate record id {record.id!r}")
        except (RecursionError, TypeError, ValueError) as exc:  # json nests only so deep
            errors.append(f"line {lineno}: skipped malformed record ({exc})")
            continue
        records[record.id] = record
    return list(records.values()), errors


def load_paired_dirs(path: str | Path) -> tuple[list[DatasetRecord], list[str]]:
    """Records from ref/ and gen/ subdirectories matched by filename; the
    file suffix names the record's language."""
    root = Path(path)
    ref_dir, gen_dir = root / "ref", root / "gen"
    if not ref_dir.is_dir() or not gen_dir.is_dir():
        raise DatasetError(f"{path} must contain ref/ and gen/ directories")
    records: list[DatasetRecord] = []
    errors: list[str] = []
    for ref_file in sorted(ref_dir.iterdir()):
        if not ref_file.is_file():
            continue
        gen_file = gen_dir / ref_file.name
        if not gen_file.is_file():
            errors.append(f"{ref_file.name}: no matching file under gen/")
            continue
        try:
            reference, candidate = read_source(ref_file), read_source(gen_file)
        except DatasetError as exc:
            errors.append(f"{ref_file.name}: skipped ({exc})")
            continue
        records.append(
            DatasetRecord(
                id=ref_file.name,
                reference=reference,
                candidates=(candidate,),
                language=language_of_path(ref_file),
            )
        )
    return records, errors


def load_dataset(path: str | Path, fmt: str) -> tuple[list[DatasetRecord], list[str]]:
    if fmt == "jsonl":
        return load_jsonl(path)
    if fmt == "dirs":
        return load_paired_dirs(path)
    raise DatasetError(f"unknown dataset format: {fmt!r}")


def rank_candidates(
    record: DatasetRecord, config: EvalConfig, backend: SimilarityBackend | None = None
) -> list[RankedCandidate]:
    """Score every candidate and rank by composite, best first.

    The reference is analysed once and, with one similarity backend, shared
    by every candidate; a candidate equal to it shares its analysis too, and
    any other is lexed only where it differs from it.
    Ties break toward the earlier candidate; a
    candidate that fails hard is ranked after every scored one with the
    error recorded, never dropped: its message, or the exception's type
    where the message is empty.
    """
    if backend is None:
        backend = config.make_backend()
    reference: SideAnalysis | None = None
    scored: list[RankedCandidate] = []
    for idx, candidate in enumerate(record.candidates):
        try:
            # inside the try: a reference that cannot be analysed fails
            # each candidate with its error, not the whole run
            if reference is None:
                reference = analyze(record.reference, record.language)
            analysis = analyze(candidate, record.language, like=reference)
            breakdown = ompbleu_score(reference, analysis, config, backend)
            scored.append(
                RankedCandidate(
                    candidate_index=idx,
                    rank=0,
                    breakdown=breakdown,
                    analyses=(reference, analysis),
                )
            )
        except Exception as exc:  # noqa: BLE001 - candidate faults must not abort the run
            error = str(exc) or type(exc).__name__
            scored.append(RankedCandidate(candidate_index=idx, rank=0, breakdown=None, error=error))
    scored.sort(
        key=lambda rc: (
            -(rc.breakdown.composite if rc.breakdown else float("-inf")),
            rc.candidate_index,
        )
    )
    for pos, rc in enumerate(scored, 1):
        rc.rank = pos
    return scored


def canonical_json(payload: dict) -> str:
    """``payload`` as the JSON every report is written in: keys sorted,
    indented, with a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class Report:
    """Full evaluation output; aggregates are recomputable from the rows."""

    records: list[dict]
    aggregates: dict
    classification: ClassificationReport | None
    errors: list[str]
    config_echo: dict
    version: str = __version__

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config_echo,
            "records": self.records,
            "aggregates": self.aggregates,
            "classification": self.classification.as_dict() if self.classification else None,
            "errors": self.errors,
        }

    def to_json(self) -> str:
        return canonical_json(self.as_dict())

    def classification_json(self) -> str:
        """The clause classification report alone, as JSON."""
        return canonical_json(self.classification.as_dict())

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "best_candidate", "composite", *SUBSCORE_KEYS, "error"])
        for row in self.records:
            b = row.get("breakdown")
            writer.writerow(
                [
                    row["id"],
                    row.get("best_candidate", ""),
                    f"{b['composite']:.6f}" if b else "",
                    *(f"{b[k]:.6f}" if b else "" for k in SUBSCORE_KEYS),
                    row.get("error", "") or "",
                ]
            )
        return buf.getvalue()

    def per_clause_csv(self) -> str:
        """Per-clause F1 as CSV, one row per vocabulary kind."""
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["clause", "f1"])
        if self.classification:
            for kind, value in self.classification.per_clause_f1.items():
                writer.writerow([kind, value if isinstance(value, str) else f"{value:.4f}"])
        return buf.getvalue()

    def to_table(self) -> str:
        headers = ["id", "composite", *SUBSCORE_KEYS]
        rows = []
        for row in self.records:
            b = row.get("breakdown")
            if b:
                rows.append(
                    [row["id"], f"{b['composite']:.2f}"]
                    + [f"{b[k]:.4f}" for k in SUBSCORE_KEYS]
                )
            else:
                rows.append([row["id"], "error"] + [""] * len(SUBSCORE_KEYS))
        agg = self.aggregates.get("mean", {})
        if agg:
            rows.append(
                ["MEAN", f"{agg.get('composite', 0):.2f}"]
                + [f"{agg.get(k, 0):.4f}" for k in SUBSCORE_KEYS]
            )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
        return "\n".join(lines) + "\n"


def _score_record(
    record: DatasetRecord,
    config: EvalConfig,
    vocab: ClauseVocabulary,
    backend: SimilarityBackend,
) -> dict:
    ranked = rank_candidates(record, config, backend)
    best = ranked[0]
    language, defaulted = resolve_language(config.compile.language, record.language)
    row: dict = {
        "id": record.id,
        "candidates": [rc.as_dict() for rc in ranked],
        "best_candidate": best.candidate_index,
        "language": language,
        "language_defaulted": defaulted,
    }
    if best.breakdown is None:
        row["error"] = best.error
        return row
    row["breakdown"] = best.breakdown.as_dict()
    gt, gen = best.analyses
    try:
        row["_confusion"] = clause_confusion(list(gt.directives), list(gen.directives), vocab)
    except Exception as exc:  # noqa: BLE001
        row["error"] = f"classification failed: {exc}"
    return row


def evaluate_dataset(
    records: list[DatasetRecord],
    config: EvalConfig,
    jobs: int = 1,
    load_errors: list[str] | None = None,
) -> Report:
    """Score every record (top-1 of its ranking) and aggregate."""
    if not records:  # then the load errors say why
        raise DatasetError("\n  ".join(["no records in dataset", *(load_errors or [])]))
    vocab = ClauseVocabulary.load(config.clause_vocabulary)

    backend = config.make_backend()
    # threads overlap only waits outside the interpreter, which holds its lock
    # through static scoring: the compiler subprocess and the embedding calls
    waits_outside = config.compile_enabled or config.backend.kind == "remote_embedding"
    if jobs > 1 and waits_outside:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda r: _score_record(r, config, vocab, backend), records))
    else:
        rows = [_score_record(r, config, vocab, backend) for r in records]

    rows.sort(key=lambda r: r["id"])
    errors = list(load_errors or [])
    confusions = []
    scored_rows = []
    for row in rows:
        if "error" in row and "breakdown" not in row:
            errors.append(f"record {row['id']}: {row['error']}")
        if "breakdown" in row:
            scored_rows.append(row)
        conf = row.pop("_confusion", None)
        if conf is not None:
            confusions.append(conf)

    aggregates: dict = {"scored_records": len(scored_rows), "total_records": len(rows)}
    if scored_rows:
        import statistics

        for stat_name, fn in (("mean", statistics.fmean), ("median", statistics.median)):
            aggregates[stat_name] = {
                "composite": fn(r["breakdown"]["composite"] for r in scored_rows),
                **{
                    k: fn(r["breakdown"][k] for r in scored_rows)
                    for k in SUBSCORE_KEYS
                },
            }

    classification = classification_report(aggregate(confusions)) if confusions else None
    return Report(
        records=rows,
        aggregates=aggregates,
        classification=classification,
        errors=errors,
        config_echo=config.echo(),
    )
