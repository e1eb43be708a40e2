"""Command-line interface.

Exit codes: 0 on success, 1 when any evaluation error occurred,
2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from pathlib import Path

from . import __version__
from .compile_check import CompileError, compile_score, language_of_path
from .config import ConfigError, EvalConfig, config_checked, load_config
from .pretrain import NoiseSchedule, TagVocabulary, corrupt, ssa_annotate
from .report import (
    DatasetError,
    DatasetRecord,
    RankedCandidate,
    Report,
    canonical_json,
    evaluate_dataset,
    load_dataset,
    rank_candidates,
    read_source,
)
from .syntax import parse_source, strip_openmp

_SOURCE_SUFFIXES = (".c", ".cc", ".cpp", ".cxx", ".h", ".hpp")

# Generation-0 threshold of the garbage collector while a command runs.  At
# the default of 700, lexing a large unit allocates enough tokens to start a
# few dozen collections that find nothing to free: pair analysis frees its
# objects by reference counting, so little cyclic garbage waits for a
# collection, and a command's peak memory does not grow with the raised
# threshold.  The threshold is process-wide, so only `main` sets it; library
# calls such as `analyze` run on several threads under `evaluate_dataset`.
_GC_GEN0_THRESHOLD = 20_000

# The `--emit` formats of the report commands, each with the `Report` method
# that renders it; any other command prints JSON only.
_RENDERERS = {
    "dataset": {"json": Report.to_json, "csv": Report.to_csv, "table": Report.to_table},
    "classify": {"json": Report.classification_json, "csv": Report.per_clause_csv},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ompbleu",
        description="Score candidate OpenMP parallelizations against references.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", metavar="FILE", help="JSON configuration file")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="score records on N threads while they wait on the compiler or an embedding service",
    )
    parser.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    parser.add_argument(
        "--emit", choices=("json", "csv", "table"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one candidate against one reference")
    p.add_argument("reference")
    p.add_argument("generated")
    p.set_defaults(run=_cmd_score)

    p = sub.add_parser("rank", help="rank several candidates against one reference")
    p.add_argument("reference")
    p.add_argument("generated", nargs="+")
    p.set_defaults(run=_cmd_rank)

    p = sub.add_parser("dataset", help="evaluate a whole dataset")
    p.add_argument("path")
    p.add_argument("--format", choices=("jsonl", "dirs"), default="jsonl")
    p.set_defaults(run=_cmd_report)

    p = sub.add_parser("classify", help="clause classification report for a dataset")
    p.add_argument("path")
    p.add_argument("--format", choices=("jsonl", "dirs"), default="jsonl")
    p.set_defaults(run=_cmd_report)

    p = sub.add_parser("strip", help="remove all OpenMP pragmas from a file")
    p.add_argument("path")
    p.set_defaults(run=_cmd_strip)

    p = sub.add_parser("annotate", help="emit syntax-role tag ids for source files")
    p.add_argument("path")
    p.set_defaults(run=_cmd_annotate)

    p = sub.add_parser("corrupt", help="apply seeded corruption to a source file")
    p.add_argument("path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--step", type=int, default=0)
    p.add_argument("--modes", default="mask", help="comma-separated corruption modes")
    p.add_argument("--r0", type=float, default=0.05)
    p.add_argument("--r1", type=float, default=0.3)
    p.add_argument("--ramp-steps", type=int, default=10000)
    p.set_defaults(run=_cmd_corrupt)

    p = sub.add_parser("compile-check", help="compilation score for a source file")
    p.add_argument("path")
    p.set_defaults(run=_cmd_compile_check)
    return parser


def _write_out(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    _write_out(args, canonical_json(payload))


def _source_files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.rglob("*") if p.suffix in _SOURCE_SUFFIXES)
    return [path]


def _rank(reference: str, generated: list[str], config: EvalConfig) -> list[RankedCandidate]:
    """The candidate files ranked against the reference file; like a dataset
    record, they compile in the language of the reference's suffix."""
    record = DatasetRecord(
        id=reference,
        reference=read_source(reference),
        candidates=tuple(read_source(g) for g in generated),
        language=language_of_path(reference),
    )
    return rank_candidates(record, config)


def _cmd_score(args: argparse.Namespace, config: EvalConfig) -> int:
    """`rank` of one candidate, printing its breakdown alone or its error."""
    [scored] = _rank(args.reference, [args.generated], config)
    if scored.breakdown is None:
        print(f"error: {scored.error}", file=sys.stderr)
        return 1
    _write_json(args, scored.breakdown.as_dict())
    return 0


def _cmd_rank(args: argparse.Namespace, config: EvalConfig) -> int:
    ranked = _rank(args.reference, args.generated, config)
    payload = {
        "reference": args.reference,
        "candidates": [
            {"path": args.generated[rc.candidate_index], **rc.as_dict()} for rc in ranked
        ],
    }
    _write_json(args, payload)
    return 1 if any(rc.error for rc in ranked) else 0


def _cmd_report(args: argparse.Namespace, config: EvalConfig) -> int:
    """`dataset` and `classify`: one report, rendered in the `--emit` format."""
    records, load_errors = load_dataset(args.path, args.format)
    report = evaluate_dataset(records, config, jobs=args.jobs, load_errors=load_errors)
    if args.command == "classify" and report.classification is None:
        _write_out(args, json.dumps({"error": "no scorable records"}) + "\n")
        return 1
    _write_out(args, _RENDERERS[args.command][args.emit](report))
    return 1 if report.errors else 0


def _cmd_strip(args: argparse.Namespace, config: EvalConfig) -> int:
    _write_out(args, strip_openmp(parse_source(read_source(args.path))))
    return 0


def _cmd_annotate(args: argparse.Namespace, config: EvalConfig) -> int:
    vocab = TagVocabulary.load(config.tag_vocabulary)
    paths = _source_files(Path(args.path))
    if not paths:
        print(f"error: no source files under {args.path}", file=sys.stderr)
        return 1
    lines = []
    for path in paths:
        unit = parse_source(read_source(path))
        tags = ssa_annotate(unit, vocab)
        lines.append(", ".join(str(t) for t in tags))
    _write_out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_corrupt(args: argparse.Namespace, config: EvalConfig) -> int:
    modes = frozenset(m.strip() for m in args.modes.split(",") if m.strip())
    schedule = config_checked(
        NoiseSchedule, r0=args.r0, r1=args.r1, ramp_steps=args.ramp_steps, modes=modes
    )
    unit = parse_source(read_source(args.path))
    _write_out(args, config_checked(corrupt, unit, schedule, step=args.step, seed=args.seed))
    return 0


def _cmd_compile_check(args: argparse.Namespace, config: EvalConfig) -> int:
    result = compile_score(read_source(args.path), config.compile, language_of_path(args.path))
    _write_json(args, dataclasses.asdict(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    saved = gc.get_threshold()
    gc.set_threshold(_GC_GEN0_THRESHOLD, *saved[1:])
    try:
        return _run(argv)
    finally:
        gc.set_threshold(*saved)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    formats = _RENDERERS.get(args.command, ("json",))
    if args.emit not in formats:
        formats = " or ".join(formats)
        parser.error(f"argument --emit: {args.command} takes {formats}, not {args.emit}")
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.run(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, CompileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
