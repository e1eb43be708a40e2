"""The four workloads: inputs per round, the timed passes, and the checks.

A round is a fixed set of operations, the same in every round and every
run; a run repeats rounds until its time is spent.  An operation is one
candidate pair scored, or one corpus file processed.  Every workload runs
pass A, the first pass at ``--jobs 1`` (the cold pass on dataset-compile),
and a smaller copy of its inputs for the scaling exponent.  Two more passes
run only where the program has the mechanism they measure:

- pass B, the dataset inputs again at ``--jobs`` equal to the number of
  usable CPUs (with a fresh, empty compile cache on dataset-compile), on
  the two dataset workloads: ``dataset`` is the only command run here that
  uses ``--jobs``;
- pass C, the dataset-compile inputs again at ``--jobs 1`` with pass A's
  compile cache, the only cache that outlives a command.

Elsewhere ``pairs_per_s_jobs_n`` and ``warm_pairs_per_s`` read pass A's
rate, which is what the program does there today.

Every check runs outside the timed calls; an operation whose outputs fail a
check counts as failed.  Failures of the two known faults are expected;
any other failure also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import speed
from ompbleu.cli import main as cli_main
from ompbleu.syntax import parse_source

SUBSCORES = ("wc", "vu", "is", "or", "rc", "cc", "pl", "compile")
REPLICATION_INVARIANT = ("wc", "vu", "rc", "cc")

# symptoms of the known faults; any other check that trips is unexpected
KNOWN_SYMPTOMS = {"dataset-static": {"identity"}, "dataset-compile": {"compile"}}


@dataclass
class Tally:
    workload: str
    attempted: int = 0
    failed: int = 0
    known: int = 0
    unexpected: list[str] = field(default_factory=list)

    def op(self, problems: set[str], known_fault: bool = False, where: str = "") -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known_fault and problems <= KNOWN_SYMPTOMS.get(self.workload, set()):
            self.known += 1
        else:
            self.unexpected.append(f"{where}: {sorted(problems)}")


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    jobs_n: int
    smoke: bool
    tally: Tally
    tracer: object = None
    # samples: metric -> list of per-round values (pair_ms_p50: per operation)
    samples: dict = field(default_factory=dict)
    speed_loops: list = field(default_factory=list)
    cpus: set = field(default_factory=lambda: os.sched_getaffinity(0))
    _gcc_verdicts: dict = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def timed(self, *argvs: list[str], traced: bool = True, jobs: int = 1, sampled: bool = True) -> float:
        """Run CLI commands in this process, one after the other; the wall
        time they took, at the reference speed (see ``speed``).  A ``--jobs
        1`` call runs pinned to one CPU, with the compiler subprocesses it
        starts, and the loop runs on that CPU, before and after the call
        and, when ``sampled``, during it; otherwise the loop's time is the
        mean over every usable CPU, before and after the call.  Calls that
        spend their time in compiler subprocesses are not sampled: the
        loop would read only the Python between compiles, which has tracked
        the compiler's speed worse than the loops around the call."""
        cpus = {min(self.cpus)} if jobs == 1 else self.cpus
        try:
            before = speed.loop_seconds_on(cpus)
            os.sched_setaffinity(0, cpus)
            if self.tracer is not None:
                self.tracer.enabled = traced
            with speed.sampling() if jobs == 1 and sampled else contextlib.nullcontext([]) as samples:
                start = time.perf_counter()
                codes = [cli_main(argv) for argv in argvs]
                elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            loops = [before, speed.loop_seconds_on(cpus), *samples]
        finally:
            os.sched_setaffinity(0, self.cpus)
        for argv, rc in zip(argvs, codes):
            if rc != 0:
                raise RuntimeError(f"ompbleu {' '.join(argv)} exited with {rc}")
        self.speed_loops.append(statistics.median(loops))
        return speed.at_reference(elapsed, loops)

    def gcc_verdict(self, source: str, language: str) -> int:
        """1 if gcc accepts ``source`` in its own language, else 0."""
        key = (source, language)
        if key not in self._gcc_verdicts:
            suffix = ".c" if language == "c" else ".cpp"
            path = self.work / f"verdict{suffix}"
            path.write_text(source)
            proc = subprocess.run(
                ["gcc", "-fopenmp", "-fsyntax-only", "-x", "c" if language == "c" else "c++", str(path)],
                capture_output=True, timeout=120, cwd=self.work,
            )
            self._gcc_verdicts[key] = int(proc.returncode == 0)
        return self._gcc_verdicts[key]


def _write_config(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw))
    return str(path)


def _in_range(b: dict) -> bool:
    return all(0.0 <= b[k] <= 1.0 for k in SUBSCORES) and 0.0 <= b["composite"] <= 100.0


def _scaling(t_full: float, t_quarter: float, b_full: int, b_quarter: int) -> float:
    return math.log(t_full / t_quarter) / math.log(b_full / b_quarter)


# ---------------------------------------------------------------------------
# dataset workloads


def _write_dataset(path: Path, records: list[gen.Record]) -> int:
    """Write JSONL; returns the bytes of reference plus candidate per pair."""
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.as_json()) + "\n")
    return sum(
        len(rec.reference.text.encode()) + len(c.text.encode()) for rec in records for c in rec.candidates
    )


def _check_dataset_report(ctx: Ctx, text: str, records: list[gen.Record], label: str, compiled: bool) -> None:
    report = json.loads(text)
    rows = {row["id"]: row for row in report["records"]}
    expect_tp = expect_fp = expect_fn = 0
    for rec in records:
        row = rows.get(rec.id)
        cands = {c["candidate_index"]: c for c in row["candidates"]} if row else {}
        best = row.get("best_candidate") if row else None
        if best is not None:
            gt = gen.presence(rec.reference.pragmas)
            got = gen.presence(rec.candidates[best].pragmas)
            expect_tp += len(gt & got)
            expect_fp += len(got - gt)
            expect_fn += len(gt - got)
        for k, cand in enumerate(rec.candidates):
            problems = set()
            b = cands.get(k, {}).get("breakdown")
            if b is None:
                problems.add("not scored")
            else:
                if not _in_range(b):
                    problems.add("range")
                if k in rec.identity and b["composite"] != 100.0:
                    problems.add("identity")
                if k == best and b["wc"] != gen.expected_wc(rec.reference.pragmas, cand.pragmas):
                    problems.add("wc")
                if compiled:
                    verdict = ctx.gcc_verdict(cand.text, rec.language)
                    if b["compile"] != verdict:
                        problems.add("compile")
                    if verdict != rec.expect_compiles[k]:
                        problems.add("generator verdict")
            ctx.tally.op(problems, k in rec.faults, f"{label} {rec.id}#{k}")
    cls = report.get("classification") or {}
    if (cls.get("tp"), cls.get("fp"), cls.get("fn")) != (expect_tp, expect_fp, expect_fn):
        ctx.tally.unexpected.append(
            f"{label}: classification tp/fp/fn {cls.get('tp')}/{cls.get('fp')}/{cls.get('fn')}"
            f" != {expect_tp}/{expect_fp}/{expect_fn}"
        )
        ctx.tally.failed += 1


def _without_compile_diagnostics(row: dict) -> dict:
    """A report row without the compiler's diagnostics, which name the
    per-call temporary file of a fresh compile cache."""
    row = json.loads(json.dumps(row))
    for b in [row.get("breakdown")] + [c.get("breakdown") for c in row.get("candidates", [])]:
        if b:
            b.get("diagnostics", {}).pop("compile", None)
    return row


def _identical_reports(ctx: Ctx, first: str, second: str, records: list[gen.Record], label: str,
                       scores_only: bool = False) -> None:
    """Count the records whose report rows differ as failed; with
    ``scores_only`` the compile diagnostics are left out of the comparison."""
    if first == second:
        return
    a = {r["id"]: r for r in json.loads(first)["records"]}
    b = {r["id"]: r for r in json.loads(second)["records"]}
    if scores_only:
        a = {k: _without_compile_diagnostics(v) for k, v in a.items()}
        b = {k: _without_compile_diagnostics(v) for k, v in b.items()}
        if a == b:
            return
    bad = [rec for rec in records if a.get(rec.id) != b.get(rec.id)] or records[:1]
    for rec in bad:
        ctx.tally.unexpected.append(f"{label}: report differs for {rec.id}")
        ctx.tally.failed += 1


def _first_candidates(records: list[gen.Record]) -> list[gen.Record]:
    """The same records with only their first candidate: a quarter of the
    pairs of a 4-candidate dataset, a third of a 3-candidate one."""
    return [
        dataclasses.replace(rec, candidates=rec.candidates[:1], identity=rec.identity & {0},
                            faults=rec.faults & {0}, expect_compiles=rec.expect_compiles[:1])
        for rec in records
    ]


def _dataset_round(ctx: Ctx, r: int, records: list[gen.Record], compiled: bool) -> None:
    """Pass A (cold on dataset-compile) and its one-candidate copy, pass B
    at ``--jobs`` nproc with a fresh compile cache, and on dataset-compile
    pass C with pass A's cache."""
    small = _first_candidates(records)
    d = ctx.work / f"{'compile' if compiled else 'static'}-{r}"
    d.mkdir()
    full_path, small_path = d / "data.jsonl", d / "small.jsonl"
    full_bytes = _write_dataset(full_path, records)
    small_bytes = _write_dataset(small_path, small)
    pairs = sum(len(rec.candidates) for rec in records)

    def run(path: Path, jobs: int, cache: str, out: str, traced: bool = True) -> tuple[float, str]:
        raw = {"compile": {"cache_dir": str(d / cache)}} if compiled else {"compile_enabled": False}
        cfg = _write_config(d / f"config-{cache}.json", raw)
        out_path = d / out
        argv = ["--config", cfg, "--jobs", str(jobs), "--out", str(out_path), "dataset", str(path)]
        t = ctx.timed(argv, traced=traced, jobs=jobs, sampled=not compiled)
        return t, out_path.read_text()

    t_a, rep_a = run(full_path, 1, "cache-a", "a.json")
    t_s, rep_s = run(small_path, 1, "cache-s", "s.json")
    t_b, rep_b = run(full_path, ctx.jobs_n, "cache-b", "b.json", traced=False)
    passes = [("A", rep_a, records), ("A-small", rep_s, small), ("B", rep_b, records)]
    ctx.add("pairs_per_s", pairs / t_a)
    ctx.add("source_kb_per_s", full_bytes / 1024 / t_a)
    ctx.add("pair_ms_p50", 1000 * t_a / pairs)
    ctx.add("scaling_exponent", _scaling(t_a, t_s, full_bytes, small_bytes))
    ctx.add("pairs_per_s_jobs_n", pairs / t_b)
    if compiled:
        # the warm pass is short, so it runs twice for two samples a round
        for k in range(2):
            t_c, rep_c = run(full_path, 1, "cache-a", f"c{k}.json")
            ctx.add("warm_pairs_per_s", pairs / t_c)
            passes.append((f"C{k}", rep_c, records))
            _identical_reports(ctx, rep_a, rep_c, records, "cold vs warm")
    else:
        ctx.add("warm_pairs_per_s", pairs / t_a)

    for label, text, recs in passes:
        _check_dataset_report(ctx, text, recs, label, compiled)
    _identical_reports(ctx, rep_a, rep_b, records, "jobs 1 vs jobs n", scores_only=compiled)


def dataset_static_round(ctx: Ctx, r: int) -> None:
    n = 4 if ctx.smoke else gen.STATIC_RECORDS
    _dataset_round(ctx, r, gen.static_records(ctx.seed, r, ctx.root / "tests" / "fixtures", n), compiled=False)


def dataset_compile_round(ctx: Ctx, r: int) -> None:
    _dataset_round(ctx, r, gen.compile_records(ctx.seed, r), compiled=True)


# ---------------------------------------------------------------------------
# large-tu


def large_tu_round(ctx: Ctx, r: int) -> None:
    funcs = 2 if ctx.smoke else gen.LARGE_FUNCS
    q_ref, q_cand, f_ref, f_cand = gen.large_pair(ctx.seed, r, funcs=funcs)
    d = ctx.work / f"large-{r}"
    d.mkdir()
    cfg = _write_config(d / "config.json", {"compile_enabled": False})
    paths = {}
    for name, src in (("q_ref", q_ref), ("q_cand", q_cand), ("f_ref", f_ref), ("f_cand", f_cand)):
        paths[name] = d / f"{name}.c"
        paths[name].write_text(src.text)

    def score(ref: str, cand: str, out: str) -> tuple[float, dict]:
        out_path = d / out
        t = ctx.timed(["--config", cfg, "--out", str(out_path), "score", str(paths[ref]), str(paths[cand])])
        return t, json.loads(out_path.read_text())

    nbytes = {k: len(p.read_bytes()) for k, p in paths.items()}
    t_full, full = score("f_ref", "f_cand", "full.json")
    t_q, quarter = score("q_ref", "q_cand", "quarter.json")
    t_id, ident = score("q_ref", "q_ref", "identity.json")
    t_a = t_full + t_q + t_id
    a_bytes = nbytes["f_ref"] + nbytes["f_cand"] + nbytes["q_ref"] + nbytes["q_cand"] + 2 * nbytes["q_ref"]
    ctx.add("pairs_per_s", 3 / t_a)
    ctx.add("source_kb_per_s", a_bytes / 1024 / t_a)
    ctx.add("pair_ms_p50", 1000 * t_full)
    ctx.add("scaling_exponent", _scaling(t_full, t_q, nbytes["f_ref"] + nbytes["f_cand"], nbytes["q_ref"] + nbytes["q_cand"]))

    # `score` takes one pair and ignores --jobs, and no cache outlives it
    ctx.add("pairs_per_s_jobs_n", 3 / t_a)
    ctx.add("warm_pairs_per_s", 3 / t_a)

    expected_wc = gen.expected_wc(q_ref.pragmas, q_cand.pragmas)
    for label, b, identity in (("full", full, False), ("quarter", quarter, False), ("identity", ident, True)):
        problems = set()
        if not _in_range(b):
            problems.add("range")
        if identity and b["composite"] != 100.0:
            problems.add("identity")
        if not identity and b["wc"] != expected_wc:
            problems.add("wc")
        if label == "full" and any(full[k] != quarter[k] for k in REPLICATION_INVARIANT):
            problems.add("replication")
        ctx.tally.op(problems, where=f"{label} r{r}")


# ---------------------------------------------------------------------------
# corpus


CORRUPT_ARGS = ["--step", "4000", "--modes", "mask,shuffle,drop"]


def corpus_round(ctx: Ctx, r: int) -> None:
    n = 2 if ctx.smoke else gen.CORPUS_FILES
    files = gen.corpus_files(ctx.seed, r, ctx.root / "tests" / "fixtures", n)
    d = ctx.work / f"corpus-{r}"
    d.mkdir()
    cfg = _write_config(d / "config.json", {"compile_enabled": False})
    inputs = []  # (path, text, stripped, is_full)
    for k, (quarter, full) in enumerate(files):
        for size, (text, stripped) in (("q", quarter), ("f", full)):
            path = d / f"{k}{size}.c"
            path.write_text(text)
            inputs.append((path, text, stripped, size == "f"))
    base = ["--config", cfg, "--out"]
    corrupt_args = ["--seed", str(ctx.seed * 1000 + r), *CORRUPT_ARGS]

    t_full = t_quarter = 0.0
    outputs = []
    for path, _, _, is_full in inputs:
        outs = [d / f"{path.stem}.{cmd}" for cmd in ("strip", "annotate", "corrupt")]
        t = ctx.timed(base + [str(outs[0]), "strip", str(path)], base + [str(outs[1]), "annotate", str(path)],
                      base + [str(outs[2]), "corrupt", str(path), *corrupt_args])
        outputs.append(tuple(o.read_text() for o in outs))
        if is_full:
            t_full += t
            ctx.add("pair_ms_p50", 1000 * t)
        else:
            t_quarter += t
    t_a = t_full + t_quarter
    total_bytes = sum(len(text.encode()) for _, text, _, _ in inputs)
    full_bytes = sum(len(text.encode()) for _, text, _, f in inputs if f)
    ctx.add("pairs_per_s", len(inputs) / t_a)
    ctx.add("source_kb_per_s", total_bytes / 1024 / t_a)
    ctx.add("scaling_exponent", _scaling(t_full, t_quarter, full_bytes, total_bytes - full_bytes))
    # these commands take one file and ignore --jobs, and no cache outlives them
    ctx.add("pairs_per_s_jobs_n", len(inputs) / t_a)
    ctx.add("warm_pairs_per_s", len(inputs) / t_a)

    # corrupt once more, untimed, on one file per round: same (seed, step), same output
    again = r % len(inputs)
    again_out = d / "again.corrupt"
    ctx.timed(base + [str(again_out), "corrupt", str(inputs[again][0]), *corrupt_args], traced=False)
    for k, ((path, text, stripped, _), (o_strip, o_annotate, o_corrupt)) in enumerate(zip(inputs, outputs)):
        problems = set()
        if parse_source(text).detokenize() != text:
            problems.add("detokenize")
        if o_strip != stripped:
            problems.add("strip")
        ids = o_annotate.strip().split(", ")
        visible = sum(1 for t in parse_source(text).tokens if t.kind != "whitespace")
        if len(ids) != visible or not all(i.isdigit() for i in ids):
            problems.add("annotate")
        if k == again and o_corrupt != again_out.read_text():
            problems.add("corrupt repeat")
        ctx.tally.op(problems, where=f"{path.name} r{r}")


WORKLOADS = {
    "dataset-static": dataset_static_round,
    "large-tu": large_tu_round,
    "dataset-compile": dataset_compile_round,
    "corpus": corpus_round,
}

# the workload's config for the set-up measurement
SETUP_CONFIG = {
    "dataset-static": {"compile_enabled": False},
    "large-tu": {"compile_enabled": False},
    "dataset-compile": {"compile": {"cache_dir": "cache-setup"}},
    "corpus": {"compile_enabled": False},
}


def summarize(ctx: Ctx) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in ctx.samples.items()}
