"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the program is imported from ``src/`` and
the fixtures are read from ``tests/fixtures``.  Scratch files go under
``.perfbench/`` in the checkout and are removed at the end.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The lines before it
record the environment, and per workload the rounds and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

SETUP_REPEATS = 7
WORKLOAD_NAMES = ("dataset-static", "large-tu", "dataset-compile", "corpus")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "ops/s",
    "pairs_per_s_jobs_n": "ops/s",
    "warm_pairs_per_s": "ops/s",
    "source_kb_per_s": "KB/s",
    "pair_ms_p50": "ms",
    "scaling_exponent": "1",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: import the package and build the config,
# vocabularies and backend, and resolve the compiler.  Prints the seconds
# this took at the reference speed (see speed.py), interpreter start-up
# excluded.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[3])
import speed
before = speed.loop_seconds()
with speed.sampling() as samples:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import ompbleu.cli
    from ompbleu.classify import ClauseVocabulary
    from ompbleu.compile_check import resolve_compiler
    from ompbleu.config import load_config
    from ompbleu.pretrain import TagVocabulary
    config = load_config(sys.argv[2])
    ClauseVocabulary.default()
    TagVocabulary.default()
    config.make_backend()
    resolve_compiler(config.compile)
    elapsed = time.perf_counter() - start
print(speed.at_reference(elapsed, [before, speed.loop_seconds(), *samples]))
"""


def measure_setup(work: Path, config: dict, env: dict) -> list[float]:
    cfg = work / "setup-config.json"
    raw = json.loads(json.dumps(config))
    if "compile" in raw:
        raw["compile"]["cache_dir"] = str(work / raw["compile"]["cache_dir"])
    cfg.write_text(json.dumps(raw))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(cfg), str(HERE)],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    from ompbleu.compile_check import CompileConfig, resolve_compiler

    argv = resolve_compiler(CompileConfig())
    version = subprocess.run([*argv, "--version"], capture_output=True, text=True, timeout=60)
    return {
        "python": platform.python_version(),
        "nproc": usable_cpus(),
        "compiler": shutil.which(argv[0]) or argv[0],
        "compiler_version": version.stdout.splitlines()[0] if version.stdout else "",
    }


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_workload(name: str, seed: int, seconds: float, trace_on: bool, smoke: bool, work: Path, env: dict) -> tuple[dict, dict]:
    import workloads  # imports the program, so only once src/ is on the path

    tally = workloads.Tally(name)
    ctx = workloads.Ctx(ROOT, work, seed, usable_cpus(), smoke, tally)
    setup = [] if trace_on else measure_setup(work, workloads.SETUP_CONFIG[name], env)
    tracer = None
    if trace_on:
        tracer = spans.Tracer()
        tracer.install()
        ctx.tracer = tracer
    round_fn = workloads.WORKLOADS[name]
    # whole rounds only; another round starts only if it should end in time
    rounds = []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        if tracer is not None:
            tracer.round = r
        round_start = time.perf_counter()
        round_fn(ctx, r)
        rounds.append(r)
        now = time.perf_counter()
        if smoke or now - start + (now - round_start) > seconds:
            break
    medians = workloads.summarize(ctx)
    info = {"workload": name, "seed": seed, "rounds": len(rounds),
            "samples": {k: len(v) for k, v in ctx.samples.items()},
            "known_fault_failures": tally.known,
            "speed_loop_ms_p50": 1000 * statistics.median(ctx.speed_loops)}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(ROOT / ".perfbench" / f"trace-{name}-seed{seed}.jsonl")
        values = tracer.layer_metrics(rounds)
        values["traced.pairs_per_s"] = medians["pairs_per_s"]
        top = sorted(tracer.self_time_totals().items(), key=lambda kv: -kv[1])[:5]
        info["largest_self_time_s"] = {k: round(v, 4) for k, v in top}
        units = spans.UNITS
    else:
        values = dict(medians)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["samples"]["setup_s"] = len(setup)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for line in tally.unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, one round at its smallest size")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "ompbleu").is_dir() or not FIXTURES.is_dir():
        print(f"error: run from a checkout of the repository ({SRC}/ompbleu and {FIXTURES} are needed)",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    tmp = work / "tmp"
    tmp.mkdir()
    # keep the program's and the compiler's temporary files inside the checkout
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ)
    try:
        print(json.dumps({"environment": environment()}), flush=True)
        names = list(WORKLOAD_NAMES) if args.smoke else [args.workload]
        results = []
        for name in names:
            wdir = work / name
            wdir.mkdir()
            result, info = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, wdir, env)
            results.append(result)
            print(json.dumps(info), flush=True)
        if args.smoke:
            result = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {},
            }
        print(json.dumps(result), flush=True)
        return 1 if args.smoke and not result["correct"] else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
