"""Print one line per command-line run: a label, then a SHA-256 of the run's
exit code, standard output and standard error.

The runs go through ``ompbleu.cli.main`` in this process, with the compile
check off, on the test fixtures and on the benchmark generator's inputs
(``perfbench/gen.py``) for each seed and round:

- ``score`` of each candidate against its reference, and ``rank`` of each
  reference's candidates;
- ``dataset`` at every ``--emit`` and ``classify`` at each of its, at
  ``--jobs`` 1 and 2;
- ``strip``, ``annotate`` and ``corrupt`` of each source file.

The program and the generator are those of the checkout this file lies in.
The inputs are written under a temporary directory and named by paths
relative to it, so two checkouts print lines that compare line by line::

    python tests/differential.py --seeds 31 37 --rounds 3 > new.txt
    python ../parent/tests/differential.py --seeds 31 37 --rounds 3 > old.txt
    diff old.txt new.txt

The test suite does not collect this file.  ``test_differential.py`` runs
it, and compares the lines of seed 3's round 0 with ``differential.txt``
and the digest of their inputs (:func:`input_digest`) with
``differential_inputs.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

from ompbleu.cli import main as cli_main  # noqa: E402

CONFIG = "config.json"
SUFFIX = {"c": ".c", "cpp": ".cpp"}
CORRUPT_MODES = "mask,shuffle,drop,keyword_drop,lang_token_insert"


def _generator():
    spec = importlib.util.spec_from_file_location("differential_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def run(argv: list[str]) -> str:
    """The SHA-256 of one run's exit code, standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(["--config", CONFIG, *argv])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def _write(path: str, text: str) -> str:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    return path


def _commands(pairs: dict[str, list[str]], dataset: str, files: list[str]) -> Iterator[list[str]]:
    """The runs on one set of inputs: ``pairs`` maps each reference file to
    its candidate files, ``dataset`` is a JSONL file and ``files`` are the
    sources to strip, annotate and corrupt."""
    for reference, candidates in pairs.items():
        for candidate in candidates:
            yield ["score", reference, candidate]
        yield ["rank", reference, *candidates]
    for jobs in ("1", "2"):
        for emit in ("json", "csv", "table"):
            yield ["--jobs", jobs, "--emit", emit, "dataset", dataset]
        for emit in ("json", "csv"):
            yield ["--jobs", jobs, "--emit", emit, "classify", dataset]
    for path in files:
        yield ["strip", path]
        yield ["annotate", path]
        yield ["corrupt", path, "--seed", "7", "--step", "5000", "--modes", CORRUPT_MODES]


def _fixture_inputs() -> tuple[dict[str, list[str]], str, list[str]]:
    names = sorted(p.name for p in FIXTURES.glob("*.c"))
    files = [_write(f"fixtures/{name}", (FIXTURES / name).read_text()) for name in names]
    pairs = {path: files for path in files}  # every ordered pair, and each reference's rank
    records = [
        {"id": name, "reference": Path(path).read_text(), "candidates": [Path(p).read_text() for p in files]}
        for name, path in zip(names, files)
    ]
    dataset = _write("fixtures.jsonl", "".join(json.dumps(r) + "\n" for r in records))
    return pairs, dataset, files


def _generated_inputs(gen, seed: int, r: int) -> tuple[dict[str, list[str]], str, list[str]]:
    tag = f"seed{seed}-r{r}"
    records = [*gen.static_records(seed, r, FIXTURES), *gen.compile_records(seed, r)]
    pairs: dict[str, list[str]] = {}
    for k, record in enumerate(records):
        suffix = SUFFIX.get(record.language, ".c")
        reference = _write(f"{tag}/rec{k}/ref{suffix}", record.reference.text)
        pairs[reference] = [
            _write(f"{tag}/rec{k}/cand{j}{suffix}", c.text) for j, c in enumerate(record.candidates)
        ]
    q_ref, q_cand, f_ref, f_cand = (
        _write(f"{tag}/large/{name}.c", source.text)
        for name, source in zip(("q_ref", "q_cand", "f_ref", "f_cand"), gen.large_pair(seed, r))
    )
    pairs[q_ref] = [q_cand, q_ref]
    pairs[f_ref] = [f_cand]
    dataset = _write(f"{tag}/data.jsonl", "".join(json.dumps(rec.as_json()) + "\n" for rec in records))
    files = [path for reference, candidates in pairs.items() for path in (reference, *candidates)]
    for k, (quarter, full) in enumerate(gen.corpus_files(seed, r, FIXTURES)):
        files += [_write(f"{tag}/corpus/q{k}.c", quarter[0]), _write(f"{tag}/corpus/f{k}.c", full[0])]
    return pairs, dataset, list(dict.fromkeys(files))


@contextlib.contextmanager
def _inputs(seeds: list[int], rounds: int) -> Iterator[list[tuple[str, Callable]]]:
    """Work in a new temporary directory that holds the config file, and
    give the tag of each set of inputs with the function that writes them
    there: the fixtures, then rounds ``0 .. rounds - 1`` of each seed."""
    gen = _generator()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path(CONFIG).write_text(json.dumps({"compile_enabled": False}))
            yield [("fixtures", _fixture_inputs)] + [
                (f"seed{seed}-r{r}", lambda seed=seed, r=r: _generated_inputs(gen, seed, r))
                for seed in seeds
                for r in range(rounds)
            ]
        finally:
            os.chdir(here)


def lines(seeds: list[int], rounds: int) -> Iterator[str]:
    """One line per run, in a fixed order, for the fixtures and for rounds
    ``0 .. rounds - 1`` of each seed."""
    with _inputs(seeds, rounds) as inputs:
        for tag, make in inputs:
            for argv in _commands(*make()):
                yield f"{tag} {' '.join(argv)} {run(argv)}"


def input_digest(seeds: list[int], rounds: int) -> str:
    """A SHA-256 of every file that :func:`lines` runs on, each one's
    relative path and text, so that a change of inputs can be told from a
    change of outputs."""
    with _inputs(seeds, rounds) as inputs:
        for _, make in inputs:
            make()
        digest = hashlib.sha256()
        for path in sorted(Path().rglob("*")):
            if path.is_file():
                digest.update(f"{path.as_posix()}\0{path.read_text()}\0".encode())
        return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[31, 37], help="generator seeds")
    parser.add_argument("--rounds", type=int, default=3, help="rounds per seed, from 0")
    args = parser.parse_args(argv)
    for line in lines(args.seeds, args.rounds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
