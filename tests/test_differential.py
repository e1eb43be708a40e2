"""The differential script prints the same lines from any working directory,
and the lines pinned in ``differential.txt``."""

import subprocess
import sys
from pathlib import Path

import pytest

import differential

SCRIPT = Path(__file__).parent / "differential.py"
PINNED = SCRIPT.parent / "differential.txt"
PINNED_INPUTS = SCRIPT.parent / "differential_inputs.txt"
SEEDS, ROUNDS = [3], 1
REPIN = f"python tests/differential.py --seeds 3 --rounds 1 > {PINNED.name}"


def _lines(cwd: Path) -> list[str]:
    argv = [sys.executable, str(SCRIPT), "--seeds", *map(str, SEEDS), "--rounds", str(ROUNDS)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def lines_from_the_root() -> list[str]:
    return _lines(SCRIPT.parent.parent)


def _command(line: str) -> str:
    """The command of a line: after its tag and any `--jobs N --emit F`."""
    words = line.split()[1:]
    return words[4] if words[0] == "--jobs" else words[0]


def test_two_runs_print_the_same_lines(lines_from_the_root, tmp_path):
    first, second = lines_from_the_root, _lines(tmp_path)
    assert first == second
    commands = {_command(line) for line in first}
    assert commands == {"score", "rank", "dataset", "classify", "strip", "annotate", "corrupt"}
    assert {line.split()[0] for line in first} == {"fixtures", "seed3-r0"}


def test_every_command_prints_the_pinned_output(lines_from_the_root):
    # the inputs first, so that a change of the generator or the fixtures
    # is not read as a change of the program's output
    digest = differential.input_digest(SEEDS, ROUNDS)
    assert digest == PINNED_INPUTS.read_text().strip(), (
        "the inputs changed (perfbench/gen.py or tests/fixtures): if that is meant, "
        f"write {digest} to {PINNED_INPUTS.name} and re-pin the outputs: {REPIN}"
    )
    pinned = PINNED.read_text().splitlines()
    moved = [line for line in lines_from_the_root if line not in pinned]
    assert lines_from_the_root == pinned, (
        f"{len(moved)} runs print other output than pinned, the first: {moved[:3]}; "
        f"if that is meant, re-pin: {REPIN}"
    )
