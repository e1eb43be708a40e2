"""The differential script prints the same lines from any working directory."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent / "differential.py"


def _lines(cwd: Path) -> list[str]:
    argv = [sys.executable, str(SCRIPT), "--seeds", "3", "--rounds", "1"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _command(line: str) -> str:
    """The command of a line: after its tag and any `--jobs N --emit F`."""
    words = line.split()[1:]
    return words[4] if words[0] == "--jobs" else words[0]


def test_two_runs_print_the_same_lines(tmp_path):
    first, second = _lines(SCRIPT.parent.parent), _lines(tmp_path)
    assert first == second
    commands = {_command(line) for line in first}
    assert commands == {"score", "rank", "dataset", "classify", "strip", "annotate", "corrupt"}
    assert {line.split()[0] for line in first} == {"fixtures", "seed3-r0"}
