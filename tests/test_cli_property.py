"""A property of the whole CLI (Hypothesis, MacIver et al., JOSS 4(43),
2019): every command, run in process through `cli.main` on drawn inputs,
exits 0, 1 or 2, writes no traceback, and prints the same bytes when run
twice.

The inputs are pragma and bracket soups, bytes that are not UTF-8, JSONL
lines drawn from the record table, and config files drawn from the key
tables.  The configs keep to what runs offline and harms nothing: the
bag-of-tokens backend (a remote one would call out), gcc or the default
compiler lookup with a few fixed flags, and a compile timeout long enough
that no run times out.  The compile check is on in about one config in
ten; the `compile-check` command compiles under any config.
"""

import contextlib
import io
import json
import shutil
from importlib import resources

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ompbleu import config
from ompbleu.cli import main

from conftest import (
    CONFIG_DRAWS,
    WRONG_JSON,
    bracket_soups,
    config_files,
    pragma_soups,
    record_lines,
)


def one_in(n: int) -> st.SearchStrategy[bool]:
    """True in about one draw in ``n``.  Hypothesis draws the ends of a
    range more often than the rest, so the rare value is one in the middle."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


SOURCES = st.one_of(pragma_soups(), bracket_soups)
# ends in a byte that no UTF-8 text holds
NOT_UTF8 = st.binary(max_size=24).map(lambda b: b + b"\xff")
# one file in five is not UTF-8
FILES = one_in(5).flatmap(lambda rare: NOT_UTF8 if rare else SOURCES.map(str.encode))

PACKAGED = str(resources.files("ompbleu.data") / "clause_vocabulary.txt")
VOCABULARIES = st.sampled_from([None, PACKAGED, "no-such-vocabulary.txt"])
CLI_DRAWS = {
    **CONFIG_DRAWS,
    "backend": {**CONFIG_DRAWS["backend"], "kind": st.just("bag_of_tokens")},
    "compile": {
        **CONFIG_DRAWS["compile"],
        "command": st.sampled_from([None, ["gcc"]]),
        "extra_flags": st.lists(st.sampled_from(["-w", "-Wall", "-O1", "-DN=4"]), max_size=2),
        "timeout": st.just(60),
    },
    "compile_enabled": one_in(10),
    "clause_vocabulary": VOCABULARIES,
    "tag_vocabulary": VOCABULARIES,
}


@st.composite
def config_bytes(draw) -> bytes:
    """A config file from the key tables; now and then one root key holds a
    value of another JSON type, or the file is not JSON or not UTF-8."""
    # the compile check stays off unless the draw turns it on
    raw = {"compile_enabled": False, **draw(config_files(CLI_DRAWS))}
    if draw(one_in(10)):
        raw[draw(st.sampled_from(sorted(config._ROOT_KEYS)))] = draw(WRONG_JSON)
    if draw(one_in(20)):
        return draw(st.sampled_from([b"{", b"[]", b"\xff{}"]))
    return json.dumps(raw).encode()


COMMANDS = [
    "score", "rank", "dataset", "classify", "strip", "annotate", "corrupt", "compile-check"
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _without_timing(stdout: str) -> str:
    """`compile-check` output less the two fields that tell how this run
    went, not what the unit is: its duration, and whether the result came
    from the cache, as the second run's always does."""
    try:
        result = json.loads(stdout)
    except ValueError:
        return stdout
    return json.dumps({k: v for k, v in result.items() if k not in ("duration", "cached")})


@given(
    command=st.sampled_from(COMMANDS),
    files=st.lists(FILES, min_size=3, max_size=3),
    suffix=st.sampled_from([".c", ".cpp", ".h"]),
    lines=st.lists(record_lines(SOURCES), max_size=4),
    dataset_not_utf8=one_in(10),
    dirs=st.booleans(),
    cfg=config_bytes(),
    jobs=st.sampled_from(["1", "2"]),
    # only `dataset` and `classify` take another format than json
    emit=st.sampled_from(["json", "json", "json", "json", "csv", "table"]),
    corrupt=st.tuples(
        st.integers(0, 2**16),
        st.integers(-1, 5),
        st.sampled_from(["mask", "mask,shuffle,drop", "keyword_drop,lang_token_insert", "x", ""]),
    ),
)
@settings(max_examples=250, deadline=None)
def test_every_command_exits_cleanly_and_deterministically(
    workdir, command, files, suffix, lines, dataset_not_utf8, dirs, cfg, jobs, emit, corrupt
):
    shutil.rmtree(workdir)
    (workdir / "pairs" / "ref").mkdir(parents=True)
    (workdir / "pairs" / "gen").mkdir()
    ref, gen, gen2 = (workdir / f"{name}{suffix}" for name in ("ref", "gen", "gen2"))
    for path, data in zip((ref, gen, gen2), files):
        path.write_bytes(data)
    (workdir / "pairs" / "ref" / f"a{suffix}").write_bytes(files[0])
    (workdir / "pairs" / "gen" / f"a{suffix}").write_bytes(files[1])
    dataset = workdir / "data.jsonl"
    dataset.write_bytes("\n".join(lines).encode() + (b"\xff" if dataset_not_utf8 else b""))
    (workdir / "config.json").write_bytes(cfg)

    seed, step, modes = corrupt
    data = ["--format", "dirs", str(workdir / "pairs")] if dirs else [str(dataset)]
    args = {
        "score": [str(ref), str(gen)],
        "rank": [str(ref), str(gen), str(gen2)],
        "dataset": data,
        "classify": data,
        "strip": [str(ref)],
        "annotate": [str(workdir / "pairs") if dirs else str(ref)],
        "corrupt": [str(ref), "--seed", str(seed), "--step", str(step), "--modes", modes],
        "compile-check": [str(ref)],
    }[command]
    argv = ["--config", str(workdir / "config.json"), "--jobs", jobs, "--emit", emit, command]
    argv += args

    first = _run(argv)
    code, stdout, stderr = first
    assert code in (0, 1, 2), first
    event(f"{command} exits {code}")
    assert "Traceback" not in stderr
    second = _run(argv)
    if command == "compile-check":
        first, second = [(c, _without_timing(out), err) for c, out, err in (first, second)]
    assert second == first
